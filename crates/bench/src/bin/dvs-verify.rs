//! `dvs-verify` — dataflow fault-safety proofs and bounded model
//! checking over linked images.
//!
//! Where `dvs-lint` runs the full lint registry over independently
//! sampled fault maps, `dvs-verify` runs the *verification* passes
//! (`verify/fault-reach`, `verify/value-range`, `verify/remap-liveness`)
//! down the incremental [`FaultChain`] voltage ladder: one chain per map
//! seed, advanced monotonically from 760 mV to the deepest requested
//! point, re-linking and re-proving each benchmark at every requested
//! rung. The fault sets nest by construction, so a proof failing at a
//! lower rung but passing above it localises the voltage where an image
//! first becomes unsafe.
//!
//! With `--bounded-depth N` (default 4, `0` disables) the bounded model
//! checker additionally proves the scheme state machines' LRU-stack,
//! inclusion and clean-map-equivalence invariants over every access
//! sequence to depth `N` on a tiny geometry (`verify/bounded-model`).
//!
//! Exit codes: `0` everything proven, `1` warn-level findings only, `2`
//! at least one deny-severity finding or a usage error.

use std::process::ExitCode;

use dvs_analysis::{AnalysisInput, LintMeta, LintRegistry, Report, Severity};
use dvs_bench::cli::{self, chain_rungs, Args, Stop};
use dvs_diff::bounded_suite;
use dvs_linker::{adaptive_max_block_words, bbr_transform, BbrLinker, Diagnostic, Location};
use dvs_sram::{CacheGeometry, FaultChain, FaultModel, MilliVolts, PfailModel};
use dvs_workloads::Benchmark;

/// Versioned schema tag of the `--json` envelope.
const VERIFY_SCHEMA: &str = "dvs-verify/1";

struct Options {
    voltages: Vec<u32>,
    benchmarks: Vec<Benchmark>,
    maps: u64,
    seed: u64,
    model: FaultModel,
    json: bool,
    inject_misplacement: bool,
    bounded_depth: usize,
}

const USAGE: &str = "usage: dvs-verify [options]
  --voltages LIST   comma-separated mV points, 300-1000
                    (default 760,600,480,400)
  --benchmarks LIST comma-separated benchmark names (default: all ten)
  --maps N          fault chains grown per benchmark (default 2)
  --seed N          base RNG seed for the fault chains (default 0)
  --model NAME      fault model the chains sample under: iid, rowcol or
                    clustered (default iid)
  --bounded-depth N bounded model-checking depth, 0 to skip (default 4)
  --json            emit one dvs-verify/1 JSON document instead of text
  --inject-misplacement
                    corrupt one placement per image (self-test: the
                    fault-reachability proof must fail and the exit
                    code must be 2)
  --help            print this help";

fn parse_args(mut args: Args) -> Result<Options, Stop> {
    let mut opts = Options {
        voltages: vec![760, 600, 480, 400],
        benchmarks: Benchmark::ALL.to_vec(),
        maps: 2,
        seed: 0,
        model: FaultModel::Iid,
        json: false,
        inject_misplacement: false,
        bounded_depth: 4,
    };
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--voltages" => opts.voltages = args.value(&flag, cli::voltages)?,
            "--benchmarks" => opts.benchmarks = args.value(&flag, cli::benchmarks)?,
            "--maps" => opts.maps = args.count(&flag)?,
            "--seed" => opts.seed = args.int(&flag)?,
            "--model" => opts.model = args.value(&flag, cli::model)?,
            "--bounded-depth" => opts.bounded_depth = args.int(&flag)?,
            "--json" => opts.json = true,
            "--inject-misplacement" => opts.inject_misplacement = true,
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Vec<Report> {
    let geom = CacheGeometry::dsn_l1();
    let model = PfailModel::dsn45();
    let registry = LintRegistry::verification();
    let rungs = chain_rungs(&opts.voltages);
    let mut reports = Vec::new();
    for bench in &opts.benchmarks {
        let wl = bench.build(opts.seed);
        for map in 0..opts.maps {
            let chain_seed = opts.seed.wrapping_add(map).wrapping_mul(0x9E37_79B9);
            let mut chain = FaultChain::with_model(&geom, chain_seed, opts.model);
            for &mv in &rungs {
                let p_word = model.pfail_word(MilliVolts::new(mv));
                chain.advance_to(p_word);
                if !opts.voltages.contains(&mv) {
                    continue;
                }
                let subject = format!("{}@{mv}mV/chain{map}", bench.name());
                let fmap = chain.map();
                let transformed = bbr_transform(wl.program(), adaptive_max_block_words(p_word));
                let diagnostics = match BbrLinker::new(geom).link(&transformed, fmap) {
                    Ok(image) => {
                        let (program, layout) = image.into_parts();
                        let layout = if opts.inject_misplacement {
                            cli::corrupt_layout(&layout, fmap, program.functions().len())
                        } else {
                            layout
                        };
                        registry.run(&AnalysisInput {
                            program: &program,
                            layout: &layout,
                            fmap,
                            original: Some(wl.program()),
                        })
                    }
                    Err(e) => vec![Diagnostic::warn(
                        "link-failure",
                        Location::Image,
                        format!("linker gave up at {mv} mV: {e}"),
                    )],
                };
                reports.push(Report::new(subject, diagnostics));
            }
        }
    }
    if opts.bounded_depth > 0 {
        reports.push(Report::new(
            format!("schemes@bounded/depth{}", opts.bounded_depth),
            bounded_suite(opts.bounded_depth),
        ));
    }
    reports
}

fn lint_metas(opts: &Options) -> Vec<LintMeta> {
    let mut metas = cli::lint_metas(&LintRegistry::verification());
    if opts.bounded_depth > 0 {
        metas.push(LintMeta {
            name: dvs_linker::lint_ids::VERIFY_BOUNDED_MODEL,
            level: Severity::Deny.name(),
        });
    }
    metas
}

fn main() -> ExitCode {
    cli::main("dvs-verify", USAGE, parse_args, |opts| {
        let reports = run(&opts);
        cli::print_reports(opts.json, VERIFY_SCHEMA, &lint_metas(&opts), &reports);
        if reports.iter().any(|r| r.deny_count() > 0) {
            ExitCode::from(2)
        } else if reports.iter().any(|r| r.warn_count() > 0) {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    })
}
