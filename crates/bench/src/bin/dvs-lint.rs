//! `dvs-lint` — static verification sweep over linked BBR images.
//!
//! For every requested benchmark × voltage × fault-map seed, the tool
//! transforms the benchmark's program, links it against a sampled fault
//! map, and runs the full `dvs-analysis` lint registry over the result.
//! Maps the linker cannot place (expected at deep voltage) are reported
//! as warnings, not failures — the lints judge *successful* links only.
//!
//! Exit codes: `0` all lints clean, `1` at least one deny-severity
//! finding, `2` usage error.

use std::process::ExitCode;

use dvs_analysis::{analyze_placement, has_deny, LintRegistry, Report};
use dvs_bench::cli::{self, Args, Stop};
use dvs_linker::{adaptive_max_block_words, bbr_transform, BbrLinker, Diagnostic, Location};
use dvs_sram::{CacheGeometry, FaultMap, MilliVolts, PfailModel};
use dvs_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Options {
    voltages: Vec<u32>,
    benchmarks: Vec<Benchmark>,
    maps: u64,
    seed: u64,
    json: bool,
    inject_misplacement: bool,
}

const USAGE: &str = "usage: dvs-lint [options]
  --voltages LIST   comma-separated mV points, 300-1000 (default 480,440,400)
  --benchmarks LIST comma-separated benchmark names (default: all ten)
  --maps N          fault maps sampled per voltage (default 3)
  --seed N          base RNG seed for fault-map sampling (default 0)
  --json            emit one dvs-lint/1 JSON document instead of text
  --inject-misplacement
                    corrupt one placement per image (self-test: lints
                    must report it and the exit code must be 1)
  --help            print this help";

fn parse_args(mut args: Args) -> Result<Options, Stop> {
    let mut opts = Options {
        voltages: vec![480, 440, 400],
        benchmarks: Benchmark::ALL.to_vec(),
        maps: 3,
        seed: 0,
        json: false,
        inject_misplacement: false,
    };
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--voltages" => opts.voltages = args.value(&flag, cli::voltages)?,
            "--benchmarks" => opts.benchmarks = args.value(&flag, cli::benchmarks)?,
            "--maps" => opts.maps = args.count(&flag)?,
            "--seed" => opts.seed = args.int(&flag)?,
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
    let mut reports = Vec::new();
    for bench in &opts.benchmarks {
        let wl = bench.build(opts.seed);
        for &mv in &opts.voltages {
            let p_word = model.pfail_word(MilliVolts::new(mv));
            let transformed = bbr_transform(wl.program(), adaptive_max_block_words(p_word));
            for map in 0..opts.maps {
                let subject = format!("{}@{mv}mV/map{map}", bench.name());
                let map_seed = opts
                    .seed
                    .wrapping_add(map)
                    .wrapping_add(u64::from(mv) << 32);
                let fmap = FaultMap::sample(&geom, p_word, &mut StdRng::seed_from_u64(map_seed));
                let diagnostics = match BbrLinker::new(geom).link(&transformed, &fmap) {
                    Ok(image) => {
                        let (program, layout) = image.into_parts();
                        let layout = if opts.inject_misplacement {
                            cli::corrupt_layout(&layout, &fmap, program.functions().len())
                        } else {
                            layout
                        };
                        analyze_placement(&program, &layout, &fmap, Some(wl.program()))
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
    reports
}

fn main() -> ExitCode {
    cli::main("dvs-lint", USAGE, parse_args, |opts| {
        let reports = run(&opts);
        // The registry's lint table rides along in the JSON envelope so
        // CI can assert coverage, not just findings.
        let lints = cli::lint_metas(&LintRegistry::standard());
        cli::print_reports(opts.json, "dvs-lint/1", &lints, &reports);
        if reports.iter().any(|r| has_deny(&r.diagnostics)) {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    })
}
