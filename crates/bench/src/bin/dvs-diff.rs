//! `dvs-diff` — differential and metamorphic correctness sweep.
//!
//! Runs all four paired-run oracle families and all three metamorphic
//! sweeps from `dvs-diff` (the crate) over bench10 and the requested
//! voltage points:
//!
//! * clean-map equivalence, at stream level (one synthetic stream per
//!   benchmark) and end-to-end through the evaluator at 760 mV;
//! * SA/DM mode agreement (BBR vs one-way conventional, plus the
//!   `CacheCore` mode round-trip freshness check);
//! * persistence identity (a two-voltage sweep run plain vs
//!   store-backed vs store-reloaded vs size-capped — eviction mid-sweep
//!   and a rerun over the evicted store — vs recorder-on vs
//!   arena-disabled);
//! * Wilkerson capacity halving;
//! * packed-vs-reference equivalence of the word-packed hot-path queries
//!   (popcounts, per-frame fault masks, word-chunked occupancy scans);
//! * voltage monotonicity of word misses over the requested sweep,
//!   window-growth containment, and miss-stability under fault addition.
//!
//! Any divergence is shrunk to a minimal reproducer and rendered into
//! the diagnostic as a ready-to-paste `#[test]`.
//!
//! Exit codes: `0` all oracles clean, `1` at least one deny-severity
//! finding, `2` usage error.

use std::process::ExitCode;

use dvs_analysis::{has_deny, LintMeta, Report};
use dvs_bench::cli::{self, Args, Stop};
use dvs_diff::{metamorphic, oracles};
use dvs_sram::FaultModel;
use dvs_workloads::Benchmark;

/// Versioned schema tag of the `--json` envelope.
const DIFF_SCHEMA: &str = "dvs-diff/1";

/// Every `diff/*` lint the sweep runs, for the envelope's lint table.
/// Only a failed clean-map precondition is a warning.
const LINTS: [LintMeta; 10] = [
    deny(oracles::LINT_CLEAN_MAP),
    LintMeta {
        name: oracles::LINT_HYPOTHESIS,
        level: "warn",
    },
    deny(oracles::LINT_SA_DM),
    deny(oracles::LINT_HALVING),
    deny(oracles::LINT_PERSISTENCE),
    deny(oracles::LINT_PACKED),
    deny(metamorphic::LINT_VOLTAGE),
    deny(metamorphic::LINT_NESTED),
    deny(metamorphic::LINT_WINDOW),
    deny(metamorphic::LINT_FAULT_ADD),
];

const fn deny(name: &'static str) -> LintMeta {
    LintMeta {
        name,
        level: "deny",
    }
}

struct Options {
    voltages: Vec<u32>,
    benchmarks: Vec<Benchmark>,
    models: Vec<FaultModel>,
    seed: u64,
    stream_len: usize,
    store_max_bytes: u64,
    json: bool,
    inject_divergence: bool,
}

const USAGE: &str = "usage: dvs-diff [options]
  --voltages LIST   comma-separated mV points for the monotonicity sweep,
                    300-1000 (default 760,600,480,400)
  --benchmarks LIST comma-separated benchmark names (default: all ten)
  --models LIST     comma-separated fault models for the model-dependent
                    families (iid, rowcol, clustered; default: all three)
  --seed N          base seed for streams and fault maps (default 0)
  --stream-len N    accesses per synthetic stream (default 2000)
  --store-max-bytes N
                    store size cap for the capped persistence variants
                    (default 1: evict after every save)
  --json            emit one dvs-diff/1 JSON document instead of text
  --inject-divergence
                    plant a fault under word-disable and diff it against
                    the clean run (self-test: the harness must flag it,
                    shrink it, and exit 1)
  --help            print this help";

fn parse_args(mut args: Args) -> Result<Options, Stop> {
    let mut opts = Options {
        voltages: vec![760, 600, 480, 400],
        benchmarks: Benchmark::ALL.to_vec(),
        models: FaultModel::ALL.to_vec(),
        seed: 0,
        stream_len: 2_000,
        // One byte evicts after every save: maximal eviction churn for
        // the persistence-identity family.
        store_max_bytes: 1,
        json: false,
        inject_divergence: false,
    };
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--voltages" => opts.voltages = args.value(&flag, cli::voltages)?,
            "--benchmarks" => opts.benchmarks = args.value(&flag, cli::benchmarks)?,
            "--models" => opts.models = args.value(&flag, cli::models)?,
            "--seed" => opts.seed = args.int(&flag)?,
            "--stream-len" => opts.stream_len = args.count(&flag)?,
            "--store-max-bytes" => opts.store_max_bytes = args.int(&flag)?,
            "--json" => opts.json = true,
            "--inject-divergence" => opts.inject_divergence = true,
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Vec<Report> {
    let mut reports = Vec::new();

    // Stream-level families, one seed (and therefore one synthetic
    // stream) per benchmark so the sweep covers ten distinct streams.
    for (i, bench) in opts.benchmarks.iter().enumerate() {
        let seed = opts.seed.wrapping_add(i as u64);
        reports.push(Report::new(
            format!("{}@clean-map/seed{seed}", bench.name()),
            oracles::clean_map_equivalence(seed, opts.stream_len),
        ));
        reports.push(Report::new(
            format!("{}@sa-dm/seed{seed}", bench.name()),
            oracles::sa_dm_equivalence(seed, opts.stream_len),
        ));
        reports.push(Report::new(
            format!("{}@capacity-halving/seed{seed}", bench.name()),
            oracles::wilkerson_halving(seed, opts.stream_len),
        ));
        reports.push(Report::new(
            format!("{}@fault-addition/seed{seed}", bench.name()),
            metamorphic::fault_addition(seed, opts.stream_len),
        ));
        for &model in &opts.models {
            reports.push(Report::new(
                format!(
                    "{}@voltage-monotone/{}/seed{seed}",
                    bench.name(),
                    model.name()
                ),
                metamorphic::voltage_monotonicity(seed, &opts.voltages, opts.stream_len, model),
            ));
        }
    }

    // Geometry-exhaustive window containment, once.
    reports.push(Report::new(
        "ffw@window-growth".to_string(),
        metamorphic::window_growth(),
    ));

    // Packed-vs-reference: the word-packed hot-path queries against
    // their retained per-bit references, on maps drawn down the ladder
    // under each requested fault model.
    for &model in &opts.models {
        reports.push(Report::new(
            format!(
                "hotpath@packed-reference/{}/seed{}",
                model.name(),
                opts.seed
            ),
            oracles::packed_reference_equivalence(opts.seed, &opts.voltages, model),
        ));
    }

    // End-to-end families through the evaluator: clean equivalence at
    // 760 mV over the real bench10 workloads (once per fault model — a
    // yield-clean point must be clean under every injection backend),
    // and persistence identity for the first requested benchmark.
    for &model in &opts.models {
        reports.push(Report::new(
            format!("evaluator@clean-760mV/{}", model.name()),
            oracles::evaluator_clean_equivalence(&opts.benchmarks, opts.seed, model),
        ));
    }
    reports.push(Report::new(
        format!("evaluator@persistence/{}", opts.benchmarks[0].name()),
        oracles::persistence_identity(
            opts.benchmarks[0],
            opts.seed,
            opts.models[0],
            Some(opts.store_max_bytes),
        ),
    ));

    if opts.inject_divergence {
        reports.push(Report::new(
            "self-test@injected-divergence".to_string(),
            oracles::injected_divergence(),
        ));
    }
    reports
}

fn main() -> ExitCode {
    cli::main("dvs-diff", USAGE, parse_args, |opts| {
        let reports = run(&opts);
        cli::print_reports(opts.json, DIFF_SCHEMA, &LINTS, &reports);
        if reports.iter().any(|r| has_deny(&r.diagnostics)) {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    })
}
