//! `dvs-profile` — per-subsystem observability profile of the Monte-Carlo
//! pipeline across the DVFS sweep.
//!
//! For each operating point the tool runs the selected benchmarks under
//! one scheme with a metrics recorder attached (plus a BIST pass at that
//! point's failure rate) and prints a per-subsystem breakdown table, or
//! the full metrics as JSON with `--json`.

use std::path::PathBuf;
use std::process::ExitCode;

use dvs_bench::baseline::{Baseline, DEFAULT_BASELINE_PATH, DEFAULT_TOLERANCE};
use dvs_bench::cli::{self, Args, Stop};
use dvs_bench::profile::{run_profile, ProfileOptions};
use dvs_sram::MilliVolts;

const USAGE: &str = "usage: dvs-profile [options]
  --benchmarks LIST  comma-separated benchmark names (default: all ten)
  --voltages LIST    comma-separated operating points in mV, 300-1000
                     (default: 760,560,520,480,440,400)
  --maps N           fault maps per cell
  --trace-instrs N   dynamic instructions per trial
  --seed N           root seed
  --threads N        worker threads
  --json             emit machine-readable JSON instead of the table
  --no-timings       omit volatile wall-clock sections from the JSON
  --selfcheck        validate the JSON rendering before printing
  --bless-baseline   write the sweep's trials/sec to the baseline file
  --check-baseline   compare against the baseline file; exit 1 on a
                     >10% throughput regression (best of three sweeps)
                     or a config mismatch
  --baseline-path P  baseline file location (default BENCH_baseline.json)
  -h, --help         this text

Exit codes: 0 success, 1 self-check, baseline or write failure, 2 usage
error.";

/// Profile options plus the binary-only baseline flags.
struct CliOptions {
    profile: ProfileOptions,
    bless_baseline: bool,
    check_baseline: bool,
    baseline_path: PathBuf,
}

fn parse(mut args: Args) -> Result<CliOptions, Stop> {
    let mut opts = ProfileOptions::default();
    let mut bless_baseline = false;
    let mut check_baseline = false;
    let mut baseline_path = PathBuf::from(DEFAULT_BASELINE_PATH);
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--benchmarks" => opts.benchmarks = args.value(&flag, cli::benchmarks)?,
            "--voltages" => {
                let mv = args.value(&flag, cli::voltages)?;
                opts.voltages = mv.into_iter().map(MilliVolts::new).collect();
            }
            // Zero maps is accepted here: it profiles set-up alone.
            "--maps" => opts.cfg.maps = args.int(&flag)?,
            "--trace-instrs" => opts.cfg.trace_instrs = args.int(&flag)?,
            "--seed" => opts.cfg.seed = args.int(&flag)?,
            "--threads" => opts.cfg.threads = args.int(&flag)?,
            "--json" => opts.json = true,
            "--no-timings" => opts.include_timings = false,
            "--selfcheck" => opts.selfcheck = true,
            "--bless-baseline" => bless_baseline = true,
            "--check-baseline" => check_baseline = true,
            "--baseline-path" => baseline_path = args.value(&flag, |p| Ok(PathBuf::from(p)))?,
            other => return Err(cli::unknown(other)),
        }
    }
    if bless_baseline && check_baseline {
        return Err(Stop::Usage(
            "--bless-baseline and --check-baseline are mutually exclusive".into(),
        ));
    }
    Ok(CliOptions {
        profile: opts,
        bless_baseline,
        check_baseline,
        baseline_path,
    })
}

fn main() -> ExitCode {
    cli::main("dvs-profile", USAGE, parse, |cli| run(&cli))
}

fn run(cli: &CliOptions) -> ExitCode {
    let opts = &cli.profile;
    eprintln!(
        "profiling {} benchmarks x {} voltages x {} maps ({} instrs/trial)...",
        opts.benchmarks.len(),
        opts.voltages.len(),
        opts.cfg.maps,
        opts.cfg.trace_instrs
    );
    let report = run_profile(opts);
    if opts.selfcheck {
        if let Err(e) = report.validate() {
            eprintln!("error: self-check failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("self-check passed");
    }
    if opts.json {
        println!("{}", report.to_json(opts.include_timings));
    } else {
        print!("{}", report.to_text());
    }
    if cli.bless_baseline {
        let baseline = Baseline::from_report(&report);
        if let Err(e) = std::fs::write(&cli.baseline_path, format!("{}\n", baseline.to_json())) {
            eprintln!("error: cannot write {}: {e}", cli.baseline_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "blessed {} at {:.1} trials/s",
            cli.baseline_path.display(),
            baseline.trials_per_sec
        );
    }
    if cli.check_baseline {
        let baseline = match Baseline::load(&cli.baseline_path) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Wall-clock throughput is noisy (background load can slow an
        // identical binary by tens of percent), so the gate is best-of-
        // three: rerun the sweep on a throughput miss. Config mismatches
        // are deterministic and fail immediately.
        let mut result = baseline.check(&report, DEFAULT_TOLERANCE);
        let mut retries = 0;
        while let Err(e) = &result {
            if retries == 2 || !e.starts_with("throughput regressed") {
                break;
            }
            retries += 1;
            eprintln!("warning: {e}; retrying sweep ({retries}/2)");
            let retry_report = run_profile(opts);
            result = baseline.check(&retry_report, DEFAULT_TOLERANCE);
        }
        match result {
            Ok(msg) => eprintln!("{msg}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Args {
        Args::new(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_full_flag_set() {
        let cli = parse(argv(
            "--benchmarks crc32,bzip2 --voltages 760,400 --maps 5 --seed 7 \
             --trace-instrs 1000 --threads 2 --json --no-timings --selfcheck \
             --check-baseline --baseline-path /tmp/b.json",
        ))
        .unwrap();
        let opts = &cli.profile;
        assert_eq!(
            opts.benchmarks,
            vec![
                dvs_workloads::Benchmark::Crc32,
                dvs_workloads::Benchmark::Bzip2
            ]
        );
        assert_eq!(
            opts.voltages,
            vec![MilliVolts::new(760), MilliVolts::new(400)]
        );
        assert_eq!(opts.cfg.maps, 5);
        assert_eq!(opts.cfg.seed, 7);
        assert_eq!(opts.cfg.trace_instrs, 1000);
        assert_eq!(opts.cfg.threads, 2);
        assert!(opts.json && !opts.include_timings && opts.selfcheck);
        assert!(cli.check_baseline && !cli.bless_baseline);
        assert_eq!(cli.baseline_path, PathBuf::from("/tmp/b.json"));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(argv("--bogus")).is_err());
        assert!(parse(argv("--benchmarks nosuch")).is_err());
        assert!(parse(argv("--voltages abc")).is_err());
        assert!(parse(argv("--voltages 0")).is_err());
        assert!(parse(argv("--maps")).is_err());
        assert!(parse(argv("--bless-baseline --check-baseline")).is_err());
    }

    #[test]
    fn help_stops_parsing_and_names_match_in_any_case() {
        assert_eq!(parse(argv("--maps 2 --help")).err(), Some(Stop::Help));
        assert!(parse(argv("--benchmarks CRC32")).is_ok());
    }

    #[test]
    fn defaults_cover_the_full_sweep() {
        let cli = parse(argv("")).unwrap();
        let opts = &cli.profile;
        assert_eq!(opts.benchmarks.len(), 10);
        assert_eq!(opts.voltages.len(), 6);
        assert!(!opts.json);
        assert!(opts.include_timings);
        assert!(!cli.bless_baseline && !cli.check_baseline);
        assert_eq!(cli.baseline_path, PathBuf::from(DEFAULT_BASELINE_PATH));
    }
}
