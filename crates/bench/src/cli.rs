//! Shared front end of the checking CLIs (`dvs-lint`, `dvs-verify`,
//! `dvs-diff`, `dvs-model`, `dvs-profile`).
//!
//! Each binary keeps its own flag table as a `match` over [`Args`] and
//! calls the typed value parsers here, so a flag is accepted only by
//! the binaries that use it while `--benchmarks`, `--voltages`,
//! `--maps`, `--seed`, `--model` and `--models` mean the same thing
//! everywhere. [`main`] owns the usage contract: `--help` prints the
//! usage text and exits 0, a usage error prints it to stderr and exits
//! 2. The module also holds the two sweep helpers more than one binary
//! needs: the [`chain_rungs`] ladder merge and the
//! `--inject-misplacement` layout corrupter [`corrupt_layout`].

use std::process::ExitCode;

use dvs_analysis::{render_json_envelope, render_text, LintMeta, LintRegistry, Report};
use dvs_sram::{ladder_mv, FaultMap, FaultModel, MAX_VCC_MV, MIN_VCC_MV};
use dvs_workloads::{Benchmark, Layout};

/// Why argument parsing did not produce options.
#[derive(Debug, PartialEq, Eq)]
pub enum Stop {
    /// `--help` or `-h`: print the usage text and exit 0.
    Help,
    /// A malformed command line: report it with the usage text, exit 2.
    Usage(String),
}

impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Stop::Usage(msg)
    }
}

/// The command-line arguments, consumed flag by flag.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// Wraps an argument list (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// The next flag; `--help`/`-h` stop parsing with [`Stop::Help`].
    ///
    /// # Errors
    ///
    /// [`Stop::Help`] on a help flag.
    pub fn next_flag(&mut self) -> Result<Option<String>, Stop> {
        match self.0.next() {
            Some(flag) if flag == "--help" || flag == "-h" => Err(Stop::Help),
            next => Ok(next),
        }
    }

    /// The value following `flag`, run through `parse`.
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing or `parse` rejects it.
    pub fn value<T>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, Stop> {
        let value = self
            .0
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        Ok(parse(&value)?)
    }

    /// The integer following `flag`.
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing or not an integer.
    pub fn int<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, Stop> {
        self.value(flag, |v| {
            v.parse().map_err(|_| format!("{flag} expects an integer"))
        })
    }

    /// The positive count following `flag` (`--maps`, `--stream-len`):
    /// zero leaves the sweep nothing to do.
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing, not an integer or zero.
    pub fn count<T: std::str::FromStr + PartialEq + From<u8>>(
        &mut self,
        flag: &str,
    ) -> Result<T, Stop> {
        match self.int(flag)? {
            n if n == T::from(0) => Err(Stop::Usage(format!("{flag} must be at least 1"))),
            n => Ok(n),
        }
    }
}

/// The usage error for a flag the binary does not know.
pub fn unknown(flag: &str) -> Stop {
    Stop::Usage(format!("unknown flag {flag}"))
}

/// Runs a checking CLI: parses `std::env::args` with `parse`, then
/// hands the options to `run`, whose exit code is the binary's.
pub fn main<O>(
    tool: &str,
    usage: &str,
    parse: impl FnOnce(Args) -> Result<O, Stop>,
    run: impl FnOnce(O) -> ExitCode,
) -> ExitCode {
    match parse(Args::new(std::env::args().skip(1))) {
        Ok(opts) => run(opts),
        Err(Stop::Help) => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        Err(Stop::Usage(msg)) => {
            eprintln!("{tool}: {msg}\n{usage}");
            ExitCode::from(2)
        }
    }
}

fn list<T>(value: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    value.split(',').map(|v| item(v.trim())).collect()
}

/// Parses `--benchmarks`: comma-separated paper or bare names, any case.
///
/// # Errors
///
/// The first unknown name.
pub fn benchmarks(value: &str) -> Result<Vec<Benchmark>, String> {
    list(value, |n| {
        Benchmark::parse(n).ok_or_else(|| format!("unknown benchmark: {n}"))
    })
}

/// Parses `--voltages`: comma-separated millivolts, each within the
/// plausible supply range [`MIN_VCC_MV`]`..=`[`MAX_VCC_MV`] (the range
/// the serve API enforces too).
///
/// # Errors
///
/// The first non-integer or out-of-range point.
pub fn voltages(value: &str) -> Result<Vec<u32>, String> {
    list(value, |v| {
        let mv: u32 = v.parse().map_err(|_| format!("bad mV: {v}"))?;
        if (MIN_VCC_MV..=MAX_VCC_MV).contains(&mv) {
            Ok(mv)
        } else {
            Err(format!(
                "{mv} mV outside the supported {MIN_VCC_MV}-{MAX_VCC_MV} mV range"
            ))
        }
    })
}

/// Parses `--model`: `iid`, `rowcol` or `clustered`.
///
/// # Errors
///
/// An unknown model name.
pub fn model(value: &str) -> Result<FaultModel, String> {
    let name = value.trim();
    FaultModel::parse(name).ok_or_else(|| format!("unknown model: {name}"))
}

/// Parses `--models`: a comma-separated list of [`model`] names.
///
/// # Errors
///
/// The first unknown model name.
pub fn models(value: &str) -> Result<Vec<FaultModel>, String> {
    list(value, model)
}

/// The lint table of a registry, for [`print_reports`].
pub fn lint_metas(registry: &LintRegistry) -> Vec<LintMeta> {
    registry
        .lints()
        .iter()
        .map(|l| LintMeta {
            name: l.id(),
            level: l.severity().name(),
        })
        .collect()
}

/// Prints a report batch: the `schema` JSON envelope with its lint
/// table when `json` is set, the text rendering otherwise.
pub fn print_reports(json: bool, schema: &str, lints: &[LintMeta], reports: &[Report]) {
    if json {
        println!("{}", render_json_envelope(schema, lints, reports));
    } else {
        print!("{}", render_text(reports));
    }
}

/// The rungs one fault chain advances through: the canonical 20 mV
/// ladder down to the deepest requested point, merged with any off-grid
/// requested voltages, descending. Every rung advances the chain; the
/// caller inspects only the requested ones.
///
/// # Panics
///
/// Panics if `voltages` is empty.
pub fn chain_rungs(voltages: &[u32]) -> Vec<u32> {
    let lowest = voltages.iter().copied().min().expect("non-empty voltages");
    let mut rungs = ladder_mv(lowest);
    rungs.extend_from_slice(voltages);
    rungs.sort_unstable_by(|a, b| b.cmp(a));
    rungs.dedup();
    rungs
}

/// The `--inject-misplacement` self-test: moves block 0 onto the first
/// defective cache word (or one word past the image end on a fault-free
/// map), so the lints and proofs have a real violation to catch.
pub fn corrupt_layout(layout: &Layout, fmap: &FaultMap, functions: usize) -> Layout {
    let mut starts: Vec<u64> = (0..layout.num_blocks())
        .map(|id| layout.block_start(id))
        .collect();
    let target = fmap
        .iter_faulty_linear()
        .next()
        .map_or(layout.end() / 4 + 1, u64::from);
    starts[0] = target * 4;
    let end = layout.end().max(starts[0] + 4);
    Layout::from_parts(starts, vec![0; functions], end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Args {
        Args::new(s.split_whitespace().map(String::from))
    }

    #[test]
    fn chain_rungs_merge_off_grid_points_descending() {
        let rungs = chain_rungs(&[760, 485, 400]);
        assert_eq!(rungs.first(), Some(&760));
        assert_eq!(rungs.last(), Some(&400));
        assert!(rungs.contains(&485));
        assert!(rungs.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(chain_rungs(&[480, 760]), ladder_mv(480));
    }

    #[test]
    fn voltages_must_lie_in_the_supported_range() {
        assert_eq!(voltages("760, 400,300,1000"), Ok(vec![760, 400, 300, 1000]));
        for bad in ["0", "250", "299", "1001", "760,0", "abc", "", "760,"] {
            assert!(voltages(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn list_parsers_name_the_bad_item() {
        assert_eq!(
            benchmarks("crc32,CRC32,401.bzip2"),
            Ok(vec![Benchmark::Crc32, Benchmark::Crc32, Benchmark::Bzip2])
        );
        assert_eq!(
            benchmarks("crc32,nope"),
            Err("unknown benchmark: nope".to_string())
        );
        assert_eq!(models("iid, rowcol").map(|m| m.len()), Ok(2));
        assert_eq!(models("gaussian"), Err("unknown model: gaussian".into()));
    }

    #[test]
    fn args_stop_on_help_and_missing_or_bad_values() {
        assert_eq!(argv("-h").next_flag(), Err(Stop::Help));
        assert_eq!(argv("--help --bogus").next_flag(), Err(Stop::Help));
        let mut args = argv("--maps");
        args.next_flag().unwrap();
        assert_eq!(
            args.count::<u64>("--maps"),
            Err(Stop::Usage("--maps expects a value".into()))
        );
        assert_eq!(argv("3").count::<u64>("--maps"), Ok(3));
        assert!(argv("0").count::<usize>("--stream-len").is_err());
        let mut args = argv("--seed x");
        args.next_flag().unwrap();
        assert!(args.int::<u64>("--seed").is_err());
    }
}
