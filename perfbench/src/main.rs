//! `dvs-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-fig --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` a run measures one workload untraced and prints its
//! end-to-end metrics; with `--trace 1` it replays trials through each
//! layer's public functions and prints per-layer metrics. The last
//! stdout line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). A digest or replica mismatch prints `"correct": false`
//! and exits 1. See `perfbench/README.md` for the metrics and workloads.
//!
//! Internal roles (spawned by the benchmark itself):
//! `--probe-setup WORKLOAD --seed N` measures one sweep set-up in a fresh
//! process; `--daemon --store DIR` runs a single-node `dvs-serve` daemon;
//! `--bless [WORKLOAD...]` recomputes `perfbench/digests.tsv`.

mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;
mod workload;

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use workload::{DigestTable, Workload};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, campaigns and queries).
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
}

/// SplitMix64: a tiny seeded generator for client-side choices.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
///
/// # Errors
///
/// The status file is unreadable or lacks the field.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// User-mode CPU time (all threads, dead ones included) process `pid`
/// (`"self"` for this one) has consumed, in seconds. The kernel charges a
/// task only for time it actually ran, so time the hypervisor steals from
/// the VM is not counted; system time is left out because on a shared VM
/// it rises and falls with other tenants' load (see the README).
///
/// # Errors
///
/// The stat file is unreadable or malformed.
pub fn user_cpu_seconds(pid: &str) -> Result<f64, String> {
    /// `USER_HZ`: the unit of `/proc/<pid>/stat` times, fixed at 100 by
    /// the Linux ABI.
    const TICKS_PER_S: f64 = 100.0;
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    // Fields after the parenthesised command name; utime is the 14th
    // field of the line.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(11))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|ticks| ticks / TICKS_PER_S)
        .ok_or_else(|| format!("{path} is malformed"))
}

/// Logs the spread of a run's set-up samples on stderr and returns their
/// median, the reported `setup_s`.
pub fn setup_median(samples: &[f64]) -> f64 {
    let ms = |v: f64| v * 1e3;
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let med = stats::median(samples);
    eprintln!(
        "perfbench: set-up CPU time over {} starts: min {:.3} ms, median {:.3} ms, max {:.3} ms",
        samples.len(),
        ms(lo),
        ms(med),
        ms(hi)
    );
    med
}

/// CPU time, in seconds, the threads of process `pid` have spent running,
/// read from `/proc/<pid>/task/*/schedstat` (nanosecond resolution) once
/// none of them is runnable. The kernel adds a running thread's current
/// slice only when it stops, so a read while one runs can miss all of a
/// short process's time; the caller makes sure the process goes idle.
///
/// # Errors
///
/// A task file is unreadable or malformed, or the process stayed busy
/// for a second.
pub fn idle_cpu_seconds(pid: u32) -> Result<f64, String> {
    let dir = format!("/proc/{pid}/task");
    let start = Instant::now();
    'retry: while start.elapsed() < Duration::from_secs(1) {
        let mut ns = 0u64;
        for task in std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))? {
            let task = task.map_err(|e| e.to_string())?.path();
            // The state is the field after the parenthesised name.
            let (Ok(stat), Ok(sched)) = (
                std::fs::read_to_string(task.join("stat")),
                std::fs::read_to_string(task.join("schedstat")),
            ) else {
                continue 'retry;
            };
            if stat
                .rsplit_once(')')
                .and_then(|(_, r)| r.split_whitespace().next())
                == Some("R")
            {
                std::thread::sleep(Duration::from_micros(100));
                continue 'retry;
            }
            ns += sched
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{} is malformed", task.display()))?;
        }
        return Ok(ns as f64 * 1e-9);
    }
    Err(format!("process {pid} did not go idle"))
}

/// Scratch space for stores and span files, inside the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// Starts a fresh copy of this binary with `args` (stdin and stdout
/// piped).
pub fn spawn_self(args: &[String]) -> Result<std::process::Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))
}

/// CPU seconds a fresh process spends from its start until it reports
/// that its sweep set-up is done (see [`sweep::setup_probe`]). The probe
/// then waits for its stdin to close, so its time is read while it is
/// blocked and nothing of its exit is counted.
pub fn probe_setup(w: Workload, seed: u64) -> Result<f64, String> {
    let mut child = spawn_self(&[
        "--probe-setup".into(),
        w.name().into(),
        "--seed".into(),
        seed.to_string(),
    ])?;
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .map_err(|e| format!("setup probe: {e}"))?;
    let cpu = idle_cpu_seconds(child.id());
    drop(child.stdin.take());
    let status = child.wait().map_err(|e| format!("setup probe: {e}"))?;
    if line.trim() != "ready" || !status.success() {
        return Err(format!("setup probe failed ({status}): {line:?}"));
    }
    cpu
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn result_json(o: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn measure(args: &Args) -> Result<(Outcome, bool), String> {
    let table = DigestTable::parse(include_str!("../digests.tsv"))?;
    std::fs::create_dir_all(work_dir()).map_err(|e| format!("create .bench_work: {e}"))?;
    if args.trace {
        let r = replay::run(args.workload, args.seed, args.seconds, &table)?;
        return Ok((r.outcome, r.replica_ok));
    }
    let o = match args.workload {
        Workload::ServeMixed => serve::run(args.seed, args.seconds, &table)?,
        w => sweep::run(w, args.seed, args.seconds, &table)?,
    };
    Ok((o, true))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--probe-setup") => {
            let w = argv.get(1).and_then(|n| Workload::parse(n));
            let seed = argv.get(3).and_then(|s| s.parse().ok());
            let (Some(w), Some(seed)) = (w, seed) else {
                eprintln!("usage: --probe-setup WORKLOAD --seed N");
                return ExitCode::FAILURE;
            };
            let e = sweep::setup_probe(w, seed);
            println!("ready");
            std::io::stdout().flush().ok();
            std::io::stdin().read_to_end(&mut Vec::new()).ok();
            drop(e);
            return ExitCode::SUCCESS;
        }
        Some("--daemon") => return serve::daemon_main(&argv[1..]),
        Some("--bless") => return replay::bless_main(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match measure(&args) {
        Ok((outcome, replica_ok)) => {
            if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} is not finite", m.name);
                return ExitCode::FAILURE;
            }
            let correct = replica_ok && outcome.failed == 0 && outcome.attempted > 0;
            println!("{}", result_json(&outcome, correct));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: outputs did not check out");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
