//! Untraced sweep workloads: campaigns of fresh evaluators, each timed
//! from `Evaluator::new` to the return of `run_plan`.
//!
//! A campaign is one benchmark's slice of the figure grid (one
//! (benchmark, scheme) slice for `sweep-baselines`) run by a fresh
//! evaluator without a store, so every campaign pays the lazy artifact
//! build a figure process pays. Throughput is counted per second of CPU
//! time the process spends in the campaigns (see the README for why not
//! wall time on a shared host).

use std::sync::Arc;
use std::time::{Duration, Instant};

use dvs_core::{EvalError, Evaluator};
use dvs_obs::MetricsRegistry;

use crate::workload::{digest_results, DigestTable, Workload, POOL};
use crate::{peak_rss_mb, probe_setup, setup_median, user_cpu_seconds, Metric, Outcome};

/// Fresh processes started to measure set-up; the median is reported.
pub const SETUP_SAMPLES: usize = 15;

/// The pool entry round `round` of a run with `seed` uses.
pub fn round_pool(seed: u64, round: usize) -> u64 {
    (seed + round as u64) % POOL
}

/// Set-up in a fresh process: plan generation and `Evaluator::new`,
/// the work a figure process does before its first trial.
pub fn setup_probe(w: Workload, seed: u64) -> Evaluator {
    let shape = w.sweep().expect("sweep workload");
    let campaigns = shape.campaigns();
    let cfg = shape.config(round_pool(seed, 0));
    assert!(!campaigns.is_empty());
    let e = Evaluator::new(cfg);
    if shape.checked {
        e.with_recorder(Arc::new(MetricsRegistry::new()))
    } else {
        e
    }
}

/// Runs sweep workload `w` for `seconds` and returns its end-to-end
/// metrics.
///
/// # Errors
///
/// A set-up probe failed, the sizing guard tripped, or CPU time could
/// not be read.
pub fn run(w: Workload, seed: u64, seconds: f64, table: &DigestTable) -> Result<Outcome, String> {
    let shape = w.sweep().expect("sweep workload");
    shape.path.guard(&shape.config(0))?;
    eprintln!(
        "perfbench: {} resolves traces on the {} path",
        w.name(),
        shape.path.name()
    );
    let campaigns = shape.campaigns();
    let mut trials = 0u64;
    let mut failed = 0u64;
    let mut setup = vec![probe_setup(w, seed)?];
    let start = Instant::now();
    let cpu0 = user_cpu_seconds("self")?;
    let budget = Duration::from_secs_f64(seconds);
    // Set-up probes are spread over the window between campaigns, so one
    // slow phase of the host cannot move them all. A probe is another
    // process; this one only spawns it and reads one line.
    let probe_every = budget / SETUP_SAMPLES as u32;
    let mut i = 0usize;
    // Runs end on a whole round (every campaign of the grid once), so
    // every run measures the same mix of benchmarks and schemes whatever
    // the host's speed.
    while !i.is_multiple_of(campaigns.len()) || start.elapsed() < budget {
        let idx = i % campaigns.len();
        let pool = round_pool(seed, i / campaigns.len());
        let cfg = shape.config(pool);
        let plan = &campaigns[idx];
        let planned = plan.total_trials(&cfg);

        let mut e = Evaluator::new(cfg);
        if shape.checked {
            e = e.with_recorder(Arc::new(MetricsRegistry::new()));
        }
        let results = e.run_plan(plan);
        trials += planned;

        // Invariant violations (and any other cell error but an expected
        // all-links-failed cell) fail the cell's trials; a digest mismatch
        // fails the whole campaign.
        let bad_cells: u64 = results
            .iter()
            .filter(|(_, r)| matches!(r, Err(e) if !matches!(e, EvalError::AllLinksFailed { .. })))
            .map(|(k, _)| k.trials(&cfg))
            .sum();
        let digest = digest_results(&results);
        match table.get(w, pool, idx) {
            Some(want) if want == digest => failed += bad_cells,
            other => {
                eprintln!(
                    "perfbench: {} pool {pool} campaign {idx}: digest {digest:016x}, \
                     checked-in {other:016x?}",
                    w.name()
                );
                failed += planned;
            }
        }
        i += 1;
        if setup.len() < SETUP_SAMPLES && start.elapsed() >= probe_every * setup.len() as u32 {
            setup.push(probe_setup(w, seed)?);
        }
    }
    // Digest checks between campaigns cost microseconds against the
    // campaigns' CPU-seconds, so the loop's CPU time is the campaigns'.
    let cpu = user_cpu_seconds("self")? - cpu0;
    while setup.len() < SETUP_SAMPLES {
        setup.push(probe_setup(w, seed)?);
    }
    eprintln!(
        "perfbench: {} ran {i} campaigns ({trials} trials) on {cpu:.2} user CPU-s in {:.2} s",
        w.name(),
        start.elapsed().as_secs_f64()
    );
    Ok(Outcome {
        attempted: trials,
        failed,
        metrics: vec![
            Metric::new("trials_per_user_cpu_s", trials as f64 / cpu, "1/cpu-s"),
            Metric::new("setup_s", setup_median(&setup), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb("self")?, "MB"),
        ],
    })
}
