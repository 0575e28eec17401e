//! Walk groups are exact: trials that share one CFG walk simulate
//! bit-identically to trials that each walk for themselves.
//!
//! Past the template cap (50 k instructions) every trial is on the walker
//! path, and with `reuse_buffers` on the engine groups the trials of one
//! program variant behind a single walk. Grouping depends on the thread
//! count (at most ⌈walker-path trials ÷ workers⌉ members per group, and
//! never more than `WALK_GROUP_MAX_MEMBERS` or `max_parallel_trials`);
//! the results must not. `reuse_buffers: false` keeps one walk per trial
//! and is the reference.

use std::sync::{Arc, Mutex};

use dvs_core::{
    reset_trial_gate_high_water, trial_gate_high_water, CancelToken, CellKey, EvalConfig,
    EvalError, Evaluator, ExperimentPlan, ResultStore, Scheme, SchemeRun, WALK_GROUP_MAX_MEMBERS,
};
use dvs_obs::MetricsRegistry;
use dvs_sram::MilliVolts;
use dvs_workloads::Benchmark;

/// Just past the template cap, so every trial walks.
const TRACE_INSTRS: usize = 50_500;

const LADDER_MV: [u32; 6] = [760, 560, 520, 480, 440, 400];

fn config(threads: usize, reuse_buffers: bool) -> EvalConfig {
    EvalConfig {
        trace_instrs: TRACE_INSTRS,
        maps: 1,
        threads,
        reuse_buffers,
        ..EvalConfig::standard()
    }
}

fn plan(schemes: &[Scheme], ladder: &[u32]) -> ExperimentPlan {
    let ladder: Vec<MilliVolts> = ladder.iter().map(|&mv| MilliVolts::new(mv)).collect();
    ExperimentPlan::for_grid(&[Benchmark::Crc32], schemes, &ladder)
}

type Results = Vec<(CellKey, Result<Arc<SchemeRun>, EvalError>)>;

fn assert_same(reference: &Results, got: &Results, label: &str) {
    assert_eq!(reference.len(), got.len(), "{label}");
    for ((rk, rr), (gk, gr)) in reference.iter().zip(got) {
        assert_eq!(rk, gk, "{label}");
        match (rr, gr) {
            (Ok(r), Ok(g)) => {
                assert_eq!(r.failed_links, g.failed_links, "{label} {rk}");
                assert_eq!(r.trials, g.trials, "{label} {rk}");
            }
            (r, g) => assert_eq!(format!("{r:?}"), format!("{g:?}"), "{label} {rk}"),
        }
    }
}

#[test]
fn walk_groups_match_the_per_trial_walker_at_every_thread_count() {
    let plan = plan(&[Scheme::FfwBbr, Scheme::FbaPlus], &LADDER_MV);
    let reference = Evaluator::new(config(2, false)).run_plan(&plan);
    assert!(reference.iter().all(|(_, r)| r.is_ok()), "{reference:?}");
    let walker_trials = plan.total_trials(&config(1, true));

    for threads in [1, 2, 3, 5] {
        let registry = Arc::new(MetricsRegistry::new());
        let mut e = Evaluator::new(config(threads, true)).with_recorder(registry.clone());
        let grouped = e.run_plan(&plan);
        assert_same(&reference, &grouped, &format!("threads {threads}"));

        // One walk per group: trials really shared walks, and no group
        // outgrew its cap.
        let walks = registry.snapshot().timers["engine.walk_nanos"].count;
        let workers = threads.min(walker_trials as usize) as u64;
        let cap = walker_trials
            .div_ceil(workers)
            .min(WALK_GROUP_MAX_MEMBERS as u64);
        assert!(walks < walker_trials, "threads {threads}: {walks} walks");
        assert!(
            walks >= walker_trials.div_ceil(cap),
            "threads {threads}: {walks} walks for {walker_trials} trials, cap {cap}"
        );
    }
}

/// Many maps on one program variant, as figure plans have: however many
/// trials share a variant, a group keeps at most `WALK_GROUP_MAX_MEMBERS`
/// members alive, and under `max_parallel_trials` no more than the cap.
#[test]
fn large_plans_keep_walk_groups_small() {
    const MAPS: u64 = 13;
    let plan = plan(&[Scheme::FbaPlus], &LADDER_MV[5..]);
    let reference = Evaluator::new(EvalConfig {
        maps: MAPS,
        ..config(2, false)
    })
    .run_plan(&plan);

    // (threads, gate cap, most members a group may have)
    for (threads, gate, bound) in [(1, None, WALK_GROUP_MAX_MEMBERS), (2, Some(4), 4)] {
        assert!(
            MAPS.div_ceil(threads) as usize > bound,
            "the plan must outgrow the bound"
        );
        reset_trial_gate_high_water();
        let registry = Arc::new(MetricsRegistry::new());
        let mut e = Evaluator::new(EvalConfig {
            maps: MAPS,
            max_parallel_trials: gate,
            ..config(threads as usize, true)
        })
        .with_recorder(registry.clone());
        let grouped = e.run_plan(&plan);
        let label = format!("threads {threads}, gate {gate:?}");
        assert_same(&reference, &grouped, &label);

        let snap = registry.snapshot();
        assert_eq!(
            snap.gauges["engine.walk_group.max_members"], bound as u64,
            "{label}"
        );
        assert_eq!(
            snap.timers["engine.walk_nanos"].count,
            MAPS.div_ceil(bound as u64),
            "{label}"
        );
        if let Some(cap) = gate {
            // A group reserves one gate slot per member it keeps alive,
            // so the largest group fills the cap and nothing exceeds it.
            assert_eq!(trial_gate_high_water(), cap, "{label}");
        }
    }
}

#[test]
fn cancelling_mid_group_installs_nothing_it_did_not_finish() {
    // One FFW+BBR variant over 760-440 mV: with one thread, one group of
    // five members. Relaxation differs per rung, so members reach the
    // trace length at different points of the shared walk; the first cell
    // to complete cancels the rest of the group.
    let ladder = &LADDER_MV[..5];
    let plan = plan(&[Scheme::FfwBbr], ladder);
    let reference = Evaluator::new(config(1, false)).run_plan(&plan);

    let dir = std::env::temp_dir().join(format!("dvs-walk-groups-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let token = CancelToken::new();
    let finished = Arc::new(Mutex::new(Vec::new()));
    let mut e = Evaluator::new(config(1, true))
        .with_store(ResultStore::open(&dir).expect("temp store"))
        .with_cancel_token(token.clone());
    {
        let finished = Arc::clone(&finished);
        e.set_progress(move |p| {
            finished.lock().unwrap().push(p.cell);
            token.cancel();
        });
    }
    let results = e.run_plan(&plan);
    let finished = finished.lock().unwrap().clone();

    let mut cancelled = 0;
    for ((key, got), (_, want)) in results.iter().zip(&reference) {
        match got {
            Ok(run) => {
                assert!(finished.contains(key), "{key} installed but never finished");
                assert_eq!(run.trials, want.as_ref().unwrap().trials, "{key}");
            }
            Err(EvalError::Cancelled { completed, .. }) => {
                assert!(!finished.contains(key), "{key}");
                assert_eq!(*completed, 0, "{key}");
                cancelled += 1;
            }
            Err(other) => panic!("{key}: {other:?}"),
        }
    }
    assert!(cancelled > 0, "the cancel landed after the group ended");
    assert!(
        cancelled < results.len(),
        "the cancel landed before the walk"
    );
    // Only finished cells reached the store.
    let reopened = ResultStore::open(&dir).expect("reopen store");
    assert_eq!(
        reopened.cell_count().unwrap(),
        results.len() - cancelled,
        "cancelled cells must not be persisted"
    );

    // Nothing cancelled was cached: a fresh token recomputes those cells
    // and lands on the reference.
    e.set_cancel_token(CancelToken::new());
    e.set_progress(|_| {});
    assert_same(&reference, &e.run_plan(&plan), "after cancel");
    let _ = std::fs::remove_dir_all(&dir);
}
