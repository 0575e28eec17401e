//! Execution layer of the experiment engine: *how* cells run.
//!
//! One shared worker pool drains the trials of **all** cells in a plan.
//! Workers pull trials individually off a single atomic cursor, so a
//! slow cell (e.g. FFW+BBR at 400 mV, which links every map) cannot
//! leave workers idle the way per-cell chunked spawning did: when one
//! worker grinds through an expensive link, the others keep consuming
//! whatever trials remain anywhere in the plan.
//!
//! Trials that would each walk the same program's CFG (figure-scale
//! traces past the template cap) are claimed as **walk groups**: one walk
//! of the shared program variant drives every member, and each member
//! resolves the walked steps against its own linked image (see
//! [`run_group`]).
//!
//! The pool is deterministic by construction: every trial's RNG seed
//! depends only on (root seed, benchmark, voltage, trial index), and
//! per-cell results are re-sorted by trial index after the drain, so
//! scheduling order, thread count, grouping and store hits never change
//! a result.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dvs_cpu::{simulate, Core, CoreConfig, MemSystem, SimResult};
use dvs_linker::{BbrLinker, Diagnostic, LinkStats, Severity};
use dvs_obs::{LogHistogram, Recorder, Span};
use dvs_power::energy::RunCounts;
use dvs_schemes::L1Cache;
use dvs_sram::montecarlo::trial_seed;
use dvs_sram::{
    ladder_mv, CacheGeometry, FaultChain, FaultMap, FaultModel, MilliVolts, PfailModel,
};
use dvs_workloads::{Layout, Program, TraceOp, TraceStep, TraceTemplate, Workload};

use crate::cancel::CancelToken;
use crate::eval::TrialMetrics;
use crate::plan::CellKey;
use crate::{DvfsPoint, EvalConfig};

/// Process-wide gate bounding how many trials execute concurrently
/// across *every* [`crate::Evaluator`] in the process (see
/// [`EvalConfig::max_parallel_trials`]). Uncapped evaluators never touch
/// the gate, so the default configuration pays nothing for it.
struct TrialGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Clone, Copy)]
struct GateState {
    active: usize,
    high_water: usize,
}

static TRIAL_GATE: TrialGate = TrialGate {
    state: Mutex::new(GateState {
        active: 0,
        high_water: 0,
    }),
    cv: Condvar::new(),
};

impl TrialGate {
    /// Blocks until `trials` more trials fit under `limit` process-wide,
    /// then reserves that many slots. The slots are released when the
    /// returned permit drops. `trials` must not exceed `limit` (the plan
    /// caps walk groups at `max_parallel_trials`), or it would wait
    /// forever.
    fn acquire(&'static self, limit: usize, trials: usize) -> GatePermit {
        let limit = limit.max(1);
        assert!(
            trials <= limit,
            "{trials} trials can never fit a gate of {limit}"
        );
        let mut state = self.state.lock().expect("trial gate lock poisoned");
        while state.active + trials > limit {
            state = self.cv.wait(state).expect("trial gate lock poisoned");
        }
        state.active += trials;
        state.high_water = state.high_water.max(state.active);
        GatePermit { gate: self, trials }
    }
}

struct GatePermit {
    gate: &'static TrialGate,
    trials: usize,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("trial gate lock poisoned");
        state.active -= self.trials;
        drop(state);
        self.gate.cv.notify_all();
    }
}

/// Largest number of gated trials ever observed running at once in this
/// process. Test instrumentation for the `max_parallel_trials` policy —
/// only capped evaluators are counted.
#[doc(hidden)]
pub fn trial_gate_high_water() -> usize {
    TRIAL_GATE
        .state
        .lock()
        .expect("trial gate lock poisoned")
        .high_water
}

/// Resets the high-water mark (test instrumentation).
#[doc(hidden)]
pub fn reset_trial_gate_high_water() {
    TRIAL_GATE
        .state
        .lock()
        .expect("trial gate lock poisoned")
        .high_water = 0;
}

/// Per-benchmark immutable inputs, shared across cells and threads.
pub(crate) struct BenchArtifacts {
    pub(crate) workload: Workload,
    pub(crate) seq_layout: Layout,
}

/// A BBR-compiled (unrelaxed) program at one split threshold, with the
/// sequential layout templates and walk groups walk it under.
pub(crate) struct Transformed {
    pub(crate) program: Program,
    pub(crate) seq_layout: Layout,
}

/// One cell ready for execution: its identity plus the shared inputs the
/// trials borrow. Programs are shared by `Arc`, never cloned per trial.
pub(crate) struct CellContext {
    pub(crate) key: CellKey,
    pub(crate) point: DvfsPoint,
    pub(crate) trials: u64,
    pub(crate) seed_base: u64,
    pub(crate) artifacts: Arc<BenchArtifacts>,
    pub(crate) transformed: Option<Arc<Transformed>>,
    /// Recorded trace template for this cell's program variant, when
    /// [`crate::EvalConfig::reuse_buffers`] enables templating.
    pub(crate) template: Option<Arc<TraceTemplate>>,
    /// Hoisted transform-equivalence finding: the lint depends only on
    /// the (original, transformed) program pair, so the evaluator checks
    /// it once per transform instead of once per trial. `Some` fails
    /// every trial of the cell before any cycles are spent.
    pub(crate) equiv_diag: Option<Diagnostic>,
}

impl CellContext {
    /// The program variant this cell's trials walk, under its sequential
    /// layout: the unrelaxed transformed program for FFW+BBR, the
    /// benchmark's own program otherwise. Cells that share a variant share
    /// one walk.
    fn variant(&self) -> (&Program, &Layout) {
        match &self.transformed {
            Some(t) => (&t.program, &t.seq_layout),
            None => (
                self.artifacts.workload.program(),
                &self.artifacts.seq_layout,
            ),
        }
    }
}

/// Worker-local state reused across trials
/// ([`crate::EvalConfig::reuse_buffers`]). Strictly a cache: every entry
/// is a deterministic function of seeds and cell identity, so which
/// worker runs a trial — or whether the cache was warm — can never change
/// a result.
#[derive(Default)]
pub(crate) struct TrialArena {
    /// Voltage-ladder fault chains per (seed base, trial, side). A chain
    /// advanced to some rung extends incrementally to any lower rung of
    /// the same ladder (re-sampling only the delta); a chain that cannot
    /// continue the requested ladder is rebuilt from scratch, which
    /// replays the identical RNG stream.
    chains: HashMap<(u64, u64, u8), ChainEntry>,
    /// Linked images keyed by (transformed-program identity, fault-map
    /// fingerprint). A hit requires full fault-map equality — the linker
    /// is deterministic, so an equal map implies the identical image.
    links: HashMap<(usize, u64), CachedLink>,
    /// Resolved-trace scratch buffer.
    trace: Vec<TraceOp>,
    /// Walk-group chunk buffer.
    steps: Vec<TraceStep>,
}

/// Largest number of cached linked images per worker; past this, misses
/// recompute without caching (never affects results).
const LINK_CACHE_CAP: usize = 64;

struct ChainEntry {
    chain: FaultChain,
    /// Lowest ladder rung the chain has advanced to, in millivolts;
    /// starts above the top rung.
    mv: u32,
}

impl ChainEntry {
    fn fresh(geometry: &CacheGeometry, seed: u64, model: FaultModel) -> Self {
        ChainEntry {
            chain: FaultChain::with_model(geometry, seed, model),
            mv: dvs_sram::LADDER_TOP_MV + dvs_sram::LADDER_STEP_MV,
        }
    }

    /// Whether this chain can serve `vcc_mv`'s ladder: it must sit at
    /// `vcc_mv` itself or on a grid rung above it (an off-grid final rung
    /// belongs to no other ladder, so such a chain only serves repeats of
    /// its own voltage).
    fn reusable_for(&self, vcc_mv: u32) -> bool {
        self.mv == vcc_mv || (self.mv > vcc_mv && self.mv.is_multiple_of(dvs_sram::LADDER_STEP_MV))
    }

    /// Advances down every remaining rung of `vcc_mv`'s ladder, returning
    /// the number of faults added.
    fn advance(&mut self, vcc_mv: u32) -> u64 {
        let model = PfailModel::dsn45();
        let mut added = 0u64;
        for mv in ladder_mv(vcc_mv) {
            if mv >= self.mv {
                continue;
            }
            // The chain requires monotone probabilities; clamp against
            // any non-monotonicity in the pfail fit.
            let p = model
                .pfail_word(MilliVolts::new(mv))
                .max(self.chain.p_current());
            added += self.chain.advance_to(p).len() as u64;
            self.mv = mv;
        }
        added
    }
}

struct CachedLink {
    /// Storage words of the fault map the image was linked against; a
    /// cache hit requires full equality (the fingerprint is only an
    /// index).
    map_words: Vec<u64>,
    program: Arc<Program>,
    layout: Arc<Layout>,
    stats: LinkStats,
    /// The counters the link and its validation recorded.
    replay: Vec<(&'static str, u64)>,
}

/// A recorder that forwards everything to `inner` and keeps a log of the
/// counters added. A link-memo hit replays the log of the link it stands
/// in for, so linker and lint counters read the same whichever worker
/// happened to link an image first — and so at any thread count. The
/// linker and the lints record counters and timers only; timers are
/// volatile and not replayed.
#[derive(Debug)]
struct Capture<'a> {
    inner: &'a dyn Recorder,
    log: Mutex<Vec<(&'static str, u64)>>,
}

impl<'a> Capture<'a> {
    fn new(inner: &'a dyn Recorder) -> Self {
        Capture {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }

    fn into_log(self) -> Vec<(&'static str, u64)> {
        self.log.into_inner().expect("capture lock poisoned")
    }
}

impl Recorder for Capture<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn add(&self, name: &'static str, delta: u64) {
        self.inner.add(name, delta);
        self.log
            .lock()
            .expect("capture lock poisoned")
            .push((name, delta));
    }
    fn gauge(&self, name: &'static str, value: u64) {
        self.inner.gauge(name, value);
    }
    fn observe(&self, name: &'static str, value: u64) {
        self.inner.observe(name, value);
    }
    fn observe_hist(&self, name: &'static str, hist: &LogHistogram) {
        self.inner.observe_hist(name, hist);
    }
    fn duration(&self, name: &'static str, nanos: u64) {
        self.inner.duration(name, nanos);
    }
    fn event(&self, name: &'static str, value: u64) {
        self.inner.event(name, value);
    }
}

/// FNV-1a over a fault map's storage words (an index for the link cache;
/// equality is verified on hit).
fn map_fingerprint(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ words.len() as u64
}

/// The v3 fault map of one trial side at `vcc_mv`: a [`FaultChain`]
/// under the configured fault model, advanced down the voltage ladder.
/// With a warm cache the chain extends incrementally; without one it
/// replays the identical ladder from scratch, so both paths produce
/// bit-identical maps. The arena's chain cache needs no model in its key:
/// one arena serves one plan drain, and the model is plan-global.
#[allow(clippy::too_many_arguments)]
fn ladder_fault_map(
    geometry: &CacheGeometry,
    seed_base: u64,
    trial: u64,
    side: u8,
    vcc_mv: u32,
    model: FaultModel,
    chains: Option<&mut HashMap<(u64, u64, u8), ChainEntry>>,
    rec: Option<&dyn Recorder>,
) -> FaultMap {
    let seed = trial_seed(seed_base, 2 * trial + u64::from(side));
    let start = Instant::now();
    let (map, added) = match chains {
        Some(chains) => {
            let entry = match chains.entry((seed_base, trial, side)) {
                Entry::Occupied(mut o) => {
                    if !o.get().reusable_for(vcc_mv) {
                        *o.get_mut() = ChainEntry::fresh(geometry, seed, model);
                    }
                    o.into_mut()
                }
                Entry::Vacant(v) => v.insert(ChainEntry::fresh(geometry, seed, model)),
            };
            let added = entry.advance(vcc_mv);
            (entry.chain.map().clone(), added)
        }
        None => {
            let mut entry = ChainEntry::fresh(geometry, seed, model);
            let added = entry.advance(vcc_mv);
            (entry.chain.into_map(), added)
        }
    };
    if let Some(r) = rec {
        let nanos = start.elapsed().as_nanos() as u64;
        r.duration("sram.faultmap.sample_nanos", nanos);
        r.duration("sram.faultchain.advance_nanos", nanos);
        r.add("sram.faultmap.samples", 1);
        r.observe("sram.faultchain.faults_added", added);
        r.add("sram.faultmap.faulty_words", map.faulty_words() as u64);
        r.observe("sram.faultmap.faulty_words", map.faulty_words() as u64);
    }
    map
}

/// Monotonic counters the engine accumulates across `run_plan` calls.
#[derive(Debug, Default)]
pub(crate) struct EngineCounters {
    pub(crate) trials_computed: AtomicU64,
    pub(crate) trials_from_store: AtomicU64,
    pub(crate) cells_from_store: AtomicU64,
    pub(crate) link_failures: AtomicU64,
    pub(crate) invariant_violations: AtomicU64,
    pub(crate) link_nanos: AtomicU64,
    pub(crate) sim_nanos: AtomicU64,
    pub(crate) walk_nanos: AtomicU64,
    pub(crate) wall_nanos: AtomicU64,
}

impl EngineCounters {
    /// Classifies one finished trial into exactly one counter:
    /// successfully simulated trials into `trials_computed`, failed links
    /// into `link_failures`, invalid images into `invariant_violations`.
    ///
    /// This is the single place outcomes are tallied — incrementing
    /// `trials_computed` unconditionally at the call site would count
    /// failed/invalid trials twice (once here, once as "computed").
    pub(crate) fn record_outcome(&self, outcome: &TrialOutcome) {
        match outcome {
            TrialOutcome::Metrics(_) => {
                self.trials_computed.fetch_add(1, Ordering::Relaxed);
            }
            TrialOutcome::LinkFailed => {
                self.link_failures.fetch_add(1, Ordering::Relaxed);
            }
            TrialOutcome::Invalid(_) => {
                self.invariant_violations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn snapshot(&self) -> EngineStats {
        EngineStats {
            trials_computed: self.trials_computed.load(Ordering::Relaxed),
            trials_from_store: self.trials_from_store.load(Ordering::Relaxed),
            cells_from_store: self.cells_from_store.load(Ordering::Relaxed),
            link_failures: self.link_failures.load(Ordering::Relaxed),
            invariant_violations: self.invariant_violations.load(Ordering::Relaxed),
            link_nanos: self.link_nanos.load(Ordering::Relaxed),
            sim_nanos: self.sim_nanos.load(Ordering::Relaxed),
            walk_nanos: self.walk_nanos.load(Ordering::Relaxed),
            wall_nanos: self.wall_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of the engine's instrumentation.
///
/// Every trial lands in exactly one of `trials_computed`,
/// `link_failures` or `invariant_violations`; their sum is the number of
/// trials this process executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Trials simulated to completion by this process (link failures and
    /// invariant violations are counted separately, never here).
    pub trials_computed: u64,
    /// Trials satisfied from the on-disk result store.
    pub trials_from_store: u64,
    /// Whole cells satisfied from the on-disk result store.
    pub cells_from_store: u64,
    /// Trials whose BBR link found no placement.
    pub link_failures: u64,
    /// Trials whose linked image failed static validation (only possible
    /// when [`crate::EvalConfig::validate_images`] or
    /// [`crate::EvalConfig::verify_images`] is on).
    pub invariant_violations: u64,
    /// Wall-clock nanoseconds spent inside the BBR linker (summed over
    /// workers, so this can exceed `wall_nanos`).
    pub link_nanos: u64,
    /// Wall-clock nanoseconds each trial spent on its own work (summed
    /// over workers): fault sampling, its link or link-memo hit (so this
    /// overlaps `link_nanos`), memory-system build and CPU simulation.
    /// A trial that walks the CFG for itself
    /// (the template fallback, or `reuse_buffers` off) includes its walk
    /// here; the shared walks of walk groups are in `walk_nanos`, so the
    /// two add up without overlap.
    pub sim_nanos: u64,
    /// Wall-clock nanoseconds spent on the shared CFG walks of walk
    /// groups, each walk counted once (summed over workers).
    pub walk_nanos: u64,
    /// Wall-clock nanoseconds spent inside `run_plan`.
    pub wall_nanos: u64,
}

impl EngineStats {
    /// Computed-trial throughput over the engine's wall time.
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.trials_computed as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

/// One progress event: a cell just finished (computed or loaded).
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// The finished cell.
    pub cell: CellKey,
    /// Trials of that cell that were simulated (0 when store-loaded).
    pub trials_computed: u64,
    /// Cells finished so far in the current plan, this one included.
    pub cells_done: usize,
    /// Cells in the current plan.
    pub cells_total: usize,
}

/// Observer invoked per finished cell; must be thread-safe, because the
/// worker that completes a cell's last trial fires it.
pub type ProgressFn = dyn Fn(&Progress) + Send + Sync;

/// What one Monte-Carlo trial produced.
#[derive(Debug, Clone)]
pub(crate) enum TrialOutcome {
    /// The trial simulated successfully.
    Metrics(Box<TrialMetrics>),
    /// The BBR linker found no placement for this fault map (expected at
    /// deep voltage; counted, not simulated).
    LinkFailed,
    /// The linked image failed static validation — a linker/transform bug
    /// caught by `dvs-analysis` before any cycles were spent on it.
    Invalid(Diagnostic),
}

/// One cell's trial outcomes, ordered by trial index.
pub(crate) type TrialOutcomes = Vec<(u64, TrialOutcome)>;

/// Per-drain context for one `execute_cells` call: the progress
/// observer, where this drain sits inside the surrounding plan (cells
/// already resolved from memory or the store count as done), and the
/// cooperative stop signal.
#[derive(Clone, Copy)]
pub(crate) struct DrainScope<'a> {
    pub(crate) callback: Option<&'a ProgressFn>,
    pub(crate) cells_done_before: usize,
    pub(crate) cells_total: usize,
    pub(crate) cancel: Option<&'a CancelToken>,
}

/// Walked steps each member of a walk group resolves and simulates
/// before the walk goes on. Large enough to amortise the per-chunk timers
/// and cancel check, small enough that the chunk stays in cache while
/// every member reads it.
const WALK_CHUNK: usize = 256;

/// Most members a walk group may have, whatever the plan's size. Every
/// member holds its own memory system (about 184 KB), fault maps and
/// image until the group ends, so this bounds what one worker keeps
/// alive; the walk's share of a member's time is already down to a sixth
/// of one walk at this size (see DESIGN.md, "Walk groups").
#[doc(hidden)]
pub const WALK_GROUP_MAX_MEMBERS: usize = 6;

/// One unit of work on the drain cursor.
enum Task {
    /// A trial that obtains its own trace: from its cell's template, or
    /// from a walk of its own when the arena is off (the reference path).
    Trial(usize, u64),
    /// Walker-path trials of one program variant, in plan order, driven
    /// by one CFG walk ([`run_group`]).
    Group(Vec<(usize, u64)>),
}

impl Task {
    /// Trials this task keeps alive at once.
    fn trials(&self) -> usize {
        match self {
            Task::Trial(..) => 1,
            Task::Group(members) => members.len(),
        }
    }
}

/// Splits the plan into tasks.
///
/// A trial is on the walker path when the arena is on and its cell has no
/// template. Walker-path trials of one program variant (one benchmark's
/// own program, or its transformed program at one split threshold) form
/// a walk group in plan order, cut into consecutive runs of at most
/// ⌈walker-path trials ÷ workers⌉ members, so every worker still gets
/// work, and never more than [`WALK_GROUP_MAX_MEMBERS`] or
/// `max_parallel_trials` members, so what a group keeps alive stays small
/// and fits the trial gate. Every other trial is a task of its own.
fn plan_tasks(cfg: &EvalConfig, cells: &[CellContext], workers: usize) -> Vec<Task> {
    let grouped = |c: &CellContext| cfg.reuse_buffers && c.template.is_none();
    let walker_trials: u64 = cells.iter().filter(|c| grouped(c)).map(|c| c.trials).sum();
    let cap = (walker_trials.div_ceil(workers as u64) as usize)
        .min(WALK_GROUP_MAX_MEMBERS)
        .min(cfg.max_parallel_trials.unwrap_or(usize::MAX))
        .max(1);
    let mut tasks = Vec::new();
    // The task index of each variant's open group.
    let mut open: HashMap<*const Program, usize> = HashMap::new();
    for (ci, cell) in cells.iter().enumerate() {
        for trial in 0..cell.trials {
            if !grouped(cell) {
                tasks.push(Task::Trial(ci, trial));
                continue;
            }
            let variant: *const Program = cell.variant().0;
            if let Some(Task::Group(members)) = open.get(&variant).map(|&ti| &mut tasks[ti]) {
                if members.len() < cap {
                    members.push((ci, trial));
                    continue;
                }
            }
            open.insert(variant, tasks.len());
            tasks.push(Task::Group(vec![(ci, trial)]));
        }
    }
    tasks
}

/// What every worker of one drain shares.
struct Drain<'a> {
    cfg: &'a EvalConfig,
    core: &'a CoreConfig,
    geometry: &'a CacheGeometry,
    counters: &'a EngineCounters,
    recorder: Option<&'a Arc<dyn Recorder>>,
    /// Link-memo hits in this drain. Which worker links an image first
    /// depends on timing, so the total is reported as a volatile gauge,
    /// never as a deterministic counter.
    link_hits: AtomicU64,
    /// Most walk-group members alive at once on any worker of this drain
    /// (volatile: grouping depends on the thread count).
    group_high_water: AtomicU64,
}

impl Drain<'_> {
    fn rec(&self) -> Option<&dyn Recorder> {
        self.recorder.map(|r| r.as_ref() as &dyn Recorder)
    }

    /// Charges `nanos` of one trial's own preparation and simulation.
    fn charge_sim(&self, nanos: u64) {
        self.counters.sim_nanos.fetch_add(nanos, Ordering::Relaxed);
        if let Some(r) = self.rec() {
            r.duration("engine.sim_nanos", nanos);
        }
    }
}

/// Drains every trial of `cells` through one shared worker pool.
///
/// Returns the per-cell trial outcomes sorted by trial index.
pub(crate) fn execute_cells(
    cfg: &EvalConfig,
    core: &CoreConfig,
    geometry: &CacheGeometry,
    cells: &[CellContext],
    counters: &EngineCounters,
    recorder: Option<&Arc<dyn Recorder>>,
    scope: DrainScope<'_>,
) -> Vec<TrialOutcomes> {
    let trials: u64 = cells.iter().map(|c| c.trials).sum();
    let workers = cfg
        .threads
        .max(1)
        .min(trials.max(1) as usize)
        .min(cfg.max_parallel_trials.unwrap_or(usize::MAX).max(1));
    // One task list over the whole plan, so workers balance across
    // cells, not within them.
    let tasks = plan_tasks(cfg, cells, workers);
    let workers = workers.min(tasks.len().max(1));
    let cursor = AtomicUsize::new(0);
    let collectors: Vec<Mutex<TrialOutcomes>> = cells
        .iter()
        .map(|c| Mutex::new(Vec::with_capacity(c.trials as usize)))
        .collect();
    let outstanding: Vec<AtomicU64> = cells.iter().map(|c| AtomicU64::new(c.trials)).collect();
    let cells_done = AtomicUsize::new(scope.cells_done_before);
    let drain = Drain {
        cfg,
        core,
        geometry,
        counters,
        recorder,
        link_hits: AtomicU64::new(0),
        group_high_water: AtomicU64::new(0),
    };

    // Files one finished trial: counters, its cell's collector, and the
    // progress event when it was the cell's last.
    let finish = |ci: usize, trial: u64, outcome: TrialOutcome| {
        counters.record_outcome(&outcome);
        if let Some(r) = recorder {
            let name = match &outcome {
                TrialOutcome::Metrics(_) => "engine.trials.computed",
                TrialOutcome::LinkFailed => "engine.trials.link_failed",
                TrialOutcome::Invalid(_) => "engine.trials.invalid",
            };
            r.add(name, 1);
        }
        collectors[ci]
            .lock()
            .expect("collector lock poisoned")
            .push((trial, outcome));
        if outstanding[ci].fetch_sub(1, Ordering::AcqRel) == 1 {
            let done = cells_done.fetch_add(1, Ordering::AcqRel) + 1;
            if let Some(cb) = scope.callback {
                cb(&Progress {
                    cell: cells[ci].key,
                    trials_computed: cells[ci].trials,
                    cells_done: done,
                    cells_total: scope.cells_total,
                });
            }
        }
    };

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(s.spawn(|| {
                // Worker-local caches (chains, linked images, trace
                // buffers); purely an accelerator, see [`TrialArena`].
                let mut arena = cfg.reuse_buffers.then(TrialArena::default);
                loop {
                    if scope.cancel.is_some_and(CancelToken::is_cancelled) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else {
                        break;
                    };
                    // Tasks from concurrently running evaluators contend
                    // for the same process-wide gate, so N campaigns
                    // cannot oversubscribe the machine with N x `threads`
                    // workers. A walk group keeps all its members alive,
                    // so it holds one slot per member.
                    let _permit = cfg
                        .max_parallel_trials
                        .map(|n| TRIAL_GATE.acquire(n, task.trials()));
                    if scope.cancel.is_some_and(CancelToken::is_cancelled) {
                        break;
                    }
                    if let Some(r) = recorder {
                        // Tasks not yet claimed by any worker (volatile).
                        r.gauge("engine.queue.depth", (tasks.len() - (i + 1)) as u64);
                    }
                    match task {
                        &Task::Trial(ci, trial) => {
                            finish(
                                ci,
                                trial,
                                run_trial(&drain, &cells[ci], trial, arena.as_mut()),
                            );
                        }
                        Task::Group(members) => run_group(
                            &drain,
                            cells,
                            members,
                            arena.as_mut().expect("walk groups run with the arena on"),
                            scope.cancel,
                            &finish,
                        ),
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("trial worker panicked");
        }
    });
    if let Some(r) = recorder {
        r.gauge("engine.link_cache.hits", drain.link_hits.into_inner());
        r.gauge(
            "engine.walk_group.max_members",
            drain.group_high_water.into_inner(),
        );
    }

    collectors
        .into_iter()
        .map(|m| {
            let mut outcomes = m.into_inner().expect("collector lock poisoned");
            outcomes.sort_unstable_by_key(|&(t, _)| t);
            outcomes
        })
        .collect()
}

/// The program/layout pair a trial simulates: borrowed from shared
/// artifacts (non-BBR), reused from the worker's link cache, or freshly
/// linked.
enum TrialImage<'a> {
    Borrowed(&'a Program, &'a Layout),
    Cached(Arc<Program>, Arc<Layout>),
    Owned(Program, Layout),
}

impl TrialImage<'_> {
    fn parts(&self) -> (&Program, &Layout) {
        match self {
            TrialImage::Borrowed(p, l) => (p, l),
            TrialImage::Cached(p, l) => (p, l),
            TrialImage::Owned(p, l) => (p, l),
        }
    }
}

/// A trial ready to simulate.
struct Prepared<'a> {
    image: TrialImage<'a>,
    mem: MemSystem,
    link_stats: Option<LinkStats>,
}

/// Everything one trial does before its first simulated instruction:
/// fault maps, the BBR link (or a link-memo hit), image validation and
/// the memory system. A failed link or an invalid image ends the trial
/// here, with that outcome.
///
/// The non-BBR path borrows the benchmark's program and sequential
/// layout straight from the shared artifacts — nothing is cloned on the
/// per-trial hot path. `arena` (when present) caches fault chains and
/// linked images across the worker's trials; every cached value is a
/// deterministic function of seeds and cell identity, so warm and cold
/// caches produce bit-identical outcomes.
fn prepare_trial<'a>(
    d: &Drain<'_>,
    cell: &'a CellContext,
    trial: u64,
    arena: Option<&mut TrialArena>,
) -> Result<Prepared<'a>, TrialOutcome> {
    let cfg = d.cfg;
    let geometry = d.geometry;
    let scheme = cell.key.scheme;
    let point = cell.point;
    let art = &*cell.artifacts;
    let rec = d.rec();

    let (chains, links) = match arena {
        Some(a) => (Some(&mut a.chains), Some(&mut a.links)),
        None => (None, None),
    };

    // Fault maps depend on (seed, benchmark, trial) and the voltage
    // ladder but NOT on the scheme, so schemes are compared on identical
    // defect patterns.
    let (fmap_i, fmap_d) = if scheme.sees_faults() {
        match chains {
            Some(chains) => (
                ladder_fault_map(
                    geometry,
                    cell.seed_base,
                    trial,
                    0,
                    point.vcc.get(),
                    cfg.fault_model,
                    Some(chains),
                    rec,
                ),
                ladder_fault_map(
                    geometry,
                    cell.seed_base,
                    trial,
                    1,
                    point.vcc.get(),
                    cfg.fault_model,
                    Some(chains),
                    rec,
                ),
            ),
            None => (
                ladder_fault_map(
                    geometry,
                    cell.seed_base,
                    trial,
                    0,
                    point.vcc.get(),
                    cfg.fault_model,
                    None,
                    rec,
                ),
                ladder_fault_map(
                    geometry,
                    cell.seed_base,
                    trial,
                    1,
                    point.vcc.get(),
                    cfg.fault_model,
                    None,
                    rec,
                ),
            ),
        }
    } else {
        (
            FaultMap::fault_free(geometry),
            FaultMap::fault_free(geometry),
        )
    };

    let mut link_stats = None;
    let image: TrialImage<'_> = if scheme.needs_bbr_link() {
        // The transform-equivalence lint depends only on the program
        // pair, so it was checked once per cell (see `CellContext`); a
        // finding fails every trial before any link or sim time.
        if let Some(diag) = &cell.equiv_diag {
            return Err(TrialOutcome::Invalid(diag.clone()));
        }
        let transformed = cell
            .transformed
            .as_ref()
            .expect("FFW+BBR provides a transformed program");
        let map_words = fmap_i.word_bits().words();
        let cache_key = (
            Arc::as_ptr(transformed) as usize,
            map_fingerprint(map_words),
        );
        let cached = links.as_ref().and_then(|links| {
            let c = links.get(&cache_key).filter(|c| c.map_words == map_words)?;
            if let Some(r) = rec {
                for &(name, delta) in &c.replay {
                    r.add(name, delta);
                }
            }
            Some((Arc::clone(&c.program), Arc::clone(&c.layout), c.stats))
        });
        match cached {
            Some((program, layout, stats)) => {
                // The linker is a deterministic function of (program,
                // fault map); full map equality was verified above, so
                // this image is bit-identical to a fresh link, and the
                // replayed metrics match the ones a fresh link records.
                d.link_hits.fetch_add(1, Ordering::Relaxed);
                link_stats = Some(stats);
                TrialImage::Cached(program, layout)
            }
            None => {
                let capture = rec.map(Capture::new);
                let rec = capture.as_ref().map(|c| c as &dyn Recorder);
                let link_start = Instant::now();
                let linker = BbrLinker::new(*geometry);
                let image = match rec {
                    Some(r) => linker.link_recorded(&transformed.program, &fmap_i, r),
                    None => linker.link(&transformed.program, &fmap_i),
                };
                d.counters
                    .link_nanos
                    .fetch_add(link_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                let Ok(image) = image else {
                    return Err(TrialOutcome::LinkFailed);
                };
                if cfg.validate_images {
                    // Full lint pass over the placed image. Trace
                    // equivalence was hoisted to the per-cell check
                    // above, so the per-trial pass skips it.
                    let diags = match rec {
                        Some(r) => dvs_analysis::analyze_image_recorded(&image, &fmap_i, None, r),
                        None => dvs_analysis::analyze_image(&image, &fmap_i, None),
                    };
                    if let Some(diag) = diags.into_iter().find(|d| d.severity == Severity::Deny) {
                        return Err(TrialOutcome::Invalid(diag));
                    }
                } else if cfg.verify_images {
                    // Verification passes only: the whole-image dataflow
                    // proofs without the structural lints (or the hoisted
                    // trace-equivalence check, which they don't use).
                    let input = dvs_analysis::AnalysisInput {
                        program: image.program(),
                        layout: image.layout(),
                        fmap: &fmap_i,
                        original: None,
                    };
                    let registry = dvs_analysis::LintRegistry::verification();
                    let diags = match rec {
                        Some(r) => registry.run_recorded(&input, r),
                        None => registry.run(&input),
                    };
                    if let Some(diag) = diags.into_iter().find(|d| d.severity == Severity::Deny) {
                        return Err(TrialOutcome::Invalid(diag));
                    }
                } else {
                    debug_assert!(image.verify(&fmap_i).is_ok());
                }
                let stats = *image.stats();
                link_stats = Some(stats);
                let (program, layout) = image.into_parts();
                match links {
                    Some(links) if links.len() < LINK_CACHE_CAP => {
                        // Only validated images are cached; LinkFailed and
                        // Invalid outcomes always recompute.
                        let program = Arc::new(program);
                        let layout = Arc::new(layout);
                        links.insert(
                            cache_key,
                            CachedLink {
                                map_words: map_words.to_vec(),
                                program: Arc::clone(&program),
                                layout: Arc::clone(&layout),
                                stats,
                                replay: capture.map(Capture::into_log).unwrap_or_default(),
                            },
                        );
                        TrialImage::Cached(program, layout)
                    }
                    _ => TrialImage::Owned(program, layout),
                }
            }
        }
    } else {
        TrialImage::Borrowed(art.workload.program(), &art.seq_layout)
    };
    let mut mem = MemSystem::new(
        L1Cache::new(scheme.l1i_kind(), fmap_i),
        L1Cache::new(scheme.l1d_kind(), fmap_d),
        point.freq_mhz,
    );
    if let Some(r) = d.recorder {
        mem = mem.with_recorder(r.clone());
    }
    Ok(Prepared {
        image,
        mem,
        link_stats,
    })
}

/// Runs one trial on its own: its cell's recorded template resolved
/// against the trial's layout, or a fresh walk when there is no template
/// or it ran out of steps (both replay the identical instruction stream —
/// see `TraceTemplate`).
fn run_trial(
    d: &Drain<'_>,
    cell: &CellContext,
    trial: u64,
    mut arena: Option<&mut TrialArena>,
) -> TrialOutcome {
    let rec = d.rec();
    let _trial_span = rec.map(|r| Span::enter(r, "engine.trial_nanos"));
    let sim_start = Instant::now();
    let prepared = match prepare_trial(d, cell, trial, arena.as_deref_mut()) {
        Ok(p) => p,
        Err(outcome) => return outcome,
    };
    let (program, layout) = prepared.image.parts();
    let mut local_buf = Vec::new();
    let resolved = cell.template.as_deref().and_then(|tpl| {
        let buf = match arena {
            Some(a) => &mut a.trace,
            None => &mut local_buf,
        };
        tpl.resolve_into(program, layout, d.cfg.trace_instrs, buf)
            .then_some(&*buf)
    });
    let result = match resolved {
        Some(ops) => {
            if let Some(r) = rec {
                r.add("engine.trace_template.resolved", 1);
            }
            simulate(d.core, prepared.mem, ops.iter().copied())
        }
        None => {
            if cell.template.is_some() {
                if let Some(r) = rec {
                    r.add("engine.trace_template.exhausted", 1);
                }
            }
            let trace = cell
                .artifacts
                .workload
                .trace_program(program, layout, 0)
                .take(d.cfg.trace_instrs);
            simulate(d.core, prepared.mem, trace)
        }
    };
    d.charge_sim(sim_start.elapsed().as_nanos() as u64);
    metrics(result, prepared.link_stats)
}

/// Runs one walk group: every member's [`prepare_trial`], then one walk
/// of the members' shared program variant driving all of them.
///
/// The walk is of the **unrelaxed** variant under its sequential layout,
/// exactly what `TraceTemplate::record` walks, taken [`WALK_CHUNK`] steps
/// at a time. Each member resolves every step against its own linked
/// image ([`TraceStep::resolve`]) and feeds the op to its own [`Core`],
/// so it simulates what a walk of its own image would have emitted — the
/// template exactness argument (`dvs_workloads::TraceTemplate`) applied
/// to a live walk. A member stops at `trace_instrs` ops; the group ends
/// when every member has stopped or the walk completes.
///
/// Failed and invalid members leave at preparation with their outcome. A
/// cancel (checked once per chunk) drops the running members unfinished,
/// so their cells come back short and are reported as cancelled.
///
/// Each member is charged only its own preparation and stepping
/// (`engine.sim_nanos`, `engine.trial_nanos`); the shared walk is charged
/// once to `walk_nanos` (`engine.walk_nanos`).
fn run_group(
    d: &Drain<'_>,
    cells: &[CellContext],
    members: &[(usize, u64)],
    arena: &mut TrialArena,
    cancel: Option<&CancelToken>,
    finish: &dyn Fn(usize, u64, TrialOutcome),
) {
    struct Member<'a> {
        ci: usize,
        trial: u64,
        image: TrialImage<'a>,
        core: Core<'a>,
        link_stats: Option<LinkStats>,
        /// Time spent on this member alone.
        nanos: u64,
    }
    let rec = d.rec();
    let n = d.cfg.trace_instrs as u64;
    let (ci0, _) = members[0];
    let (program, layout) = cells[ci0].variant();
    let mut running: Vec<Member<'_>> = Vec::with_capacity(members.len());
    for &(ci, trial) in members {
        let start = Instant::now();
        match prepare_trial(d, &cells[ci], trial, Some(arena)) {
            Ok(p) => {
                assert_eq!(
                    p.image.parts().0.num_blocks(),
                    program.num_blocks(),
                    "walk group member does not match its variant"
                );
                running.push(Member {
                    ci,
                    trial,
                    image: p.image,
                    core: Core::new(d.core, p.mem),
                    link_stats: p.link_stats,
                    nanos: start.elapsed().as_nanos() as u64,
                });
            }
            Err(outcome) => {
                if let Some(r) = rec {
                    r.duration("engine.trial_nanos", start.elapsed().as_nanos() as u64);
                }
                finish(ci, trial, outcome);
            }
        }
    }
    d.group_high_water
        .fetch_max(running.len() as u64, Ordering::Relaxed);

    let mut walker = cells[ci0]
        .artifacts
        .workload
        .trace_program(program, layout, 0);
    let steps = &mut arena.steps;
    let mut walk_nanos = 0u64;
    while !running.is_empty() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            break;
        }
        let start = Instant::now();
        steps.clear();
        while steps.len() < WALK_CHUNK {
            let Some(op) = walker.next() else {
                break;
            };
            steps.push(TraceStep {
                op,
                meta: walker.last_step_meta(),
            });
        }
        let walk_complete = steps.len() < WALK_CHUNK;
        walk_nanos += start.elapsed().as_nanos() as u64;

        for m in &mut running {
            let start = Instant::now();
            let (program, layout) = m.image.parts();
            for step in steps.iter() {
                if m.core.instructions() == n {
                    break;
                }
                if let Some(op) = step.resolve(program, layout) {
                    m.core.step(op);
                }
            }
            m.nanos += start.elapsed().as_nanos() as u64;
        }

        for m in running.extract_if(.., |m| walk_complete || m.core.instructions() == n) {
            let start = Instant::now();
            let result = m.core.finish();
            let nanos = m.nanos + start.elapsed().as_nanos() as u64;
            d.charge_sim(nanos);
            if let Some(r) = rec {
                r.duration("engine.trial_nanos", nanos);
            }
            finish(m.ci, m.trial, metrics(result, m.link_stats));
        }
    }
    d.counters
        .walk_nanos
        .fetch_add(walk_nanos, Ordering::Relaxed);
    if let Some(r) = rec {
        r.duration("engine.walk_nanos", walk_nanos);
    }
}

/// A simulated trial's outcome.
fn metrics(result: SimResult, link_stats: Option<LinkStats>) -> TrialOutcome {
    TrialOutcome::Metrics(Box::new(TrialMetrics {
        result,
        counts: counts_of(&result),
        link_stats,
    }))
}

/// Derives the energy model's event counts from a simulation result.
fn counts_of(result: &SimResult) -> RunCounts {
    RunCounts {
        instructions: result.useful_instructions(),
        executed: result.instructions,
        cycles: result.cycles,
        l1_accesses: result.mem.l1i_accesses + result.mem.l1d_loads + result.mem.l1d_stores,
        l2_accesses: result.mem.l2_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_outcome_counts_each_variant_exactly_once() {
        use dvs_linker::{lint_ids, Location};

        let counters = EngineCounters::default();
        let result = SimResult {
            instructions: 10,
            synthetic: 1,
            cycles: 20,
            mem: Default::default(),
            branches: 2,
            mispredicts: 1,
        };
        let metrics = TrialOutcome::Metrics(Box::new(TrialMetrics {
            counts: counts_of(&result),
            result,
            link_stats: None,
        }));
        let link_failed = TrialOutcome::LinkFailed;
        let invalid = TrialOutcome::Invalid(Diagnostic::deny(
            lint_ids::CHUNK_CONTAINMENT,
            Location::Block {
                id: 0,
                word: Some(1),
            },
            "test diagnostic".to_string(),
        ));

        counters.record_outcome(&metrics);
        counters.record_outcome(&link_failed);
        counters.record_outcome(&invalid);
        let stats = counters.snapshot();
        // Exactly one bucket per outcome: a failed or invalid trial must
        // never ALSO count as computed.
        assert_eq!(stats.trials_computed, 1);
        assert_eq!(stats.link_failures, 1);
        assert_eq!(stats.invariant_violations, 1);
        assert_eq!(
            stats.trials_computed + stats.link_failures + stats.invariant_violations,
            3,
            "three outcomes, three counts"
        );

        counters.record_outcome(&metrics);
        assert_eq!(counters.snapshot().trials_computed, 2);
        assert_eq!(counters.snapshot().link_failures, 1);
    }

    #[test]
    fn stats_throughput_is_sane() {
        let s = EngineStats {
            trials_computed: 100,
            wall_nanos: 2_000_000_000,
            ..EngineStats::default()
        };
        assert!((s.trials_per_sec() - 50.0).abs() < 1e-9);
        assert_eq!(EngineStats::default().trials_per_sec(), 0.0);
    }
}
