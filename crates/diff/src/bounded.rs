//! Bounded exhaustive model checking of the scheme state machines.
//!
//! The differential oracles sample random access streams; this module
//! instead enumerates **every** access sequence up to a depth bound over
//! a tiny cache geometry and checks machine invariants on each:
//!
//! * **LRU stack** — on a clean map, a read hits the L1 exactly when its
//!   block is among the last `ways` distinct blocks of its set touched
//!   since the last flush (the stack property of true LRU).
//! * **Inclusion** — a read served from the L1 must target a block some
//!   earlier read brought in since the last flush; data cannot
//!   materialise out of an invalidated cache.
//! * **Clean-map equivalence** — on a fault-free map, a scheme's
//!   observable behaviour is identical to the conventional cache's
//!   (the paper's §IV baseline claim), here proven exhaustively to the
//!   depth bound rather than sampled.
//! * **Timing-speculation contract** — TS Cache serves every L1 hit
//!   speculatively, so a hit on a defective word must pay the checker's
//!   replay penalty and a hit on a clean word must not; reads served
//!   from deeper levels never replay ([`ts_replay_violation`]).
//! * **Reset freshness** of the LRU replacement queue, and shape
//!   invariants of the FFW window-pattern function, checked over their
//!   whole (tiny) input domains. These two domains are exactly where the
//!   pre-fix window-mask overflow and the stale-LRU-after-invalidate
//!   bugs lived; [`check_window_function`] and [`check_lru_reset`]
//!   rediscover both from their pre-fix code shapes (see the crate's
//!   `bounded_model` integration tests).
//!
//! A failing sequence is reduced through the [`crate::shrink::ddmin`]
//! shrinker and reported as a [`Violation`] that renders into a
//! ready-to-paste `#[test]` and into a `verify/bounded-model` deny
//! [`Diagnostic`] for the `dvs-verify` CLI.

use std::collections::HashSet;

use dvs_cache::{Addr, CacheCore, L2Cache};
use dvs_linker::{lint_ids, Diagnostic, Location};
use dvs_schemes::{L1Cache, SchemeKind, ServedFrom};
use dvs_sram::{CacheGeometry, FaultMap, FrameId};

use crate::shrink::ddmin;
use crate::stream::Event;

/// The L2 behind every bounded-checking machine: 4 KB, same block size
/// as [`tiny_geometry`]. The invariants under check are L1 properties —
/// both sides of every comparison see the same L2 model, so a small one
/// keeps the per-sequence machine construction (the hot loop of the
/// exhaustive enumeration) cheap.
fn tiny_l2() -> L2Cache {
    L2Cache::new(CacheGeometry::new(4096, 8, 32).expect("tiny L2 geometry is valid"))
}

/// One step of a bounded-checking run: the two access kinds plus the
/// whole-cache flush that voltage/mode switches perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load from the byte address.
    Read(u64),
    /// Store to the byte address.
    Write(u64),
    /// Flush the L1 (`L1Cache::invalidate_all`).
    InvalidateAll,
}

/// A shrunk invariant violation found by bounded checking.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed (`lru-stack`, `inclusion`,
    /// `clean-map-equivalence`, `window-function`, `lru-reset`).
    pub invariant: &'static str,
    /// Minimal op sequence exhibiting the failure (empty for the pure
    /// input-domain checks).
    pub ops: Vec<Op>,
    /// Linear fault indices of the map in force (empty = clean).
    pub faults: Vec<u32>,
    /// What went wrong at the failing step.
    pub detail: String,
}

impl Violation {
    /// The violation as a deny-severity `verify/bounded-model` finding.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::deny(
            lint_ids::VERIFY_BOUNDED_MODEL,
            Location::Image,
            format!(
                "{} invariant violated: {} (ops: {})",
                self.invariant,
                self.detail,
                render_ops(&self.ops)
            ),
        )
    }

    /// Renders the violation as a ready-to-paste `#[test]` asserting the
    /// invariant holds on the shrunk sequence — a regression guard that
    /// passes once the underlying bug is fixed. `kind_expr` and
    /// `geom_expr` are Rust expressions; `checker` names the
    /// per-sequence evaluator to call (e.g. `lru_stack_violation`).
    pub fn render_test(&self, name: &str, kind_expr: &str, geom_expr: &str) -> String {
        let checker = match self.invariant {
            "lru-stack" => "lru_stack_violation",
            "inclusion" => "inclusion_violation",
            "ts-replay" => "ts_replay_violation",
            _ => "clean_equivalence_violation_named",
        };
        let map = if self.faults.is_empty() {
            format!("FaultMap::fault_free(&{geom_expr})")
        } else {
            let list: Vec<String> = self.faults.iter().map(u32::to_string).collect();
            format!(
                "FaultMap::from_faulty_indices(&{geom_expr}, [{}])",
                list.join(", ")
            )
        };
        format!(
            "/// Shrunk by the bounded model checker: {detail}\n\
             #[test]\n\
             fn {name}() {{\n\
             \x20   use dvs_diff::bounded::{{{checker}, Op}};\n\
             \x20   use dvs_schemes::SchemeKind;\n\
             \x20   use dvs_sram::{{CacheGeometry, FaultMap}};\n\
             \n\
             \x20   let fmap = {map};\n\
             \x20   let ops = {ops};\n\
             \x20   assert_eq!({checker}({kind_expr}, &fmap, &ops), None);\n\
             }}\n",
            detail = self.detail,
            ops = render_ops(&self.ops),
        )
    }
}

fn render_ops(ops: &[Op]) -> String {
    let items: Vec<String> = ops
        .iter()
        .map(|op| match op {
            Op::Read(a) => format!("Op::Read({a:#x})"),
            Op::Write(a) => format!("Op::Write({a:#x})"),
            Op::InvalidateAll => "Op::InvalidateAll".to_string(),
        })
        .collect();
    format!("vec![{}]", items.join(", "))
}

/// The bounded-checking geometry: 2 sets × 2 ways × 32 B blocks (32
/// words). Small enough that every sequence to depth 5–6 over
/// [`op_alphabet`] runs in milliseconds, yet it exercises conflict
/// eviction, multi-set indexing and every word of an 8-word block.
pub fn tiny_geometry() -> CacheGeometry {
    CacheGeometry::new(128, 2, 32).expect("tiny geometry is valid")
}

/// The op alphabet the bounded checkers enumerate over: `ways + 1`
/// conflicting blocks of set 0 (forcing evictions), one block of set 1,
/// a faulty-word probe, a store, and the flush.
pub fn op_alphabet(geom: &CacheGeometry) -> Vec<Op> {
    let bb = u64::from(geom.block_bytes());
    let sets = u64::from(geom.sets());
    let mut ops = Vec::new();
    // Blocks 0, sets, 2·sets … all alias set 0.
    for i in 0..=u64::from(geom.ways()) {
        ops.push(Op::Read(i * sets * bb));
    }
    ops.push(Op::Read(bb)); // block 1 → set 1
    ops.push(Op::Read(4)); // word 1 of block 0 (distinct word offset)
    ops.push(Op::Write(0));
    ops.push(Op::InvalidateAll);
    ops
}

fn step(l1: &mut L1Cache, l2: &mut L2Cache, op: Op) -> Option<Event> {
    match op {
        Op::Read(a) => {
            let out = l1.read(Addr::new(a), l2);
            Some(Event::Read {
                source: out.source,
                l2_reads: out.l2_reads,
                latency: 0,
            })
        }
        Op::Write(a) => {
            let out = l1.write(Addr::new(a));
            Some(Event::Write {
                l1_updated: out.l1_updated,
            })
        }
        Op::InvalidateAll => {
            l1.invalidate_all();
            None
        }
    }
}

fn block_and_set(geom: &CacheGeometry, addr: u64) -> (u64, usize) {
    let block = addr / u64::from(geom.block_bytes());
    (block, (block % u64::from(geom.sets())) as usize)
}

/// Checks the LRU stack property of one sequence: a read hits the L1
/// exactly when its block is among the last `ways` distinct blocks of
/// its set touched since the last flush. Sound for schemes that keep
/// full associativity and serve every word of a present block —
/// conventional/8T always, and the word-level schemes on a clean map.
///
/// Returns `None` when the invariant holds, or a description of the
/// first failing step.
pub fn lru_stack_violation(kind: SchemeKind, fmap: &FaultMap, ops: &[Op]) -> Option<String> {
    let geom = *fmap.geometry();
    let mut l1 = L1Cache::new(kind, fmap.clone());
    let mut l2 = tiny_l2();
    let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); geom.sets() as usize];
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Read(a) => {
                let (block, set) = block_and_set(&geom, a);
                let predicted = stacks[set].contains(&block);
                let out = l1.read(Addr::new(a), &mut l2);
                let actual = out.source == ServedFrom::L1;
                if actual != predicted {
                    return Some(format!(
                        "step {i}: read of {a:#x} {} but the LRU stack model predicts {}",
                        if actual { "hit" } else { "missed" },
                        if predicted { "a hit" } else { "a miss" },
                    ));
                }
                stacks[set].retain(|&b| b != block);
                stacks[set].insert(0, block);
                stacks[set].truncate(geom.ways() as usize);
            }
            Op::Write(a) => {
                // A store's lookup touches the LRU when the block is
                // present; it never allocates.
                let (block, set) = block_and_set(&geom, a);
                l1.write(Addr::new(a));
                if stacks[set].contains(&block) {
                    stacks[set].retain(|&b| b != block);
                    stacks[set].insert(0, block);
                }
            }
            Op::InvalidateAll => {
                l1.invalidate_all();
                stacks.iter_mut().for_each(Vec::clear);
            }
        }
    }
    None
}

/// Checks the inclusion property of one sequence: a read served from the
/// L1 must target a block some earlier read fetched since the last
/// flush. Sound for **every** scheme — stores never allocate and a
/// flush empties the tag array, so L1-resident data always traces back
/// to a fetch.
pub fn inclusion_violation(kind: SchemeKind, fmap: &FaultMap, ops: &[Op]) -> Option<String> {
    let geom = *fmap.geometry();
    let mut l1 = L1Cache::new(kind, fmap.clone());
    let mut l2 = tiny_l2();
    let mut fetched: HashSet<u64> = HashSet::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Read(a) => {
                let (block, _) = block_and_set(&geom, a);
                let out = l1.read(Addr::new(a), &mut l2);
                if out.source == ServedFrom::L1 && !fetched.contains(&block) {
                    return Some(format!(
                        "step {i}: read of {a:#x} served from L1 but block {block} was never \
                         fetched since the last flush"
                    ));
                }
                fetched.insert(block);
            }
            Op::Write(a) => {
                l1.write(Addr::new(a));
            }
            Op::InvalidateAll => {
                l1.invalidate_all();
                fetched.clear();
            }
        }
    }
    None
}

/// Checks clean-map equivalence of one sequence: on the fault-free map
/// over `fmap`'s geometry, `kind`'s observable behaviour (hit source,
/// L2 traffic, store outcome) must match the conventional cache's step
/// for step. Sound for the word-level and disabling schemes; capacity-
/// halving and direct-mapped schemes (Wilkerson+, BBR) genuinely differ.
pub fn clean_equivalence_violation(
    kind: SchemeKind,
    fmap: &FaultMap,
    ops: &[Op],
) -> Option<String> {
    let clean = FaultMap::fault_free(fmap.geometry());
    let mut subject = L1Cache::new(kind, clean.clone());
    let mut baseline = L1Cache::new(SchemeKind::Conventional, clean);
    let mut l2_subject = tiny_l2();
    let mut l2_baseline = tiny_l2();
    for (i, &op) in ops.iter().enumerate() {
        let a = step(&mut subject, &mut l2_subject, op);
        let b = step(&mut baseline, &mut l2_baseline, op);
        if a != b {
            return Some(format!(
                "step {i} ({op:?}): {} produced {a:?} but the conventional baseline produced {b:?}",
                kind.name()
            ));
        }
    }
    None
}

/// Checks the timing-speculation contract of one sequence: an L1-served
/// read pays the checker's replay penalty exactly when the word it
/// returns is defective — no defective word is ever consumed unchecked,
/// and clean words never pay the penalty. Reads served from the L2 or
/// memory go through the full-latency path and must carry no replay
/// cycles, and the replay counter must agree with the per-read outcomes.
///
/// The serving way is not externally observable, so the per-read claim
/// is decided only where it is decidable: word offsets whose defect
/// status is uniform across every way of the addressed set (mixed
/// offsets still participate in the source and counter checks).
///
/// `kind` is the scheme under test — [`SchemeKind::TsCache`] passes; an
/// unprotected scheme (e.g. conventional) fails the moment it serves a
/// defective word without replay, which is how the suite proves this
/// checker has teeth.
pub fn ts_replay_violation(kind: SchemeKind, fmap: &FaultMap, ops: &[Op]) -> Option<String> {
    let geom = *fmap.geometry();
    let mut l1 = L1Cache::new(kind, fmap.clone());
    let mut l2 = tiny_l2();
    let mut replayed_reads = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Read(a) => {
                let (_, set) = block_and_set(&geom, a);
                let word = (a % u64::from(geom.block_bytes()) / 4) as u32;
                let out = l1.read(Addr::new(a), &mut l2);
                if out.replay_cycles > 0 {
                    replayed_reads += 1;
                }
                if out.source != ServedFrom::L1 {
                    if out.replay_cycles != 0 {
                        return Some(format!(
                            "step {i}: read of {a:#x} served from {:?} carries \
                             {} replay cycle(s); only L1 hits replay",
                            out.source, out.replay_cycles,
                        ));
                    }
                    continue;
                }
                let faulty_ways = (0..geom.ways())
                    .filter(|&way| {
                        fmap.frame_fault_pattern(FrameId::new(set as u32, way)) & (1 << word) != 0
                    })
                    .count() as u32;
                if faulty_ways == geom.ways() && out.replay_cycles == 0 {
                    return Some(format!(
                        "step {i}: read of {a:#x} (set {set}, word {word}) was served \
                         from the L1 with no replay, but every way holds a defective \
                         copy of that word — a defective word was consumed unchecked",
                    ));
                }
                if faulty_ways == 0 && out.replay_cycles != 0 {
                    return Some(format!(
                        "step {i}: read of {a:#x} (set {set}, word {word}) paid {} \
                         replay cycle(s) but no way of the set is defective there",
                        out.replay_cycles,
                    ));
                }
            }
            Op::Write(a) => {
                l1.write(Addr::new(a));
            }
            Op::InvalidateAll => {
                l1.invalidate_all();
            }
        }
    }
    if l1.stats().replays != replayed_reads {
        return Some(format!(
            "replay counter disagrees with the per-read outcomes: stats say {} \
             but {replayed_reads} read(s) carried replay cycles",
            l1.stats().replays,
        ));
    }
    None
}

/// Bounded-exhaustively checks the timing-speculation contract of `kind`
/// over `fmap` to `depth` (see [`ts_replay_violation`]).
pub fn check_ts_replay(kind: SchemeKind, fmap: &FaultMap, depth: usize) -> Option<Violation> {
    machine_violation("ts-replay", kind, fmap, depth, &|ops| {
        ts_replay_violation(kind, fmap, ops)
    })
}

/// [`clean_equivalence_violation`] — alias so rendered tests read
/// uniformly (`checker(kind, &fmap, &ops)`).
pub fn clean_equivalence_violation_named(
    kind: SchemeKind,
    fmap: &FaultMap,
    ops: &[Op],
) -> Option<String> {
    clean_equivalence_violation(kind, fmap, ops)
}

/// Enumerates **every** sequence of length `depth` over `alphabet`
/// (shorter sequences are covered as prefixes — the evaluators check
/// every step) and returns the first violation, ddmin-shrunk to a
/// minimal failing subsequence.
pub fn check_sequences(
    alphabet: &[Op],
    depth: usize,
    eval: &dyn Fn(&[Op]) -> Option<String>,
) -> Option<(Vec<Op>, String)> {
    assert!(!alphabet.is_empty(), "empty op alphabet");
    let mut odometer = vec![0usize; depth];
    let mut ops: Vec<Op> = Vec::with_capacity(depth);
    loop {
        ops.clear();
        ops.extend(odometer.iter().map(|&i| alphabet[i]));
        if eval(&ops).is_some() {
            let shrunk = ddmin(&ops, &|xs| eval(xs).is_some());
            let detail = eval(&shrunk).unwrap_or_default();
            return Some((shrunk, detail));
        }
        let mut pos = 0;
        loop {
            if pos == depth {
                return None;
            }
            odometer[pos] += 1;
            if odometer[pos] < alphabet.len() {
                break;
            }
            odometer[pos] = 0;
            pos += 1;
        }
    }
}

fn machine_violation(
    invariant: &'static str,
    kind: SchemeKind,
    fmap: &FaultMap,
    depth: usize,
    eval: &dyn Fn(&[Op]) -> Option<String>,
) -> Option<Violation> {
    let alphabet = op_alphabet(fmap.geometry());
    check_sequences(&alphabet, depth, eval).map(|(ops, detail)| Violation {
        invariant,
        ops,
        faults: fmap.iter_faulty_linear().collect(),
        detail: format!("[{}] {detail}", kind.name()),
    })
}

/// Bounded-exhaustively checks the LRU stack property of `kind` over
/// `fmap` to `depth` (see [`lru_stack_violation`] for soundness).
pub fn check_lru_stack(kind: SchemeKind, fmap: &FaultMap, depth: usize) -> Option<Violation> {
    machine_violation("lru-stack", kind, fmap, depth, &|ops| {
        lru_stack_violation(kind, fmap, ops)
    })
}

/// Bounded-exhaustively checks the inclusion property of `kind` over
/// `fmap` to `depth`.
pub fn check_inclusion(kind: SchemeKind, fmap: &FaultMap, depth: usize) -> Option<Violation> {
    machine_violation("inclusion", kind, fmap, depth, &|ops| {
        inclusion_violation(kind, fmap, ops)
    })
}

/// Bounded-exhaustively checks clean-map equivalence of `kind` against
/// the conventional baseline to `depth`.
pub fn check_clean_equivalence(
    kind: SchemeKind,
    geom: &CacheGeometry,
    depth: usize,
) -> Option<Violation> {
    let clean = FaultMap::fault_free(geom);
    machine_violation("clean-map-equivalence", kind, &clean, depth, &|ops| {
        clean_equivalence_violation(kind, &clean, ops)
    })
}

/// Exhaustively checks a window-pattern function over its whole domain
/// (`window_len` 0..=`words_per_block` × every focus word): the pattern
/// must hold exactly `min(len, wpb)` words, be contiguous, and stay
/// within the block.
///
/// `dvs_schemes::ffw::window_pattern` passes; the pre-fix shape
/// (`(1u32 << len) - 1` built with wrapping arithmetic) fails at
/// `len == 32` — the overflow that zeroed full-width windows before the
/// `window_mask` fix.
pub fn check_window_function(
    pattern_of: &dyn Fn(u32, u32, u32) -> u32,
    words_per_block: u32,
) -> Option<Violation> {
    for len in 0..=words_per_block {
        for focus in 0..words_per_block {
            let pattern = pattern_of(len, words_per_block, focus);
            let expect = len.min(words_per_block);
            let fail = |why: String| {
                Some(Violation {
                    invariant: "window-function",
                    ops: Vec::new(),
                    faults: Vec::new(),
                    detail: format!(
                        "window_pattern(len={len}, wpb={words_per_block}, focus={focus}) = \
                         {pattern:#b}: {why}"
                    ),
                })
            };
            if pattern.count_ones() != expect {
                return fail(format!(
                    "holds {} words, expected {expect}",
                    pattern.count_ones()
                ));
            }
            if pattern != 0 {
                let shifted = pattern >> pattern.trailing_zeros();
                if shifted & shifted.wrapping_add(1) != 0 {
                    return fail("not contiguous".to_string());
                }
            }
            if words_per_block < 32 && pattern >> words_per_block != 0 {
                return fail("escapes the block".to_string());
            }
        }
    }
    None
}

/// An LRU replacement machine under bounded checking: the shipping
/// [`CoreLru`] and any buggy model shape under study.
pub trait LruModel {
    /// Marks `way` most recently used.
    fn touch(&mut self, way: u32);
    /// Returns the machine to its initial state (what `invalidate_all`
    /// relies on).
    fn reset(&mut self);
    /// Recency rank of `way` (0 = most recent).
    fn rank(&self, way: u32) -> u32;
}

/// The shipping LRU machine: the replacement state of a one-set
/// [`CacheCore`]. `touch(w)` hits or fills a block that only ever lives in
/// way `w`, `reset` is `invalidate_all`, and ranks are the core's
/// `way_rank`.
#[derive(Debug)]
pub struct CoreLru(CacheCore);

impl CoreLru {
    /// A one-set core of `ways` one-word frames.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is a power of two.
    pub fn new(ways: u32) -> Self {
        let geom = CacheGeometry::new(4 * ways, ways, 4).expect("one-set geometry");
        CoreLru(CacheCore::new(geom))
    }
}

impl LruModel for CoreLru {
    fn touch(&mut self, way: u32) {
        // One set and one-word blocks: the tag of block `way` is `way`.
        let addr = Addr::new(u64::from(way) * 4);
        if !self.0.lookup(addr).is_hit() {
            self.0.fill_into(addr, way);
        }
    }
    fn reset(&mut self) {
        self.0.invalidate_all();
    }
    fn rank(&self, way: u32) -> u32 {
        self.0.way_rank(0, way)
    }
}

/// One step of the LRU-machine alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LruOp {
    /// Touch a way.
    Touch(u32),
    /// Reset the machine.
    Reset,
}

/// Checks **reset freshness** of an LRU machine, bounded-exhaustively:
/// after any op sequence, the machine's recency ranks must equal those
/// of a fresh machine replaying only the ops since the last reset.
///
/// The shipping [`CoreLru`] passes. The pre-fix shape — `invalidate_all`
/// clearing validity but leaving the recency order untouched (no
/// `reset()`) — fails on the two-op sequence `[Touch(1), Reset]`: the
/// stale machine still ranks way 1 most recent.
pub fn check_lru_reset<M: LruModel>(
    make: &dyn Fn(u32) -> M,
    ways: u32,
    depth: usize,
) -> Option<Violation> {
    let mut alphabet: Vec<LruOp> = (0..ways).map(LruOp::Touch).collect();
    alphabet.push(LruOp::Reset);
    let eval = |ops: &[LruOp]| -> Option<String> {
        let mut machine = make(ways);
        let mut suffix: Vec<u32> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            match op {
                LruOp::Touch(w) => {
                    machine.touch(w);
                    suffix.push(w);
                }
                LruOp::Reset => {
                    machine.reset();
                    suffix.clear();
                }
            }
            let mut fresh = make(ways);
            for &w in &suffix {
                fresh.touch(w);
            }
            for w in 0..ways {
                if machine.rank(w) != fresh.rank(w) {
                    return Some(format!(
                        "step {i}: way {w} ranks {} but a fresh replay of the post-reset \
                         suffix ranks it {}",
                        machine.rank(w),
                        fresh.rank(w)
                    ));
                }
            }
        }
        None
    };
    // Same odometer as `check_sequences`, over the LRU alphabet.
    let mut odometer = vec![0usize; depth];
    let mut ops: Vec<LruOp> = Vec::with_capacity(depth);
    loop {
        ops.clear();
        ops.extend(odometer.iter().map(|&i| alphabet[i]));
        if eval(&ops).is_some() {
            let shrunk = ddmin(&ops, &|xs| eval(xs).is_some());
            let detail = eval(&shrunk).unwrap_or_default();
            return Some(Violation {
                invariant: "lru-reset",
                ops: Vec::new(),
                faults: Vec::new(),
                detail: format!("{detail}; sequence: {shrunk:?}"),
            });
        }
        let mut pos = 0;
        loop {
            if pos == depth {
                return None;
            }
            odometer[pos] += 1;
            if odometer[pos] < alphabet.len() {
                break;
            }
            odometer[pos] = 0;
            pos += 1;
        }
    }
}

/// Every scheme the clean-map-equivalence invariant covers (the same
/// family the sampling oracle in [`crate::oracles`] compares).
pub fn clean_equivalent_kinds() -> Vec<SchemeKind> {
    vec![
        SchemeKind::EightT,
        SchemeKind::SimpleWordDisable,
        SchemeKind::Ffw,
        SchemeKind::fba(),
        SchemeKind::idc(),
        SchemeKind::WordSubstitution,
        SchemeKind::LineDisable,
        SchemeKind::WayDisable,
        SchemeKind::TsCache,
    ]
}

/// Runs the whole bounded-checking suite to `depth` over the tiny
/// geometry and returns every violation as a `verify/bounded-model`
/// deny diagnostic (empty = all invariants proven to the bound).
pub fn bounded_suite(depth: usize) -> Vec<Diagnostic> {
    use dvs_schemes::ffw::window_pattern;

    let geom = tiny_geometry();
    let clean = FaultMap::fault_free(&geom);
    // Word 1 of frame (0,0) and word 1 of frame (1,1) defective — hits
    // both the direct probe word and an eviction path.
    let faulty = FaultMap::from_faulty_indices(&geom, [1, 25]);
    let mut out = Vec::new();
    for kind in [
        SchemeKind::Conventional,
        SchemeKind::EightT,
        SchemeKind::SimpleWordDisable,
        SchemeKind::Ffw,
        SchemeKind::TsCache,
    ] {
        out.extend(
            check_lru_stack(kind, &clean, depth)
                .iter()
                .map(Violation::to_diagnostic),
        );
    }
    for kind in [
        SchemeKind::Conventional,
        SchemeKind::SimpleWordDisable,
        SchemeKind::Ffw,
        SchemeKind::Fba { entries: 2 },
        SchemeKind::WilkersonPlus,
        SchemeKind::LineDisable,
        SchemeKind::WayDisable,
        SchemeKind::Bbr,
        SchemeKind::TsCache,
    ] {
        for fmap in [&clean, &faulty] {
            out.extend(
                check_inclusion(kind, fmap, depth)
                    .iter()
                    .map(Violation::to_diagnostic),
            );
        }
    }
    for kind in clean_equivalent_kinds() {
        out.extend(
            check_clean_equivalence(kind, &geom, depth)
                .iter()
                .map(Violation::to_diagnostic),
        );
    }
    // TS Cache's speculation contract: checked on the clean map, on the
    // mixed map above, and on a map where word 1 of set 0 is defective in
    // *both* ways — the configuration where "defective word consumed
    // unchecked" is externally decidable on every set-0 hit.
    let both_ways = FaultMap::from_faulty_indices(&geom, [1, 17]);
    for fmap in [&clean, &faulty, &both_ways] {
        out.extend(
            check_ts_replay(SchemeKind::TsCache, fmap, depth)
                .iter()
                .map(Violation::to_diagnostic),
        );
    }
    out.extend(
        check_window_function(&window_pattern, 32)
            .iter()
            .map(Violation::to_diagnostic),
    );
    out.extend(
        check_lru_reset(&CoreLru::new, geom.ways(), depth)
            .iter()
            .map(Violation::to_diagnostic),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_conflicts_within_set_zero() {
        let geom = tiny_geometry();
        let ops = op_alphabet(&geom);
        let reads: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Read(a) => Some(*a),
                _ => None,
            })
            .collect();
        // ways + 1 = 3 conflicting blocks in set 0.
        let set0 = reads
            .iter()
            .filter(|&&a| block_and_set(&geom, a).1 == 0)
            .count();
        assert!(set0 >= 3, "need enough conflicts to force evictions");
        assert!(ops.contains(&Op::InvalidateAll));
        assert!(ops.iter().any(|op| matches!(op, Op::Write(_))));
    }

    #[test]
    fn conventional_satisfies_lru_stack_to_depth_five() {
        let clean = FaultMap::fault_free(&tiny_geometry());
        assert!(check_lru_stack(SchemeKind::Conventional, &clean, 5).is_none());
    }

    #[test]
    fn all_schemes_satisfy_inclusion_on_a_faulty_map() {
        let faulty = FaultMap::from_faulty_indices(&tiny_geometry(), [1, 25]);
        for kind in [
            SchemeKind::Conventional,
            SchemeKind::SimpleWordDisable,
            SchemeKind::Ffw,
            SchemeKind::Fba { entries: 2 },
            SchemeKind::Bbr,
        ] {
            assert!(
                check_inclusion(kind, &faulty, 4).is_none(),
                "{kind:?} broke inclusion"
            );
        }
    }

    #[test]
    fn clean_equivalence_holds_for_the_word_level_family() {
        let geom = tiny_geometry();
        for kind in clean_equivalent_kinds() {
            assert!(
                check_clean_equivalence(kind, &geom, 4).is_none(),
                "{kind:?} diverged from the baseline on a clean map"
            );
        }
    }

    #[test]
    fn ts_cache_never_reads_a_defective_word_unchecked() {
        let geom = tiny_geometry();
        for faults in [vec![], vec![1, 25], vec![1, 17]] {
            let fmap = FaultMap::from_faulty_indices(&geom, faults.iter().copied());
            assert!(
                check_ts_replay(SchemeKind::TsCache, &fmap, 4).is_none(),
                "TS Cache broke the speculation contract on faults {faults:?}"
            );
        }
    }

    #[test]
    fn unchecked_speculation_is_caught_and_shrunk() {
        // Teeth: the conventional cache serves defective words without a
        // replay, so on a map where both ways of set 0 are defective at
        // word 1 the checker must find the unchecked read and ddmin must
        // shrink it to the single offending access.
        let geom = tiny_geometry();
        let both_ways = FaultMap::from_faulty_indices(&geom, [1, 17]);
        let v = check_ts_replay(SchemeKind::Conventional, &both_ways, 3)
            .expect("an unprotected cache must trip the speculation contract");
        assert!(v.detail.contains("consumed unchecked"), "{}", v.detail);
        assert!(v.ops.len() <= 2, "shrunk to {:?}", v.ops);
        let test = v.render_test(
            "shrunk_ts_replay_repro",
            "SchemeKind::Conventional",
            "dvs_diff::bounded::tiny_geometry()",
        );
        assert!(test.contains("ts_replay_violation"));
    }

    #[test]
    fn wilkerson_genuinely_breaks_clean_equivalence() {
        // Capacity halving is observable: the checker must find a
        // counterexample (proof the harness has teeth), and ddmin must
        // shrink it to a handful of ops.
        let geom = tiny_geometry();
        let v = check_clean_equivalence(SchemeKind::WilkersonPlus, &geom, 4)
            .expect("halved capacity must diverge within depth 4");
        assert!(v.ops.len() <= 4);
        assert!(v.detail.contains("Wilkerson+"));
    }

    #[test]
    fn planted_lru_bug_is_found_and_shrunk() {
        // A model machine whose reads never update recency (touch on
        // fill only): the stack property fails once an eviction depends
        // on a hit's recency update. The checker finds it and the
        // diagnostic renders.
        let clean = FaultMap::fault_free(&tiny_geometry());
        let eval = |ops: &[Op]| -> Option<String> {
            // Evaluate the stack model against a machine that drops
            // read-hit touches: replay through the real cache but
            // predict with a FIFO (insertion-order) model instead.
            let geom = *clean.geometry();
            let mut l1 = L1Cache::new(SchemeKind::Conventional, clean.clone());
            let mut l2 = tiny_l2();
            let mut fifo: Vec<Vec<u64>> = vec![Vec::new(); geom.sets() as usize];
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    Op::Read(a) => {
                        let (block, set) = block_and_set(&geom, a);
                        let predicted = fifo[set].contains(&block);
                        let actual = l1.read(Addr::new(a), &mut l2).source == ServedFrom::L1;
                        if actual != predicted {
                            return Some(format!("step {i}: FIFO model diverged"));
                        }
                        if !predicted {
                            fifo[set].insert(0, block);
                            fifo[set].truncate(geom.ways() as usize);
                        }
                    }
                    Op::Write(a) => {
                        l1.write(Addr::new(a));
                    }
                    Op::InvalidateAll => {
                        l1.invalidate_all();
                        fifo.iter_mut().for_each(Vec::clear);
                    }
                }
            }
            None
        };
        let alphabet = op_alphabet(clean.geometry());
        let (ops, detail) =
            check_sequences(&alphabet, 5, &eval).expect("FIFO is not LRU: must diverge");
        // LRU vs FIFO needs a hit-reorder plus two evictions: at least 4 ops.
        assert!(ops.len() >= 4, "shrunk to {ops:?}");
        assert!(detail.contains("FIFO model diverged"));
    }

    #[test]
    fn window_function_passes_and_diagnostic_renders() {
        use dvs_schemes::ffw::window_pattern;
        assert!(check_window_function(&window_pattern, 32).is_none());
        assert!(check_window_function(&window_pattern, 8).is_none());
    }

    #[test]
    fn real_lru_queue_resets_fresh() {
        assert!(check_lru_reset(&CoreLru::new, 4, 4).is_none());
    }

    #[test]
    fn violation_renders_diagnostic_and_test() {
        let v = Violation {
            invariant: "lru-stack",
            ops: vec![Op::Read(0), Op::InvalidateAll, Op::Read(0)],
            faults: vec![3],
            detail: "step 2: read of 0x0 hit but the LRU stack model predicts a miss".into(),
        };
        let d = v.to_diagnostic();
        assert_eq!(d.lint, dvs_linker::lint_ids::VERIFY_BOUNDED_MODEL);
        assert!(d.message.contains("lru-stack"));
        assert!(d.message.contains("Op::InvalidateAll"));
        let test = v.render_test(
            "shrunk_lru_repro",
            "SchemeKind::Conventional",
            "dvs_diff::bounded::tiny_geometry()",
        );
        assert!(test.contains("fn shrunk_lru_repro()"));
        assert!(test.contains("lru_stack_violation"));
        assert!(test.contains("from_faulty_indices"));
        assert!(test.contains("Op::Read(0x0)"));
    }

    #[test]
    fn bounded_suite_is_clean_at_depth_four() {
        let diags = bounded_suite(4);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
