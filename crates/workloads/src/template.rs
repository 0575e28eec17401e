//! Recorded trace templates: walk once, re-emit per layout.
//!
//! Trace generation dominated the per-trial hot path: every trial re-ran
//! the full [`TraceWalker`] CFG interpretation (RNG draws, operand
//! selection, data-address generation) even though, for a fixed benchmark
//! and trace seed, the *dynamic instruction sequence* is identical across
//! trials — only the layout-dependent fields (pc, literal addresses,
//! branch targets) and the relaxation-dependent synthetic jumps differ.
//!
//! A [`TraceTemplate`] records one walk over the **unrelaxed** transformed
//! program (the maximal explicit-jump set) together with each op's
//! layout-independent [`StepMeta`], then resolves it against any
//! `(program, layout)` pair produced by the BBR linker for the same
//! benchmark. Resolution is a linear pass that patches addresses — no RNG,
//! no CFG interpretation.
//!
//! # Why this is exact
//!
//! BBR relaxation only ever *clears* `explicit_jump` flags, and inserted
//! jumps consume no RNG draws (no operand picks, no branch-outcome draw).
//! So a walker over a relaxed program visits the same blocks in the same
//! order with an identical RNG stream; its trace is the recorded trace
//! minus the elided synthetic jumps, with addresses from the new layout.
//! [`TraceStep::resolve`] reproduces exactly that, one step at a time: it
//! skips recorded synthetic steps whose block no longer carries an
//! explicit jump, recomputes `pc` / literal addresses / branch targets
//! from the new layout, and re-resolves return targets (which depend on
//! whether the *caller* kept its jump). [`TraceTemplate::resolve_into`]
//! applies it to a whole recording; the same rule serves a live walk of
//! the unrelaxed program, which is how one walk drives several trials.

use crate::walker::{StepMeta, TargetRef};
use crate::{Layout, Program, TraceOp, TraceWalker};

/// One recorded dynamic instruction: the op as emitted under the recording
/// layout plus the layout-independent coordinates needed to re-emit it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// The op as recorded. `pc`, literal `mem_addr`s and branch targets
    /// are placeholders valid only for the recording layout.
    pub op: TraceOp,
    /// Layout-independent coordinates of the op.
    pub meta: StepMeta,
}

impl TraceStep {
    /// Re-emits this step under `(program, layout)`: the op a fresh
    /// [`TraceWalker`] over that pair emits at this point of the walk, or
    /// `None` when relaxation elided this inserted jump (the relaxed
    /// walker falls through silently and emits nothing).
    ///
    /// `program` must be the recording program with a subset of its
    /// explicit jumps, laid out by `layout` (see [`TraceTemplate`]).
    #[inline]
    pub fn resolve(&self, program: &Program, layout: &Layout) -> Option<TraceOp> {
        let block = self.meta.block;
        if self.op.synthetic && !program.block(block).explicit_jump {
            return None;
        }
        let mut op = self.op;
        op.pc = layout.instr_addr(block, self.meta.word);
        if let Some(ordinal) = self.meta.literal_ordinal {
            op.mem_addr = Some(layout.literal_addr(program, block) + u64::from(ordinal) * 4);
        }
        if let Some(info) = op.branch.as_mut() {
            info.target = match self.meta.target {
                Some(TargetRef::Start(target)) => layout.block_start(target),
                Some(TargetRef::AfterCall(caller)) => {
                    let caller_block = program.block(caller);
                    if caller_block.explicit_jump {
                        layout.instr_addr(caller, caller_block.body_len + 1)
                    } else {
                        layout.block_start(caller + 1)
                    }
                }
                Some(TargetRef::SelfPc) => op.pc,
                // Branches always record a target; keep the recorded
                // address if one ever slips through.
                None => info.target,
            };
        }
        Some(op)
    }
}

/// A recorded instruction trace that can be resolved against any layout
/// (and any relaxation) of the same program.
///
/// Record once per `(benchmark, trace seed)` over the unrelaxed
/// transformed program; resolve per trial against the linked image. The
/// resolving program must be the recording program with a **subset** of
/// its explicit jumps (which is what BBR relaxation produces) — block
/// count, bodies, terminators and literal counts must all match.
#[derive(Debug, Clone)]
pub struct TraceTemplate {
    steps: Vec<TraceStep>,
    /// Number of blocks in the recording program, for cheap compatibility
    /// checks at resolve time.
    num_blocks: usize,
    /// Whether the recorded walk ended on its own (`main` returned) before
    /// the step budget — if so the template covers the *entire* trace and
    /// shorter resolutions are still exact.
    complete: bool,
}

impl TraceTemplate {
    /// Records up to `max_steps` ops from `walker`.
    ///
    /// The walker must be fresh (no ops consumed) and should run over the
    /// unrelaxed transformed program so the template carries the maximal
    /// synthetic-jump set. Budget `max_steps` above the trial trace length:
    /// relaxation removes synthetic steps, so resolving `n` ops can consume
    /// more than `n` recorded steps.
    pub fn record(walker: &mut TraceWalker<'_>, max_steps: usize) -> Self {
        let num_blocks = walker.num_blocks();
        let mut steps = Vec::with_capacity(max_steps);
        let mut complete = false;
        while steps.len() < max_steps {
            match walker.next() {
                Some(op) => steps.push(TraceStep {
                    op,
                    meta: walker.last_step_meta(),
                }),
                None => {
                    complete = true;
                    break;
                }
            }
        }
        TraceTemplate {
            steps,
            num_blocks,
            complete,
        }
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Whether the recorded walk ended on its own before the step budget.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The recorded steps.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Resolves the template against `(program, layout)`, writing up to
    /// `n` ops into `out` (which is cleared first).
    ///
    /// Returns `true` when `out` is exactly what a fresh [`TraceWalker`]
    /// over `(program, layout)` would produce under `take(n)`: either `n`
    /// ops were emitted, or the recorded walk is [`complete`] and the
    /// whole (shorter) trace was emitted. Returns `false` when the
    /// recording ran out of steps first — the caller must fall back to a
    /// fresh walker; `out`'s contents are then meaningless.
    ///
    /// [`complete`]: TraceTemplate::is_complete
    ///
    /// # Panics
    ///
    /// Panics if `program`/`layout` disagree with the recording program's
    /// block count.
    pub fn resolve_into(
        &self,
        program: &Program,
        layout: &Layout,
        n: usize,
        out: &mut Vec<TraceOp>,
    ) -> bool {
        assert_eq!(
            program.num_blocks(),
            self.num_blocks,
            "template does not match program"
        );
        assert_eq!(
            layout.num_blocks(),
            self.num_blocks,
            "template does not match layout"
        );
        out.clear();
        if out.capacity() < n {
            out.reserve(n - out.capacity());
        }
        for step in &self.steps {
            if out.len() == n {
                return true;
            }
            if let Some(op) = step.resolve(program, layout) {
                out.push(op);
            }
        }
        out.len() >= n || self.complete
    }
}

#[cfg(test)]
// Tests build one-function programs, whose span list really is `vec![0..n]`.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crate::{Benchmark, Block, DataGen, DataParams, InstrMix, Terminator};
    fn params() -> DataParams {
        DataParams {
            spatial: 0.5,
            reuse: 0.7,
            ws_blocks: 32,
            scattered: false,
            churn: 0.25,
            footprint_blocks: 100_000,
        }
    }

    fn walker_for<'a>(program: &'a Program, layout: &'a Layout, seed: u64) -> TraceWalker<'a> {
        TraceWalker::new(
            program,
            layout,
            InstrMix::integer_heavy(),
            DataGen::new(params(), seed),
            7,
            seed,
        )
    }

    /// Identity resolution: same program, same layout must reproduce the
    /// walker byte for byte.
    #[test]
    fn identity_resolution_matches_walker() {
        let wl = Benchmark::Qsort.build(42);
        let layout = Layout::sequential(wl.program());
        let n = 4000;
        let template = TraceTemplate::record(&mut wl.trace(&layout, 0), n + n / 8 + 64);
        let mut resolved = Vec::new();
        assert!(template.resolve_into(wl.program(), &layout, n, &mut resolved));
        let direct: Vec<TraceOp> = wl.trace(&layout, 0).take(n).collect();
        assert_eq!(resolved, direct);
    }

    /// Resolution against a different layout of the same program rewrites
    /// every address correctly.
    #[test]
    fn relayout_resolution_matches_walker() {
        let wl = Benchmark::Crc32.build(7);
        let program = wl.program();
        let record_layout = Layout::sequential(program);
        let template = TraceTemplate::record(&mut wl.trace(&record_layout, 3), 5000);

        // Shift every block (and each function's literal pool) by one
        // cache line (16 words = 64 bytes).
        let shifted: Vec<u64> = (0..program.num_blocks())
            .map(|id| record_layout.block_start(id) + 64)
            .collect();
        let pools: Vec<u64> = program
            .functions()
            .iter()
            .map(|range| {
                let last = range.end - 1;
                let block = program.block(last);
                record_layout.instr_addr(last, block.footprint_words()) + 64
            })
            .collect();
        let layout = Layout::from_parts(shifted, pools, record_layout.end() + 128);

        let mut resolved = Vec::new();
        assert!(template.resolve_into(program, &layout, 4000, &mut resolved));
        let direct: Vec<TraceOp> = wl.trace(&layout, 3).take(4000).collect();
        assert_eq!(resolved, direct);
    }

    /// The relaxation case: record with an explicit jump present, resolve
    /// against the program with the jump elided. Covers the synthetic-skip
    /// rule and the `AfterCall` return-target re-resolution.
    #[test]
    fn relaxed_resolution_matches_walker() {
        // main: b0 (2 instr, call f1, explicit jump), b1 (2 instr,
        // cond-branch to b0 never taken, explicit jump), b2 (jump b0).
        // f1: b3 (1 instr, return). The return into b0 exercises
        // AfterCall; the never-taken cond branch exercises the
        // fall-through jump path.
        let mut b0 = Block::with_terminator(2, Terminator::Call { callee: 3 });
        b0.explicit_jump = true;
        let mut b1 = Block::with_terminator(
            2,
            Terminator::CondBranch {
                target: 0,
                taken_prob: 0.0,
            },
        );
        b1.explicit_jump = true;
        let blocks = vec![
            b0,
            b1,
            Block::with_terminator(1, Terminator::Jump { target: 0 }),
            Block::with_terminator(1, Terminator::Return),
        ];
        let unrelaxed = Program::new(blocks.clone(), vec![0..3, 3..4], vec![0, 0]).unwrap();
        let record_layout = Layout::sequential(&unrelaxed);
        let template = TraceTemplate::record(&mut walker_for(&unrelaxed, &record_layout, 5), 3000);

        // Relax b0's jump (its return target collapses to b1's start) and
        // keep b1's (the not-taken cond branch still needs it).
        let mut relaxed_blocks = blocks;
        relaxed_blocks[0].explicit_jump = false;
        let relaxed = Program::new(relaxed_blocks, vec![0..3, 3..4], vec![0, 0]).unwrap();
        let layout = Layout::sequential(&relaxed);

        let n = 2000;
        let mut resolved = Vec::new();
        assert!(template.resolve_into(&relaxed, &layout, n, &mut resolved));
        let direct: Vec<TraceOp> = walker_for(&relaxed, &layout, 5).take(n).collect();
        assert_eq!(resolved, direct);
        // The elided jump really was skipped: the template consumed more
        // steps than it emitted.
        assert!(template.len() > n);
        assert!(resolved
            .iter()
            .all(|op| !op.synthetic || op.branch.is_some()));
    }

    /// A template that runs out of steps reports failure instead of
    /// returning a short trace.
    #[test]
    fn exhausted_template_reports_failure() {
        let wl = Benchmark::Dijkstra.build(1);
        let layout = Layout::sequential(wl.program());
        let template = TraceTemplate::record(&mut wl.trace(&layout, 0), 100);
        let mut out = Vec::new();
        assert!(!template.resolve_into(wl.program(), &layout, 5000, &mut out));
        // A within-budget request still succeeds.
        assert!(template.resolve_into(wl.program(), &layout, 50, &mut out));
        assert_eq!(out.len(), 50);
    }

    /// A complete recording (main returned) resolves successfully even
    /// when fewer than `n` ops exist.
    #[test]
    fn complete_short_trace_resolves() {
        let blocks = vec![Block::with_terminator(1, Terminator::Return)];
        let p = Program::new(blocks, vec![0..1], vec![0]).unwrap();
        let l = Layout::sequential(&p);
        let template = TraceTemplate::record(&mut walker_for(&p, &l, 0), 100);
        assert!(template.is_complete());
        let mut out = Vec::new();
        assert!(template.resolve_into(&p, &l, 50, &mut out));
        let direct: Vec<TraceOp> = walker_for(&p, &l, 0).take(50).collect();
        assert_eq!(out, direct);
    }
}
