//! The fault-map-aware linker — Algorithm 1 of the paper.

use std::fmt;

use serde::{Deserialize, Serialize};

use dvs_obs::{Recorder, Span};
use dvs_sram::{BitGrid, CacheGeometry, FaultMap};
use dvs_workloads::{Layout, Program};

use crate::diag::{lint_ids, Diagnostic, Location};

/// Error returned when a program cannot be linked against a fault map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A block's footprint exceeds the whole cache.
    BlockTooLarge {
        /// Offending block id.
        block: usize,
        /// Its footprint in words.
        footprint: u32,
    },
    /// The scan looped the entire cache without finding a chunk that fits
    /// (the fault map has no run of `footprint` fault-free words).
    NoChunkFits {
        /// Offending block id.
        block: usize,
        /// Its footprint in words.
        footprint: u32,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::BlockTooLarge { block, footprint } => {
                write!(f, "block {block} ({footprint} words) exceeds the cache")
            }
            LinkError::NoChunkFits { block, footprint } => write!(
                f,
                "no fault-free chunk of {footprint} words for block {block}"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// Placement statistics of a linked image.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Total words of the placed image (address space consumed).
    pub image_words: u32,
    /// Words of actual code + literals.
    pub code_words: u32,
    /// Gap words the linker inserted to skip defective cache words.
    pub padding_words: u32,
    /// Distinct cache words covered by at least one block.
    pub cache_words_used: u32,
    /// Cache words covered by more than one block (chunk sharing — these
    /// cause extra direct-mapped conflicts).
    pub cache_words_shared: u32,
    /// Fault-free words available in the cache.
    pub fault_free_words: u32,
}

impl LinkStats {
    /// Fraction of the cache covered by placed code (Figure 6a's
    /// "effective capacity" for a fully resident program).
    pub fn utilization(&self, geometry: &CacheGeometry) -> f64 {
        f64::from(self.cache_words_used) / f64::from(geometry.total_words())
    }
}

/// A successfully linked program image.
///
/// Owns the final program: the linker performs *relaxation* — an explicit
/// fall-through jump whose target ends up immediately after it is elided,
/// exactly as binutils-style linkers shorten jumps to the next address.
/// Algorithm 1 places blocks in program order, so most fall-through jumps
/// elide whenever no defective word interrupts the chunk, which keeps
/// BBR's dynamic overhead low at mild defect densities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkedImage {
    program: Program,
    layout: Layout,
    stats: LinkStats,
}

impl LinkedImage {
    /// The linked program (with elided fall-through jumps removed). Trace
    /// this program, not the transform's output.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The block placement.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Consumes the image, returning `(program, layout)`.
    pub fn into_parts(self) -> (Program, Layout) {
        (self.program, self.layout)
    }

    /// Placement statistics.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Verifies that no placed instruction or literal maps to a defective
    /// cache word, and that every elided fall-through lands exactly on the
    /// next block. Returns the first finding as a structured
    /// [`Diagnostic`] (lint id, severity, location, message); the
    /// `dvs-analysis` crate runs the same checks — and more — through its
    /// lint registry when every finding is wanted.
    pub fn verify(&self, fmap: &FaultMap) -> Result<(), Diagnostic> {
        let csize = u64::from(fmap.geometry().total_words());
        for id in 0..self.program.num_blocks() {
            let block = self.program.block(id);
            let start = self.layout.block_start(id);
            for k in 0..block.footprint_words() {
                let cache_word = ((start / 4 + u64::from(k)) % csize) as u32;
                if fmap.linear_is_faulty(cache_word) {
                    return Err(Diagnostic::deny(
                        lint_ids::CHUNK_CONTAINMENT,
                        Location::Block { id, word: Some(k) },
                        format!("placed word maps to defective cache word {cache_word}"),
                    ));
                }
            }
            // An implicit fall-through (elided jump) must be adjacent.
            let falls_through = !block.explicit_jump
                && matches!(
                    block.terminator,
                    dvs_workloads::Terminator::FallThrough
                        | dvs_workloads::Terminator::CondBranch { .. }
                        | dvs_workloads::Terminator::Call { .. }
                );
            if falls_through {
                let end = start + u64::from(block.footprint_words()) * 4;
                let next = self.layout.block_start(id + 1);
                if next != end {
                    return Err(Diagnostic::deny(
                        lint_ids::LAYOUT_SOUNDNESS,
                        Location::Block {
                            id,
                            word: Some(block.footprint_words()),
                        },
                        format!(
                            "fall-through block ends at {end:#x} but block {} starts at {next:#x}",
                            id + 1
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The BBR linker: places each basic block of a transformed program into
/// the first fault-free chunk that fits, scanning with a single global
/// pointer that wraps around the cache (paper Algorithm 1).
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbrLinker {
    geometry: CacheGeometry,
    relax: bool,
}

impl BbrLinker {
    /// Creates a linker for the given instruction-cache geometry, with
    /// jump relaxation enabled.
    pub fn new(geometry: CacheGeometry) -> Self {
        BbrLinker {
            geometry,
            relax: true,
        }
    }

    /// Disables jump relaxation (every transform-inserted jump survives).
    /// Used by the ablation study to quantify what relaxation saves.
    pub fn without_relaxation(mut self) -> Self {
        self.relax = false;
        self
    }

    /// Links `program` against `fmap`, producing a layout in which every
    /// block occupies only fault-free cache words.
    ///
    /// Run [`crate::bbr_transform`] on the program first: un-transformed
    /// programs have implicit fall-through paths that relocation would
    /// break (this is asserted).
    ///
    /// # Errors
    ///
    /// Returns [`LinkError`] if some block cannot be placed anywhere in
    /// the cache.
    ///
    /// # Panics
    ///
    /// Panics if `fmap`'s geometry differs from the linker's, if the
    /// program still has shared literal pools, or if any fall-through path
    /// lacks an explicit jump.
    pub fn link(&self, program: &Program, fmap: &FaultMap) -> Result<LinkedImage, LinkError> {
        self.link_inner(program, fmap, None)
    }

    /// [`BbrLinker::link`] with observability: placement counters
    /// (`linker.links`, `linker.blocks_placed`, `linker.jumps_elided`,
    /// `linker.scan_steps`, `linker.padding_words` — all deterministic)
    /// plus wall-clock timings (`linker.link_nanos` for the whole link,
    /// `linker.chunk_scan_nanos` per block scanned) go to `recorder`.
    ///
    /// A caller that memoises images may replay a link's counters when it
    /// reuses the image instead of linking again (the experiment engine
    /// does, so its counters read the same at any thread count). Under
    /// such a caller the counters count images requested, while the
    /// timers — never replayed — count and time only the links actually
    /// performed: `linker.link_nanos`'s sample count is that number.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError`] exactly as [`BbrLinker::link`] does; the
    /// recorder never changes the placement.
    pub fn link_recorded(
        &self,
        program: &Program,
        fmap: &FaultMap,
        recorder: &dyn Recorder,
    ) -> Result<LinkedImage, LinkError> {
        self.link_inner(program, fmap, Some(recorder))
    }

    fn link_inner(
        &self,
        program: &Program,
        fmap: &FaultMap,
        recorder: Option<&dyn Recorder>,
    ) -> Result<LinkedImage, LinkError> {
        let _link_span = recorder.map(|r| Span::enter(r, "linker.link_nanos"));
        assert_eq!(
            fmap.geometry(),
            &self.geometry,
            "fault map geometry mismatch"
        );
        assert!(
            program.pool_words().iter().all(|&w| w == 0),
            "run move_literal_pools before linking"
        );
        for (id, b) in program.blocks().iter().enumerate() {
            let relocatable = b.explicit_jump
                || matches!(
                    b.terminator,
                    dvs_workloads::Terminator::Jump { .. } | dvs_workloads::Terminator::Return
                );
            assert!(
                relocatable,
                "block {id} is not relocatable; run insert_jumps"
            );
        }

        let csize = self.geometry.total_words();
        let mut mem_word = 0u64; // the global pointer, in words
        let mut block_starts = Vec::with_capacity(program.num_blocks());
        let mut blocks: Vec<dvs_workloads::Block> = Vec::with_capacity(program.num_blocks());
        let mut jumps_elided = 0u64;
        let mut scan_steps = 0u64;

        for (id, block) in program.blocks().iter().enumerate() {
            let footprint = block.footprint_words();
            if footprint > csize {
                return Err(LinkError::BlockTooLarge {
                    block: id,
                    footprint,
                });
            }
            // Relaxation: if the previous block ends in an explicit
            // fall-through jump (and nothing after it), try to place this
            // block in the jump's own slot — the jump then targets the
            // next address and is removed.
            let prev_elidable = self.relax && id > 0 && {
                let pb = &blocks[id - 1];
                pb.explicit_jump && pb.literal_words == 0
            };
            let mut elided = false;
            if prev_elidable {
                let candidate = mem_word - 1;
                let cache_addr = (candidate % u64::from(csize)) as u32;
                if crate::chunks::first_faulty_in_run(fmap, cache_addr, footprint).is_none() {
                    blocks[id - 1].explicit_jump = false;
                    mem_word = candidate;
                    elided = true;
                    jumps_elided += 1;
                }
            }
            if !elided {
                // Scan forward until the chunk starting at the pointer's
                // cache image holds `footprint` fault-free words; give up
                // after one full loop around the cache.
                let scan_timer = recorder.map(|_| std::time::Instant::now());
                let scan_start = mem_word;
                loop {
                    let cache_addr = (mem_word % u64::from(csize)) as u32;
                    match crate::chunks::first_faulty_in_run(fmap, cache_addr, footprint) {
                        None => break,
                        Some(offset) => {
                            // Jump past the defective word that broke the run.
                            mem_word += u64::from(offset) + 1;
                            scan_steps += 1;
                            if mem_word - scan_start >= u64::from(csize) + u64::from(footprint) {
                                return Err(LinkError::NoChunkFits {
                                    block: id,
                                    footprint,
                                });
                            }
                        }
                    }
                }
                if let (Some(r), Some(t)) = (recorder, scan_timer) {
                    r.duration("linker.chunk_scan_nanos", t.elapsed().as_nanos() as u64);
                }
            }
            block_starts.push(mem_word * 4);
            blocks.push(*block);
            mem_word += u64::from(footprint);
        }

        // Statistics over the final (relaxed) blocks.
        let mut used = BitGrid::new(csize as usize);
        let mut shared = 0u32;
        let mut code_words = 0u32;
        for (start, block) in block_starts.iter().zip(&blocks) {
            let footprint = block.footprint_words();
            code_words += footprint;
            for k in 0..footprint {
                let w = ((start / 4 + u64::from(k)) % u64::from(csize)) as usize;
                if used.get(w) {
                    shared += 1;
                } else {
                    used.set(w, true);
                }
            }
        }

        let image_words = mem_word as u32;
        let stats = LinkStats {
            image_words,
            code_words,
            padding_words: image_words - code_words,
            cache_words_used: used.count_ones() as u32,
            cache_words_shared: shared,
            fault_free_words: csize - fmap.faulty_words() as u32,
        };
        let relaxed = Program::new(
            blocks,
            program.functions().to_vec(),
            program.pool_words().to_vec(),
        )
        .expect("relaxation preserves validity");
        if let Some(r) = recorder {
            r.add("linker.links", 1);
            r.add("linker.blocks_placed", block_starts.len() as u64);
            r.add("linker.jumps_elided", jumps_elided);
            r.add("linker.scan_steps", scan_steps);
            r.add("linker.padding_words", u64::from(stats.padding_words));
        }
        let pool_starts = vec![0u64; program.functions().len()];
        let layout = Layout::from_parts(block_starts, pool_starts, mem_word * 4);
        Ok(LinkedImage {
            program: relaxed,
            layout,
            stats,
        })
    }
}

#[cfg(test)]
// Tests build one-function programs, whose span list really is `vec![0..n]`.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crate::bbr_transform;
    use dvs_workloads::{Benchmark, Block, Terminator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geom() -> CacheGeometry {
        CacheGeometry::dsn_l1() // 8192 words
    }

    fn tiny_geom() -> CacheGeometry {
        CacheGeometry::new(128, 2, 32).unwrap() // 32 words
    }

    fn chain_program(sizes: &[u32]) -> Program {
        // Each block jumps to the next; the last jumps to block 0.
        let n = sizes.len();
        let blocks: Vec<Block> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                Block::with_terminator(
                    s - 1,
                    Terminator::Jump {
                        target: (i + 1) % n,
                    },
                )
            })
            .collect();
        Program::new(blocks, vec![0..n], vec![0]).unwrap()
    }

    #[test]
    fn clean_map_packs_sequentially() {
        let p = chain_program(&[4, 4, 4]);
        let fmap = FaultMap::fault_free(&tiny_geom());
        let image = BbrLinker::new(tiny_geom()).link(&p, &fmap).unwrap();
        assert_eq!(image.layout().block_start(0), 0);
        assert_eq!(image.layout().block_start(1), 16);
        assert_eq!(image.layout().block_start(2), 32);
        assert_eq!(image.stats().padding_words, 0);
        assert!(image.verify(&fmap).is_ok());
    }

    #[test]
    fn skips_defective_words() {
        // Fault at word 2: a 4-word block cannot start at 0 or 1 or 2.
        let p = chain_program(&[4]);
        let fmap = FaultMap::from_faulty_indices(&tiny_geom(), [2]);
        let image = BbrLinker::new(tiny_geom()).link(&p, &fmap).unwrap();
        assert_eq!(image.layout().block_start(0), 3 * 4);
        assert_eq!(image.stats().padding_words, 3);
        assert!(image.verify(&fmap).is_ok());
    }

    #[test]
    fn packs_multiple_blocks_into_one_chunk() {
        // Faults at 0 and 20: chunk [1, 20) holds both 8-word blocks.
        let p = chain_program(&[8, 8]);
        let fmap = FaultMap::from_faulty_indices(&tiny_geom(), [0, 20]);
        let image = BbrLinker::new(tiny_geom()).link(&p, &fmap).unwrap();
        assert_eq!(image.layout().block_start(0), 4);
        assert_eq!(image.layout().block_start(1), 9 * 4);
        assert!(image.verify(&fmap).is_ok());
    }

    #[test]
    fn wraps_around_the_cache() {
        // 32-word cache; first block consumes words 0..30; second block (4
        // words) must wrap: it occupies 30, 31, 0, 1 — all fault-free.
        let p = chain_program(&[30, 4]);
        let fmap = FaultMap::fault_free(&tiny_geom());
        let image = BbrLinker::new(tiny_geom()).link(&p, &fmap).unwrap();
        assert_eq!(image.layout().block_start(1), 30 * 4);
        assert!(image.verify(&fmap).is_ok());
        // Wrapped words are shared with nothing, but counted once.
        assert_eq!(image.stats().cache_words_shared, 2); // words 0,1 reused
    }

    #[test]
    fn error_when_no_chunk_fits() {
        // Every second word faulty: no run of 4 exists.
        let fmap = FaultMap::from_faulty_indices(&tiny_geom(), (0..32).step_by(2));
        let p = chain_program(&[4]);
        let err = BbrLinker::new(tiny_geom()).link(&p, &fmap).unwrap_err();
        assert!(matches!(
            err,
            LinkError::NoChunkFits {
                block: 0,
                footprint: 4
            }
        ));
    }

    #[test]
    fn error_when_block_exceeds_cache() {
        let p = chain_program(&[40]);
        let fmap = FaultMap::fault_free(&tiny_geom());
        let err = BbrLinker::new(tiny_geom()).link(&p, &fmap).unwrap_err();
        assert!(matches!(err, LinkError::BlockTooLarge { .. }));
    }

    #[test]
    #[should_panic(expected = "not relocatable")]
    fn rejects_untransformed_program() {
        let blocks = vec![
            Block::body(3),
            Block::with_terminator(1, Terminator::Jump { target: 0 }),
        ];
        let p = Program::new(blocks, vec![0..2], vec![0]).unwrap();
        let fmap = FaultMap::fault_free(&tiny_geom());
        let _ = BbrLinker::new(tiny_geom()).link(&p, &fmap);
    }

    #[test]
    fn links_every_benchmark_at_400mv() {
        // P_fail(word) at 400 mV ≈ 0.275 — the paper's hardest point.
        let model = dvs_sram::PfailModel::dsn45();
        let p_word = model.pfail_word(dvs_sram::MilliVolts::new(400));
        for b in [Benchmark::Crc32, Benchmark::Adpcm, Benchmark::Basicmath] {
            let wl = b.build(3);
            let t = bbr_transform(wl.program(), 6);
            let mut ok = 0;
            for seed in 0..10u64 {
                let fmap = FaultMap::sample(&geom(), p_word, &mut StdRng::seed_from_u64(seed));
                if let Ok(image) = BbrLinker::new(geom()).link(&t, &fmap) {
                    assert!(image.verify(&fmap).is_ok(), "{b} invalid placement");
                    ok += 1;
                }
            }
            assert!(ok >= 8, "{b}: only {ok}/10 fault maps linked at 400 mV");
        }
    }

    #[test]
    fn verify_reports_structured_diagnostics() {
        // Link cleanly, then check against a *different* map in which the
        // placed words are defective: verify must name the lint and block.
        let p = chain_program(&[4]);
        let clean = FaultMap::fault_free(&tiny_geom());
        let image = BbrLinker::new(tiny_geom()).link(&p, &clean).unwrap();
        let hostile = FaultMap::from_faulty_indices(&tiny_geom(), [2]);
        let diag = image.verify(&hostile).unwrap_err();
        assert_eq!(diag.lint, crate::lint_ids::CHUNK_CONTAINMENT);
        assert_eq!(diag.severity, crate::Severity::Deny);
        assert_eq!(
            diag.location,
            crate::Location::Block {
                id: 0,
                word: Some(2)
            }
        );
        assert!(diag.message.contains("defective cache word 2"));
    }

    #[test]
    fn recorded_link_matches_plain_link_and_counts_placement() {
        use dvs_obs::MetricsRegistry;
        let wl = Benchmark::Crc32.build(1);
        let t = bbr_transform(wl.program(), 6);
        let fmap = FaultMap::sample(&geom(), 0.05, &mut StdRng::seed_from_u64(3));
        let linker = BbrLinker::new(geom());
        let plain = linker.link(&t, &fmap).unwrap();
        let reg = MetricsRegistry::new();
        let recorded = linker.link_recorded(&t, &fmap, &reg).unwrap();
        assert_eq!(plain, recorded, "recorder must not change placement");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("linker.links"), 1);
        assert_eq!(
            snap.counter("linker.blocks_placed"),
            recorded.program().num_blocks() as u64
        );
        assert_eq!(
            snap.counter("linker.padding_words"),
            u64::from(recorded.stats().padding_words)
        );
        assert!(snap.counter("linker.jumps_elided") > 0);
        assert!(snap.counter("linker.scan_steps") > 0, "faults force scans");
        assert_eq!(snap.timers["linker.link_nanos"].count, 1);
        assert!(snap.timers["linker.chunk_scan_nanos"].count > 0);
    }

    #[test]
    fn stats_are_consistent() {
        let p = chain_program(&[8, 8, 8]);
        let fmap = FaultMap::from_faulty_indices(&tiny_geom(), [5]);
        let image = BbrLinker::new(tiny_geom()).link(&p, &fmap).unwrap();
        let s = image.stats();
        assert_eq!(s.code_words, 24);
        assert_eq!(s.image_words, s.code_words + s.padding_words);
        assert_eq!(s.fault_free_words, 31);
        assert!(s.cache_words_used <= 31);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn linked_placements_avoid_all_faults(seed in 0u64..1000, p in 0.0f64..0.25) {
            let g = CacheGeometry::new(4096, 4, 32).unwrap(); // 1024 words
            let fmap = FaultMap::sample(&g, p, &mut StdRng::seed_from_u64(seed));
            let wl = Benchmark::Crc32.build(seed);
            let t = bbr_transform(wl.program(), 6);
            if let Ok(image) = BbrLinker::new(g).link(&t, &fmap) {
                prop_assert!(image.verify(&fmap).is_ok());
                // Blocks never overlap in memory (relaxed footprints).
                let relaxed = image.program();
                let mut starts: Vec<(u64, u32)> = (0..relaxed.num_blocks())
                    .map(|id| {
                        (
                            image.layout().block_start(id),
                            relaxed.block(id).footprint_words(),
                        )
                    })
                    .collect();
                starts.sort_unstable();
                for w in starts.windows(2) {
                    prop_assert!(w[0].0 + u64::from(w[0].1) * 4 <= w[1].0);
                }
            }
        }
    }
}
