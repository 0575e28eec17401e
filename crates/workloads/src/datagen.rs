//! Data-address stream generator calibrated to spatial locality and word
//! reuse targets.
//!
//! The paper's Figure 3 characterizes each benchmark by two per-interval
//! quantities measured on its data accesses:
//!
//! * **spatial locality** — the fraction of each touched cache block's
//!   words the application actually uses;
//! * **word reuse rate** — the fraction of accesses that repeat an
//!   already-touched word.
//!
//! [`DataGen`] produces an address stream whose measured statistics land
//! on a requested `(spatial, reuse)` point: new words are drawn from a
//! working set of blocks with only `spatial × words_per_block` usable
//! word slots each, and with probability `reuse` the next access repeats a
//! recently touched word instead.

use std::collections::VecDeque;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::DATA_SEGMENT_BASE;

/// Words per data cache block (32 B blocks of 4 B words, Table I).
const WORDS_PER_BLOCK: u32 = 8;

/// Calibration parameters for a benchmark's data-access behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataParams {
    /// Target fraction of words used per touched block, in `(0, 1]`.
    pub spatial: f64,
    /// Target fraction of repeated word accesses, in `[0, 1)`.
    pub reuse: f64,
    /// Blocks in the active working set at any time.
    pub ws_blocks: u32,
    /// Whether used word slots are scattered within a block (pointer-heavy
    /// codes) rather than a contiguous run (streaming codes).
    pub scattered: bool,
    /// Fraction of the working set replaced when it is exhausted, in
    /// `(0, 1]`; smaller values mean a more stable footprint.
    pub churn: f64,
    /// Total distinct data blocks the benchmark ever touches. The working
    /// set cycles through this footprint, so a kernel with a small
    /// footprint becomes cache-resident after warm-up while a large one
    /// keeps missing — this is what separates the MiBench kernels from
    /// mcf/libquantum in the paper's Figure 11 baseline.
    pub footprint_blocks: u64,
}

impl DataParams {
    /// Validates the parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range.
    fn validate(&self) {
        assert!(
            self.spatial > 0.0 && self.spatial <= 1.0,
            "spatial {} outside (0, 1]",
            self.spatial
        );
        assert!(
            (0.0..1.0).contains(&self.reuse),
            "reuse {} outside [0, 1)",
            self.reuse
        );
        assert!(self.ws_blocks > 0, "working set must be nonempty");
        assert!(
            self.churn > 0.0 && self.churn <= 1.0,
            "churn {} outside (0, 1]",
            self.churn
        );
        assert!(
            self.footprint_blocks >= u64::from(self.ws_blocks),
            "footprint ({}) smaller than the working set ({})",
            self.footprint_blocks,
            self.ws_blocks
        );
    }

    /// Word slots used per block under these parameters.
    pub fn words_per_block_used(&self) -> u32 {
        ((self.spatial * f64::from(WORDS_PER_BLOCK)).round() as u32).clamp(1, WORDS_PER_BLOCK)
    }
}

/// A deterministic data-address stream hitting a `(spatial, reuse)` target.
///
/// # Example
///
/// ```rust
/// use dvs_workloads::{DataGen, DataParams};
///
/// let params = DataParams {
///     spatial: 0.5,
///     reuse: 0.8,
///     ws_blocks: 64,
///     scattered: false,
///     churn: 0.25,
///     footprint_blocks: 4096,
/// };
/// let mut gen = DataGen::new(params, 7);
/// let a = gen.next_addr();
/// assert_eq!(a % 4, 0); // word-aligned
/// ```
#[derive(Debug, Clone)]
pub struct DataGen {
    params: DataParams,
    rng: StdRng,
    /// Next block number to allocate when the working set churns.
    next_block: u64,
    /// Fresh `(block, word)` pairs not yet touched, in visit order.
    fresh: VecDeque<(u64, u32)>,
    /// Recently touched `(block, word)` pairs, most recent at the back.
    recent: VecDeque<(u64, u32)>,
    /// Blocks currently in the working set, oldest first.
    active_blocks: VecDeque<u64>,
}

/// How many recently touched words are candidates for reuse.
const RECENT_CAP: usize = 512;

impl DataGen {
    /// Creates a generator; streams are deterministic per `(params, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` are out of range (see [`DataParams`]).
    pub fn new(params: DataParams, seed: u64) -> Self {
        params.validate();
        let mut gen = DataGen {
            params,
            rng: StdRng::seed_from_u64(seed),
            next_block: 0,
            fresh: VecDeque::new(),
            recent: VecDeque::new(),
            active_blocks: VecDeque::new(),
        };
        gen.refill(params.ws_blocks as usize);
        gen
    }

    /// The parameters in force.
    pub fn params(&self) -> &DataParams {
        &self.params
    }

    fn word_slots_for_block(&mut self) -> Range<u32> {
        // The used words of a block are a contiguous run with a random
        // start: struct fields cluster at the object head, stream buffers
        // are prefixes of a line. (`scattered` controls the *visit order*
        // across blocks, not the slot shape — a contiguous used-run is
        // what makes the paper's fault-free *window* able to capture a
        // low-spatial-locality footprint at all.)
        let k = self.params.words_per_block_used();
        let start = self.rng.gen_range(0..=WORDS_PER_BLOCK - k);
        start..start + k
    }

    /// Adds `n` new blocks to the working set and queues their usable
    /// word slots as fresh pairs.
    fn refill(&mut self, n: usize) {
        let first = self.fresh.len();
        for _ in 0..n {
            // Cycle through the benchmark's bounded footprint.
            let block = self.next_block % self.params.footprint_blocks;
            self.next_block += 1;
            self.active_blocks.push_back(block);
            if self.active_blocks.len() > self.params.ws_blocks as usize {
                self.active_blocks.pop_front();
            }
            for w in self.word_slots_for_block() {
                self.fresh.push_back((block, w));
            }
        }
        if self.params.scattered {
            // Interleave the new pairs across blocks so spatial use builds
            // up gradually (a Fisher–Yates shuffle of the appended run).
            for i in (1..self.fresh.len() - first).rev() {
                let j = self.rng.gen_range(0..=i);
                self.fresh.swap(first + i, first + j);
            }
        }
    }

    /// Produces the next `(block_number, word_offset)` pair.
    pub fn next_access(&mut self) -> (u64, u32) {
        let want_reuse = !self.recent.is_empty() && self.rng.gen::<f64>() < self.params.reuse;
        let pair = if want_reuse {
            // Bias towards the most recently used words (temporal locality
            // decays): geometric over recency rank.
            let mut idx = 0usize;
            while idx + 1 < self.recent.len() && self.rng.gen::<f64>() < 0.75 {
                idx += 1;
            }
            let back = self.recent.len() - 1 - idx;
            self.recent[back]
        } else {
            if self.fresh.is_empty() {
                let churn_blocks =
                    ((self.params.ws_blocks as f64 * self.params.churn).ceil() as usize).max(1);
                self.refill(churn_blocks);
            }
            self.fresh.pop_front().expect("refill produced pairs")
        };
        self.recent.push_back(pair);
        if self.recent.len() > RECENT_CAP {
            self.recent.pop_front();
        }
        pair
    }

    /// Produces the next access as a byte address in the data segment.
    pub fn next_addr(&mut self) -> u64 {
        let (block, word) = self.next_access();
        DATA_SEGMENT_BASE + block * u64::from(WORDS_PER_BLOCK) * 4 + u64::from(word) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn measure(params: DataParams, n: usize) -> (f64, f64) {
        // Re-implements the Figure 3 metrics over one long interval.
        let mut gen = DataGen::new(params, 42);
        let mut per_block: HashMap<u64, HashSet<u32>> = HashMap::new();
        let mut unique = 0usize;
        for _ in 0..n {
            let (b, w) = gen.next_access();
            if per_block.entry(b).or_default().insert(w) {
                unique += 1;
            }
        }
        let spatial = per_block
            .values()
            .map(|s| s.len() as f64 / f64::from(WORDS_PER_BLOCK))
            .sum::<f64>()
            / per_block.len() as f64;
        let reuse = 1.0 - unique as f64 / n as f64;
        (spatial, reuse)
    }

    #[test]
    fn hits_low_spatial_high_reuse_target() {
        let params = DataParams {
            spatial: 0.4,
            reuse: 0.85,
            ws_blocks: 64,
            scattered: true,
            churn: 0.25,
            footprint_blocks: 100_000,
        };
        let (s, r) = measure(params, 40_000);
        assert!((s - 0.4).abs() < 0.12, "spatial {s}");
        assert!((r - 0.85).abs() < 0.05, "reuse {r}");
    }

    #[test]
    fn hits_high_spatial_low_reuse_target() {
        let params = DataParams {
            spatial: 0.95,
            reuse: 0.3,
            ws_blocks: 64,
            scattered: false,
            churn: 0.5,
            footprint_blocks: 100_000,
        };
        let (s, r) = measure(params, 40_000);
        assert!(s > 0.8, "spatial {s}");
        assert!((r - 0.3).abs() < 0.08, "reuse {r}");
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let params = DataParams {
            spatial: 0.5,
            reuse: 0.7,
            ws_blocks: 32,
            scattered: false,
            churn: 0.25,
            footprint_blocks: 100_000,
        };
        let a: Vec<u64> = {
            let mut g = DataGen::new(params, 1);
            (0..1000).map(|_| g.next_addr()).collect()
        };
        let b: Vec<u64> = {
            let mut g = DataGen::new(params, 1);
            (0..1000).map(|_| g.next_addr()).collect()
        };
        let c: Vec<u64> = {
            let mut g = DataGen::new(params, 2);
            (0..1000).map(|_| g.next_addr()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_live_in_data_segment_and_are_word_aligned() {
        let params = DataParams {
            spatial: 0.6,
            reuse: 0.6,
            ws_blocks: 16,
            scattered: true,
            churn: 0.5,
            footprint_blocks: 100_000,
        };
        let mut g = DataGen::new(params, 3);
        for _ in 0..1000 {
            let a = g.next_addr();
            assert!(a >= DATA_SEGMENT_BASE);
            assert_eq!(a % 4, 0);
        }
    }

    #[test]
    fn contiguous_slots_for_streaming() {
        let params = DataParams {
            spatial: 0.5,
            reuse: 0.0,
            ws_blocks: 4,
            scattered: false,
            churn: 1.0,
            footprint_blocks: 100_000,
        };
        let mut g = DataGen::new(params, 9);
        // Collect the word set of the first block touched; must be a run.
        let mut per_block: HashMap<u64, Vec<u32>> = HashMap::new();
        for _ in 0..64 {
            let (b, w) = g.next_access();
            per_block.entry(b).or_default().push(w);
        }
        for words in per_block.values() {
            let mut sorted = words.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let contiguous = sorted.windows(2).all(|p| p[1] == p[0] + 1);
            assert!(contiguous, "expected contiguous run, got {sorted:?}");
        }
    }

    #[test]
    #[should_panic(expected = "spatial")]
    fn rejects_zero_spatial() {
        let params = DataParams {
            spatial: 0.0,
            reuse: 0.5,
            ws_blocks: 4,
            scattered: false,
            churn: 0.5,
            footprint_blocks: 100_000,
        };
        let _ = DataGen::new(params, 0);
    }

    #[test]
    fn words_per_block_used_clamps() {
        let p = DataParams {
            spatial: 0.05,
            reuse: 0.0,
            ws_blocks: 1,
            scattered: false,
            churn: 1.0,
            footprint_blocks: 100_000,
        };
        assert_eq!(p.words_per_block_used(), 1);
        let q = DataParams { spatial: 1.0, ..p };
        assert_eq!(q.words_per_block_used(), 8);
    }
}
