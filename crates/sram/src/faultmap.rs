//! Word-granularity defect maps over a cache data array.

use dvs_obs::{Recorder, Span};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{BitGrid, CacheGeometry};

/// Identifies one physical cache frame (line) by set and way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FrameId {
    /// Set index.
    pub set: u32,
    /// Way index within the set.
    pub way: u32,
}

impl FrameId {
    /// Creates a frame id.
    pub const fn new(set: u32, way: u32) -> Self {
        FrameId { set, way }
    }
}

/// A map of defective 32-bit words in a cache data array at one DVFS
/// operating point.
///
/// The paper assumes BIST identifies defective words at every supported
/// operating point and records them in fault maps kept in main memory
/// (Section IV); this type is that artifact. The same map is viewed two
/// ways:
///
/// * **frame view** (`set`, `way`, `word`) — used by the FFW data cache and
///   all set-associative schemes;
/// * **linear view** (word index `0 .. total_words`) — used by the BBR
///   linker, which sees the direct-mapped instruction cache as a flat array
///   of `csize` words (Algorithm 1).
///
/// The linear line index is `way * sets + set`, mirroring the paper's
/// Figure 7 where the low tag bits select the way above the set-index bits.
///
/// # Example
///
/// ```rust
/// use dvs_sram::{CacheGeometry, FaultMap, FrameId};
/// use rand::SeedableRng;
///
/// let geom = CacheGeometry::dsn_l1();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let map = FaultMap::sample(&geom, 0.05, &mut rng);
/// let frame = FrameId::new(0, 0);
/// let pattern = map.frame_fault_pattern(frame);
/// assert_eq!(pattern.count_ones() + map.fault_free_words_in_frame(frame), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMap {
    geometry: CacheGeometry,
    words: BitGrid,
}

/// Sets each bit of `grid` with independent probability `p` using
/// geometric skip sampling: each uniform draw yields the run of clean
/// words before the next faulty one, so cost is O(faults), not O(words).
/// `on_new` is called with each index that transitions clear → set (bits
/// already set count as hits but are not reported — the thinning step of
/// [`FaultChain::advance_to`] relies on this).
pub(crate) fn skip_sample<R: Rng + ?Sized>(
    grid: &mut BitGrid,
    p: f64,
    rng: &mut R,
    mut on_new: impl FnMut(usize),
) {
    let total = grid.len();
    if p <= 0.0 || total == 0 {
        return;
    }
    if p >= 1.0 {
        for idx in 0..total {
            if !grid.get(idx) {
                grid.set(idx, true);
                on_new(idx);
            }
        }
        return;
    }
    // Gap to the next hit ~ Geometric(p): floor(ln(1-U) / ln(1-p)).
    // U ∈ [0, 1) so 1-U ∈ (0, 1] and the logarithm is finite. Below
    // p ≈ 5.6e-17 the subtraction `1 - p` rounds to 1.0 and its log to
    // 0.0, which would make every gap -inf (cast to 0: every word
    // faulty); only there does ln_1p take over, so maps drawn at any
    // larger p keep their exact bits.
    let mut ln_q = (1.0 - p).ln();
    if ln_q == 0.0 {
        ln_q = (-p).ln_1p();
    }
    let mut pos = 0usize;
    loop {
        let u: f64 = rng.gen();
        let gap = (1.0 - u).ln() / ln_q;
        if gap >= (total - pos) as f64 {
            return;
        }
        pos += gap as usize;
        if !grid.get(pos) {
            grid.set(pos, true);
            on_new(pos);
        }
        pos += 1;
        if pos >= total {
            return;
        }
    }
}

impl FaultMap {
    /// Creates an all-fault-free map (high-voltage operation).
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 32 words per block; fault
    /// patterns are exposed as `u32` masks.
    pub fn fault_free(geometry: &CacheGeometry) -> Self {
        assert!(
            geometry.words_per_block() <= 32,
            "fault patterns are u32 masks; {} words per block unsupported",
            geometry.words_per_block()
        );
        FaultMap {
            geometry: *geometry,
            words: BitGrid::new(geometry.total_words() as usize),
        }
    }

    /// Samples a map by flipping each word faulty independently with
    /// probability `p_word` (the Monte-Carlo protocol of Section V).
    ///
    /// Implemented with geometric skip sampling: instead of one uniform
    /// draw per word, one draw yields the gap to the next faulty word, so
    /// generation cost scales with the number of faults rather than the
    /// number of words. The marginal distribution is identical to the
    /// per-word reference ([`FaultMap::sample_reference`]) but the RNG
    /// stream consumed differs; stored results are keyed under the v2
    /// seed schema (see `dvs-core`'s store `KEY_VERSION`).
    ///
    /// # Panics
    ///
    /// Panics if `p_word` is not within `[0, 1]` or the geometry exceeds 32
    /// words per block.
    pub fn sample<R: Rng + ?Sized>(geometry: &CacheGeometry, p_word: f64, rng: &mut R) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_word),
            "word failure probability {p_word} outside [0, 1]"
        );
        let mut map = FaultMap::fault_free(geometry);
        skip_sample(&mut map.words, p_word, rng, |_| {});
        map
    }

    /// The pre-skip-sampler reference: one uniform draw per word. Retained
    /// as the distributional oracle for [`FaultMap::sample`]; the two
    /// produce identically distributed maps but consume different RNG
    /// streams, so equal seeds do not give equal maps across the pair.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`FaultMap::sample`].
    pub fn sample_reference<R: Rng + ?Sized>(
        geometry: &CacheGeometry,
        p_word: f64,
        rng: &mut R,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_word),
            "word failure probability {p_word} outside [0, 1]"
        );
        let mut map = FaultMap::fault_free(geometry);
        for idx in 0..geometry.total_words() as usize {
            if rng.gen::<f64>() < p_word {
                map.words.set(idx, true);
            }
        }
        map
    }

    /// [`FaultMap::sample`] with observability: records the generation
    /// wall-clock time (`sram.faultmap.sample_nanos`), the skip-sampler
    /// span (`sram.faultmap.skip_sample_nanos`), the deterministic
    /// counters `sram.faultmap.samples` / `sram.faultmap.faulty_words`,
    /// and a per-sample `sram.faultmap.faulty_words` value histogram into
    /// `recorder`. The map produced is identical to [`FaultMap::sample`]
    /// with the same RNG state.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`FaultMap::sample`].
    pub fn sample_recorded<R: Rng + ?Sized>(
        geometry: &CacheGeometry,
        p_word: f64,
        rng: &mut R,
        recorder: &dyn Recorder,
    ) -> Self {
        let map = {
            let _span = Span::enter(recorder, "sram.faultmap.sample_nanos");
            let _skip = Span::enter(recorder, "sram.faultmap.skip_sample_nanos");
            FaultMap::sample(geometry, p_word, rng)
        };
        recorder.add("sram.faultmap.samples", 1);
        recorder.add("sram.faultmap.faulty_words", map.faulty_words() as u64);
        recorder.observe("sram.faultmap.faulty_words", map.faulty_words() as u64);
        map
    }

    /// Builds a map with exactly the given linear word indices faulty.
    ///
    /// Useful for tests and for replaying BIST results.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_faulty_indices(
        geometry: &CacheGeometry,
        indices: impl IntoIterator<Item = u32>,
    ) -> Self {
        let mut map = FaultMap::fault_free(geometry);
        for idx in indices {
            map.words.set(idx as usize, true);
        }
        map
    }

    /// The geometry this map covers.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Mutable access to the packed storage, for the incremental chain
    /// sampler in [`crate::FaultChain`].
    pub(crate) fn words_mut(&mut self) -> &mut BitGrid {
        &mut self.words
    }

    /// The packed linear fault bits (one bit per word, frame-contiguous).
    pub fn word_bits(&self) -> &BitGrid {
        &self.words
    }

    fn index(&self, frame: FrameId, word: u32) -> usize {
        debug_assert!(frame.set < self.geometry.sets(), "set out of range");
        debug_assert!(frame.way < self.geometry.ways(), "way out of range");
        debug_assert!(word < self.geometry.words_per_block(), "word out of range");
        let line = frame.way * self.geometry.sets() + frame.set;
        (line * self.geometry.words_per_block() + word) as usize
    }

    /// Whether `word` of `frame` is defective.
    pub fn is_faulty(&self, frame: FrameId, word: u32) -> bool {
        self.words.get(self.index(frame, word))
    }

    /// Marks or clears a defect (used by BIST and tests).
    pub fn set_faulty(&mut self, frame: FrameId, word: u32, faulty: bool) {
        let idx = self.index(frame, word);
        self.words.set(idx, faulty);
    }

    /// The frame's fault pattern as a bitmask: bit `i` set means word `i`
    /// is defective. This is the `FMAP` entry of the paper's Figure 4.
    ///
    /// A frame's words are contiguous in the linear view, so the pattern
    /// is a single ≤32-bit window extracted from the packed storage
    /// rather than one bit query per word.
    pub fn frame_fault_pattern(&self, frame: FrameId) -> u32 {
        let base = self.index(frame, 0);
        self.words
            .extract(base, self.geometry.words_per_block() as usize) as u32
    }

    /// Reference per-bit implementation of [`FaultMap::frame_fault_pattern`],
    /// retained as the oracle the packed extraction is checked against.
    pub fn frame_fault_pattern_reference(&self, frame: FrameId) -> u32 {
        let mut pattern = 0;
        for word in 0..self.geometry.words_per_block() {
            if self.is_faulty(frame, word) {
                pattern |= 1 << word;
            }
        }
        pattern
    }

    /// Number of fault-free words remaining in a frame.
    pub fn fault_free_words_in_frame(&self, frame: FrameId) -> u32 {
        self.geometry.words_per_block() - self.frame_fault_pattern(frame).count_ones()
    }

    /// Whether a frame has no defective word at all.
    pub fn frame_is_fault_free(&self, frame: FrameId) -> bool {
        self.frame_fault_pattern(frame) == 0
    }

    /// Whether linear word `index` (0 .. `total_words`) is defective — the
    /// BBR linker's view of a direct-mapped cache.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn linear_is_faulty(&self, index: u32) -> bool {
        self.words.get(index as usize)
    }

    /// Total number of defective words.
    pub fn faulty_words(&self) -> usize {
        self.words.count_ones()
    }

    /// Fraction of words that are defective.
    pub fn faulty_fraction(&self) -> f64 {
        self.faulty_words() as f64 / self.geometry.total_words() as f64
    }

    /// Number of frames that contain at least one defective word.
    pub fn faulty_frames(&self) -> u32 {
        self.frames()
            .filter(|&f| !self.frame_is_fault_free(f))
            .count() as u32
    }

    /// Iterates over every frame id in (way-major) storage order.
    pub fn frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        let sets = self.geometry.sets();
        let ways = self.geometry.ways();
        (0..ways).flat_map(move |way| (0..sets).map(move |set| FrameId { set, way }))
    }

    /// Iterates over the linear indices of all defective words.
    pub fn iter_faulty_linear(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter_ones().map(|i| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geom() -> CacheGeometry {
        CacheGeometry::dsn_l1()
    }

    #[test]
    fn fault_free_map_is_clean() {
        let map = FaultMap::fault_free(&geom());
        assert_eq!(map.faulty_words(), 0);
        assert_eq!(map.faulty_frames(), 0);
        assert!(map.frame_is_fault_free(FrameId::new(255, 3)));
    }

    #[test]
    fn frame_and_linear_views_agree() {
        let g = geom();
        let mut map = FaultMap::fault_free(&g);
        let frame = FrameId::new(5, 2);
        map.set_faulty(frame, 3, true);
        let line = 2 * g.sets() + 5;
        let linear = line * g.words_per_block() + 3;
        assert!(map.linear_is_faulty(linear));
        assert_eq!(map.iter_faulty_linear().collect::<Vec<_>>(), vec![linear]);
    }

    #[test]
    fn pattern_reflects_faults() {
        let mut map = FaultMap::fault_free(&geom());
        let frame = FrameId::new(0, 0);
        map.set_faulty(frame, 0, true);
        map.set_faulty(frame, 7, true);
        assert_eq!(map.frame_fault_pattern(frame), 0b1000_0001);
        assert_eq!(map.fault_free_words_in_frame(frame), 6);
        assert!(!map.frame_is_fault_free(frame));
    }

    #[test]
    fn sample_rate_is_statistically_plausible() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(42);
        let p = 0.25;
        let map = FaultMap::sample(&g, p, &mut rng);
        let frac = map.faulty_fraction();
        // 8192 Bernoulli trials at p=0.25: ±3σ ≈ ±0.0144.
        assert!((frac - p).abs() < 0.015, "fraction {frac} too far from {p}");
    }

    #[test]
    fn sample_zero_and_one_probability() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(FaultMap::sample(&g, 0.0, &mut rng).faulty_words(), 0);
        let all = FaultMap::sample(&g, 1.0, &mut rng);
        assert_eq!(all.faulty_words(), g.total_words() as usize);
        assert_eq!(all.faulty_frames(), g.total_lines());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let g = geom();
        let a = FaultMap::sample(&g, 0.1, &mut StdRng::seed_from_u64(7));
        let b = FaultMap::sample(&g, 0.1, &mut StdRng::seed_from_u64(7));
        let c = FaultMap::sample(&g, 0.1, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sample_recorded_matches_sample_and_counts_faults() {
        use dvs_obs::MetricsRegistry;
        let g = geom();
        let plain = FaultMap::sample(&g, 0.1, &mut StdRng::seed_from_u64(7));
        let reg = MetricsRegistry::new();
        let recorded = FaultMap::sample_recorded(&g, 0.1, &mut StdRng::seed_from_u64(7), &reg);
        assert_eq!(plain, recorded, "recorder must not perturb sampling");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sram.faultmap.samples"), 1);
        assert_eq!(
            snap.counter("sram.faultmap.faulty_words"),
            recorded.faulty_words() as u64
        );
        let hist = &snap.values["sram.faultmap.faulty_words"];
        assert_eq!(hist.count, 1);
        assert_eq!(hist.min, recorded.faulty_words() as u64);
        assert_eq!(snap.timers["sram.faultmap.sample_nanos"].count, 1);
        assert_eq!(snap.timers["sram.faultmap.skip_sample_nanos"].count, 1);
    }

    /// Below p ≈ 5.6e-17, `1 - p` rounds to 1.0; the sampler used to
    /// take ln(1.0) = 0 as its rate and mark every word faulty.
    #[test]
    fn tiny_failure_rates_sample_clean_maps() {
        let g = geom();
        for seed in 0..8 {
            let map = FaultMap::sample(&g, 1e-17, &mut StdRng::seed_from_u64(seed));
            assert_eq!(map.faulty_words(), 0, "seed {seed}");
        }
    }

    /// The skip sampler and the per-word reference sampler must be
    /// equivalent in distribution: over many seeds, per-word fault
    /// frequencies from the two samplers agree within Monte-Carlo noise.
    #[test]
    fn skip_sampler_matches_reference_in_distribution() {
        let g = CacheGeometry::new(2 * 1024, 2, 32).unwrap(); // 512 words
        let p = 0.2;
        let trials = 400u64;
        let words = g.total_words() as usize;
        let mut hits_skip = vec![0u32; words];
        let mut hits_ref = vec![0u32; words];
        for seed in 0..trials {
            for idx in
                FaultMap::sample(&g, p, &mut StdRng::seed_from_u64(seed)).iter_faulty_linear()
            {
                hits_skip[idx as usize] += 1;
            }
            for idx in FaultMap::sample_reference(&g, p, &mut StdRng::seed_from_u64(seed))
                .iter_faulty_linear()
            {
                hits_ref[idx as usize] += 1;
            }
        }
        // Aggregate rate: 512 * 400 Bernoulli draws each, ±4σ ≈ ±0.0035.
        let rate = |hits: &[u32]| {
            hits.iter().map(|&h| u64::from(h)).sum::<u64>() as f64 / (trials as f64 * words as f64)
        };
        assert!(
            (rate(&hits_skip) - p).abs() < 0.004,
            "skip {}",
            rate(&hits_skip)
        );
        assert!(
            (rate(&hits_ref) - p).abs() < 0.004,
            "ref {}",
            rate(&hits_ref)
        );
        // Positional uniformity: no word may be systematically starved or
        // favored by the skip construction (400 trials, ±5σ ≈ ±50).
        for (idx, &h) in hits_skip.iter().enumerate() {
            let expect = trials as f64 * p;
            assert!(
                (f64::from(h) - expect).abs() < 50.0,
                "word {idx}: {h} hits vs {expect}"
            );
        }
    }

    #[test]
    fn from_faulty_indices_roundtrip() {
        let g = geom();
        let map = FaultMap::from_faulty_indices(&g, [0, 100, 8191]);
        assert_eq!(map.faulty_words(), 3);
        assert!(map.linear_is_faulty(100));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn sample_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = FaultMap::sample(&geom(), 1.5, &mut rng);
    }

    #[test]
    fn frames_iterates_all_lines() {
        let map = FaultMap::fault_free(&geom());
        assert_eq!(map.frames().count(), 1024);
    }

    proptest! {
        #[test]
        fn set_then_query_roundtrip(set in 0u32..256, way in 0u32..4, word in 0u32..8) {
            let mut map = FaultMap::fault_free(&geom());
            let frame = FrameId::new(set, way);
            map.set_faulty(frame, word, true);
            prop_assert!(map.is_faulty(frame, word));
            prop_assert_eq!(map.faulty_words(), 1);
            prop_assert_eq!(map.frame_fault_pattern(frame), 1u32 << word);
        }

        #[test]
        fn pattern_popcount_matches_counts(seed in 0u64..500) {
            let g = geom();
            let map = FaultMap::sample(&g, 0.3, &mut StdRng::seed_from_u64(seed));
            let via_patterns: u32 = map
                .frames()
                .map(|f| map.frame_fault_pattern(f).count_ones())
                .sum();
            prop_assert_eq!(via_patterns as usize, map.faulty_words());
        }

        /// Packed mask queries vs the retained per-bit reference over the
        /// three supported block widths (8/16/32 words per block).
        #[test]
        fn packed_pattern_matches_reference_across_geometries(
            block_idx in 0usize..3,
            way_idx in 0usize..3,
            seed in 0u64..200,
        ) {
            let block_bytes = [32u32, 64, 128][block_idx]; // 8/16/32 words per block
            let ways = [1u32, 2, 4][way_idx];
            let g = CacheGeometry::new(8 * 1024, ways, block_bytes).unwrap();
            let map = FaultMap::sample(&g, 0.3, &mut StdRng::seed_from_u64(seed));
            for frame in map.frames() {
                prop_assert_eq!(
                    map.frame_fault_pattern(frame),
                    map.frame_fault_pattern_reference(frame)
                );
            }
            prop_assert_eq!(map.faulty_words(), {
                let grid_ref: usize = map.frames()
                    .map(|f| map.frame_fault_pattern_reference(f).count_ones() as usize)
                    .sum();
                grid_ref
            });
        }
    }
}
