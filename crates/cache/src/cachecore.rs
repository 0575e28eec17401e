//! Tag-array machinery with run-time switchable associativity.

use serde::{Deserialize, Serialize};

use dvs_sram::{CacheGeometry, FrameId};

use crate::Addr;

/// Operating mode of a [`CacheCore`].
///
/// The paper's BBR instruction cache is built on a cache that is
/// set-associative at high voltage and direct-mapped at low voltage
/// (Figure 7, after the Dynamic Associative Cache). In direct-mapped mode
/// the least-significant tag bits select the way explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheMode {
    /// Normal set-associative lookup with LRU replacement.
    SetAssociative,
    /// Direct-mapped lookup: `block_number mod total_lines` names the only
    /// frame the block may occupy.
    DirectMapped,
}

/// Result of a tag lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The block is present in the given frame.
    Hit {
        /// Frame holding the block.
        frame: FrameId,
    },
    /// The block is absent.
    Miss,
}

impl LookupResult {
    /// Whether this is a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit { .. })
    }
}

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block number (byte address >> offset bits) of the victim.
    pub block_number: u64,
    /// Whether the victim was dirty (needs a writeback in a write-back
    /// cache).
    pub dirty: bool,
}

/// Valid bit of a packed frame.
const VALID: u64 = 1;
/// Dirty bit of a packed frame.
const DIRTY: u64 = 2;
/// Bits below the tag in a packed frame.
const TAG_SHIFT: u32 = 2;

/// Packs a valid, clean frame holding `tag`: `tag << 2 | dirty << 1 |
/// valid`.
///
/// # Panics
///
/// Panics if `tag` needs more than 62 bits. Blocks hold at least one
/// 4-byte word, so an [`Addr`]'s tag always fits; the assert keeps a
/// wider tag from being silently truncated.
fn pack_valid(tag: u64) -> u64 {
    assert!(
        tag >> (64 - TAG_SHIFT) == 0,
        "tag {tag:#x} does not fit a packed frame"
    );
    tag << TAG_SHIFT | VALID
}

/// A cache tag array: validity, tags, dirty bits and LRU state.
///
/// `CacheCore` deliberately stores no data — the simulators in this
/// workspace are timing models, and the fault-tolerance schemes layer word
/// validity on top (see `dvs-schemes`). It answers "is block X present,
/// and in which frame?" and performs fills/evictions.
///
/// Each frame is one packed `u64` (`tag << 2 | dirty << 1 | valid`) and
/// the true-LRU state of every set lives in one flat array, so a tag
/// array costs two heap allocations whatever its set count.
///
/// # Example
///
/// ```rust
/// use dvs_cache::{Addr, CacheCore, CacheMode};
/// use dvs_sram::CacheGeometry;
///
/// let mut cache = CacheCore::new(CacheGeometry::dsn_l1());
/// cache.fill(Addr::new(0));
/// cache.set_mode(CacheMode::DirectMapped); // invalidates all contents
/// assert!(!cache.lookup(Addr::new(0)).is_hit());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCore {
    geometry: CacheGeometry,
    mode: CacheMode,
    /// Packed frames, `frames[set * ways + way]`.
    frames: Vec<u64>,
    /// Per-set recency order, `lru[set * ways..][..ways]`: way indices
    /// from most to least recently used.
    lru: Vec<u8>,
    /// Valid lines dropped by [`CacheCore::invalidate`] and
    /// [`CacheCore::invalidate_all`] over the cache's lifetime.
    invalidations: u64,
}

impl CacheCore {
    /// Creates an empty cache in set-associative mode.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 255 ways.
    pub fn new(geometry: CacheGeometry) -> Self {
        let ways = geometry.ways();
        assert!(ways <= 255, "unsupported way count {ways}");
        let lru = (0..geometry.sets()).flat_map(|_| 0..ways as u8).collect();
        CacheCore {
            geometry,
            mode: CacheMode::SetAssociative,
            frames: vec![0; geometry.total_lines() as usize],
            lru,
            invalidations: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Current operating mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Switches mode, invalidating all contents (the paper flushes the
    /// cache on every low-voltage mode switch).
    ///
    /// A round-trip (SA→DM→SA) leaves the cache behaviourally identical
    /// to a fresh one: all lines invalid, LRU state reset, and each valid
    /// line counted in [`CacheCore::invalidations`] exactly once — the
    /// flush here is the single counting site, never doubled by the mode
    /// change itself.
    pub fn set_mode(&mut self, mode: CacheMode) {
        self.mode = mode;
        self.invalidate_all();
    }

    /// Invalidates every frame (contents and dirty bits are dropped) and
    /// resets replacement state, so a subsequent refill sequence behaves
    /// exactly as on a fresh cache. Each line that was valid adds one to
    /// [`CacheCore::invalidations`].
    pub fn invalidate_all(&mut self) {
        self.invalidations += u64::from(self.valid_lines());
        self.frames.fill(0);
        let ways = self.geometry.ways() as usize;
        for order in self.lru.chunks_exact_mut(ways) {
            for (way, w) in order.iter_mut().enumerate() {
                *w = way as u8;
            }
        }
    }

    /// Valid lines dropped by invalidations (single-block and whole-cache)
    /// over the cache's lifetime. Misses that invalidate nothing do not
    /// count, and a flush counts each line once even when triggered by a
    /// mode switch.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    fn frame_index(&self, frame: FrameId) -> usize {
        (frame.set * self.geometry.ways() + frame.way) as usize
    }

    /// The recency order of `set`, most recent way first.
    fn lru_order(&self, set: u32) -> &[u8] {
        let ways = self.geometry.ways() as usize;
        &self.lru[set as usize * ways..][..ways]
    }

    /// Marks `way` of `set` most recently used.
    fn touch(&mut self, set: u32, way: u32) {
        let ways = self.geometry.ways() as usize;
        let order = &mut self.lru[set as usize * ways..][..ways];
        let pos = order
            .iter()
            .position(|&w| u32::from(w) == way)
            .unwrap_or_else(|| panic!("way {way} out of range {ways}"));
        order[..=pos].rotate_right(1);
    }

    /// Whether packed frame `f` holds `tag`.
    fn holds(f: u64, tag: u64) -> bool {
        f & VALID != 0 && f >> TAG_SHIFT == tag
    }

    /// The frame a block maps to in direct-mapped mode: the combined
    /// {low tag bits, set index} line number of Figure 7.
    pub fn direct_mapped_frame(&self, addr: Addr) -> FrameId {
        let line = addr.block_number(&self.geometry) % u64::from(self.geometry.total_lines());
        FrameId {
            set: (line % u64::from(self.geometry.sets())) as u32,
            way: (line / u64::from(self.geometry.sets())) as u32,
        }
    }

    /// Looks up a block without updating replacement state.
    pub fn probe(&self, addr: Addr) -> LookupResult {
        let tag = addr.tag(&self.geometry);
        match self.mode {
            CacheMode::SetAssociative => {
                let set = addr.set_index(&self.geometry);
                let base = self.frame_index(FrameId { set, way: 0 });
                let ways = self.geometry.ways() as usize;
                match self.frames[base..base + ways]
                    .iter()
                    .position(|&f| Self::holds(f, tag))
                {
                    Some(way) => LookupResult::Hit {
                        frame: FrameId {
                            set,
                            way: way as u32,
                        },
                    },
                    None => LookupResult::Miss,
                }
            }
            CacheMode::DirectMapped => {
                let frame = self.direct_mapped_frame(addr);
                if Self::holds(self.frames[self.frame_index(frame)], tag) {
                    LookupResult::Hit { frame }
                } else {
                    LookupResult::Miss
                }
            }
        }
    }

    /// Looks up a block and updates LRU state on a hit.
    pub fn lookup(&mut self, addr: Addr) -> LookupResult {
        let result = self.probe(addr);
        if let LookupResult::Hit { frame } = result {
            if self.mode == CacheMode::SetAssociative {
                self.touch(frame.set, frame.way);
            }
        }
        result
    }

    /// Chooses the frame a fill of `addr` would occupy (LRU way in SA mode,
    /// the designated frame in DM mode) without modifying anything.
    pub fn victim_frame(&self, addr: Addr) -> FrameId {
        match self.mode {
            CacheMode::SetAssociative => {
                let set = addr.set_index(&self.geometry);
                let victim = *self.lru_order(set).last().expect("sets have ways");
                FrameId {
                    set,
                    way: u32::from(victim),
                }
            }
            CacheMode::DirectMapped => self.direct_mapped_frame(addr),
        }
    }

    /// Writes a valid, clean copy of `addr`'s block into `frame`,
    /// returning the valid occupant it displaced, and makes the frame
    /// most recently used in SA mode.
    fn install(&mut self, addr: Addr, frame: FrameId) -> Option<Eviction> {
        let idx = self.frame_index(frame);
        let old = self.frames[idx];
        let evicted = (old & VALID != 0).then(|| Eviction {
            // Reconstruct the victim's block number from its tag and set.
            block_number: (old >> TAG_SHIFT) << self.geometry.index_bits() | u64::from(frame.set),
            dirty: old & DIRTY != 0,
        });
        self.frames[idx] = pack_valid(addr.tag(&self.geometry));
        if self.mode == CacheMode::SetAssociative {
            self.touch(frame.set, frame.way);
        }
        evicted
    }

    /// Inserts the block containing `addr`, evicting the victim if the
    /// target frame was valid. Returns the frame used and any eviction.
    ///
    /// Filling a block that is already present refreshes its LRU position
    /// and returns its frame with no eviction.
    pub fn fill(&mut self, addr: Addr) -> (FrameId, Option<Eviction>) {
        if let LookupResult::Hit { frame } = self.lookup(addr) {
            return (frame, None);
        }
        let frame = self.victim_frame(addr);
        (frame, self.install(addr, frame))
    }

    /// Inserts the block containing `addr` into a *specific* way of its
    /// set, evicting that frame's occupant if valid. Used by schemes that
    /// restrict which frames may hold data (line/way disabling).
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or the block is already present in
    /// a different frame of the set (callers must look up first).
    pub fn fill_into(&mut self, addr: Addr, way: u32) -> (FrameId, Option<Eviction>) {
        assert!(way < self.geometry.ways(), "way {way} out of range");
        if let LookupResult::Hit { frame } = self.probe(addr) {
            assert_eq!(frame.way, way, "block already present in another way");
        }
        let set = match self.mode {
            CacheMode::SetAssociative => addr.set_index(&self.geometry),
            CacheMode::DirectMapped => self.direct_mapped_frame(addr).set,
        };
        let frame = FrameId { set, way };
        (frame, self.install(addr, frame))
    }

    /// LRU recency rank of `way` in `set` (0 = most recent).
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn way_rank(&self, set: u32, way: u32) -> u32 {
        assert!(set < self.geometry.sets(), "set {set} out of range");
        let order = self.lru_order(set);
        order
            .iter()
            .position(|&w| u32::from(w) == way)
            .unwrap_or_else(|| panic!("way {way} out of range {}", order.len())) as u32
    }

    /// Marks the block containing `addr` dirty if present; returns whether
    /// it was present.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        match self.probe(addr) {
            LookupResult::Hit { frame } => {
                let idx = self.frame_index(frame);
                self.frames[idx] |= DIRTY;
                true
            }
            LookupResult::Miss => false,
        }
    }

    /// Invalidates the block containing `addr` if present; returns the
    /// eviction record if it was present.
    pub fn invalidate(&mut self, addr: Addr) -> Option<Eviction> {
        match self.probe(addr) {
            LookupResult::Hit { frame } => {
                let idx = self.frame_index(frame);
                let ev = Eviction {
                    block_number: addr.block_number(&self.geometry),
                    dirty: self.frames[idx] & DIRTY != 0,
                };
                self.frames[idx] = 0;
                self.invalidations += 1;
                Some(ev)
            }
            LookupResult::Miss => None,
        }
    }

    /// Number of valid frames.
    pub fn valid_lines(&self) -> u32 {
        self.frames.iter().filter(|&&f| f & VALID != 0).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> CacheCore {
        // 2 sets × 2 ways × 32 B blocks = 128 B.
        CacheCore::new(CacheGeometry::new(128, 2, 32).unwrap())
    }

    fn addr_for(set: u32, tag: u64) -> Addr {
        // 2 sets → 1 index bit, 5 offset bits.
        Addr::new((tag << 6) | u64::from(set) << 5)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = addr_for(0, 1);
        assert!(!c.lookup(a).is_hit());
        c.fill(a);
        assert!(c.lookup(a).is_hit());
        // Other words of the same block also hit.
        assert!(c.lookup(a.offset(28)).is_hit());
        // The next block does not.
        assert!(!c.lookup(a.offset(32)).is_hit());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        let a = addr_for(0, 1);
        let b = addr_for(0, 2);
        let d = addr_for(0, 3);
        c.fill(a);
        c.fill(b);
        c.lookup(a); // a is now MRU; b is LRU
        let (_, ev) = c.fill(d);
        let ev = ev.expect("set was full");
        assert_eq!(ev.block_number, b.block_number(c.geometry()));
        assert!(c.lookup(a).is_hit());
        assert!(!c.lookup(b).is_hit());
    }

    #[test]
    fn refill_of_present_block_evicts_nothing() {
        let mut c = small();
        let a = addr_for(1, 5);
        c.fill(a);
        let (frame, ev) = c.fill(a);
        assert!(ev.is_none());
        assert_eq!(frame.set, 1);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        let a = addr_for(0, 1);
        c.fill(a);
        assert!(c.mark_dirty(a));
        c.fill(addr_for(0, 2));
        let (_, ev) = c.fill(addr_for(0, 3));
        assert!(ev.expect("eviction").dirty);
    }

    #[test]
    fn mark_dirty_on_absent_block_is_noop() {
        let mut c = small();
        assert!(!c.mark_dirty(addr_for(0, 9)));
    }

    #[test]
    fn mode_switch_flushes() {
        let mut c = small();
        c.fill(addr_for(0, 1));
        assert_eq!(c.valid_lines(), 1);
        c.set_mode(CacheMode::DirectMapped);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.mode(), CacheMode::DirectMapped);
    }

    /// Shrunk reproducer from the dvs-diff SA/DM oracle: `invalidate_all`
    /// used to leave LRU state behind, so after an SA→DM→SA round-trip the
    /// first refill victimised a different way than a fresh cache would —
    /// the paired runs diverged on the first post-switch eviction.
    #[test]
    fn mode_round_trip_behaves_like_a_fresh_cache() {
        let mut c = small();
        let a = addr_for(0, 1);
        let b = addr_for(0, 2);
        c.fill(a);
        c.fill(b);
        c.lookup(a); // perturb set 0 recency away from the fresh order
        c.set_mode(CacheMode::DirectMapped);
        c.set_mode(CacheMode::SetAssociative);

        let fresh = small();
        assert_eq!(c.victim_frame(a), fresh.victim_frame(a));
        for way in 0..2 {
            assert_eq!(c.way_rank(0, way), fresh.way_rank(0, way));
            assert_eq!(c.way_rank(1, way), fresh.way_rank(1, way));
        }
        // Replays of the same fill sequence now evict identically.
        let (frame, _) = c.fill(a);
        let (fresh_frame, _) = small().fill(a);
        assert_eq!(frame, fresh_frame);
    }

    #[test]
    fn invalidations_counted_exactly_once_across_mode_switches() {
        let mut c = small();
        c.fill(addr_for(0, 1));
        c.fill(addr_for(1, 1));
        c.set_mode(CacheMode::DirectMapped);
        assert_eq!(c.invalidations(), 2);
        // Flushing an already-empty cache adds nothing, even via set_mode.
        c.set_mode(CacheMode::SetAssociative);
        assert_eq!(c.invalidations(), 2);
        c.invalidate_all();
        assert_eq!(c.invalidations(), 2);
        // Single-block invalidations count only when a line was present.
        let a = addr_for(0, 3);
        c.fill(a);
        assert!(c.invalidate(a).is_some());
        assert_eq!(c.invalidations(), 3);
        assert!(c.invalidate(a).is_none());
        assert_eq!(c.invalidations(), 3);
    }

    #[test]
    fn direct_mapped_frame_uses_low_tag_bits() {
        let mut c = small(); // 4 lines total
        c.set_mode(CacheMode::DirectMapped);
        // Block numbers 0..4 map to lines 0..4: set = bn % 2, way = (bn/2) % 2.
        for bn in 0..4u64 {
            let frame = c.direct_mapped_frame(Addr::new(bn << 5));
            assert_eq!(u64::from(frame.set), bn % 2);
            assert_eq!(u64::from(frame.way), (bn / 2) % 2);
        }
        // Block 4 wraps onto line 0.
        let f = c.direct_mapped_frame(Addr::new(4 << 5));
        assert_eq!((f.set, f.way), (0, 0));
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let mut c = small();
        c.set_mode(CacheMode::DirectMapped);
        let a = Addr::new(0);
        let b = Addr::new(4 << 5); // same DM line as a
        c.fill(a);
        assert!(c.lookup(a).is_hit());
        let (_, ev) = c.fill(b);
        assert_eq!(ev.expect("conflict").block_number, 0);
        assert!(!c.lookup(a).is_hit());
        assert!(c.lookup(b).is_hit());
    }

    #[test]
    fn set_associative_blocks_in_different_sets_coexist() {
        let mut c = small();
        c.fill(addr_for(0, 1));
        c.fill(addr_for(1, 1));
        assert_eq!(c.valid_lines(), 2);
    }

    #[test]
    fn invalidate_single_block() {
        let mut c = small();
        let a = addr_for(0, 1);
        c.fill(a);
        c.mark_dirty(a);
        let ev = c.invalidate(a).expect("present");
        assert!(ev.dirty);
        assert!(!c.lookup(a).is_hit());
        assert!(c.invalidate(a).is_none());
    }

    #[test]
    fn eviction_block_number_reconstruction() {
        let g = CacheGeometry::dsn_l1();
        let mut c = CacheCore::new(g);
        // Fill 5 blocks in the same set (4 ways) and check the first
        // eviction is the first block, with an exact block number.
        let set = 77u32;
        let addrs: Vec<Addr> = (0..5)
            .map(|t| Addr::new((t << (g.index_bits() + g.offset_bits())) | u64::from(set) << 5))
            .collect();
        for a in &addrs[..4] {
            c.fill(*a);
        }
        let (_, ev) = c.fill(addrs[4]);
        assert_eq!(
            ev.expect("full set").block_number,
            addrs[0].block_number(&g)
        );
    }

    #[test]
    fn widest_tag_packs_and_round_trips() {
        let tag = u64::MAX >> TAG_SHIFT;
        let f = pack_valid(tag);
        assert!(CacheCore::holds(f, tag));
        assert!(CacheCore::holds(f | DIRTY, tag));
    }

    #[test]
    #[should_panic(expected = "does not fit a packed frame")]
    fn over_wide_tag_fails_the_packing_assert() {
        // One bit past the 62 the packed frame keeps: truncating it would
        // alias tag 0.
        let _ = pack_valid(1 << (64 - TAG_SHIFT));
    }

    proptest! {
        #[test]
        fn lookup_after_fill_always_hits(byte in 0u64..(1 << 30)) {
            let mut c = CacheCore::new(CacheGeometry::dsn_l1());
            let a = Addr::new(byte);
            c.fill(a);
            prop_assert!(c.lookup(a).is_hit());
        }

        #[test]
        fn valid_lines_never_exceed_capacity(bytes in proptest::collection::vec(0u64..(1 << 20), 1..200)) {
            let mut c = small();
            for b in bytes {
                c.fill(Addr::new(b));
            }
            prop_assert!(c.valid_lines() <= 4);
        }

        #[test]
        fn dm_mode_single_location(byte in 0u64..(1 << 30)) {
            let mut c = small();
            c.set_mode(CacheMode::DirectMapped);
            let a = Addr::new(byte);
            let (frame, _) = c.fill(a);
            prop_assert_eq!(frame, c.direct_mapped_frame(a));
        }
    }
}
