//! LRU stack-discipline properties of the cache core, and the core's
//! packed tag array checked against a reference model.
//!
//! True LRU is a *stack algorithm*: each set behaves as a recency stack,
//! which implies (a) the most recently used line is never the eviction
//! victim, and (b) the inclusion property — a cache with more ways but
//! the same set count always contains everything a smaller one holds.
//! Both properties are exercised here over randomized address streams on
//! deliberately tiny geometries so evictions are frequent.
//!
//! `CacheCore` keeps each frame as one packed word and every set's
//! recency order in one flat array. [`RefCache`] is the unpacked shape it
//! replaced — a frame struct per line and one [`LruQueue`] per set — and
//! the two must agree on every hit, eviction, rank and invalidation.

use std::collections::HashMap;

use dvs_cache::{Addr, CacheCore, CacheMode, LookupResult};
use dvs_sram::CacheGeometry;
use proptest::prelude::*;

/// A true-LRU recency queue over the ways of one set: the front is the
/// most recently used way, the back the victim.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LruQueue {
    order: Vec<u8>,
}

impl LruQueue {
    /// Way 0 most recent, the highest way the victim.
    fn new(ways: u32) -> Self {
        assert!(ways > 0 && ways <= 255, "unsupported way count {ways}");
        LruQueue {
            order: (0..ways as u8).collect(),
        }
    }

    fn touch(&mut self, way: u32) {
        let pos = self
            .order
            .iter()
            .position(|&w| u32::from(w) == way)
            .unwrap_or_else(|| panic!("way {way} out of range {}", self.order.len()));
        let w = self.order.remove(pos);
        self.order.insert(0, w);
    }

    fn victim(&self) -> u32 {
        u32::from(*self.order.last().expect("queue is never empty"))
    }

    fn reset(&mut self) {
        self.order.sort_unstable();
    }

    fn rank(&self, way: u32) -> u32 {
        self.order
            .iter()
            .position(|&w| u32::from(w) == way)
            .unwrap_or_else(|| panic!("way {way} out of range {}", self.order.len())) as u32
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RefFrame {
    tag: u64,
    valid: bool,
    dirty: bool,
}

/// The reference tag array: one [`RefFrame`] per line and one
/// [`LruQueue`] per set. Returns `(set, way)` frames and
/// `(block_number, dirty)` evictions.
struct RefCache {
    geom: CacheGeometry,
    mode: CacheMode,
    frames: Vec<RefFrame>,
    lru: Vec<LruQueue>,
    invalidations: u64,
}

impl RefCache {
    fn new(geom: CacheGeometry) -> Self {
        RefCache {
            geom,
            mode: CacheMode::SetAssociative,
            frames: vec![RefFrame::default(); geom.total_lines() as usize],
            lru: (0..geom.sets())
                .map(|_| LruQueue::new(geom.ways()))
                .collect(),
            invalidations: 0,
        }
    }

    fn index(&self, (set, way): (u32, u32)) -> usize {
        (set * self.geom.ways() + way) as usize
    }

    fn dm_frame(&self, addr: Addr) -> (u32, u32) {
        let line = addr.block_number(&self.geom) % u64::from(self.geom.total_lines());
        let sets = u64::from(self.geom.sets());
        ((line % sets) as u32, (line / sets) as u32)
    }

    fn probe(&self, addr: Addr) -> Option<(u32, u32)> {
        let tag = addr.tag(&self.geom);
        let holds = |frame| {
            let f = self.frames[self.index(frame)];
            f.valid && f.tag == tag
        };
        match self.mode {
            CacheMode::SetAssociative => {
                let set = addr.set_index(&self.geom);
                (0..self.geom.ways())
                    .map(|way| (set, way))
                    .find(|&f| holds(f))
            }
            CacheMode::DirectMapped => Some(self.dm_frame(addr)).filter(|&f| holds(f)),
        }
    }

    fn lookup(&mut self, addr: Addr) -> Option<(u32, u32)> {
        let hit = self.probe(addr);
        if let (Some((set, way)), CacheMode::SetAssociative) = (hit, self.mode) {
            self.lru[set as usize].touch(way);
        }
        hit
    }

    fn fill(&mut self, addr: Addr) -> ((u32, u32), Option<(u64, bool)>) {
        if let Some(frame) = self.lookup(addr) {
            return (frame, None);
        }
        let frame = match self.mode {
            CacheMode::SetAssociative => {
                let set = addr.set_index(&self.geom);
                (set, self.lru[set as usize].victim())
            }
            CacheMode::DirectMapped => self.dm_frame(addr),
        };
        let idx = self.index(frame);
        let old = self.frames[idx];
        let evicted = old.valid.then(|| {
            (
                old.tag << self.geom.index_bits() | u64::from(frame.0),
                old.dirty,
            )
        });
        self.frames[idx] = RefFrame {
            tag: addr.tag(&self.geom),
            valid: true,
            dirty: false,
        };
        if self.mode == CacheMode::SetAssociative {
            self.lru[frame.0 as usize].touch(frame.1);
        }
        (frame, evicted)
    }

    fn mark_dirty(&mut self, addr: Addr) -> bool {
        let hit = self.probe(addr);
        if let Some(frame) = hit {
            let idx = self.index(frame);
            self.frames[idx].dirty = true;
        }
        hit.is_some()
    }

    fn invalidate(&mut self, addr: Addr) -> Option<(u64, bool)> {
        let frame = self.probe(addr)?;
        let idx = self.index(frame);
        let dirty = self.frames[idx].dirty;
        self.frames[idx] = RefFrame::default();
        self.invalidations += 1;
        Some((addr.block_number(&self.geom), dirty))
    }

    fn set_mode(&mut self, mode: CacheMode) {
        self.mode = mode;
        self.invalidations += self.frames.iter().filter(|f| f.valid).count() as u64;
        self.frames.fill(RefFrame::default());
        for q in &mut self.lru {
            q.reset();
        }
    }
}

/// One step of a tag-array op sequence over block numbers.
#[derive(Debug, Clone, Copy)]
enum Op {
    Fill(u64),
    Lookup(u64),
    MarkDirty(u64),
    Invalidate(u64),
    SetMode(bool),
}

/// Blocks the op sequences touch: enough to overflow every geometry.
const BLOCKS: u64 = 48;

/// Decodes one draw from `0..12 * BLOCKS` into an op, weighted 4:4:2:1:1
/// over fill, lookup, mark_dirty, invalidate and set_mode.
fn decode(x: u64) -> Op {
    let block = x % BLOCKS;
    match x / BLOCKS {
        0..=3 => Op::Fill(block),
        4..=7 => Op::Lookup(block),
        8 | 9 => Op::MarkDirty(block),
        10 => Op::Invalidate(block),
        _ => Op::SetMode(block % 2 == 1),
    }
}

fn frame_of(hit: LookupResult) -> Option<(u32, u32)> {
    match hit {
        LookupResult::Hit { frame } => Some((frame.set, frame.way)),
        LookupResult::Miss => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The set's most recently accessed block is never the next victim.
    #[test]
    fn mru_block_is_never_evicted(blocks in proptest::collection::vec(0u64..64, 1..400)) {
        // 4 sets x 2 ways: every third distinct block in a set evicts.
        let geom = CacheGeometry::new(256, 2, 32).unwrap();
        let mut cache = CacheCore::new(geom);
        let mut mru: HashMap<u32, u64> = HashMap::new();
        for &block in &blocks {
            let addr = Addr::new(block << 5);
            let set = addr.set_index(&geom);
            if !matches!(cache.lookup(addr), LookupResult::Hit { .. }) {
                let (_, evicted) = cache.fill(addr);
                if let (Some(ev), Some(&prev)) = (evicted, mru.get(&set)) {
                    prop_assert_ne!(
                        ev.block_number, prev,
                        "evicted set {}'s MRU block", set
                    );
                }
            }
            mru.insert(set, block);
        }
    }

    /// Inclusion: with equal set counts, a 4-way cache contains every
    /// line a 2-way cache holds, so nothing hits small but misses big.
    #[test]
    fn wider_cache_includes_narrower(blocks in proptest::collection::vec(0u64..64, 1..400)) {
        let small_geom = CacheGeometry::new(256, 2, 32).unwrap();
        let big_geom = CacheGeometry::new(512, 4, 32).unwrap();
        prop_assert_eq!(small_geom.sets(), big_geom.sets());
        let mut small = CacheCore::new(small_geom);
        let mut big = CacheCore::new(big_geom);
        for (i, &block) in blocks.iter().enumerate() {
            let addr = Addr::new(block << 5);
            let small_hit = matches!(small.lookup(addr), LookupResult::Hit { .. });
            let big_hit = matches!(big.lookup(addr), LookupResult::Hit { .. });
            prop_assert!(
                !small_hit || big_hit,
                "step {}: block {} hit the 2-way cache but missed the 4-way",
                i, block
            );
            if !small_hit {
                small.fill(addr);
            }
            if !big_hit {
                big.fill(addr);
            }
        }
    }

    /// `LruQueue` ranks equal recency order: distinct touches most recent
    /// first, then never-touched ways in their initial (ascending) order.
    #[test]
    fn queue_ranks_follow_touch_recency(touches in proptest::collection::vec(0u32..6, 0..60)) {
        let mut lru = LruQueue::new(6);
        for &w in &touches {
            lru.touch(w);
        }
        let mut expected: Vec<u32> = Vec::new();
        for &w in touches.iter().rev() {
            if !expected.contains(&w) {
                expected.push(w);
            }
        }
        for w in 0..6 {
            if !expected.contains(&w) {
                expected.push(w);
            }
        }
        for (rank, &w) in expected.iter().enumerate() {
            prop_assert_eq!(lru.rank(w), rank as u32);
        }
        prop_assert_eq!(lru.victim(), *expected.last().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The packed `CacheCore` and the reference agree after every op of a
    /// random fill / lookup / mark_dirty / invalidate / set_mode sequence,
    /// on 16-byte frames at one, two and four ways.
    #[test]
    fn packed_core_matches_the_reference_model(
        sets_log2 in 0u32..3,
        ways_log2 in 0u32..3,
        draws in proptest::collection::vec(0u64..12 * BLOCKS, 1..300),
    ) {
        let ways = 1u32 << ways_log2;
        let geom = CacheGeometry::new((16 * ways) << sets_log2, ways, 16).unwrap();
        let mut real = CacheCore::new(geom);
        let mut model = RefCache::new(geom);
        for (i, op) in draws.into_iter().map(decode).enumerate() {
            match op {
                Op::Fill(b) => {
                    let addr = Addr::new(b << 4);
                    let (frame, ev) = real.fill(addr);
                    let (want_frame, want_ev) = model.fill(addr);
                    prop_assert_eq!((frame.set, frame.way), want_frame, "step {}: {:?}", i, op);
                    prop_assert_eq!(ev.map(|e| (e.block_number, e.dirty)), want_ev, "step {}: {:?}", i, op);
                }
                Op::Lookup(b) => {
                    let addr = Addr::new(b << 4);
                    prop_assert_eq!(frame_of(real.lookup(addr)), model.lookup(addr), "step {}: {:?}", i, op);
                }
                Op::MarkDirty(b) => {
                    let addr = Addr::new(b << 4);
                    prop_assert_eq!(real.mark_dirty(addr), model.mark_dirty(addr), "step {}: {:?}", i, op);
                }
                Op::Invalidate(b) => {
                    let addr = Addr::new(b << 4);
                    let ev = real.invalidate(addr).map(|e| (e.block_number, e.dirty));
                    prop_assert_eq!(ev, model.invalidate(addr), "step {}: {:?}", i, op);
                }
                Op::SetMode(dm) => {
                    let mode = if dm { CacheMode::DirectMapped } else { CacheMode::SetAssociative };
                    real.set_mode(mode);
                    model.set_mode(mode);
                }
            }
            prop_assert_eq!(real.invalidations(), model.invalidations, "step {}: {:?}", i, op);
            prop_assert_eq!(
                u64::from(real.valid_lines()),
                model.frames.iter().filter(|f| f.valid).count() as u64
            );
            for set in 0..geom.sets() {
                for way in 0..geom.ways() {
                    prop_assert_eq!(
                        real.way_rank(set, way),
                        model.lru[set as usize].rank(way),
                        "step {}: {:?}, set {} way {}", i, op, set, way
                    );
                }
            }
        }
    }
}

#[test]
fn queue_initial_order() {
    let lru = LruQueue::new(4);
    assert_eq!(lru.victim(), 3);
    assert_eq!(lru.rank(0), 0);
}

#[test]
fn queue_touch_promotes_to_front() {
    let mut lru = LruQueue::new(4);
    lru.touch(3);
    assert_eq!(lru.rank(3), 0);
    assert_eq!(lru.victim(), 2);
}

#[test]
fn queue_reset_matches_a_fresh_queue() {
    let mut lru = LruQueue::new(4);
    lru.touch(3);
    lru.touch(1);
    lru.reset();
    assert_eq!(lru, LruQueue::new(4));
    assert_eq!(lru.victim(), 3);
}

#[test]
fn core_way_ranks_start_in_the_fresh_queue_order() {
    let core = CacheCore::new(CacheGeometry::new(256, 4, 16).unwrap());
    let fresh = LruQueue::new(4);
    for set in 0..core.geometry().sets() {
        for way in 0..4 {
            assert_eq!(core.way_rank(set, way), fresh.rank(way));
        }
    }
}
