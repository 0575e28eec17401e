//! The bounded model checker rediscovering two real bugs from this
//! repository's history, from their pre-fix code shapes.
//!
//! Both bugs were originally found (and fixed) during the differential-
//! oracle work: the FFW window mask overflowed at full-width windows,
//! and `invalidate_all` left stale LRU recency behind. Here each pre-fix
//! shape is reconstructed as a model and handed to the bounded checker,
//! which must find a counterexample — and the fixed code must pass the
//! same exhaustive check. The shrunk counterexamples double as the
//! regression documentation the ISSUE asks for.

use dvs_diff::bounded::{check_lru_reset, check_window_function, tiny_geometry, CoreLru, LruModel};
use dvs_schemes::ffw::window_pattern;

/// The pre-fix window mask shape: `(1u32 << len) - 1`, written with
/// wrapping ops so the model is total. At `len == 32` the shift wraps to
/// `1` and the mask collapses to `0` — a full-width (fault-free) frame
/// would store an *empty* window and word-miss on every access.
fn buggy_window_pattern(window_len: u32, words_per_block: u32, focus: u32) -> u32 {
    let len = window_len.min(words_per_block);
    if len == 0 {
        return 0;
    }
    let half = (len - 1) / 2;
    let start = focus.saturating_sub(half).min(words_per_block - len);
    // Pre-fix mask; the fix is `u32::MAX >> (32 - len)`.
    1u32.wrapping_shl(len).wrapping_sub(1).wrapping_shl(start)
}

#[test]
fn bounded_check_rediscovers_the_ffw_window_mask_overflow() {
    let v = check_window_function(&buggy_window_pattern, 32)
        .expect("the pre-fix mask must fail exhaustive domain checking");
    // The counterexample is exactly the overflow point: a full-width
    // window in a 32-word block.
    assert!(v.detail.contains("len=32"), "{}", v.detail);
    assert!(
        v.detail.contains("holds 0 words, expected 32"),
        "{}",
        v.detail
    );
    let d = v.to_diagnostic();
    assert_eq!(d.lint, "verify/bounded-model");
}

#[test]
fn fixed_window_pattern_passes_the_same_exhaustive_check() {
    // Counterexample from `bounded_check_rediscovers_the_ffw_window_mask
    // _overflow`, pinned: the fixed mask keeps all 32 words.
    assert_eq!(window_pattern(32, 32, 16).count_ones(), 32);
    for wpb in [8, 16, 32] {
        assert!(check_window_function(&window_pattern, wpb).is_none());
    }
}

/// The pre-fix `invalidate_all` shape: validity cleared, recency order
/// untouched — `reset()` was never called.
struct StaleOrderLru(CoreLru);

impl LruModel for StaleOrderLru {
    fn touch(&mut self, way: u32) {
        self.0.touch(way);
    }
    fn reset(&mut self) {
        // Pre-fix shape: the flush forgot the replacement state.
    }
    fn rank(&self, way: u32) -> u32 {
        self.0.rank(way)
    }
}

#[test]
fn bounded_check_rediscovers_the_stale_lru_after_invalidate() {
    let v = check_lru_reset(&|ways| StaleOrderLru(CoreLru::new(ways)), 2, 3)
        .expect("a reset that keeps recency order must fail freshness");
    // Minimal shape: one touch perturbs the order, one reset should
    // restore it and (buggily) does not.
    assert!(v.detail.contains("Touch(1), Reset"), "{}", v.detail);
}

#[test]
fn fixed_lru_queue_passes_the_same_exhaustive_check() {
    for ways in [2, 4] {
        assert!(check_lru_reset(&CoreLru::new, ways, 4).is_none());
    }
}

#[test]
fn bounded_suite_proves_the_shipping_schemes_to_depth_four() {
    let diags = dvs_diff::bounded_suite(4);
    assert!(diags.is_empty(), "{diags:?}");
    let _ = tiny_geometry();
}
