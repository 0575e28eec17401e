//! Word-addressed cache and memory-hierarchy simulator.
//!
//! This crate is the storage substrate of the DSN 2016 reproduction. It
//! models:
//!
//! * [`Addr`] — byte addresses decomposed against a
//!   [`dvs_sram::CacheGeometry`] into tag / set / word-offset fields;
//! * [`CacheCore`] — a tag array with true-LRU replacement that can switch
//!   between set-associative and direct-mapped operation at run time, the
//!   DAC-style mechanism the paper's BBR instruction cache relies on
//!   (Figure 7);
//! * [`L2Cache`] — the unified write-back second level (Table I);
//! * [`WriteBuffer`] — a coalescing store buffer in front of the
//!   write-through L1 data cache;
//! * [`LatencyConfig`] / [`MemStats`] — the latency parameters and event
//!   counters every experiment reads (Figures 10–12).
//!
//! # Example
//!
//! ```rust
//! use dvs_cache::{Addr, CacheCore, LookupResult};
//! use dvs_sram::CacheGeometry;
//!
//! let mut l1 = CacheCore::new(CacheGeometry::dsn_l1());
//! let addr = Addr::new(0x1000);
//! assert!(matches!(l1.lookup(addr), LookupResult::Miss));
//! l1.fill(addr);
//! assert!(matches!(l1.lookup(addr), LookupResult::Hit { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cachecore;
mod l2;
mod latency;
mod obs;
mod stats;
mod writebuf;

pub use addr::Addr;
pub use cachecore::{CacheCore, CacheMode, Eviction, LookupResult};
pub use l2::{L2Cache, L2Outcome};
pub use latency::LatencyConfig;
pub use obs::{HierarchyObs, ServiceLevel};
pub use stats::MemStats;
pub use writebuf::WriteBuffer;
