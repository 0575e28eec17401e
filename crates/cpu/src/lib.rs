//! Trace-driven timing model of the paper's embedded core (Table I).
//!
//! The paper simulates a 2-way superscalar ARM (Cortex-A9-class) in gem5.
//! This crate substitutes a deterministic scoreboard timing model with the
//! same structural parameters:
//!
//! * 2-wide in-order dispatch, 128-entry ROB, 64-entry LSQ;
//! * 2 integer ALUs, 1 integer multiplier, 1 FP ALU, 1 FP multiplier;
//! * 4096-entry bimodal branch predictor + 512-entry 8-way BTB;
//! * instruction fetch through a scheme-aware L1I, loads/stores through a
//!   write-through L1D with a coalescing write buffer, and a shared
//!   write-back L2 ([`MemSystem`]).
//!
//! The model's first-order behaviours — the ones the paper's evaluation
//! hinges on — are (a) run time is highly sensitive to L1 hit latency
//! (taken-branch redirects and load-to-use stalls pay it directly) and
//! (b) every extra L2 access from a defective word stalls the in-order
//! backend.
//!
//! # Example
//!
//! ```rust
//! use dvs_cpu::{simulate, CoreConfig, MemSystem};
//! use dvs_schemes::{L1Cache, SchemeKind};
//! use dvs_sram::{CacheGeometry, FaultMap};
//! use dvs_workloads::{Benchmark, Layout};
//!
//! let geom = CacheGeometry::dsn_l1();
//! let mem = MemSystem::new(
//!     L1Cache::new(SchemeKind::Conventional, FaultMap::fault_free(&geom)),
//!     L1Cache::new(SchemeKind::Conventional, FaultMap::fault_free(&geom)),
//!     1607,
//! );
//! let wl = Benchmark::Crc32.build(1);
//! let layout = Layout::sequential(wl.program());
//! let result = simulate(&CoreConfig::dsn2016(), mem, wl.trace(&layout, 0).take(50_000));
//! assert_eq!(result.instructions, 50_000);
//! assert!(result.ipc() > 0.3 && result.ipc() <= 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod config;
mod engine;
mod memsys;
mod result;

pub use bpred::{BimodalPredictor, Btb};
pub use config::CoreConfig;
pub use engine::{simulate, Core};
pub use memsys::MemSystem;
pub use result::SimResult;
