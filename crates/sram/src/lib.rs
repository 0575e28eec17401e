//! SRAM reliability substrate for the DSN 2016 deep-voltage-scaling study.
//!
//! This crate models everything the paper's Section II ("Understanding
//! impact of variation") and Section V (methodology) need:
//!
//! * [`PfailModel`] — per-bit failure probability as a function of supply
//!   voltage, calibrated to the paper's Table II operating points and the
//!   760 mV `Vccmin` yield anchor for a 32 KB array.
//! * [`CacheGeometry`] / [`FaultMap`] — word-granularity defect maps over a
//!   cache data array, generated by Monte-Carlo sampling.
//! * [`SramArray`] + [`bist`] — a bit-accurate faulty SRAM array and a
//!   March-style built-in self-test that recovers the defect map, the way
//!   the paper assumes BIST populates `FMAP`.
//! * [`montecarlo`] / [`stats`] — seeded trial streams and the
//!   mean/confidence-interval machinery used by every experiment.
//!
//! # Example
//!
//! ```rust
//! use dvs_sram::{CacheGeometry, FaultMap, MilliVolts, PfailModel};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), dvs_sram::GeometryError> {
//! let model = PfailModel::dsn45();
//! // The paper's headline: a 32 KB array needs ~760 mV for 99.9 % yield.
//! let vccmin = model.vccmin(32 * 1024 * 8, 0.999);
//! assert!((vccmin.get() as i64 - 760).abs() <= 5);
//!
//! // At 400 mV the per-bit failure probability reaches 1e-2 ...
//! let p = model.pfail_bit(MilliVolts::new(400));
//! assert!((p - 1e-2).abs() < 1e-6);
//!
//! // ... so sample a defect map for a 32 KB 4-way cache with 32 B blocks.
//! let geom = CacheGeometry::new(32 * 1024, 4, 32)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let map = FaultMap::sample(&geom, model.pfail_word(MilliVolts::new(400)), &mut rng);
//! assert!(map.faulty_words() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
pub mod bist;
mod bitgrid;
mod chain;
pub mod ecc;
mod faultmap;
mod geometry;
pub mod model;
pub mod montecarlo;
mod pfail;
pub mod stats;
mod voltage;

pub use array::{FailureKind, InjectedFault, SramArray};
pub use bitgrid::{BitGrid, IterOnes};
pub use chain::{ladder_mv, FaultChain, LADDER_STEP_MV, LADDER_TOP_MV};
pub use faultmap::{FaultMap, FrameId};
pub use geometry::{CacheGeometry, GeometryError};
pub use model::FaultModel;
pub use pfail::{BuildPfailModelError, PfailModel, YieldReport};
pub use voltage::{MilliVolts, MAX_VCC_MV, MIN_VCC_MV};

/// Number of bits in the machine word the paper's caches are addressed at.
///
/// The paper states "The L1 caches are assumed to be addressed at a 32-bit
/// word level" (Section IV).
pub const BITS_PER_WORD: u32 = 32;

/// Number of bytes per addressed word (32-bit words).
pub const BYTES_PER_WORD: u32 = 4;
