//! Supply-voltage newtype.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Lowest plausible supply voltage a campaign or sweep may request.
pub const MIN_VCC_MV: u32 = 300;

/// Highest plausible supply voltage a campaign or sweep may request.
pub const MAX_VCC_MV: u32 = 1000;

/// A supply voltage expressed in millivolts.
///
/// All public interfaces in this workspace exchange voltages through this
/// newtype so that a raw `u32` frequency (MHz) can never be confused with a
/// voltage (C-NEWTYPE).
///
/// # Example
///
/// ```rust
/// use dvs_sram::MilliVolts;
///
/// let v = MilliVolts::new(760);
/// assert_eq!(v.get(), 760);
/// assert_eq!(v.volts(), 0.76);
/// assert_eq!(v.to_string(), "760mV");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MilliVolts(u32);

impl MilliVolts {
    /// Creates a voltage from a millivolt count.
    pub const fn new(mv: u32) -> Self {
        MilliVolts(mv)
    }

    /// Returns the raw millivolt count.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns the voltage in volts.
    pub fn volts(self) -> f64 {
        f64::from(self.0) / 1000.0
    }

    /// Returns the ratio of `self` to `other` (e.g. for scaling laws where
    /// power scales with `V / V_ref`).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero millivolts.
    pub fn ratio_to(self, other: MilliVolts) -> f64 {
        assert!(other.0 != 0, "cannot take a ratio to 0 mV");
        f64::from(self.0) / f64::from(other.0)
    }
}

impl fmt::Display for MilliVolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}mV", self.0)
    }
}

impl From<u32> for MilliVolts {
    fn from(mv: u32) -> Self {
        MilliVolts(mv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let v = MilliVolts::new(400);
        assert_eq!(v.get(), 400);
        assert!((v.volts() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_format() {
        assert_eq!(MilliVolts::new(760).to_string(), "760mV");
    }

    #[test]
    fn ordering_follows_magnitude() {
        assert!(MilliVolts::new(400) < MilliVolts::new(760));
    }

    #[test]
    fn ratio() {
        let r = MilliVolts::new(400).ratio_to(MilliVolts::new(760));
        assert!((r - 400.0 / 760.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ratio to 0")]
    fn ratio_to_zero_panics() {
        let _ = MilliVolts::new(400).ratio_to(MilliVolts::new(0));
    }

    #[test]
    fn from_u32() {
        assert_eq!(MilliVolts::from(520).get(), 520);
    }
}
