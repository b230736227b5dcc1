//! Millisecond-resolution durations.
//!
//! All latencies, deadlines, wait times, and violation periods in WiSeDB are
//! expressed as [`Millis`]. Milliseconds are fine-grained enough for the
//! minutes-scale analytical queries the paper studies while keeping every
//! duration an exactly-representable integer, which makes A* search costs and
//! penalty computations reproducible across runs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A non-negative duration with millisecond resolution.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Millis(u64);

impl Millis {
    /// The zero duration.
    pub const ZERO: Millis = Millis(0);

    /// One second.
    pub const SECOND: Millis = Millis(1_000);

    /// One hour.
    pub const HOUR: Millis = Millis(3_600_000);

    /// Creates a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Millis(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Millis(secs * 1_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        Millis(mins * 60_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// millisecond. Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Millis::ZERO;
        }
        Millis((secs * 1_000.0).round() as u64)
    }

    /// Raw millisecond count.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// `true` iff this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero; the natural operation for violation
    /// periods (`completion - deadline` is zero when the deadline is met).
    pub fn saturating_sub(self, rhs: Millis) -> Millis {
        Millis(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a non-negative factor, rounding to the nearest
    /// millisecond. Used by goal tightening/loosening.
    pub fn mul_f64(self, factor: f64) -> Millis {
        Millis::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// The larger of two durations.
    pub fn max(self, rhs: Millis) -> Millis {
        Millis(self.0.max(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, rhs: Millis) -> Millis {
        Millis(self.0.min(rhs.0))
    }
}

impl Add for Millis {
    type Output = Millis;
    fn add(self, rhs: Millis) -> Millis {
        Millis(self.0 + rhs.0)
    }
}

impl AddAssign for Millis {
    fn add_assign(&mut self, rhs: Millis) {
        self.0 += rhs.0;
    }
}

impl Sub for Millis {
    type Output = Millis;
    /// Panics on underflow in debug builds, matching integer semantics.
    fn sub(self, rhs: Millis) -> Millis {
        Millis(self.0 - rhs.0)
    }
}

impl SubAssign for Millis {
    fn sub_assign(&mut self, rhs: Millis) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Millis {
    type Output = Millis;
    fn mul(self, rhs: u64) -> Millis {
        Millis(self.0 * rhs)
    }
}

impl Div<u64> for Millis {
    type Output = Millis;
    fn div(self, rhs: u64) -> Millis {
        Millis(self.0 / rhs)
    }
}

impl Sum for Millis {
    fn sum<I: Iterator<Item = Millis>>(iter: I) -> Millis {
        Millis(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Millis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.0;
        let mins = total_ms / 60_000;
        let secs = (total_ms % 60_000) / 1_000;
        let ms = total_ms % 1_000;
        if mins > 0 {
            if ms == 0 {
                write!(f, "{mins}m{secs:02}s")
            } else {
                write!(f, "{mins}m{secs:02}.{ms:03}s")
            }
        } else if ms == 0 {
            write!(f, "{secs}s")
        } else {
            write!(f, "{secs}.{ms:03}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Millis::from_secs(2).as_millis(), 2_000);
        assert_eq!(Millis::from_mins(3), Millis::from_secs(180));
        assert_eq!(Millis::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(Millis::from_secs_f64(-4.0), Millis::ZERO);
        assert_eq!(Millis::from_secs_f64(f64::NAN), Millis::ZERO);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Millis::from_secs(5);
        let b = Millis::from_secs(9);
        assert_eq!(b.saturating_sub(a), Millis::from_secs(4));
        assert_eq!(a.saturating_sub(b), Millis::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Millis::from_secs(90);
        assert_eq!(a * 2, Millis::from_secs(180));
        assert_eq!(a / 3, Millis::from_secs(30));
        assert_eq!(a + a, Millis::from_mins(3));
        let total: Millis = [a, a, a].into_iter().sum();
        assert_eq!(total, Millis::from_secs(270));
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(Millis::from_secs(10).mul_f64(1.5), Millis::from_secs(15));
        assert_eq!(Millis::from_secs(10).mul_f64(0.0), Millis::ZERO);
        // 2.5x the 6-minute longest TPC-H template = the paper's 15m default.
        assert_eq!(Millis::from_mins(6).mul_f64(2.5), Millis::from_mins(15));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Millis::from_secs(150).to_string(), "2m30s");
        assert_eq!(Millis::from_millis(1_250).to_string(), "1.250s");
        assert_eq!(Millis::from_millis(61_250).to_string(), "1m01.250s");
        assert_eq!(Millis::ZERO.to_string(), "0s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Millis::from_secs(1) < Millis::from_secs(2));
        assert_eq!(
            Millis::from_secs(7).max(Millis::from_secs(3)),
            Millis::from_secs(7)
        );
        assert_eq!(
            Millis::from_secs(7).min(Millis::from_secs(3)),
            Millis::from_secs(3)
        );
    }

    #[test]
    fn serde_round_trip() {
        let m = Millis::from_millis(12_345);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, "12345");
        let back: Millis = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
