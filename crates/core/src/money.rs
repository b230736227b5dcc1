//! Monetary amounts and penalty rates.
//!
//! Money is stored as `f64` dollars. The magnitudes WiSeDB works with (VM
//! rental fractions of a cent up to a few hundred dollars) sit comfortably in
//! the exactly-representable range of `f64`, and schedule costs are built from
//! short sums of products, so error accumulation is negligible relative to the
//! cent-level quantities the paper reports. A total order is provided via
//! [`Money::total_cmp`] for use as a search key.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::time::Millis;

/// A (possibly negative) amount of money in dollars.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Money(f64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0.0);

    /// Creates an amount from dollars.
    pub const fn from_dollars(dollars: f64) -> Self {
        Money(dollars)
    }

    /// Creates an amount from cents.
    pub fn from_cents(cents: f64) -> Self {
        Money(cents / 100.0)
    }

    /// The amount in dollars.
    pub const fn as_dollars(self) -> f64 {
        self.0
    }

    /// The amount in cents.
    pub fn as_cents(self) -> f64 {
        self.0 * 100.0
    }

    /// `true` iff the amount is finite (not NaN / infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// IEEE-754 total ordering; suitable for priority-queue keys.
    pub fn total_cmp(&self, other: &Money) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    /// The larger of two amounts (NaN-propagating like `f64::max` is not —
    /// callers are expected to keep amounts finite).
    pub fn max(self, other: Money) -> Money {
        Money(self.0.max(other.0))
    }

    /// The smaller of two amounts.
    pub fn min(self, other: Money) -> Money {
        Money(self.0.min(other.0))
    }

    /// Clamps negative amounts to zero. Violation penalties are never
    /// refunds.
    pub fn clamp_non_negative(self) -> Money {
        if self.0 < 0.0 {
            Money::ZERO
        } else {
            self
        }
    }

    /// Approximate equality within `eps` dollars.
    pub fn approx_eq(self, other: Money, eps: f64) -> bool {
        (self.0 - other.0).abs() <= eps
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Money {
    type Output = Money;
    fn mul(self, rhs: f64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Div<f64> for Money {
    type Output = Money;
    fn div(self, rhs: f64) -> Money {
        Money(self.0 / rhs)
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        Money(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 0.0 {
            write!(f, "-${:.4}", -self.0)
        } else {
            write!(f, "${:.4}", self.0)
        }
    }
}

/// A penalty rate: money charged per unit of violation time.
///
/// The paper (and IaaS practice) expresses SLA penalties as a fixed amount
/// per time period of violation; the experiments use one cent per second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PenaltyRate {
    per_second: Money,
}

impl PenaltyRate {
    /// The paper's default: one cent per second of violation.
    pub const CENT_PER_SECOND: PenaltyRate = PenaltyRate {
        per_second: Money::from_dollars(0.01),
    };

    /// A rate of `amount` per second of violation.
    pub const fn per_second(amount: Money) -> Self {
        PenaltyRate { per_second: amount }
    }

    /// The penalty for a violation period of `duration`.
    pub fn for_violation(&self, duration: Millis) -> Money {
        self.per_second * duration.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Money::from_cents(250.0).as_dollars(), 2.5);
        assert_eq!(Money::from_dollars(0.052).as_cents(), 5.2);
    }

    #[test]
    fn arithmetic() {
        let a = Money::from_dollars(1.5);
        let b = Money::from_dollars(0.25);
        assert_eq!((a + b).as_dollars(), 1.75);
        assert_eq!((a - b).as_dollars(), 1.25);
        assert_eq!((a * 2.0).as_dollars(), 3.0);
        assert_eq!((a / 3.0).as_dollars(), 0.5);
        let total: Money = [a, b, b].into_iter().sum();
        assert!(total.approx_eq(Money::from_dollars(2.0), 1e-12));
    }

    #[test]
    fn clamp_non_negative() {
        assert_eq!(Money::from_dollars(-3.0).clamp_non_negative(), Money::ZERO);
        let pos = Money::from_dollars(3.0);
        assert_eq!(pos.clamp_non_negative(), pos);
    }

    #[test]
    fn penalty_rate_cent_per_second() {
        let rate = PenaltyRate::CENT_PER_SECOND;
        // 90 seconds of violation at 1 cent/s = $0.90.
        let p = rate.for_violation(Millis::from_secs(90));
        assert!(p.approx_eq(Money::from_dollars(0.90), 1e-12));
        assert_eq!(rate.for_violation(Millis::ZERO), Money::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(Money::from_dollars(1.23456).to_string(), "$1.2346");
        assert_eq!(Money::from_dollars(-0.5).to_string(), "-$0.5000");
    }

    #[test]
    fn total_cmp_orders() {
        let mut v = [
            Money::from_dollars(2.0),
            Money::from_dollars(-1.0),
            Money::ZERO,
        ];
        v.sort_by(Money::total_cmp);
        assert_eq!(v[0], Money::from_dollars(-1.0));
        assert_eq!(v[2], Money::from_dollars(2.0));
    }
}
