//! Deterministic simulated time.
//!
//! The simulator uses integer microseconds so that event ordering and
//! accounting are exact and reproducible across platforms — floating-point
//! time would make long simulations drift and make test assertions brittle.
//!
//! [`SimTime`] is a point on the simulation clock; [`SimDuration`] is a span
//! between two points. Both are thin wrappers over `u64` microseconds with
//! the arithmetic one expects (`SimTime + SimDuration = SimTime`,
//! `SimTime - SimTime = SimDuration`, scalar multiplication of durations).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Microseconds per second.
const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in simulated time, measured in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Creates an instant from whole seconds, or `None` if its microsecond
    /// count does not fit in a `u64`.
    pub fn checked_from_secs(secs: u64) -> Option<Self> {
        secs.checked_mul(MICROS_PER_SEC).map(SimTime)
    }

    /// Creates an instant from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Returns the instant as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Returns the instant as whole seconds, truncating sub-second precision.
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from whole seconds, or `None` if its microsecond
    /// count does not fit in a `u64`.
    pub fn checked_from_secs(secs: u64) -> Option<Self> {
        secs.checked_mul(MICROS_PER_SEC).map(SimDuration)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * MICROS_PER_SEC)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600 * MICROS_PER_SEC)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from fractional seconds, rounding to microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Returns the duration as whole seconds, truncating.
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative float, rounding to microseconds.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the ratio of this duration to another as a float.
    ///
    /// Returns 0.0 when `other` is zero.
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }

    /// Subtracts, saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.as_secs();
        let (h, m, s) = (total_secs / 3600, (total_secs % 3600) / 60, total_secs % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
    }

    #[test]
    fn time_difference_is_duration() {
        let d = SimTime::from_secs(90) - SimTime::from_secs(30);
        assert_eq!(d, SimDuration::from_mins(1));
    }

    #[test]
    fn saturating_since_clamps_at_zero() {
        let early = SimTime::from_secs(5);
        let late = SimTime::from_secs(10);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(5));
    }

    #[test]
    fn checked_seconds_refuse_what_does_not_fit() {
        let max = u64::MAX / MICROS_PER_SEC;
        assert_eq!(
            SimTime::checked_from_secs(max),
            Some(SimTime::from_secs(max))
        );
        assert_eq!(SimTime::checked_from_secs(max + 1), None);
        assert_eq!(
            SimDuration::checked_from_secs(max),
            Some(SimDuration::from_secs(max))
        );
        assert_eq!(SimDuration::checked_from_secs(max + 1), None);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(
            SimDuration::from_micros(1_000_000),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn duration_float_round_trip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_micros(), 1_500_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn duration_from_negative_float_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_scalar_math() {
        let q = SimDuration::from_secs(60);
        assert_eq!(q * 3, SimDuration::from_mins(3));
        assert_eq!(q / 2, SimDuration::from_secs(30));
        assert_eq!(q.mul_f64(0.5), SimDuration::from_secs(30));
    }

    #[test]
    fn duration_ratio() {
        let a = SimDuration::from_secs(30);
        let b = SimDuration::from_secs(60);
        assert!((a.ratio(b) - 0.5).abs() < 1e-12);
        assert_eq!(a.ratio(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn duration_saturating_sub() {
        let a = SimDuration::from_secs(5);
        let b = SimDuration::from_secs(8);
        assert_eq!(b.saturating_sub(a), SimDuration::from_secs(3));
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3_725).to_string(), "01:02:05");
        assert_eq!(SimDuration::from_secs(90).to_string(), "90.0s");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.min(y), x);
        assert_eq!(x.max(y), y);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimTime::from_micros(1) < SimTime::MAX);
    }
}
