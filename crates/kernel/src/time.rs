//! Simulation time: a nanosecond-resolution monotonic clock.
//!
//! The paper's tracer uses the CPU timestamp counter ("providing a time
//! granularity on the order of nanoseconds"); the simulator mirrors that
//! by keeping all time as integer nanoseconds in a [`Nanos`] newtype.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in time, or a duration, in integer nanoseconds.
///
/// Both instants and durations share this representation, exactly as a
/// hardware timestamp counter does. Arithmetic is saturating-free and
/// will panic on overflow in debug builds; a simulation clock of `u64`
/// nanoseconds covers ~584 years, so overflow indicates a logic error.
///
/// ```
/// use osn_kernel::time::Nanos;
///
/// let tick = Nanos::from_millis(10);
/// assert_eq!(tick / Nanos::from_micros(100), 100);
/// assert_eq!(format!("{}", Nanos(2_178)), "2.178us");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Nanos(pub u64);

impl Nanos {
    pub const ZERO: Nanos = Nanos(0);

    /// One microsecond.
    pub const MICRO: Nanos = Nanos(1_000);
    /// One millisecond.
    pub const MILLI: Nanos = Nanos(1_000_000);
    /// One second.
    pub const SEC: Nanos = Nanos(1_000_000_000);

    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from a floating-point number of nanoseconds, rounding
    /// to the nearest integer nanosecond and clamping at zero.
    ///
    /// Round-half-away-from-zero, spelled as truncate-and-adjust:
    /// `f64::round` lowers to a libm call on baseline x86-64 (no
    /// SSE4.1) and this conversion sits under every cost-model sample.
    #[inline]
    pub fn from_nanos_f64(ns: f64) -> Self {
        if ns <= 0.0 {
            Nanos(0)
        } else {
            let t = ns as u64; // truncates toward zero, saturating
            if ns - t as f64 >= 0.5 {
                Nanos(t.saturating_add(1))
            } else {
                Nanos(t)
            }
        }
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }

    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// Scale a duration by a dimensionless floating point factor.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        Nanos::from_nanos_f64(self.0 as f64 * factor)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div<Nanos> for Nanos {
    type Output = u64;
    /// How many whole `rhs` intervals fit in `self`.
    #[inline]
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Nanos> for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    /// Human-oriented rendering with an adaptive unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

/// A half-open time interval `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    pub start: Nanos,
    pub end: Nanos,
}

impl Interval {
    #[inline]
    pub fn new(start: Nanos, end: Nanos) -> Self {
        debug_assert!(start <= end, "interval start {start:?} > end {end:?}");
        Interval { start, end }
    }

    #[inline]
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }

    #[inline]
    pub fn contains(&self, t: Nanos) -> bool {
        self.start <= t && t < self.end
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Intersection of two intervals, or `None` if disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// Whether two intervals overlap by a non-empty amount.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(Nanos::from_micros(3), Nanos(3_000));
        assert_eq!(Nanos::from_millis(2), Nanos(2_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos::SEC);
        assert_eq!(Nanos::SEC.as_secs_f64(), 1.0);
        assert_eq!(Nanos::MILLI.as_micros_f64(), 1_000.0);
    }

    #[test]
    fn from_f64_rounds_and_clamps() {
        assert_eq!(Nanos::from_nanos_f64(1.4), Nanos(1));
        assert_eq!(Nanos::from_nanos_f64(1.6), Nanos(2));
        assert_eq!(Nanos::from_nanos_f64(-5.0), Nanos(0));
        assert_eq!(Nanos::from_nanos_f64(0.0), Nanos(0));
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(30);
        assert_eq!(a + b, Nanos(130));
        assert_eq!(a - b, Nanos(70));
        assert_eq!(a * 3, Nanos(300));
        assert_eq!(a / 3, Nanos(33));
        assert_eq!(a / b, 3);
        assert_eq!(a % b, Nanos(10));
        assert_eq!(b.saturating_sub(a), Nanos(0));
        let mut c = a;
        c += b;
        c -= Nanos(10);
        assert_eq!(c, Nanos(120));
    }

    #[test]
    fn scale() {
        assert_eq!(Nanos(1000).scale(1.5), Nanos(1500));
        assert_eq!(Nanos(1000).scale(0.0), Nanos(0));
    }

    #[test]
    fn sum_iterator() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    fn display_adapts_units() {
        assert_eq!(Nanos(5).to_string(), "5ns");
        assert_eq!(Nanos(5_500).to_string(), "5.500us");
        assert_eq!(Nanos(5_500_000).to_string(), "5.500ms");
        assert_eq!(Nanos(5_500_000_000).to_string(), "5.500s");
    }

    #[test]
    fn interval_ops() {
        let a = Interval::new(Nanos(10), Nanos(20));
        let b = Interval::new(Nanos(15), Nanos(30));
        let c = Interval::new(Nanos(20), Nanos(25));
        assert_eq!(a.duration(), Nanos(10));
        assert!(a.contains(Nanos(10)));
        assert!(!a.contains(Nanos(20)));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersect(&b), Some(Interval::new(Nanos(15), Nanos(20))));
        assert_eq!(a.intersect(&c), None);
        assert!(Interval::new(Nanos(5), Nanos(5)).is_empty());
    }
}
