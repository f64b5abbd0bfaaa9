//! Virtual time.
//!
//! All simulated time is expressed in integer nanoseconds. Integer time
//! keeps the event queue totally ordered and reproducible (no floating
//! point accumulation error), and a `u64` nanosecond clock covers ~584
//! simulated years — far beyond any experiment here.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated timeline, in nanoseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far"
    /// deadline sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from nanoseconds.
    #[inline]
    pub const fn nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Builds a duration from microseconds.
    #[inline]
    pub const fn micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from milliseconds.
    #[inline]
    pub const fn millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from seconds.
    #[inline]
    pub const fn secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// nanosecond and saturating on overflow or negative input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime(5_000) + SimDuration::micros(2);
        assert_eq!(t, SimTime(7_000));
        assert_eq!(t - SimTime(5_000), SimDuration(2_000));
        assert_eq!(t - SimDuration(2_000), SimTime(5_000));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime(10);
        let late = SimTime(20);
        assert_eq!(late.saturating_since(early), SimDuration(10));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_handles_edges() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e-9), SimDuration(1));
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(f64::MAX), SimDuration(u64::MAX));
    }

    #[test]
    fn display_uses_human_units() {
        assert_eq!(format!("{}", SimDuration(42)), "42ns");
        assert_eq!(format!("{}", SimDuration(1_500)), "1.500us");
        assert_eq!(format!("{}", SimDuration(2_500_000)), "2.500ms");
        assert_eq!(format!("{}", SimDuration(3_000_000_000)), "3.000s");
    }

    #[test]
    fn duration_scalar_math() {
        assert_eq!(SimDuration(100) * 3, SimDuration(300));
        assert_eq!(SimDuration(100) / 4, SimDuration(25));
        assert_eq!(
            SimDuration(100).saturating_sub(SimDuration(200)),
            SimDuration::ZERO
        );
    }
}
