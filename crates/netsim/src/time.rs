//! Simulation time: microsecond-resolution instants and durations.
//!
//! Integer microseconds give a total order with no floating-point
//! accumulation drift; `u64` microseconds cover ~584 000 years, far beyond
//! any experiment horizon (the longest paper scenario is a year of SETI-style
//! accrual).
//!
//! Arithmetic saturates at `u64::MAX`, the end of time: a huge duration
//! (a compute time from [`Duration::from_secs_f64`] on a host of almost no
//! speed) schedules an event at the end of time instead of wrapping to an
//! instant before now.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in microseconds since t=0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

pub const MICROS_PER_SEC: u64 = 1_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds, saturating at the end of time.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(MICROS_PER_SEC))
    }

    /// Fractional seconds since t=0.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant. Panics in debug builds if
    /// `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> Duration {
        debug_assert!(self >= earlier, "SimTime::since: earlier is later");
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub fn from_secs(s: u64) -> Self {
        Duration(s.saturating_mul(MICROS_PER_SEC))
    }

    pub fn from_millis(ms: u64) -> Self {
        Duration(ms.saturating_mul(1_000))
    }

    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond. Negative or non-finite inputs clamp to zero, huge ones
    /// to `u64::MAX`.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Duration(0);
        }
        Duration((s * MICROS_PER_SEC as f64).round() as u64)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(self.0 >= rhs.0, "Duration subtraction underflow");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, k: u64) -> Duration {
        Duration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MICROS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10);
        let d = Duration::from_millis(2500);
        assert_eq!((t + d).as_micros(), 12_500_000);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(Duration::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(Duration::from_secs_f64(0.0000005).as_micros(), 1);
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime(5);
        let b = SimTime(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Duration::from_micros(12).to_string(), "12us");
        assert_eq!(Duration::from_micros(1_200).to_string(), "1.200ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn saturating_ops() {
        let d = Duration::from_micros(5);
        assert_eq!(d.saturating_sub(Duration::from_micros(9)), Duration::ZERO);
        let t = SimTime(3);
        assert_eq!(t - Duration::from_micros(10), SimTime::ZERO);
        let end = SimTime(u64::MAX);
        assert_eq!(t + Duration(u64::MAX), end);
        let mut u = t;
        u += Duration(u64::MAX - 1);
        assert_eq!(u, end);
        let mut d = Duration(u64::MAX);
        d += Duration(1);
        assert_eq!(d, Duration(u64::MAX));
        assert_eq!(d + Duration(1), Duration(u64::MAX));
        assert_eq!(Duration(u64::MAX / 2) * 3, Duration(u64::MAX));
        assert_eq!(Duration::from_secs(u64::MAX).as_micros(), u64::MAX);
        assert_eq!(Duration::from_millis(u64::MAX).as_micros(), u64::MAX);
        assert_eq!(SimTime::from_secs(u64::MAX), end);
        assert_eq!(Duration::from_secs_f64(1e30).as_micros(), u64::MAX);
    }
}
