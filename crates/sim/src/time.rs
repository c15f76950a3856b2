//! Fixed-point simulation time.
//!
//! The paper's simulator measures everything in abstract "time units" (the
//! per-hop transmission delay is 1 time unit, the mean buffering delay is 30
//! time units, ...). Floating-point event times make discrete-event
//! simulations non-deterministic under reordering, so we represent time as a
//! 64-bit count of *ticks* with [`TICKS_PER_UNIT`] ticks per paper time unit.
//! At 10⁶ ticks per unit this gives microsecond-like resolution over ~5.8
//! million years of simulated time — far beyond anything the experiments
//! need, while keeping `Ord` exact.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of ticks in one simulated time unit.
pub const TICKS_PER_UNIT: u64 = 1_000_000;

/// An absolute instant on the simulation clock.
///
/// `SimTime` is a monotone, totally ordered fixed-point value. Construct it
/// from paper time units with [`SimTime::from_units`] or from raw ticks with
/// [`SimTime::from_ticks`].
///
/// # Examples
///
/// ```
/// use tempriv_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::from_units(2.5) + SimDuration::from_units(0.5);
/// assert_eq!(t.as_units(), 3.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A non-negative span between two [`SimTime`] instants.
///
/// # Examples
///
/// ```
/// use tempriv_sim::time::SimDuration;
///
/// let d = SimDuration::from_units(30.0);
/// assert_eq!(d * 2, SimDuration::from_units(60.0));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw ticks.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Creates an instant from fractional paper time units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_units(units: f64) -> Self {
        SimTime(units_to_ticks(units))
    }

    /// Raw tick count since the epoch.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional paper time units.
    #[must_use]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// Span from `earlier` to `self`, or `None` if `earlier` is later.
    #[must_use]
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Span from `earlier` to `self`, clamped at zero.
    #[must_use]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, or `None` on overflow.
    #[must_use]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// `self + d`, clamped at [`SimTime::MAX`].
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from fractional paper time units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_units(units: f64) -> Self {
        SimDuration(units_to_ticks(units))
    }

    /// Raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional paper time units.
    #[must_use]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// `true` if this span is zero ticks long.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self + other`, clamped at [`SimDuration::MAX`].
    #[must_use]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

fn units_to_ticks(units: f64) -> u64 {
    assert!(
        units.is_finite() && units >= 0.0,
        "time units must be finite and non-negative, got {units}"
    );
    let ticks = units * TICKS_PER_UNIT as f64;
    assert!(
        ticks <= u64::MAX as f64,
        "time value {units} units overflows the simulation clock"
    );
    ticks.round() as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation time underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative duration between simulation instants"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl core::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}", self.as_units())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}u", self.as_units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_round_trip() {
        let t = SimTime::from_units(30.0);
        assert_eq!(t.ticks(), 30 * TICKS_PER_UNIT);
        assert_eq!(t.as_units(), 30.0);
    }

    #[test]
    fn fractional_units_round_to_nearest_tick() {
        let d = SimDuration::from_units(1.000_000_4);
        assert_eq!(d.ticks(), TICKS_PER_UNIT);
        let d = SimDuration::from_units(1.000_000_6);
        assert_eq!(d.ticks(), TICKS_PER_UNIT + 1);
    }

    #[test]
    fn arithmetic_is_exact() {
        let t = SimTime::from_units(2.0) + SimDuration::from_units(0.5);
        assert_eq!(t, SimTime::from_units(2.5));
        assert_eq!(t - SimTime::from_units(1.0), SimDuration::from_units(1.5));
    }

    #[test]
    fn ordering_follows_ticks() {
        assert!(SimTime::from_units(1.0) < SimTime::from_units(1.000001));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn checked_duration_since_none_when_earlier() {
        let a = SimTime::from_units(1.0);
        let b = SimTime::from_units(2.0);
        assert_eq!(a.checked_duration_since(b), None);
        assert_eq!(
            b.checked_duration_since(a),
            Some(SimDuration::from_units(1.0))
        );
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_units_panic() {
        let _ = SimTime::from_units(-1.0);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn backwards_subtraction_panics() {
        let _ = SimTime::from_units(1.0) - SimTime::from_units(2.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_units(i as f64)).sum();
        assert_eq!(total, SimDuration::from_units(10.0));
    }

    #[test]
    fn display_formats_units() {
        assert_eq!(SimTime::from_units(1.5).to_string(), "t=1.500000");
        assert_eq!(SimDuration::from_units(0.25).to_string(), "0.250000u");
    }

    #[test]
    fn mul_scales_duration() {
        assert_eq!(
            SimDuration::from_units(3.0) * 4,
            SimDuration::from_units(12.0)
        );
    }
}
