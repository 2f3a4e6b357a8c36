//! Simulated time.
//!
//! All simulators in this workspace run on an integer nanosecond clock.
//! Integer time makes event ordering exact and runs reproducible: the paper's
//! quantities span 100 µs context switches (Sec 4.1) to 1,800 s jobs
//! (Sec 4.2), all exactly representable in a `u64` nanosecond counter
//! (which covers ~584 years).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

/// Nanoseconds in a microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds in a millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds in a second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `x` rounded to the nearest integer, ties away from zero: the value of
/// [`f64::round`] (a `-0.0` input comes back as `+0.0`).
///
/// Without SSE4.1, which the `x86_64` baseline lacks, `f64::round` and
/// `f64::floor` are libm calls. For the inputs the time conversions and
/// the burst-table interpolation pass (finite, `0 ≤ x < 2⁵²`) this takes
/// the integer part by truncation instead; both the truncation and the
/// fraction `x − t` are exact there, and so is the result. Anything else
/// (negative, NaN, infinite, or ≥ 2⁵², where every `f64` is already an
/// integer) goes to `f64::round`.
#[inline]
pub fn round_half_away(x: f64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    if (0.0..TWO_52).contains(&x) {
        // Unchecked because the saturating `as` adds range fix-ups that
        // measurably slow the per-job-window math.
        // SAFETY: `0 ≤ x < 2⁵²` is finite and inside `i64`.
        let t = unsafe { x.to_int_unchecked::<i64>() };
        // The carry is added as data, not taken as a branch: for the
        // continuous inputs of the hot loops it is a coin flip.
        (t + i64::from(x - t as f64 >= 0.5)) as f64
    } else {
        x.round()
    }
}

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics in debug builds if `s` is negative or too large to represent.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "invalid time: {s}");
        SimTime(round_half_away(s * NANOS_PER_SEC as f64) as u64)
    }

    /// Raw nanoseconds since time zero.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Addition that saturates at [`SimTime::MAX`] instead of overflowing.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics in debug builds if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimDuration(round_half_away(s * NANOS_PER_SEC as f64) as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Scale by a non-negative factor, rounding to the nearest nanosecond.
    ///
    /// Used to convert CPU demand into wall time under partial availability
    /// (e.g. dividing by `1 - utilization`).
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0 && k.is_finite(), "invalid scale: {k}");
        SimDuration(round_half_away(self.0 as f64 * k) as u64)
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Exact span between two instants; panics (debug) if `rhs` is later.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self} - {rhs}");
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
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
        debug_assert!(self.0 >= rhs.0, "negative duration: {self} - {rhs}");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5 * NANOS_PER_MILLI);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7 * NANOS_PER_MICRO);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn f64_roundtrip_is_nanosecond_exact() {
        let d = SimDuration::from_secs_f64(0.123456789);
        assert_eq!(d.as_nanos(), 123_456_789);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500 * NANOS_PER_MILLI);
        assert_eq!((t - SimTime::from_secs(1)).as_nanos(), 500 * NANOS_PER_MILLI);
        let mut d = SimDuration::from_secs(1);
        d += SimDuration::from_secs(2);
        assert_eq!(d, SimDuration::from_secs(3));
        d -= SimDuration::from_secs(1);
        assert_eq!(d, SimDuration::from_secs(2));
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_secs(1)), SimTime::MAX);
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(0.25).as_nanos(), 3); // 2.5 rounds to 3 (round half away from zero)
        assert_eq!(d.mul_f64(2.0).as_nanos(), 20);
        assert_eq!(SimDuration::from_secs(1).mul_f64(1.0 / 3.0).as_nanos(), 333_333_333);
        // Ties on both sides of the integer part, and the largest input
        // below 2⁵² (4,503,599,627,370,495.5) ties up.
        let ns = |n: u64, k: f64| SimDuration::from_nanos(n).mul_f64(k).as_nanos();
        assert_eq!(ns(7, 0.5), 4);
        assert_eq!(ns(9, 0.5), 5);
        assert_eq!(ns((1 << 53) - 1, 0.5), 1 << 52);
        // At and above 2⁵² every product is already an integer.
        assert_eq!(ns(1 << 52, 1.0), 1 << 52);
        assert_eq!(ns(1 << 52, 3.0), 3 << 52);
        assert_eq!(ns(1 << 60, 0.75), 3 << 58);
        assert_eq!(ns(5, 0.0), 0);
    }

    #[test]
    fn round_half_away_matches_f64_round() {
        let two52 = (1u64 << 52) as f64;
        let mut cases = vec![
            0.0,
            0.25,
            0.5,
            1.5,
            2.5,
            0.5 - f64::EPSILON / 4.0, // largest value below one half
            0.5 + f64::EPSILON / 2.0,
            1e9 + 0.5,
            two52 - 0.5,
            two52 - 1.0,
            two52,
            two52 + 1.0,
            2.0 * two52,
            f64::MAX,
            f64::INFINITY,
            -0.5,
            -2.5,
            f64::MIN_POSITIVE,
        ];
        // Every tie and its neighbours a ulp away, up to 2⁵².
        for e in 0..=52 {
            let tie = (1u64 << e) as f64 - 0.5;
            cases.extend([tie, tie.next_down(), tie.next_up()]);
        }
        for x in cases {
            assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x:e}");
        }
        assert!(round_half_away(f64::NAN).is_nan());
        assert_eq!(round_half_away(-0.0), 0.0);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)).is_none());
        assert!(SimDuration::MAX.checked_add(SimDuration::from_nanos(1)).is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn ordering_and_min_max() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_micros(250)), "0.000250s");
    }
}
