//! Virtual time and bandwidth arithmetic.
//!
//! Simulated time is kept in integer **picoseconds** so that bandwidth
//! computations (e.g. "how long does it take to move 64 bytes at
//! 2.5 GB/s?") stay exact enough without floating-point tie-breaking
//! problems in the event queue. A `u64` of picoseconds spans ~213 days of
//! simulated time, far beyond any benchmark in this repository.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::cast_possible_truncation)]

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic is the same and keeping one type avoids conversion noise in
/// the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero (also the zero duration).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// One picosecond.
    pub const PS: SimTime = SimTime(1);
    /// One nanosecond.
    pub const NS: SimTime = SimTime(1_000);
    /// One microsecond.
    pub const US: SimTime = SimTime(1_000_000);
    /// One millisecond.
    pub const MS: SimTime = SimTime(1_000_000_000);
    /// One second.
    pub const S: SimTime = SimTime(1_000_000_000_000);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Construct from a (non-negative, finite) number of nanoseconds.
    ///
    /// Fractional nanoseconds are rounded to the nearest picosecond. Useful
    /// when deriving costs from clock frequencies.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "round() took the fraction, and `as` saturates; ns is finite and non-negative (debug-asserted)"
    )]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0 && ns.is_finite(), "invalid duration: {ns}");
        SimTime((ns * 1_000.0).round() as u64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Time as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000_000.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub const fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Checked subtraction: `None` when `rhs > self`.
    ///
    /// Attribution arithmetic (causal-chain segment durations, breakdown
    /// residuals) must use this instead of `-` so a malformed DAG — a
    /// child record stamped before its parent — surfaces as an explicit
    /// error instead of a wrapped duration.
    #[inline]
    pub const fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Multiply a duration by an integer count.
    #[inline]
    pub const fn times(self, n: u64) -> SimTime {
        SimTime(self.0 * n)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    #[expect(clippy::panic, reason = "time runs forward: an underflow is a bug")]
    fn sub(self, rhs: SimTime) -> SimTime {
        match self.checked_sub(rhs) {
            Some(v) => v,
            None => panic!("SimTime underflow: {self} - {rhs}"),
        }
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.6}s", ps as f64 / 1e12)
        }
    }
}

/// A transfer rate, in bytes per second.
///
/// Constructors mirror the units the paper quotes (MB/s and GB/s are
/// decimal, matching the paper's NetPIPE-style reporting).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Construct from bytes per second.
    #[inline]
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        debug_assert!(bps > 0.0 && bps.is_finite(), "invalid bandwidth: {bps}");
        Bandwidth { bytes_per_sec: bps }
    }

    /// Construct from decimal megabytes per second (1 MB = 1e6 bytes).
    #[inline]
    pub fn from_mb_per_sec(mbps: f64) -> Self {
        Self::from_bytes_per_sec(mbps * 1e6)
    }

    /// Construct from decimal gigabytes per second (1 GB = 1e9 bytes).
    #[inline]
    pub fn from_gb_per_sec(gbps: f64) -> Self {
        Self::from_bytes_per_sec(gbps * 1e9)
    }

    /// The rate in bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// The rate in decimal MB/s, the unit of every bandwidth figure in the
    /// paper.
    #[inline]
    pub fn mb_per_sec(self) -> f64 {
        self.bytes_per_sec / 1e6
    }

    /// Time to transfer `bytes` at this rate, rounded up to the next
    /// picosecond (a transfer never finishes early).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "ceil() took the fraction; a transfer past u64::MAX ps (~213 days) saturates"
    )]
    pub fn transfer_time(self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let ps = (bytes as f64) * 1e12 / self.bytes_per_sec;
        SimTime(ps.ceil() as u64)
    }

    /// The observed rate of moving `bytes` in `elapsed` time.
    #[inline]
    pub fn observed(bytes: u64, elapsed: SimTime) -> Bandwidth {
        debug_assert!(elapsed > SimTime::ZERO, "zero elapsed time");
        Bandwidth::from_bytes_per_sec(bytes as f64 / elapsed.as_secs_f64())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} MB/s", self.mb_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_are_consistent() {
        assert_eq!(SimTime::from_ns(1), SimTime::NS);
        assert_eq!(SimTime::from_us(1), SimTime::US);
        assert_eq!(SimTime::from_ms(1), SimTime::MS);
        assert_eq!(SimTime::from_us(1).ns(), 1_000);
        assert_eq!(SimTime::from_ns(2).ps(), 2_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(40);
        assert_eq!(a + b, SimTime::from_ns(140));
        assert_eq!(a - b, SimTime::from_ns(60));
        assert_eq!(a * 3, SimTime::from_ns(300));
        assert_eq!(a / 4, SimTime::from_ns(25));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn from_ns_f64_rounds_to_ps() {
        assert_eq!(SimTime::from_ns_f64(0.5), SimTime::from_ps(500));
        assert_eq!(SimTime::from_ns_f64(75.0), SimTime::from_ns(75));
        // 1/2.0GHz = 0.5 ns per cycle
        assert_eq!(SimTime::from_ns_f64(1.0 / 2.0), SimTime::from_ps(500));
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimTime::from_ns(5).to_string(), "5.000ns");
        assert_eq!(SimTime::from_us(2).to_string(), "2.000us");
        assert_eq!(SimTime::ZERO.to_string(), "0");
    }

    #[test]
    fn bandwidth_transfer_time() {
        // 2.5 GB/s link: 64-byte packet payload takes 25.6 ns.
        let link = Bandwidth::from_gb_per_sec(2.5);
        assert_eq!(link.transfer_time(64), SimTime::from_ps(25_600));
        assert_eq!(link.transfer_time(0), SimTime::ZERO);
        // Rounds up.
        let b = Bandwidth::from_bytes_per_sec(3.0);
        assert_eq!(b.transfer_time(1), SimTime::from_ps(333_333_333_334));
    }

    #[test]
    fn bandwidth_observed() {
        let bw = Bandwidth::observed(1_000_000, SimTime::from_ms(1));
        assert!((bw.mb_per_sec() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [SimTime::NS, SimTime::US, SimTime::NS].into_iter().sum();
        assert_eq!(total, SimTime::from_ps(1_002_000));
    }
}
