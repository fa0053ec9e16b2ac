//! Simulated logical clock.
//!
//! Every time-dependent component in the system (Query Store intervals,
//! workload-selection windows, drop-analysis retention, index build
//! durations, low-activity scheduling) reads time from a [`SimClock`]
//! instead of the wall clock. This lets weeks of fleet operation simulate
//! in seconds, deterministically, which is essential both for tests and
//! for the figure-regeneration harnesses.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in simulated time, in milliseconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The simulation epoch (t = 0).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Milliseconds since the epoch.
    #[inline]
    pub fn millis(self) -> u64 {
        self.0
    }

    /// Add a duration, saturating at the maximum representable time.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1000;
        let days = total_secs / 86_400;
        let hours = (total_secs % 86_400) / 3600;
        let mins = (total_secs % 3600) / 60;
        let secs = total_secs % 60;
        write!(f, "d{days}+{hours:02}:{mins:02}:{secs:02}")
    }
}

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    pub const ZERO: Duration = Duration(0);

    #[inline]
    pub fn from_millis(ms: u64) -> Duration {
        Duration(ms)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1000)
    }
    #[inline]
    pub fn from_mins(m: u64) -> Duration {
        Duration(m * 60_000)
    }
    #[inline]
    pub const fn from_hours(h: u64) -> Duration {
        Duration(h * 3_600_000)
    }
    #[inline]
    pub const fn from_days(d: u64) -> Duration {
        Duration(d * 86_400_000)
    }
    #[inline]
    pub fn millis(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3_600_000 {
            write!(f, "{:.1}h", self.0 as f64 / 3_600_000.0)
        } else if self.0 >= 1000 {
            write!(f, "{:.1}s", self.0 as f64 / 1000.0)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

// Both additions saturate rather than wrap or panic: scheduling code
// computes absolute due instants like `entered + delay` and `created_at
// + expiry`, and a near-u64::MAX operand must clamp to "the end of
// time" (which simply never comes due), not corrupt a wakeup index.
impl std::ops::Add<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, d: Duration) -> Timestamp {
        self.saturating_add(d)
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, d: Duration) -> Duration {
        Duration(self.0.saturating_add(d.0))
    }
}

/// A shared, monotonically advancing simulated clock.
///
/// Cloning a `SimClock` yields a handle to the same underlying clock, so a
/// whole fleet of databases plus the control plane observe one timeline.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// Create a clock positioned at the epoch.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> Timestamp {
        Timestamp(self.now.load(Ordering::Acquire))
    }

    /// Advance the clock by `d`. Returns the new time.
    pub fn advance(&self, d: Duration) -> Timestamp {
        Timestamp(self.now.fetch_add(d.0, Ordering::AcqRel) + d.0)
    }

    /// Move the clock to `t` if `t` is in the future; otherwise no-op.
    /// Returns the (possibly unchanged) current time.
    pub fn advance_to(&self, t: Timestamp) -> Timestamp {
        let mut cur = self.now.load(Ordering::Acquire);
        while t.0 > cur {
            match self
                .now
                .compare_exchange(cur, t.0, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        Timestamp(cur)
    }

    /// A new clock reading the same instant but with private state.
    /// Cloning a `SimClock` *shares* time by design (an A/B instance
    /// pair ticks together); detaching is how a replica becomes
    /// temporally independent of its ancestor.
    pub fn detached(&self) -> SimClock {
        SimClock {
            now: Arc::new(AtomicU64::new(self.now.load(Ordering::Acquire))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_epoch() {
        let c = SimClock::new();
        assert_eq!(c.now(), Timestamp::EPOCH);
    }

    #[test]
    fn advance_moves_time_forward() {
        let c = SimClock::new();
        c.advance(Duration::from_secs(5));
        assert_eq!(c.now(), Timestamp(5000));
        c.advance(Duration::from_millis(1));
        assert_eq!(c.now(), Timestamp(5001));
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = SimClock::new();
        c.advance_to(Timestamp(100));
        assert_eq!(c.now(), Timestamp(100));
        // Moving backwards is a no-op.
        c.advance_to(Timestamp(50));
        assert_eq!(c.now(), Timestamp(100));
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(Duration::from_hours(1));
        assert_eq!(b.now(), Timestamp(3_600_000));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::from_days(1).millis(), 86_400_000);
        assert_eq!(Duration::from_hours(2).millis(), 7_200_000);
        assert_eq!(Duration::from_mins(3).millis(), 180_000);
    }

    #[test]
    fn timestamp_display_formats_days() {
        let t = Timestamp::EPOCH + Duration::from_days(2) + Duration::from_hours(3);
        assert_eq!(format!("{t}"), "d2+03:00:00");
    }

    #[test]
    fn since_saturates() {
        let a = Timestamp(100);
        let b = Timestamp(300);
        assert_eq!(b.since(a), Duration(200));
        assert_eq!(a.since(b), Duration::ZERO);
    }

    #[test]
    fn additions_saturate_near_the_end_of_time() {
        let t = Timestamp(u64::MAX - 5);
        assert_eq!(t + Duration::from_hours(1), Timestamp(u64::MAX));
        assert_eq!(t.saturating_add(Duration(5)), Timestamp(u64::MAX));
        assert_eq!(Duration(u64::MAX - 1) + Duration(100), Duration(u64::MAX));
        // Ordinary sums are unchanged.
        assert_eq!(Timestamp(10) + Duration(5), Timestamp(15));
        assert_eq!(Duration(10) + Duration(5), Duration(15));
    }
}
