//! Time handling for traces and simulation.
//!
//! All trace and simulation time is expressed in whole seconds since the
//! start of the observation window. The paper's dataset starts on
//! November 16, 2016 — a Wednesday — so diurnal/weekly helpers assume the
//! trace epoch falls on [`EPOCH_WEEKDAY`] at midnight local time.

use serde::{Deserialize, Serialize};

/// Seconds between consecutive telemetry readings (the paper reports VM
/// utilization every 5 minutes).
pub const TELEMETRY_INTERVAL: Duration = Duration::from_minutes(5);

/// Weekday of the trace epoch: 0 = Monday … 6 = Sunday.
///
/// November 16, 2016 was a Wednesday.
pub const EPOCH_WEEKDAY: u32 = 2;

/// A point in trace time, in whole seconds since the trace epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

/// A span of trace time, in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Timestamp {
    /// The trace epoch (t = 0).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Builds a timestamp from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Builds a timestamp from whole minutes since the epoch.
    pub const fn from_minutes(mins: u64) -> Self {
        Timestamp(mins * 60)
    }

    /// Builds a timestamp from whole hours since the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        Timestamp(hours * 3600)
    }

    /// Builds a timestamp from whole days since the epoch.
    pub const fn from_days(days: u64) -> Self {
        Timestamp(days * 86_400)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Fractional hours since the epoch.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Fractional days since the epoch.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// Hour of the (local) day in `[0, 24)`, fractional.
    pub fn hour_of_day(self) -> f64 {
        (self.0 % 86_400) as f64 / 3600.0
    }

    /// Whole day index since the epoch.
    pub const fn day_index(self) -> u64 {
        self.0 / 86_400
    }

    /// Weekday of this timestamp: 0 = Monday … 6 = Sunday.
    pub const fn weekday(self) -> u32 {
        ((self.day_index() as u32) + EPOCH_WEEKDAY) % 7
    }

    /// True when the timestamp falls on a Saturday or Sunday.
    pub const fn is_weekend(self) -> bool {
        self.weekday() >= 5
    }

    /// Index of the enclosing 5-minute telemetry interval.
    pub const fn telemetry_slot(self) -> u64 {
        self.0 / TELEMETRY_INTERVAL.0
    }

    /// Saturating difference `self - earlier`.
    pub const fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Timestamp advanced by `d`.
    pub const fn plus(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0)
    }

    /// Timestamp moved back by `d`, saturating at the epoch.
    pub const fn minus(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }

    /// The smaller of two timestamps.
    pub fn min(self, other: Timestamp) -> Timestamp {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two timestamps.
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_minutes(mins: u64) -> Self {
        Duration(mins * 60)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        Duration(hours * 3600)
    }

    /// Builds a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        Duration(days * 86_400)
    }

    /// Whole seconds in this duration.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Fractional hours in this duration.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Fractional days in this duration.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }
}

impl std::ops::Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Duration) -> Timestamp {
        self.plus(rhs)
    }
}

impl std::ops::Sub<Timestamp> for Timestamp {
    type Output = Duration;

    fn sub(self, rhs: Timestamp) -> Duration {
        self.since(rhs)
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{}s", self.0)
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.0;
        if s < 60 {
            write!(f, "{s}s")
        } else if s < 3600 {
            write!(f, "{:.1}m", s as f64 / 60.0)
        } else if s < 86_400 {
            write!(f, "{:.1}h", s as f64 / 3600.0)
        } else {
            write!(f, "{:.1}d", s as f64 / 86_400.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weekday_of_epoch_is_wednesday() {
        assert_eq!(Timestamp::ZERO.weekday(), 2);
        assert!(!Timestamp::ZERO.is_weekend());
    }

    #[test]
    fn weekend_detection() {
        // Epoch is Wednesday; +3 days = Saturday, +4 = Sunday, +5 = Monday.
        assert!(Timestamp::from_days(3).is_weekend());
        assert!(Timestamp::from_days(4).is_weekend());
        assert!(!Timestamp::from_days(5).is_weekend());
    }

    #[test]
    fn hour_of_day_wraps() {
        let t = Timestamp::from_hours(25);
        assert!((t.hour_of_day() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn telemetry_slots_are_five_minutes() {
        assert_eq!(Timestamp::from_secs(0).telemetry_slot(), 0);
        assert_eq!(Timestamp::from_secs(299).telemetry_slot(), 0);
        assert_eq!(Timestamp::from_secs(300).telemetry_slot(), 1);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = Timestamp::from_secs(10);
        let b = Timestamp::from_secs(20);
        assert_eq!(a.since(b), Duration::ZERO);
        assert_eq!(b.since(a), Duration::from_secs(10));
        assert_eq!(a.minus(Duration::from_secs(100)), Timestamp::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration::from_secs(30).to_string(), "30s");
        assert_eq!(Duration::from_minutes(90).to_string(), "1.5h");
        assert_eq!(Duration::from_days(2).to_string(), "2.0d");
    }
}
