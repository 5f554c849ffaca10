//! Lightweight named statistics used throughout the hardware models.

use core::fmt;

/// A monotonically increasing named event counter.
///
/// # Examples
///
/// ```
/// use dvm_sim::Counter;
/// let mut c = Counter::new("tlb_misses");
/// c.inc();
/// c.add(2);
/// assert_eq!(c.get(), 3);
/// assert_eq!(c.name(), "tlb_misses");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    name: &'static str,
    value: u64,
}

impl Counter {
    /// Create a zeroed counter with a display name.
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: 0 }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reset to zero (e.g. between measurement phases).
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A hit/miss style ratio statistic.
///
/// # Examples
///
/// ```
/// use dvm_sim::RatioStat;
/// let mut r = RatioStat::new("tlb");
/// r.hit();
/// r.miss();
/// r.miss();
/// assert_eq!(r.total(), 3);
/// assert!((r.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatioStat {
    name: &'static str,
    hits: u64,
    misses: u64,
}

impl RatioStat {
    /// Create a zeroed ratio with a display name.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            hits: 0,
            misses: 0,
        }
    }

    /// Record a hit.
    #[inline]
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Record a miss.
    #[inline]
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Number of hits recorded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses recorded.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Misses as a fraction of total; 0.0 when empty.
    pub fn miss_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.misses as f64 / self.total() as f64
        }
    }

    /// Hits as a fraction of total; 0.0 when empty.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reset both sides to zero.
    pub fn reset(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

impl fmt::Display for RatioStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} miss ({:.2}%)",
            self.name,
            self.misses,
            self.total(),
            self.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new("c");
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(c.to_string(), "c=0");
    }

    #[test]
    fn ratio_empty_is_zero() {
        let r = RatioStat::new("r");
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!(r.hit_rate(), 0.0);
    }

    #[test]
    fn ratio_rates_sum_to_one() {
        let mut r = RatioStat::new("r");
        for i in 0..10 {
            if i % 3 == 0 {
                r.miss()
            } else {
                r.hit()
            }
        }
        assert!((r.miss_rate() + r.hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(r.hits() + r.misses(), r.total());
    }
}
