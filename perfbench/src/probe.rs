//! Host-speed probe: scales measured seconds to a fixed reference speed.
//!
//! On a shared host the simulator's speed drifts with what other tenants
//! run: by up to 1.8× within minutes, with no steal time and no change in
//! the process's CPU share. The drift is in the memory hierarchy — a pure
//! ALU loop moves by under 10% while the simulator slows by 80% — and a
//! loop of random reads over a table of last-level-cache size, run
//! between simulation units, drifts with it.
//!
//! Each worker takes a probe sample just before each unit it runs, and
//! every worker takes a burst of samples at the end of each timed
//! interval. An interval's slowdown is the median of its own samples and
//! the bursts at both of its ends, over `NOMINAL_NS_PER_READ`; its scaled
//! seconds are `raw / slowdown^sensitivity`, the seconds it would have
//! taken on the quiet reference box. The sensitivity is the workload's:
//! regressing log pass time on log slowdown over passes on the reference
//! box gave 1.3–1.7 for per-access translation (graph-translate) but
//! 0.3–0.5 for CF feature rows and 0.4–0.7 for OS churn, whose time
//! depends less on the cache the neighbours take (perfbench/README.md
//! has the fits and the values chosen). The probe is this crate's code,
//! fixed, so a change to the simulator moves scaled seconds exactly as it
//! moves raw ones.

use crate::median;
use dvm_core::parallel_map_ordered;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Words in one probe table: 4 MiB, inside the last-level cache of a
/// quiet host and squeezed out of it by busy neighbours.
const TABLE_WORDS: usize = 1 << 19;

/// Tables, used in turn, so that every sample — even one of a burst —
/// reads a table no other sample has touched for a while.
const TABLES: usize = 8;

/// Random reads per sample (about 2 ms on the reference box).
const READS: usize = 400_000;

/// Samples per worker in the burst that ends each timed interval.
const BURST: usize = 3;

/// Nanoseconds per read on the reference box (2-vCPU Xeon VM), sampled
/// between simulation units while its host was quiet. A scaled time
/// reads as that box's seconds when quiet.
pub const NOMINAL_NS_PER_READ: f64 = 5.0;

/// The probe's tables and the samples of the last burst.
#[derive(Debug)]
pub struct Probe {
    tables: Vec<Vec<u64>>,
    next: AtomicUsize,
    last_burst: Mutex<Vec<f64>>,
    sensitivity: f64,
}

impl Probe {
    /// Build the tables (a few milliseconds) for a workload whose time
    /// moves as the probe's to the power `sensitivity`.
    pub fn new(sensitivity: f64) -> Self {
        let tables = (0..TABLES as u64)
            .map(|t| {
                (0..TABLE_WORDS as u64)
                    .map(|i| (i ^ t).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect()
            })
            .collect();
        Self {
            tables,
            next: AtomicUsize::new(0),
            last_burst: Mutex::new(Vec::new()),
            sensitivity,
        }
    }

    /// Nanoseconds per read of one sample on the calling thread.
    pub fn sample(&self) -> f64 {
        let table = &self.tables[self.next.fetch_add(1, Ordering::Relaxed) % TABLES];
        let start = Instant::now();
        let mut x = 1u64;
        let mut sum = 0u64;
        for _ in 0..READS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            sum = sum.wrapping_add(table[(x >> 40) as usize % TABLE_WORDS]);
        }
        black_box(sum);
        start.elapsed().as_secs_f64() * 1e9 / READS as f64
    }

    /// A burst: [`BURST`] samples on each of `workers` threads at once,
    /// so every core the pool uses is probed under the same load.
    fn burst(&self, workers: usize) -> Vec<f64> {
        let threads: Vec<usize> = (0..workers.max(1)).collect();
        parallel_map_ordered(&threads, threads.len(), |_| {
            (0..BURST).map(|_| self.sample()).collect::<Vec<f64>>()
        })
        .concat()
    }

    /// Time `interval`, which returns its value with the samples it took
    /// itself (see [`Probe::pool`]), and end it with a burst.
    pub fn time<R>(&self, workers: usize, interval: impl FnOnce() -> (R, Vec<f64>)) -> (R, Timing) {
        let before = {
            let mut last = self.last_burst.lock().expect("probe lock poisoned");
            if last.is_empty() {
                *last = self.burst(workers);
            }
            last.clone()
        };
        let start = Instant::now();
        let (value, mut samples) = interval();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.burst(workers);
        samples.extend(before);
        samples.extend(&after);
        *self.last_burst.lock().expect("probe lock poisoned") = after;
        (value, Timing::new(raw_s, &samples, self.sensitivity))
    }

    /// Run `unit` over `items` on a pool of `workers` threads in order,
    /// each unit preceded by a sample on its worker; returns the results
    /// in item order, and the samples.
    pub fn pool<T: Sync, R: Send>(
        &self,
        items: &[T],
        workers: usize,
        unit: impl Fn(&T) -> R + Sync,
    ) -> (Vec<R>, Vec<f64>) {
        parallel_map_ordered(items, workers, |item| {
            let ns = self.sample();
            (unit(item), ns)
        })
        .into_iter()
        .unzip()
    }
}

/// One timed interval: host seconds, and seconds at the nominal speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Host (wall-clock) seconds.
    pub raw_s: f64,
    /// `raw_s` scaled to the nominal probe speed.
    pub scaled_s: f64,
    /// Host slowdown against the nominal speed (median sample over
    /// nominal ns per read) during the interval.
    pub slowdown: f64,
}

impl Timing {
    /// `raw_s` host seconds of a workload with `sensitivity`, during
    /// which the probe took `samples`.
    pub fn new(raw_s: f64, samples: &[f64], sensitivity: f64) -> Self {
        let slowdown = median(samples) / NOMINAL_NS_PER_READ;
        Self {
            raw_s,
            scaled_s: raw_s / slowdown.powf(sensitivity),
            slowdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_time_divides_by_the_slowdown() {
        let probe = Probe::new(1.5);
        let (squares, samples) = probe.pool(&[1u64, 2, 3], 2, |x| x * x);
        assert_eq!(squares, vec![1, 4, 9]);
        assert_eq!(samples.len(), 3);
        let (v, t) = probe.time(2, || (7, samples));
        assert_eq!(v, 7);
        assert!(t.slowdown > 0.0 && t.slowdown.is_finite());
        let want = t.raw_s / t.slowdown.powf(1.5);
        assert!((t.scaled_s - want).abs() <= 1e-12 * want.max(1.0));
        let ns = [4.0 * NOMINAL_NS_PER_READ, 4.0 * NOMINAL_NS_PER_READ, 0.0];
        assert_eq!(Timing::new(1.0, &ns, 0.5).scaled_s, 0.5);
    }
}
