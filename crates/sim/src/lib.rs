//! Deterministic simulation plumbing: cycle accounting, statistics
//! counters, a seeded RNG, an FNV-1a content hash, a fast hasher for `u64`
//! keys, and a plain-text table printer used by the benchmark harnesses to
//! regenerate the paper's tables and figures.
//!
//! Everything in the simulator is single-threaded and seeded, so two runs of
//! the same experiment produce bit-identical results — a property the
//! integration tests assert.
//!
//! # Examples
//!
//! ```
//! use dvm_sim::{Counter, DetRng, Table};
//!
//! let mut hits = Counter::new("hits");
//! hits.add(3);
//! assert_eq!(hits.get(), 3);
//!
//! let mut rng = DetRng::new(42);
//! let a = rng.next_u64();
//! assert_eq!(DetRng::new(42).next_u64(), a); // deterministic
//!
//! let mut t = Table::new(&["workload", "miss rate"]);
//! t.row(&["bfs".into(), format!("{:.1}%", 21.0)]);
//! assert!(t.render().contains("bfs"));
//! ```

pub mod hash;
pub mod rng;
pub mod stats;
pub mod table;

pub use hash::{fnv1a, U64Hasher, U64Map, U64Set};
pub use rng::DetRng;
pub use stats::{Counter, RatioStat};
pub use table::Table;

/// Simulated clock cycles.
///
/// A plain `u64` alias rather than a newtype: cycles are summed, scaled and
/// divided pervasively in the timing model, and the arithmetic noise of a
/// newtype buys no safety here (there is only one clock domain per model).
pub type Cycles = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_is_u64() {
        let c: Cycles = 5;
        assert_eq!(c + 1, 6);
    }
}
