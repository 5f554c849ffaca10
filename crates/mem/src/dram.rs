//! DRAM timing and event model.
//!
//! The paper simulates 4 channels of DDR4 (51.2 GB/s aggregate, Table 2)
//! under gem5. Our model charges a fixed access latency per 64-byte
//! transaction and tracks per-channel access counts; the figures the paper
//! reports are normalized, so relative latency between structure lookups
//! (1 cycle) and DRAM (~`access_latency` cycles) is what matters.

use dvm_sim::Cycles;
use dvm_types::{AccessKind, PhysAddr};

/// DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of channels, a power of two (address-interleaved at line
    /// granularity).
    pub channels: u32,
    /// End-to-end latency of one isolated access, in accelerator cycles
    /// (what a page-table walker or a squashed preload pays).
    pub access_latency: Cycles,
    /// Amortized per-access cost under pipelining: the accelerator's
    /// engines keep many data fetches in flight, so steady-state data
    /// accesses cost their bandwidth share, not the full latency.
    pub occupancy_cycles: Cycles,
    /// Transaction granularity in bytes.
    pub line_bytes: u64,
}

impl Default for DramConfig {
    /// 4 channels, 100-cycle access latency at the accelerator's 1 GHz
    /// clock (~100 ns end-to-end), 64 B lines — Table 2 scaled to our model.
    fn default() -> Self {
        Self {
            channels: 4,
            access_latency: 100,
            occupancy_cycles: 20,
            line_bytes: 64,
        }
    }
}

/// DRAM device model: latency oracle plus access accounting.
///
/// # Examples
///
/// ```
/// use dvm_mem::{Dram, DramConfig};
/// use dvm_types::{AccessKind, PhysAddr};
/// let mut dram = Dram::new(DramConfig::default());
/// let lat = dram.access(PhysAddr::new(0x80), AccessKind::Read);
/// assert_eq!(lat, 100);
/// assert_eq!(dram.reads(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    reads: u64,
    writes: u64,
    per_channel: Vec<u64>,
    /// Precomputed shift for `line_bytes` (asserted a power of two).
    line_shift: u32,
    /// `channels - 1` (the count is asserted a power of two), so the
    /// per-access channel select is a mask.
    channel_mask: u64,
}

impl Dram {
    /// Build a DRAM model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`, or if `channels` or `line_bytes` is not
    /// a power of two.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "DRAM needs at least one channel");
        assert!(
            config.channels.is_power_of_two(),
            "channel count must be a power of two"
        );
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            config,
            reads: 0,
            writes: 0,
            per_channel: vec![0; config.channels as usize],
            line_shift: config.line_bytes.trailing_zeros(),
            channel_mask: u64::from(config.channels) - 1,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Perform one latency-bound access (walker fetches, cold misses) and
    /// return its full latency in cycles.
    pub fn access(&mut self, pa: PhysAddr, kind: AccessKind) -> Cycles {
        self.count(pa, kind);
        self.config.access_latency
    }

    /// Perform one pipelined data access and return its amortized
    /// (bandwidth-share) cost in cycles.
    pub fn occupancy_access(&mut self, pa: PhysAddr, kind: AccessKind) -> Cycles {
        self.count(pa, kind);
        self.config.occupancy_cycles
    }

    fn count(&mut self, pa: PhysAddr, kind: AccessKind) {
        let line = pa.raw() >> self.line_shift;
        self.per_channel[(line & self.channel_mask) as usize] += 1;
        match kind {
            AccessKind::Write => self.writes += 1,
            _ => self.reads += 1,
        }
    }

    /// Total read transactions.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total write transactions.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total transactions.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Per-channel transaction counts.
    pub fn channel_accesses(&self) -> &[u64] {
        &self.per_channel
    }

    /// Reset all counters (between measurement phases).
    pub fn reset_stats(&mut self) {
        self.reads = 0;
        self.writes = 0;
        self.per_channel.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reads_and_writes() {
        let mut d = Dram::new(DramConfig::default());
        d.access(PhysAddr::new(0), AccessKind::Read);
        d.access(PhysAddr::new(64), AccessKind::Write);
        d.access(PhysAddr::new(128), AccessKind::Execute);
        assert_eq!(d.reads(), 2); // execute counts as read traffic
        assert_eq!(d.writes(), 1);
        assert_eq!(d.accesses(), 3);
    }

    #[test]
    fn channel_interleaving() {
        let mut d = Dram::new(DramConfig {
            channels: 4,
            access_latency: 10,
            occupancy_cycles: 2,
            line_bytes: 64,
        });
        for i in 0..8 {
            d.access(PhysAddr::new(i * 64), AccessKind::Read);
        }
        assert_eq!(d.channel_accesses(), &[2, 2, 2, 2]);
    }

    #[test]
    fn reset_clears_counters() {
        let mut d = Dram::new(DramConfig::default());
        d.access(PhysAddr::new(0), AccessKind::Read);
        d.reset_stats();
        assert_eq!(d.accesses(), 0);
        assert_eq!(d.channel_accesses().iter().sum::<u64>(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        Dram::new(DramConfig {
            channels: 0,
            access_latency: 1,
            occupancy_cycles: 1,
            line_bytes: 64,
        });
    }

    #[test]
    #[should_panic(expected = "channel count must be a power of two")]
    fn non_power_of_two_channels_rejected() {
        Dram::new(DramConfig {
            channels: 3,
            ..DramConfig::default()
        });
    }
}
