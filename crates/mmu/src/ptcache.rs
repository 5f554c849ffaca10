//! Page-walk cache (PWC) and Access Validation Cache (AVC) models.
//!
//! Both are the same physical structure (paper §4.1.2): a physically
//! indexed, physically tagged, 4-way set-associative cache of 64-byte
//! page-table blocks, 1 KiB total (128 PTEs). They differ only in fill
//! policy:
//!
//! * a conventional **PWC** does *not* cache L1 (leaf-table) PTEs, to avoid
//!   pollution — so every 4K-page walk ends with at least one DRAM access;
//! * the **AVC** caches entries of *all* levels, which is practical only
//!   because Permission Entries make the page table tiny.

use dvm_sim::RatioStat;
use dvm_types::PhysAddr;

/// Configuration of a PWC/AVC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtCacheConfig {
    /// Total cached PTEs (8 bytes each).
    pub pte_entries: u32,
    /// Ways per set.
    pub ways: u32,
    /// Block size in bytes (PTEs are cached in blocks, like a data cache).
    pub block_bytes: u32,
    /// Whether L1 (leaf-table) PTE blocks are cached. `false` = PWC,
    /// `true` = AVC.
    pub cache_l1: bool,
}

impl PtCacheConfig {
    /// The paper's PWC: 128 PTEs, 4-way, 64 B blocks, no L1 caching.
    pub fn paper_pwc() -> Self {
        Self {
            pte_entries: 128,
            ways: 4,
            block_bytes: 64,
            cache_l1: false,
        }
    }

    /// The paper's AVC: same structure, but caches every level.
    pub fn paper_avc() -> Self {
        Self {
            cache_l1: true,
            ..Self::paper_pwc()
        }
    }

    fn num_sets(&self) -> usize {
        let blocks = self.pte_entries * 8 / self.block_bytes;
        (blocks / self.ways) as usize
    }
}

/// Result of a PWC/AVC probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtcLookup {
    /// Block present; 1-cycle access.
    Hit,
    /// Block absent; walker must fetch from DRAM (and fills the cache
    /// unless the level is bypassed).
    Miss,
    /// Level not cached by this structure (PWC + L1): the walker goes
    /// straight to DRAM without probing.
    Bypass,
}

/// A physically indexed cache of page-table blocks.
///
/// # Examples
///
/// ```
/// use dvm_mmu::{PtCache, PtCacheConfig, PtcLookup};
/// use dvm_types::PhysAddr;
///
/// let mut avc = PtCache::new(PtCacheConfig::paper_avc());
/// let pte_pa = PhysAddr::new(0x4008);
/// assert_eq!(avc.access(pte_pa, 1), PtcLookup::Miss);
/// assert_eq!(avc.access(pte_pa, 1), PtcLookup::Hit);
///
/// let mut pwc = PtCache::new(PtCacheConfig::paper_pwc());
/// assert_eq!(pwc.access(pte_pa, 1), PtcLookup::Bypass); // L1 not cached
/// assert_eq!(pwc.access(pte_pa, 2), PtcLookup::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct PtCache {
    config: PtCacheConfig,
    /// Per-set block tags in recency order (offset 0 in the set = LRU):
    /// a hit rotates the tag to the back, eviction shifts out the front
    /// — the exact victim the previous tick-scan picked, since ticks
    /// were unique. Flat `num_sets * ways` array; set `s` occupies
    /// `[s * ways, s * ways + lens[s])`. A walk probes this several
    /// times per access, so the sets live inline instead of behind
    /// per-set `Vec` indirections.
    tags: Box<[u64]>,
    /// Valid tags per set.
    lens: Box<[u32]>,
    /// Precomputed shift for `block_bytes` (asserted a power of two).
    block_shift: u32,
    /// `num_sets - 1` (the set count is asserted a power of two).
    set_mask: u64,
    stats: RatioStat,
}

impl PtCache {
    /// Build a cache.
    ///
    /// # Panics
    ///
    /// Panics on zero ways, or when the block size or the set count is
    /// not a power of two (zero sets included).
    pub fn new(config: PtCacheConfig) -> Self {
        assert!(config.ways > 0, "cache needs ways");
        let num_sets = config.num_sets();
        assert!(
            config.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Self {
            config,
            tags: vec![0; num_sets * config.ways as usize].into_boxed_slice(),
            lens: vec![0; num_sets].into_boxed_slice(),
            block_shift: config.block_bytes.trailing_zeros(),
            set_mask: num_sets as u64 - 1,
            stats: RatioStat::new("ptc"),
        }
    }

    /// The configuration.
    pub fn config(&self) -> PtCacheConfig {
        self.config
    }

    /// Hit/miss statistics (bypasses are not counted).
    pub fn stats(&self) -> &RatioStat {
        &self.stats
    }

    /// Probe for the block holding the PTE at `pte_pa` (an entry at
    /// page-table level `level`), filling on miss.
    #[inline]
    pub fn access(&mut self, pte_pa: PhysAddr, level: u8) -> PtcLookup {
        if level == 1 && !self.config.cache_l1 {
            return PtcLookup::Bypass;
        }
        let block = pte_pa.raw() >> self.block_shift;
        // Page-table pages are page-aligned, so an entry's low block bits
        // encode only its index within the table — naive modulo indexing
        // would dump the first entries of *every* table into set 0. Fold
        // the frame bits in (XOR hashing, as real walk caches do).
        let hashed = block ^ (block >> 6) ^ (block >> 12);
        let set_idx = (hashed & self.set_mask) as usize;
        let ways = self.config.ways as usize;
        let base = set_idx * ways;
        let len = self.lens[set_idx] as usize;
        let set = &mut self.tags[base..base + len];
        if let Some(pos) = set.iter().position(|tag| *tag == block) {
            set.copy_within(pos + 1.., pos);
            set[len - 1] = block;
            self.stats.hit();
            return PtcLookup::Hit;
        }
        self.stats.miss();
        if len >= ways {
            let set = &mut self.tags[base..base + ways];
            set.copy_within(1.., 0);
            set[ways - 1] = block;
        } else {
            self.tags[base + len] = block;
            self.lens[set_idx] = len as u32 + 1;
        }
        PtcLookup::Miss
    }

    /// Zero the hit/miss statistics (cached blocks are kept).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Drop all blocks.
    pub fn flush(&mut self) {
        self.lens.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        // 128 PTEs * 8 B = 1 KiB; 64 B blocks -> 16 blocks; 4-way -> 4 sets.
        assert_eq!(PtCacheConfig::paper_avc().num_sets(), 4);
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn rejects_non_power_of_two_set_count() {
        // 96 PTEs * 8 B / 64 B = 12 blocks; 4-way -> 3 sets.
        PtCache::new(PtCacheConfig {
            pte_entries: 96,
            ..PtCacheConfig::paper_avc()
        });
    }

    #[test]
    fn same_block_hits() {
        let mut c = PtCache::new(PtCacheConfig::paper_avc());
        // Two PTEs in the same 64 B block.
        assert_eq!(c.access(PhysAddr::new(0x1000), 2), PtcLookup::Miss);
        assert_eq!(c.access(PhysAddr::new(0x1038), 2), PtcLookup::Hit);
        // Next block misses.
        assert_eq!(c.access(PhysAddr::new(0x1040), 2), PtcLookup::Miss);
    }

    #[test]
    fn pwc_bypasses_l1_only() {
        let mut c = PtCache::new(PtCacheConfig::paper_pwc());
        assert_eq!(c.access(PhysAddr::new(0), 1), PtcLookup::Bypass);
        // Bypass does not fill: L2 access to same block still misses.
        assert_eq!(c.access(PhysAddr::new(0), 2), PtcLookup::Miss);
        assert_eq!(c.access(PhysAddr::new(0), 1), PtcLookup::Bypass);
    }

    #[test]
    fn avc_caches_l1() {
        let mut c = PtCache::new(PtCacheConfig::paper_avc());
        assert_eq!(c.access(PhysAddr::new(0x2000), 1), PtcLookup::Miss);
        assert_eq!(c.access(PhysAddr::new(0x2000), 1), PtcLookup::Hit);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let cfg = PtCacheConfig::paper_avc(); // 16 blocks capacity
        let mut c = PtCache::new(cfg);
        // Far more distinct blocks than capacity: the earliest must be
        // evicted, the latest retained.
        let blocks: Vec<u64> = (0..100).map(|i| i * 64).collect();
        for &b in &blocks {
            c.access(PhysAddr::new(b), 2);
        }
        assert_eq!(c.access(PhysAddr::new(blocks[0]), 2), PtcLookup::Miss);
        assert_eq!(
            c.access(PhysAddr::new(*blocks.last().unwrap()), 2),
            PtcLookup::Hit
        );
    }

    #[test]
    fn low_index_entries_of_different_tables_do_not_collide() {
        // Entry 0 of five different table pages: naive modulo indexing
        // would put all of them in one set (capacity 4); the hashed index
        // must keep them all resident.
        let mut c = PtCache::new(PtCacheConfig::paper_avc());
        let tables: Vec<u64> = (0..5).map(|frame| frame * 4096).collect();
        for &t in &tables {
            c.access(PhysAddr::new(t), 2);
        }
        for &t in &tables {
            assert_eq!(
                c.access(PhysAddr::new(t), 2),
                PtcLookup::Hit,
                "table {t:#x}"
            );
        }
    }

    #[test]
    fn flush_clears() {
        let mut c = PtCache::new(PtCacheConfig::paper_avc());
        c.access(PhysAddr::new(0x40), 3);
        c.flush();
        assert_eq!(c.access(PhysAddr::new(0x40), 3), PtcLookup::Miss);
    }

    #[test]
    fn stats_ignore_bypass() {
        let mut c = PtCache::new(PtCacheConfig::paper_pwc());
        c.access(PhysAddr::new(0), 1);
        assert_eq!(c.stats().total(), 0);
        c.access(PhysAddr::new(0), 2);
        assert_eq!(c.stats().total(), 1);
    }

    /// The pre-optimization store (last-use ticks + `min_by_key` scan),
    /// kept as the oracle the O(1) recency-ordered sets must match.
    struct ScanLruPtCache {
        config: PtCacheConfig,
        sets: Vec<Vec<(u64, u64)>>,
        tick: u64,
    }

    impl ScanLruPtCache {
        fn new(config: PtCacheConfig) -> Self {
            Self {
                config,
                sets: vec![Vec::new(); config.num_sets()],
                tick: 0,
            }
        }

        fn access(&mut self, pte_pa: PhysAddr, level: u8) -> PtcLookup {
            if level == 1 && !self.config.cache_l1 {
                return PtcLookup::Bypass;
            }
            let block = pte_pa.raw() / self.config.block_bytes as u64;
            let hashed = block ^ (block >> 6) ^ (block >> 12);
            let set_idx = (hashed % self.sets.len() as u64) as usize;
            self.tick += 1;
            let tick = self.tick;
            let set = &mut self.sets[set_idx];
            if let Some(slot) = set.iter_mut().find(|(tag, _)| *tag == block) {
                slot.1 = tick;
                return PtcLookup::Hit;
            }
            if set.len() >= self.config.ways as usize {
                let lru = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, last))| *last)
                    .map(|(i, _)| i)
                    .expect("non-empty set");
                set.swap_remove(lru);
            }
            set.push((block, tick));
            PtcLookup::Miss
        }

        fn contents(&self) -> Vec<u64> {
            let mut all: Vec<u64> = self
                .sets
                .iter()
                .flat_map(|s| s.iter().map(|(tag, _)| *tag))
                .collect();
            all.sort_unstable();
            all
        }
    }

    impl PtCache {
        fn contents(&self) -> Vec<u64> {
            let ways = self.config.ways as usize;
            let mut all: Vec<u64> = (0..self.lens.len())
                .flat_map(|s| self.tags[s * ways..s * ways + self.lens[s] as usize].iter())
                .copied()
                .collect();
            all.sort_unstable();
            all
        }
    }

    #[test]
    fn matches_scan_lru_oracle() {
        use dvm_sim::DetRng;
        for (cfg, seed) in [
            (PtCacheConfig::paper_pwc(), 1u64),
            (PtCacheConfig::paper_avc(), 2),
            (PtCacheConfig::paper_avc(), 3),
        ] {
            let mut rng = DetRng::new(seed);
            let mut oracle = ScanLruPtCache::new(cfg);
            let mut cache = PtCache::new(cfg);
            for step in 0..20_000 {
                // PTE addresses clustered over a few table pages so sets
                // see real reuse and eviction pressure.
                let pa = PhysAddr::new(rng.skewed_below(8, 1.2) * 4096 + rng.below(512) * 8);
                let level = rng.range(1, 5) as u8;
                assert_eq!(
                    cache.access(pa, level),
                    oracle.access(pa, level),
                    "step {step} pa {pa} level {level}"
                );
                assert_eq!(cache.contents(), oracle.contents(), "step {step}");
            }
        }
    }
}
