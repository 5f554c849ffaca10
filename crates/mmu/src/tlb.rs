//! Translation lookaside buffer models.
//!
//! The paper's conventional-VM baselines use a 128-entry fully associative
//! TLB with 1-cycle lookup (Table 2); §6.3.1 also discusses set-associative
//! organizations (Intel uses 4-way), which we support for ablations. All
//! entries in one TLB instance translate a single page size — the OS layout
//! guarantees uniform page size per configuration (see `dvm-os`).

use dvm_sim::RatioStat;
use dvm_types::{PageSize, Permission, VirtAddr};

/// TLB organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Associativity {
    /// Fully associative (CAM): any entry anywhere.
    Full,
    /// Set associative with the given number of ways.
    SetAssociative {
        /// Ways per set.
        ways: u32,
    },
}

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: u32,
    /// Organization.
    pub assoc: Associativity,
    /// Page size all entries translate.
    pub page_size: PageSize,
}

impl TlbConfig {
    /// The paper's accelerator TLB: 128-entry fully associative (Table 2).
    pub const fn paper_accelerator(page_size: PageSize) -> Self {
        Self {
            entries: 128,
            assoc: Associativity::Full,
            page_size,
        }
    }
}

/// One cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number (at the TLB's page size).
    pub vpn: u64,
    /// Physical frame number (at the TLB's page size).
    pub pfn: u64,
    /// Page permissions.
    pub perms: Permission,
}

/// Sentinel "no slot" index for the intrusive recency list.
const NIL: u32 = u32::MAX;

/// Fibonacci multiplier; puts the VPN's entropy in the high bits, which
/// the multiply-shift index hash then selects.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone)]
struct Slot {
    entry: TlbEntry,
    prev: u32,
    next: u32,
}

/// Fully-associative store: a small open-addressed index (vpn → slot)
/// plus an intrusive doubly-linked recency list through the slot arena.
/// The list head is the least-recently-used entry — the exact victim the
/// original tick-scan implementation chose, since every lookup and
/// insert stamped a unique tick and `min_by_key` over unique ticks is
/// strict LRU order.
///
/// The index is a linear-probed power-of-two table at ≤ 25% load,
/// replacing a `HashMap` that dominated the lookup cost: the common hit
/// is now one multiply, one load and one compare. Deletion (on LRU
/// eviction) uses the classic backward-shift so no tombstones accrue.
#[derive(Debug, Clone)]
struct FullStore {
    /// Open-addressed index; entries are `slot + 1`, 0 = empty.
    idx: Box<[u32]>,
    /// `idx.len() - 1` (the table is a power of two).
    mask: usize,
    /// `64 - log2(idx.len())`: multiply-shift hash into the table.
    shift: u32,
    /// Slot arena; every slot is a live entry (eviction reuses in place).
    slots: Vec<Slot>,
    /// Least recently used slot.
    head: u32,
    /// Most recently used slot.
    tail: u32,
}

impl FullStore {
    fn new(capacity: usize) -> Self {
        let table = (capacity * 4).next_power_of_two().max(8);
        Self {
            idx: vec![0; table].into_boxed_slice(),
            mask: table - 1,
            shift: 64 - table.trailing_zeros(),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
        }
    }

    #[inline]
    fn home(&self, vpn: u64) -> usize {
        (vpn.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Probe for `vpn`: `Ok(table position)` when present, `Err(first
    /// empty position)` when absent.
    #[inline]
    fn probe(&self, vpn: u64) -> Result<usize, usize> {
        let mut pos = self.home(vpn);
        loop {
            match self.idx[pos] {
                0 => return Err(pos),
                e if self.slots[(e - 1) as usize].entry.vpn == vpn => return Ok(pos),
                _ => pos = (pos + 1) & self.mask,
            }
        }
    }

    /// Backward-shift deletion at table position `pos`: re-home any
    /// displaced entries in the probe chain so lookups never need
    /// tombstones.
    fn remove_at(&mut self, mut pos: usize) {
        let mut next = (pos + 1) & self.mask;
        loop {
            let e = self.idx[next];
            if e == 0 {
                break;
            }
            let home = self.home(self.slots[(e - 1) as usize].entry.vpn);
            // The entry at `next` may fill the hole unless its home lies
            // cyclically within (pos, next] — moving it before its home
            // would break its own probe chain.
            let pinned = if pos <= next {
                home > pos && home <= next
            } else {
                home > pos || home <= next
            };
            if !pinned {
                self.idx[pos] = e;
                pos = next;
            }
            next = (next + 1) & self.mask;
        }
        self.idx[pos] = 0;
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_back(&mut self, i: u32) {
        self.slots[i as usize].prev = self.tail;
        self.slots[i as usize].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    #[inline]
    fn touch(&mut self, i: u32) {
        if self.tail != i {
            self.unlink(i);
            self.push_back(i);
        }
    }

    #[inline]
    fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
        let Ok(pos) = self.probe(vpn) else {
            return None;
        };
        let i = self.idx[pos] - 1;
        self.touch(i);
        Some(self.slots[i as usize].entry)
    }

    fn insert(&mut self, entry: TlbEntry, capacity: usize) {
        match self.probe(entry.vpn) {
            Ok(pos) => {
                let i = self.idx[pos] - 1;
                self.slots[i as usize].entry = entry;
                self.touch(i);
            }
            Err(empty) if self.slots.len() < capacity => {
                self.slots.push(Slot {
                    entry,
                    prev: NIL,
                    next: NIL,
                });
                let i = (self.slots.len() - 1) as u32;
                self.idx[empty] = i + 1;
                self.push_back(i);
            }
            Err(_) => {
                // Evict the LRU entry and reuse its slot. The deletion's
                // backward shift can move table entries, so re-probe for
                // the insertion position afterwards.
                let i = self.head;
                let victim_pos = self
                    .probe(self.slots[i as usize].entry.vpn)
                    .expect("LRU entry is indexed");
                self.remove_at(victim_pos);
                self.unlink(i);
                self.slots[i as usize].entry = entry;
                let empty = self.probe(entry.vpn).expect_err("vpn was absent");
                self.idx[empty] = i + 1;
                self.push_back(i);
            }
        }
    }

    fn clear(&mut self) {
        self.idx.fill(0);
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[derive(Debug, Clone)]
enum Store {
    /// Fully associative: O(1) per access.
    Full(FullStore),
    /// Per-set ways kept in recency order (index 0 = LRU): a hit or
    /// reinsert rotates the entry to the back, eviction pops the front.
    Sets(Vec<Vec<TlbEntry>>),
}

/// An LRU TLB.
///
/// # Examples
///
/// ```
/// use dvm_mmu::{Tlb, TlbConfig, TlbEntry};
/// use dvm_types::{PageSize, Permission, VirtAddr};
///
/// let mut tlb = Tlb::new(TlbConfig::paper_accelerator(PageSize::Size4K));
/// let va = VirtAddr::new(0x1234_5000);
/// assert!(tlb.lookup(va).is_none());
/// tlb.insert(TlbEntry { vpn: va.vpn(PageSize::Size4K), pfn: 99, perms: Permission::ReadWrite });
/// assert_eq!(tlb.lookup(va).unwrap().pfn, 99);
/// assert_eq!(tlb.stats().hits(), 1);
/// assert_eq!(tlb.stats().misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    store: Store,
    stats: RatioStat,
}

impl Tlb {
    /// Build a TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`, or if set-associative and `ways` is zero,
    /// does not divide `entries`, or leaves a set count that is not a
    /// power of two (the set index is a mask of the VPN).
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0, "TLB needs entries");
        let store = match config.assoc {
            Associativity::Full => Store::Full(FullStore::new(config.entries as usize)),
            Associativity::SetAssociative { ways } => {
                assert!(
                    ways > 0 && config.entries.is_multiple_of(ways),
                    "ways must divide entries"
                );
                let sets = (config.entries / ways) as usize;
                assert!(sets.is_power_of_two(), "set count must be a power of two");
                Store::Sets(vec![Vec::with_capacity(ways as usize); sets])
            }
        };
        Self {
            config,
            store,
            stats: RatioStat::new("tlb"),
        }
    }

    /// The configuration.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Page size this TLB translates.
    pub fn page_size(&self) -> PageSize {
        self.config.page_size
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> &RatioStat {
        &self.stats
    }

    /// Look up the translation for `va`; records a hit or miss.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        let vpn = va.vpn(self.config.page_size);
        let found = match &mut self.store {
            Store::Full(store) => store.lookup(vpn),
            Store::Sets(sets) => {
                let set_mask = sets.len() as u64 - 1;
                let set = &mut sets[(vpn & set_mask) as usize];
                set.iter().position(|e| e.vpn == vpn).map(|pos| {
                    let entry = set.remove(pos);
                    set.push(entry);
                    entry
                })
            }
        };
        if found.is_some() {
            self.stats.hit();
        } else {
            self.stats.miss();
        }
        found
    }

    /// Insert a translation, evicting the LRU entry (of the relevant set)
    /// if full. Re-inserting an existing vpn replaces it.
    pub fn insert(&mut self, entry: TlbEntry) {
        match &mut self.store {
            Store::Full(store) => store.insert(entry, self.config.entries as usize),
            Store::Sets(sets) => {
                let set_mask = sets.len() as u64 - 1;
                let ways = match self.config.assoc {
                    Associativity::SetAssociative { ways } => ways as usize,
                    Associativity::Full => unreachable!(),
                };
                let set = &mut sets[(entry.vpn & set_mask) as usize];
                if let Some(pos) = set.iter().position(|e| e.vpn == entry.vpn) {
                    set.remove(pos);
                } else if set.len() >= ways {
                    set.remove(0);
                }
                set.push(entry);
            }
        }
    }

    /// Zero the hit/miss statistics (cached entries are kept).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Drop all entries (context switch / shootdown).
    pub fn flush(&mut self) {
        match &mut self.store {
            Store::Full(store) => store.clear(),
            Store::Sets(sets) => sets.iter_mut().for_each(Vec::clear),
        }
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        match &self.store {
            Store::Full(store) => store.slots.len(),
            Store::Sets(sets) => sets.iter().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn entry(vpn: u64) -> TlbEntry {
        TlbEntry {
            vpn,
            pfn: vpn + 1000,
            perms: Permission::ReadWrite,
        }
    }

    fn va_of(vpn: u64, ps: PageSize) -> VirtAddr {
        VirtAddr::new(vpn << ps.shift())
    }

    #[test]
    fn full_assoc_lru_eviction() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 4,
            assoc: Associativity::Full,
            page_size: PageSize::Size4K,
        });
        for vpn in 0..4 {
            tlb.insert(entry(vpn));
        }
        // Touch 0 so 1 becomes LRU.
        assert!(tlb.lookup(va_of(0, PageSize::Size4K)).is_some());
        tlb.insert(entry(99));
        assert!(tlb.lookup(va_of(0, PageSize::Size4K)).is_some());
        assert!(
            tlb.lookup(va_of(1, PageSize::Size4K)).is_none(),
            "1 was LRU"
        );
        assert!(tlb.lookup(va_of(99, PageSize::Size4K)).is_some());
        assert_eq!(tlb.occupancy(), 4);
    }

    #[test]
    fn set_assoc_conflicts_within_set() {
        // 4 entries, 2 ways -> 2 sets; vpns 0,2,4 all map to set 0.
        let mut tlb = Tlb::new(TlbConfig {
            entries: 4,
            assoc: Associativity::SetAssociative { ways: 2 },
            page_size: PageSize::Size4K,
        });
        tlb.insert(entry(0));
        tlb.insert(entry(2));
        tlb.insert(entry(4)); // evicts 0 (LRU in set 0)
        assert!(tlb.lookup(va_of(0, PageSize::Size4K)).is_none());
        assert!(tlb.lookup(va_of(2, PageSize::Size4K)).is_some());
        assert!(tlb.lookup(va_of(4, PageSize::Size4K)).is_some());
        // Set 1 untouched: odd vpn misses but has room.
        assert!(tlb.lookup(va_of(1, PageSize::Size4K)).is_none());
    }

    #[test]
    fn page_size_affects_vpn_extraction() {
        let mut tlb = Tlb::new(TlbConfig::paper_accelerator(PageSize::Size2M));
        let va = VirtAddr::new(5 << 21 | 0x12345);
        tlb.insert(TlbEntry {
            vpn: 5,
            pfn: 7,
            perms: Permission::ReadOnly,
        });
        let hit = tlb.lookup(va).unwrap();
        assert_eq!(hit.pfn, 7);
        // A different 2M page misses.
        assert!(tlb.lookup(VirtAddr::new(6 << 21)).is_none());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 2,
            assoc: Associativity::SetAssociative { ways: 2 },
            page_size: PageSize::Size4K,
        });
        tlb.insert(entry(0));
        tlb.insert(TlbEntry {
            vpn: 0,
            pfn: 5,
            perms: Permission::ReadOnly,
        });
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.lookup(va_of(0, PageSize::Size4K)).unwrap().pfn, 5);
    }

    #[test]
    fn flush_empties() {
        let mut tlb = Tlb::new(TlbConfig::paper_accelerator(PageSize::Size4K));
        tlb.insert(entry(1));
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert!(tlb.lookup(va_of(1, PageSize::Size4K)).is_none());
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut tlb = Tlb::new(TlbConfig::paper_accelerator(PageSize::Size4K));
        tlb.insert(entry(1));
        let _ = tlb.lookup(va_of(1, PageSize::Size4K));
        let _ = tlb.lookup(va_of(2, PageSize::Size4K));
        let _ = tlb.lookup(va_of(2, PageSize::Size4K));
        assert_eq!(tlb.stats().hits(), 1);
        assert_eq!(tlb.stats().misses(), 2);
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn bad_ways_rejected() {
        Tlb::new(TlbConfig {
            entries: 5,
            assoc: Associativity::SetAssociative { ways: 2 },
            page_size: PageSize::Size4K,
        });
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_sets_rejected() {
        // 24 entries / 8 ways = 3 sets.
        Tlb::new(TlbConfig {
            entries: 24,
            assoc: Associativity::SetAssociative { ways: 8 },
            page_size: PageSize::Size4K,
        });
    }

    /// The pre-optimization store: last-use ticks plus an O(n)
    /// `min_by_key` eviction scan. Kept verbatim as the oracle the O(1)
    /// replacement must match access-for-access.
    struct ScanLruTlb {
        config: TlbConfig,
        full: HashMap<u64, (TlbEntry, u64)>,
        sets: Vec<Vec<(TlbEntry, u64)>>,
        tick: u64,
    }

    impl ScanLruTlb {
        fn new(config: TlbConfig) -> Self {
            let nsets = match config.assoc {
                Associativity::Full => 0,
                Associativity::SetAssociative { ways } => (config.entries / ways) as usize,
            };
            Self {
                config,
                full: HashMap::new(),
                sets: vec![Vec::new(); nsets],
                tick: 0,
            }
        }

        fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
            let vpn = va.vpn(self.config.page_size);
            self.tick += 1;
            let tick = self.tick;
            match self.config.assoc {
                Associativity::Full => self.full.get_mut(&vpn).map(|slot| {
                    slot.1 = tick;
                    slot.0
                }),
                Associativity::SetAssociative { .. } => {
                    let nsets = self.sets.len() as u64;
                    let set = &mut self.sets[(vpn % nsets) as usize];
                    set.iter_mut().find(|(e, _)| e.vpn == vpn).map(|slot| {
                        slot.1 = tick;
                        slot.0
                    })
                }
            }
        }

        fn insert(&mut self, entry: TlbEntry) {
            self.tick += 1;
            let tick = self.tick;
            match self.config.assoc {
                Associativity::Full => {
                    if self.full.len() as u32 >= self.config.entries
                        && !self.full.contains_key(&entry.vpn)
                    {
                        if let Some((&victim, _)) =
                            self.full.iter().min_by_key(|(_, (_, last_use))| *last_use)
                        {
                            self.full.remove(&victim);
                        }
                    }
                    self.full.insert(entry.vpn, (entry, tick));
                }
                Associativity::SetAssociative { ways } => {
                    let nsets = self.sets.len() as u64;
                    let set = &mut self.sets[(entry.vpn % nsets) as usize];
                    if let Some(slot) = set.iter_mut().find(|(e, _)| e.vpn == entry.vpn) {
                        *slot = (entry, tick);
                        return;
                    }
                    if set.len() >= ways as usize {
                        let lru = set
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, (_, last_use))| *last_use)
                            .map(|(i, _)| i)
                            .expect("non-empty set");
                        set.swap_remove(lru);
                    }
                    set.push((entry, tick));
                }
            }
        }

        fn contents(&self) -> Vec<TlbEntry> {
            let mut all: Vec<TlbEntry> = match self.config.assoc {
                Associativity::Full => self.full.values().map(|(e, _)| *e).collect(),
                Associativity::SetAssociative { .. } => self
                    .sets
                    .iter()
                    .flat_map(|s| s.iter().map(|(e, _)| *e))
                    .collect(),
            };
            all.sort_by_key(|e| e.vpn);
            all
        }
    }

    impl Tlb {
        fn contents(&self) -> Vec<TlbEntry> {
            let mut all: Vec<TlbEntry> = match &self.store {
                Store::Full(store) => store.slots.iter().map(|s| s.entry).collect(),
                Store::Sets(sets) => sets.iter().flatten().copied().collect(),
            };
            all.sort_by_key(|e| e.vpn);
            all
        }
    }

    /// Drive identical randomized streams of `steps` lookups and inserts
    /// through the tick-scan oracle and the O(1) store. VPNs are drawn
    /// from three times the TLB's capacity, so streams evict. Every
    /// lookup result, every hit/miss, and the surviving entry set (hence
    /// the eviction sequence) must match at every step.
    fn assert_equivalent(config: TlbConfig, seed: u64, steps: u64) {
        use dvm_sim::DetRng;
        let mut rng = DetRng::new(seed);
        let mut oracle = ScanLruTlb::new(config);
        let mut tlb = Tlb::new(config);
        let mut lookups = 0u64;
        for step in 0..steps {
            let vpn = rng.below(3 * u64::from(config.entries));
            if rng.chance(0.5) {
                let va = VirtAddr::new(vpn << config.page_size.shift());
                lookups += 1;
                assert_eq!(
                    tlb.lookup(va),
                    oracle.lookup(va),
                    "seed {seed} step {step} vpn {vpn}"
                );
            } else {
                let entry = TlbEntry {
                    vpn,
                    pfn: rng.below(1 << 20),
                    perms: Permission::ReadWrite,
                };
                tlb.insert(entry);
                oracle.insert(entry);
            }
            assert_eq!(tlb.contents(), oracle.contents(), "seed {seed} step {step}");
        }
        assert_eq!(tlb.stats().total(), lookups, "seed {seed}");
    }

    /// 128 seeded short streams of 1..300 operations each.
    fn assert_equivalent_short_streams(config: TlbConfig) {
        use dvm_sim::DetRng;
        for seed in 0..128 {
            let steps = DetRng::new(seed).range(1, 300);
            assert_equivalent(config, 1000 + seed, steps);
        }
    }

    #[test]
    fn full_assoc_matches_scan_lru_oracle() {
        let small = TlbConfig {
            entries: 16,
            assoc: Associativity::Full,
            page_size: PageSize::Size4K,
        };
        for seed in 0..4 {
            assert_equivalent(TlbConfig::paper_accelerator(PageSize::Size4K), seed, 20_000);
            assert_equivalent(small, seed + 100, 20_000);
        }
        assert_equivalent_short_streams(small);
    }

    #[test]
    fn set_assoc_matches_scan_lru_oracle() {
        let small = TlbConfig {
            entries: 16,
            assoc: Associativity::SetAssociative { ways: 4 },
            page_size: PageSize::Size4K,
        };
        for seed in 0..4 {
            assert_equivalent(small, seed, 20_000);
            assert_equivalent(
                TlbConfig {
                    entries: 8,
                    assoc: Associativity::SetAssociative { ways: 2 },
                    page_size: PageSize::Size2M,
                },
                seed + 50,
                20_000,
            );
        }
        assert_equivalent_short_streams(small);
    }
}
