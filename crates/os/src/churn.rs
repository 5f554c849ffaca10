//! Long-horizon multi-tenant churn scenarios.
//!
//! The paper evaluates identity mapping on fresh address spaces; a
//! production memory system lives in the opposite regime — thousands of
//! processes forking, exec'ing and exiting over hours while the buddy
//! allocator fragments. This module drives exactly that: a deterministic
//! [`DetRng`] schedule of spawns, CoW forks (with the child breaking a
//! fraction of shared pages), execs (address-space teardown + rebuild)
//! and exits, recording a per-epoch time-series of
//!
//! * identity-mapping success rate ([`ChurnEpoch::identity_rate`]),
//! * buddy-allocator fragmentation (coalesced free-run counts and the
//!   [`dvm_mem::FreeSpanHistogram`]-derived sub-granule run count),
//! * the DVM fallback-to-paging rate, and
//! * CoW break volume (pages privatized by copies).
//!
//! Every draw comes from one seeded generator and every collection the
//! driver iterates is ordered, so a run is a pure function of its
//! [`ChurnConfig`] — the property the `churn` bench binary's byte-identity
//! contract (serial == `--jobs N` == `--shards N`) rests on.

use crate::os::{MapFlavor, Os, OsConfig};
use crate::process::Pid;
use dvm_mem::MachineConfig;
use dvm_sim::DetRng;
use dvm_types::{DvmError, Permission, VirtAddr, PAGE_SIZE};

/// Parameters of one churn scenario. All rates are per epoch.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Machine memory in bytes.
    pub mem_bytes: u64,
    /// Page-table flavour under test.
    pub flavor: MapFlavor,
    /// Attempt identity mapping (disable for the demand-paging ablation).
    pub identity_enabled: bool,
    /// Number of epochs to simulate.
    pub epochs: u32,
    /// New processes arriving each epoch.
    pub arrivals_per_epoch: u32,
    /// Fraction of arrivals that are CoW forks of a live process rather
    /// than fresh spawns.
    pub cow_fork_fraction: f64,
    /// Mean process lifetime in epochs (lifetimes are drawn uniformly
    /// from `[1, 2*mean)`, so the mean is exact and the tail is bounded).
    pub mean_lifetime_epochs: u32,
    /// Heap regions mapped by a fresh process.
    pub regions_per_proc: u32,
    /// Smallest region size in bytes (log-uniform size classes).
    pub min_region_bytes: u64,
    /// Largest region size class in bytes.
    pub max_region_bytes: u64,
    /// Chance a live process maps one extra region this epoch.
    pub extra_alloc_chance: f64,
    /// Chance a live process unmaps one of its regions this epoch.
    pub free_region_chance: f64,
    /// Chance a live process execs this epoch: its address space is torn
    /// down and rebuilt from scratch (fresh pid, same remaining lifetime).
    pub exec_chance: f64,
    /// Fraction of each shared region's pages a fork child writes
    /// immediately, breaking their CoW sharing.
    pub fork_write_fraction: f64,
    /// Schedule seed (also feeds the OS's ASLR placement).
    pub seed: u64,
}

impl Default for ChurnConfig {
    /// A quick-scale scenario: a 512 MiB machine under enough multi-tenant
    /// pressure that identity success visibly decays within ~50 epochs.
    fn default() -> Self {
        Self {
            mem_bytes: 512 << 20,
            flavor: MapFlavor::DvmPe,
            identity_enabled: true,
            epochs: 48,
            arrivals_per_epoch: 8,
            cow_fork_fraction: 0.35,
            mean_lifetime_epochs: 6,
            regions_per_proc: 3,
            min_region_bytes: 128 << 10,
            max_region_bytes: 8 << 20,
            extra_alloc_chance: 0.30,
            free_region_chance: 0.15,
            exec_chance: 0.05,
            fork_write_fraction: 0.20,
            seed: 42,
        }
    }
}

/// One epoch of the time-series. Counters are *deltas* over the epoch;
/// allocator fields are end-of-epoch snapshots. Everything is integral so
/// the values cross shard fragments bit-exactly; the rate accessors
/// derive floats from them on the formatting side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEpoch {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Processes alive at the end of the epoch.
    pub live_procs: u64,
    /// Successful identity mappings this epoch.
    pub identity_maps: u64,
    /// `mmap`s that fell back to demand paging this epoch.
    pub identity_fallbacks: u64,
    /// Requested bytes that ended up identity mapped this epoch.
    pub identity_bytes_requested: u64,
    /// Padded bytes reserved for identity mappings this epoch.
    pub identity_bytes_padded: u64,
    /// Bytes mapped by the demand-paging fallback this epoch.
    pub demand_bytes: u64,
    /// CoW faults resolved by *copying* this epoch (breaks; reuse
    /// resolutions are excluded — they keep the identity mapping).
    pub cow_breaks: u64,
    /// Operations skipped because memory was exhausted.
    pub oom_events: u64,
    /// Free frames at epoch end.
    pub free_frames: u64,
    /// Coalesced free runs at epoch end (higher = more fragmented).
    pub free_runs: u64,
    /// Largest coalesced free run in frames at epoch end.
    pub largest_run: u64,
    /// Free runs smaller than the flavour's base identity granule — space
    /// that exists but can never serve an identity mapping.
    pub sub_granule_runs: u64,
}

impl ChurnEpoch {
    /// `mmap` calls observed this epoch.
    pub fn mmaps(&self) -> u64 {
        self.identity_maps + self.identity_fallbacks
    }

    /// Identity-mapping success rate this epoch, `None` if no `mmap` ran.
    pub fn identity_rate(&self) -> Option<f64> {
        let total = self.mmaps();
        (total > 0).then(|| self.identity_maps as f64 / total as f64)
    }
}

/// The full time-series plus end-of-run bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnResult {
    /// One entry per epoch, in order.
    pub epochs: Vec<ChurnEpoch>,
    /// Frames still allocated after every process was drained; anything
    /// but 0 is a leak in the OS model.
    pub leaked_frames: u64,
}

impl ChurnResult {
    /// Pooled identity success rate over `epochs[range]` (total maps over
    /// total mmaps — not a mean of per-epoch rates, so empty epochs do
    /// not distort it). `None` if the slice saw no `mmap`.
    pub fn pooled_identity_rate(&self, range: std::ops::Range<usize>) -> Option<f64> {
        let slice = &self.epochs[range];
        let maps: u64 = slice.iter().map(|e| e.identity_maps).sum();
        let total: u64 = slice.iter().map(|e| e.mmaps()).sum();
        (total > 0).then(|| maps as f64 / total as f64)
    }
}

/// A live process as the scheduler sees it.
struct Tenant {
    pid: Pid,
    death_epoch: u32,
    /// Heap regions this tenant may free (start addresses).
    regions: Vec<VirtAddr>,
}

/// Run a churn scenario on a fresh OS.
///
/// # Errors
///
/// Propagates any OS error other than [`DvmError::OutOfMemory`], which
/// the driver absorbs into [`ChurnEpoch::oom_events`] (a saturated
/// machine is a scenario outcome, not a harness failure).
pub fn run(config: &ChurnConfig) -> Result<ChurnResult, DvmError> {
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: config.mem_bytes,
        },
        flavor: config.flavor,
        maintain_bitmap: false,
        identity_enabled: config.identity_enabled,
        aslr_seed: config.seed,
    });
    run_on(&mut os, config)
}

/// [`run`] against a caller-provided OS (which must be freshly booted for
/// the leak accounting to mean anything). Drains every remaining process
/// before returning, so the allocator ends at its boot state unless
/// frames genuinely leaked.
///
/// # Errors
///
/// As for [`run`].
pub fn run_on(os: &mut Os, config: &ChurnConfig) -> Result<ChurnResult, DvmError> {
    assert!(config.min_region_bytes >= PAGE_SIZE, "regions are pages");
    assert!(
        config.max_region_bytes >= config.min_region_bytes,
        "size classes must be non-empty"
    );
    let mut rng = DetRng::new(config.seed ^ 0xC4A6_55C4_EDC1_E5D5);
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut epochs: Vec<ChurnEpoch> = Vec::with_capacity(config.epochs as usize);
    let mut prev = os.stats;
    let granule = config.flavor.identity_granule(PAGE_SIZE);

    for epoch in 0..config.epochs {
        let mut oom = 0u64;

        // 1. Scheduled exits (in arrival order).
        let mut i = 0;
        while i < tenants.len() {
            if tenants[i].death_epoch <= epoch {
                let t = tenants.remove(i);
                os.exit(t.pid)?;
            } else {
                i += 1;
            }
        }

        // 2. Arrivals: fresh spawns or CoW forks of a live tenant.
        for _ in 0..config.arrivals_per_epoch {
            let death_epoch = epoch + lifetime(&mut rng, config.mean_lifetime_epochs);
            let forks = !tenants.is_empty() && rng.chance(config.cow_fork_fraction);
            if forks {
                let parent = &tenants[rng.below(tenants.len() as u64) as usize];
                let (ppid, regions) = (parent.pid, parent.regions.clone());
                match os.fork(ppid) {
                    Ok(child) => {
                        oom += break_cow_pages(os, child, &regions, config.fork_write_fraction)?;
                        tenants.push(Tenant {
                            pid: child,
                            death_epoch,
                            regions,
                        });
                    }
                    Err(DvmError::OutOfMemory { .. }) => oom += 1,
                    Err(e) => return Err(e),
                }
            } else {
                let (tenant, o) = spawn_tenant(os, config, &mut rng, death_epoch)?;
                oom += o;
                if let Some(t) = tenant {
                    tenants.push(t);
                }
            }
        }

        // 3. Intra-lifetime churn: execs, extra maps, and region frees.
        for t in &mut tenants {
            if rng.chance(config.exec_chance) {
                // exec: tear the address space down and rebuild it.
                os.exit(t.pid)?;
                let (fresh, o) = spawn_tenant(os, config, &mut rng, t.death_epoch)?;
                oom += o;
                match fresh {
                    Some(fresh) => {
                        t.pid = fresh.pid;
                        t.regions = fresh.regions;
                    }
                    None => {
                        // The image failed to load; the tenant dies now
                        // (its old address space is already torn down).
                        t.death_epoch = epoch;
                        continue;
                    }
                }
            }
            if rng.chance(config.extra_alloc_chance) {
                let len = sample_region_bytes(&mut rng, config);
                match os.mmap(t.pid, len, Permission::ReadWrite) {
                    Ok(va) => t.regions.push(va),
                    Err(DvmError::OutOfMemory { .. }) => oom += 1,
                    Err(e) => return Err(e),
                }
            }
            if !t.regions.is_empty() && rng.chance(config.free_region_chance) {
                let va = t
                    .regions
                    .swap_remove(rng.below(t.regions.len() as u64) as usize);
                os.munmap(t.pid, va)?;
            }
        }
        // Drop tenants whose exec failed (their pid is already gone).
        tenants.retain(|t| t.death_epoch > epoch);

        // 4. Snapshot the epoch.
        let s = os.stats;
        let hist = os.machine.allocator.free_span_histogram();
        let sub_bucket = (granule / PAGE_SIZE).ilog2() as usize;
        let sub_granule_runs: u64 = hist.buckets[..sub_bucket.min(hist.buckets.len())]
            .iter()
            .sum();
        epochs.push(ChurnEpoch {
            epoch,
            live_procs: tenants.len() as u64,
            identity_maps: s.identity_maps - prev.identity_maps,
            identity_fallbacks: s.identity_fallbacks - prev.identity_fallbacks,
            identity_bytes_requested: s.identity_bytes_requested - prev.identity_bytes_requested,
            identity_bytes_padded: s.identity_bytes_padded - prev.identity_bytes_padded,
            demand_bytes: s.demand_bytes - prev.demand_bytes,
            cow_breaks: (s.cow_faults - s.cow_reuses) - (prev.cow_faults - prev.cow_reuses),
            oom_events: oom,
            free_frames: os.machine.allocator.free_frames_count(),
            free_runs: hist.runs,
            largest_run: hist.largest_run,
            sub_granule_runs,
        });
        prev = s;
    }

    // Drain every process, in pid order.
    let mut pids: Vec<Pid> = os.processes.keys().copied().collect();
    pids.sort_unstable();
    for pid in pids {
        os.exit(pid)?;
    }
    let total = os.machine.allocator.total_frames();
    let leaked_frames = total - os.machine.allocator.free_frames_count();
    Ok(ChurnResult {
        epochs,
        leaked_frames,
    })
}

/// Lifetime draw: uniform over `[1, 2*mean)`, exact mean, bounded tail.
fn lifetime(rng: &mut DetRng, mean: u32) -> u32 {
    let hi = (2 * mean.max(1)) as u64;
    rng.range(1, hi) as u32
}

/// Log-uniform size class between the configured bounds, plus sub-class
/// jitter so padding waste varies (exact powers of two would make every
/// identity allocation granule-perfect and hide fragmentation).
fn sample_region_bytes(rng: &mut DetRng, config: &ChurnConfig) -> u64 {
    let classes = (config.max_region_bytes / config.min_region_bytes)
        .max(1)
        .ilog2() as u64;
    let base = config.min_region_bytes << rng.below(classes + 1);
    let len = base + rng.below(base);
    len.min(config.max_region_bytes)
}

/// Boot a fresh tenant with its initial heap regions. Returns the tenant
/// (`None` when even the spawn itself failed) plus the number of
/// operations memory pressure forced it to skip.
fn spawn_tenant(
    os: &mut Os,
    config: &ChurnConfig,
    rng: &mut DetRng,
    death_epoch: u32,
) -> Result<(Option<Tenant>, u64), DvmError> {
    let pid = match os.spawn() {
        Ok(pid) => pid,
        Err(DvmError::OutOfMemory { .. }) => return Ok((None, 1)),
        Err(e) => return Err(e),
    };
    let mut regions = Vec::with_capacity(config.regions_per_proc as usize);
    let mut oom = 0u64;
    for _ in 0..config.regions_per_proc {
        let len = sample_region_bytes(rng, config);
        match os.mmap(pid, len, Permission::ReadWrite) {
            Ok(va) => regions.push(va),
            Err(DvmError::OutOfMemory { .. }) => oom += 1,
            Err(e) => return Err(e),
        }
    }
    Ok((
        Some(Tenant {
            pid,
            death_epoch,
            regions,
        }),
        oom,
    ))
}

/// A fork child touches a spread of pages in each inherited region,
/// breaking their CoW sharing (stride sampling: deterministic and evenly
/// spread). Returns the number of writes skipped for lack of memory.
fn break_cow_pages(
    os: &mut Os,
    child: Pid,
    regions: &[VirtAddr],
    fraction: f64,
) -> Result<u64, DvmError> {
    let mut oom = 0u64;
    for &va in regions {
        let Some(pages) = os.process(child)?.vma_at(va).map(|v| v.pages()) else {
            continue; // region was freed by the parent before this fork
        };
        let writes = ((pages as f64 * fraction).ceil() as u64).min(pages);
        for k in 0..writes {
            let page = k * pages / writes;
            match os.write_u64(child, va + page * PAGE_SIZE, u64::from(child)) {
                Ok(()) => {}
                Err(DvmError::OutOfMemory { .. }) => {
                    oom += 1;
                    return Ok(oom);
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(oom)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> ChurnConfig {
        ChurnConfig {
            mem_bytes: 128 << 20,
            epochs: 10,
            arrivals_per_epoch: 4,
            mean_lifetime_epochs: 3,
            regions_per_proc: 2,
            min_region_bytes: 64 << 10,
            max_region_bytes: 1 << 20,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let config = smoke_config();
        let a = run(&config).unwrap();
        let b = run(&config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.epochs.len(), 10);
    }

    #[test]
    fn seed_changes_the_trajectory() {
        let a = run(&smoke_config()).unwrap();
        let b = run(&ChurnConfig {
            seed: 43,
            ..smoke_config()
        })
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn every_epoch_sees_activity_and_nothing_leaks() {
        let result = run(&smoke_config()).unwrap();
        assert_eq!(result.leaked_frames, 0);
        for e in &result.epochs {
            assert!(e.mmaps() > 0, "epoch {} had no mmap", e.epoch);
            assert!(e.identity_rate().is_some());
        }
        // Forks happen, so CoW pages break somewhere in the run.
        assert!(result.epochs.iter().any(|e| e.cow_breaks > 0));
    }

    #[test]
    fn disabled_identity_is_all_fallback_free() {
        // The ablation never attempts identity mapping, so the counters
        // stay zero and every byte goes through the demand path.
        let result = run(&ChurnConfig {
            identity_enabled: false,
            ..smoke_config()
        })
        .unwrap();
        for e in &result.epochs {
            assert_eq!(e.identity_maps, 0);
            assert_eq!(e.identity_fallbacks, 0);
            assert!(e.demand_bytes > 0);
        }
    }

    #[test]
    fn fragmentation_decays_identity_success_under_pressure() {
        // The quick-scale default scenario is tuned to show the headline
        // effect: the pooled identity success rate of the last quarter is
        // visibly below the first quarter's.
        let config = ChurnConfig::default();
        let result = run(&config).unwrap();
        let n = result.epochs.len();
        let early = result.pooled_identity_rate(0..n / 4).unwrap();
        let late = result.pooled_identity_rate(3 * n / 4..n).unwrap();
        assert!(
            late < early - 0.05,
            "no decay: early {early:.3} late {late:.3}"
        );
        // Fragmentation is the mechanism: the largest contiguous free run
        // collapses over the horizon (the epoch-end snapshot of free-frame
        // *count* alone would not show this — memory exists, in shards).
        let first = &result.epochs[0];
        let late_best = result.epochs[3 * n / 4..]
            .iter()
            .map(|e| e.largest_run)
            .max()
            .unwrap();
        assert!(
            late_best < first.largest_run / 8,
            "no collapse: first {} late best {late_best}",
            first.largest_run
        );
    }
}
