//! A user-level allocator over `mmap`, modelling the paper's glibc change
//! (§4.3.2): *all* allocations come from memory-mapped segments (never
//! `brk`, which would need a growable — hence non-identity-mappable —
//! region). Small requests are served from pools; when a pool fills,
//! another is mapped. Large requests get their own mapping.

use crate::os::Os;
use crate::process::Pid;
use dvm_types::{align_up, DvmError, Permission, VirtAddr};
use std::collections::HashMap;

/// Requests at or above this go straight to `mmap` (glibc's
/// `MMAP_THRESHOLD`).
pub const MMAP_THRESHOLD: u64 = 128 * 1024;

/// Size of each small-allocation pool.
pub const POOL_BYTES: u64 = 4 << 20;

/// Allocation size classes: powers of two from 16 B to the threshold.
fn size_class(size: u64) -> u64 {
    size.max(16).next_power_of_two()
}

#[derive(Debug)]
struct Pool {
    base: VirtAddr,
    bump: u64,
}

/// Per-process user-level allocator.
///
/// # Examples
///
/// ```
/// use dvm_mem::MachineConfig;
/// use dvm_os::{Malloc, Os, OsConfig};
///
/// # fn main() -> Result<(), dvm_types::DvmError> {
/// let mut os = Os::new(OsConfig {
///     machine: MachineConfig { mem_bytes: 256 << 20 },
///     ..OsConfig::default()
/// });
/// let pid = os.spawn()?;
/// let mut malloc = Malloc::new(pid);
/// let small = malloc.alloc(&mut os, 100)?;
/// let big = malloc.alloc(&mut os, 1 << 20)?;
/// malloc.free(&mut os, small)?;
/// malloc.free(&mut os, big)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Malloc {
    pid: Pid,
    pools: Vec<Pool>,
    /// Free lists per size class (class -> addresses).
    free_lists: HashMap<u64, Vec<VirtAddr>>,
    /// Live small allocations: address -> class.
    small_live: HashMap<u64, u64>,
    /// Live large allocations: address -> mapped length.
    large_live: HashMap<u64, u64>,
}

impl Malloc {
    /// Create an allocator for `pid`.
    pub fn new(pid: Pid) -> Self {
        Self {
            pid,
            pools: Vec::new(),
            free_lists: HashMap::new(),
            small_live: HashMap::new(),
            large_live: HashMap::new(),
        }
    }

    /// Allocate `size` bytes.
    ///
    /// # Errors
    ///
    /// [`DvmError::OutOfMemory`] when backing memory is exhausted;
    /// [`DvmError::InvalidArgument`] for `size == 0`.
    pub fn alloc(&mut self, os: &mut Os, size: u64) -> Result<VirtAddr, DvmError> {
        if size == 0 {
            return Err(DvmError::InvalidArgument("malloc(0)"));
        }
        if size >= MMAP_THRESHOLD {
            let len = align_up(size, dvm_types::PAGE_SIZE);
            let va = os.mmap(self.pid, len, Permission::ReadWrite)?;
            // The VMA may be padded (huge-page flavours); track what the OS
            // actually mapped so `free` releases it exactly.
            let mapped = os
                .process(self.pid)?
                .vma_at(va)
                .map(|v| v.len)
                .unwrap_or(len);
            self.large_live.insert(va.raw(), mapped);
            return Ok(va);
        }
        let class = size_class(size);
        if let Some(va) = self.free_lists.get_mut(&class).and_then(Vec::pop) {
            self.small_live.insert(va.raw(), class);
            return Ok(va);
        }
        // Bump from the newest pool with room.
        if let Some(pool) = self.pools.last_mut() {
            if pool.bump + class <= POOL_BYTES {
                let va = pool.base + pool.bump;
                pool.bump += class;
                self.small_live.insert(va.raw(), class);
                return Ok(va);
            }
        }
        // Map another pool and retry.
        let base = os.mmap(self.pid, POOL_BYTES, Permission::ReadWrite)?;
        self.pools.push(Pool { base, bump: 0 });
        self.alloc(os, size)
    }

    /// Free an allocation returned by [`Self::alloc`].
    ///
    /// # Errors
    ///
    /// [`DvmError::InvalidArgument`] if `va` is not a live allocation.
    pub fn free(&mut self, os: &mut Os, va: VirtAddr) -> Result<(), DvmError> {
        if let Some(class) = self.small_live.remove(&va.raw()) {
            self.free_lists.entry(class).or_default().push(va);
            return Ok(());
        }
        if self.large_live.remove(&va.raw()).is_some() {
            return os.munmap(self.pid, va);
        }
        Err(DvmError::InvalidArgument("free of unknown pointer"))
    }

    /// Bytes currently live from the caller's perspective (size classes
    /// for small, mapped length for large).
    pub fn live_bytes(&self) -> u64 {
        self.small_live.values().sum::<u64>() + self.large_live.values().sum::<u64>()
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.small_live.len() + self.large_live.len()
    }

    /// Addresses of live allocations (small and large), for random-free
    /// workloads.
    pub fn live_addrs(&self) -> Vec<VirtAddr> {
        let mut addrs: Vec<VirtAddr> = self
            .small_live
            .keys()
            .chain(self.large_live.keys())
            .map(|&a| VirtAddr::new(a))
            .collect();
        // HashMap iteration order is nondeterministic; callers (shbench)
        // need reproducible victim selection.
        addrs.sort_unstable();
        addrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::OsConfig;
    use dvm_mem::MachineConfig;
    use dvm_sim::DetRng;

    fn small_os() -> Os {
        Os::new(OsConfig {
            machine: MachineConfig {
                mem_bytes: 256 << 20,
            },
            ..OsConfig::default()
        })
    }

    #[test]
    fn size_classes() {
        assert_eq!(size_class(1), 16);
        assert_eq!(size_class(16), 16);
        assert_eq!(size_class(17), 32);
        assert_eq!(size_class(100), 128);
        assert_eq!(size_class(65536), 65536);
    }

    #[test]
    fn small_allocations_share_a_pool() {
        let mut os = small_os();
        let pid = os.spawn().unwrap();
        let maps_before = os.stats.identity_maps;
        let mut m = Malloc::new(pid);
        let a = m.alloc(&mut os, 100).unwrap();
        let b = m.alloc(&mut os, 100).unwrap();
        assert_ne!(a, b);
        // Only one pool mapping happened.
        assert_eq!(os.stats.identity_maps, maps_before + 1);
        assert_eq!(m.live_count(), 2);
    }

    #[test]
    fn freed_small_blocks_are_recycled() {
        let mut os = small_os();
        let pid = os.spawn().unwrap();
        let mut m = Malloc::new(pid);
        let a = m.alloc(&mut os, 1000).unwrap();
        m.free(&mut os, a).unwrap();
        let b = m.alloc(&mut os, 1000).unwrap();
        assert_eq!(a, b, "same class reuses the freed block");
    }

    #[test]
    fn large_allocations_are_standalone_mappings() {
        let mut os = small_os();
        let pid = os.spawn().unwrap();
        let mut m = Malloc::new(pid);
        let a = m.alloc(&mut os, MMAP_THRESHOLD).unwrap();
        assert!(os.process(pid).unwrap().vma_at(a).is_some());
        let free_before = os.machine.allocator.free_frames_count();
        m.free(&mut os, a).unwrap();
        assert!(os.machine.allocator.free_frames_count() > free_before);
        assert!(os.process(pid).unwrap().vma_at(a).is_none());
    }

    #[test]
    fn double_free_is_an_error() {
        let mut os = small_os();
        let pid = os.spawn().unwrap();
        let mut m = Malloc::new(pid);
        let a = m.alloc(&mut os, 64).unwrap();
        m.free(&mut os, a).unwrap();
        assert!(m.free(&mut os, a).is_err());
    }

    #[test]
    fn pool_overflow_maps_another_pool() {
        let mut os = small_os();
        let pid = os.spawn().unwrap();
        let mut m = Malloc::new(pid);
        // Fill beyond one 4 MiB pool with 64 KiB blocks.
        let n = (POOL_BYTES / 65536) + 4;
        for _ in 0..n {
            m.alloc(&mut os, 65536).unwrap();
        }
        assert!(m.pools.len() >= 2);
    }

    #[test]
    fn live_bytes_tracks_classes() {
        let mut os = small_os();
        let pid = os.spawn().unwrap();
        let mut m = Malloc::new(pid);
        m.alloc(&mut os, 100).unwrap(); // class 128
        assert_eq!(m.live_bytes(), 128);
    }

    /// 24 seeded sequences of 1..120 operations — allocations (pool- and
    /// mmap-served sizes mixed), frees and pattern rewrites — on a
    /// 512 MiB machine. Live allocations never alias: each keeps the
    /// pattern last written through it after every operation, and
    /// everything frees back to zero live blocks.
    #[test]
    fn allocations_never_alias() {
        let pattern =
            |va: VirtAddr, epoch: u64| va.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ epoch;
        for seed in 0..24u64 {
            let mut rng = DetRng::new(seed);
            let mut os = Os::new(OsConfig {
                machine: MachineConfig {
                    mem_bytes: 512 << 20,
                },
                ..OsConfig::default()
            });
            let pid = os.spawn().unwrap();
            let mut m = Malloc::new(pid);
            // Live pointers with the epoch of their last write.
            let mut live: Vec<(VirtAddr, u64)> = Vec::new();
            let mut epoch = 0u64;
            for op in 0..rng.range(1, 120) {
                match rng.below(5) {
                    0..=2 => {
                        let size = if rng.chance(0.5) {
                            rng.range(8, 4096)
                        } else {
                            rng.range(MMAP_THRESHOLD, 2 << 20)
                        };
                        match m.alloc(&mut os, size) {
                            Ok(va) => {
                                assert!(
                                    live.iter().all(|&(other, _)| other != va),
                                    "seed {seed} op {op}: live pointer {va} returned twice"
                                );
                                epoch += 1;
                                os.write_u64(pid, va, pattern(va, epoch)).unwrap();
                                live.push((va, epoch));
                            }
                            Err(DvmError::OutOfMemory { .. }) => {}
                            Err(e) => panic!("seed {seed} op {op}: {e}"),
                        }
                    }
                    3 => {
                        let i = rng.below(64) as usize;
                        if !live.is_empty() {
                            let (va, _) = live.swap_remove(i % live.len());
                            m.free(&mut os, va).unwrap();
                        }
                    }
                    _ => {
                        let i = rng.below(64) as usize;
                        if !live.is_empty() {
                            let n = live.len();
                            let slot = &mut live[i % n];
                            epoch += 1;
                            os.write_u64(pid, slot.0, pattern(slot.0, epoch)).unwrap();
                            slot.1 = epoch;
                        }
                    }
                }
                for &(va, written) in &live {
                    assert_eq!(
                        os.read_u64(pid, va).unwrap(),
                        pattern(va, written),
                        "seed {seed} op {op}: allocation at {va} clobbered"
                    );
                }
            }
            assert_eq!(m.live_count(), live.len(), "seed {seed}");
            for (va, _) in live {
                m.free(&mut os, va).unwrap();
            }
            assert_eq!(m.live_count(), 0, "seed {seed}");
            assert_eq!(m.live_bytes(), 0, "seed {seed}");
        }
    }
}
