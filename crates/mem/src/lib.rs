//! Physical-memory substrate: a Linux-style buddy allocator with the eager
//! contiguous allocation DVM needs, a sparse byte-addressable physical
//! memory, and a DRAM timing/energy event model.
//!
//! The paper's identity mapping (§4.3.1) relies on *eager contiguous
//! allocation*: physical frames are reserved at allocation time as one
//! contiguous power-of-two block, and frames beyond the requested size are
//! returned to the allocator immediately. [`BuddyAllocator::alloc_frames`]
//! implements exactly that policy.
//!
//! # Examples
//!
//! ```
//! use dvm_mem::{BuddyAllocator, PhysMem};
//! use dvm_types::PhysAddr;
//!
//! // A 1 MiB machine: 256 frames.
//! let mut buddy = BuddyAllocator::new(256);
//! let range = buddy.alloc_frames(3).unwrap();
//! assert_eq!(range.count, 3);
//! buddy.free_frames(range);
//! assert_eq!(buddy.free_frames_count(), 256);
//!
//! let mut mem = PhysMem::new(256);
//! mem.write_u64(PhysAddr::new(0x100), 0xdead_beef);
//! assert_eq!(mem.read_u64(PhysAddr::new(0x100)), 0xdead_beef);
//! ```

pub mod buddy;
pub mod dram;
pub mod physmem;

pub use buddy::{BuddyAllocator, BuddyStats, FrameRange, FreeSpanHistogram};
pub use dram::{Dram, DramConfig};
pub use physmem::{PhysMem, RowWord};

use dvm_types::PAGE_SIZE;

/// Configuration for a simulated machine's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Total physical memory in bytes (must be a multiple of 4 KiB).
    pub mem_bytes: u64,
}

impl Default for MachineConfig {
    /// 32 GiB, matching Table 2 of the paper.
    fn default() -> Self {
        Self {
            mem_bytes: 32 << 30,
        }
    }
}

/// A simulated machine's physical memory: allocator plus backing store.
///
/// Owns the two pieces every higher layer needs together; the fields are
/// public because the OS, page-table and MMU crates borrow them in
/// different combinations (split borrows).
#[derive(Debug)]
pub struct Machine {
    /// Frame allocator.
    pub allocator: BuddyAllocator,
    /// Byte-addressable backing store.
    pub mem: PhysMem,
}

impl Machine {
    /// Build a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `mem_bytes` is zero or not page-aligned.
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.mem_bytes > 0, "machine must have memory");
        assert!(
            config.mem_bytes.is_multiple_of(PAGE_SIZE),
            "memory size must be page aligned"
        );
        let frames = config.mem_bytes / PAGE_SIZE;
        Self {
            allocator: BuddyAllocator::new(frames),
            mem: PhysMem::new(frames),
        }
    }

    /// Total physical frames.
    pub fn total_frames(&self) -> u64 {
        self.mem.total_frames()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_construction() {
        let m = Machine::new(MachineConfig { mem_bytes: 1 << 20 });
        assert_eq!(m.total_frames(), 256);
        assert_eq!(m.allocator.free_frames_count(), 256);
    }

    #[test]
    fn default_config_is_32_gib() {
        assert_eq!(MachineConfig::default().mem_bytes, 32 << 30);
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn rejects_unaligned_size() {
        Machine::new(MachineConfig { mem_bytes: 4097 });
    }
}
