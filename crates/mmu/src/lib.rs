//! Hardware memory-management models: TLBs, page-walk caches, the Access
//! Validation Cache, and the IOMMU driving one [`TranslationScheme`] of a
//! closed table — the paper's seven memory-management configurations
//! plus two rival shared-virtual-addressing designs.
//!
//! The flow mirrors the paper's Figure 1: accelerator accesses arrive at
//! the [`Iommu`], which dispatches into its configured scheme — either
//! translating them (conventional VM) or performing Devirtualized Access
//! Validation (DVM) — and [`MemSystem`] completes the data access against
//! simulated DRAM with the correct serialization or overlap.
//!
//! # Examples
//!
//! ```
//! use dvm_energy::EnergyParams;
//! use dvm_mem::{BuddyAllocator, Dram, DramConfig, PhysMem};
//! use dvm_mmu::{Iommu, MemSystem, SchemeId};
//! use dvm_pagetable::PageTable;
//! use dvm_types::{Permission, VirtAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = PhysMem::new(1 << 16);
//! let mut alloc = BuddyAllocator::new(1 << 16);
//! let mut pt = PageTable::new(&mut mem, &mut alloc)?;
//! let base = VirtAddr::new(16 << 20);
//! pt.map_identity_pe(&mut mem, &mut alloc, base, 2 << 20, Permission::ReadWrite)?;
//!
//! let mut dram = Dram::new(DramConfig::default());
//! let mut iommu = Iommu::new(SchemeId::DVM_PE_PLUS, EnergyParams::default());
//! let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
//! sys.write_u64(base, 42)?;
//! let (value, _latency) = sys.read_u64(base)?;
//! assert_eq!(value, 42);
//! # Ok(())
//! # }
//! ```

pub mod iommu;
mod memo;
pub mod memsys;
pub mod nested;
pub mod ptcache;
pub mod scheme;
pub mod tlb;

pub use iommu::{AccessCtx, Iommu, IommuStats, Validation};
pub use memsys::MemSystem;
pub use nested::{NestedScheme, NestedTranslation, NestedWalker};
pub use ptcache::{PtCache, PtCacheConfig, PtcLookup};
pub use scheme::{dispatch, SchemeDispatch, SchemeId, SchemeStructures, TranslationScheme};
pub use tlb::{Associativity, Tlb, TlbConfig, TlbEntry};
