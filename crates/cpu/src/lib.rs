//! cDVM: Devirtualized Memory for CPU cores (paper §7, Figure 10).
//!
//! Models a Xeon-like two-level TLB hierarchy, synthetic stand-ins for the
//! paper's CPU workloads (mcf, BT, CG, canneal, XSBench), and the
//! analytical overhead model comparing conventional 4 KiB paging,
//! transparent huge pages, and cDVM with Permission-Entry page tables and
//! an Access Validation Cache.
//!
//! # Examples
//!
//! ```
//! use dvm_cpu::{evaluate, CpuModelConfig, CpuScheme, CpuWorkload};
//!
//! # fn main() -> Result<(), dvm_types::DvmError> {
//! let config = CpuModelConfig {
//!     accesses: 50_000,
//!     footprint_div: 32,
//!     machine_bytes: 1 << 30,
//!     ..CpuModelConfig::default()
//! };
//! let report = evaluate(CpuWorkload::Mcf, CpuScheme::Cdvm, &config)?;
//! println!("mcf under cDVM: {:.1}% VM overhead", report.overhead_percent());
//! # Ok(())
//! # }
//! ```

pub mod mmu;
pub mod model;
pub mod workloads;

pub use mmu::{CpuMmu, CpuMmuConfig, CpuMmuStats, CpuScheme};
pub use model::{evaluate, CpuModelConfig, CpuRunReport};
pub use workloads::{AccessStream, CpuWorkload, CpuWorkloadProfile};
