//! Devirtualized Memory (DVM): the paper's contribution as a library.
//!
//! This crate is the front door of the reproduction of *Devirtualizing
//! Memory in Heterogeneous Systems* (Haria, Hill, Swift — ASPLOS 2018).
//! It wires the substrates together:
//!
//! * [`dvm_os`] — identity mapping (VA==PA) with eager contiguous
//!   allocation and demand-paging fallback (paper §4.3),
//! * [`dvm_pagetable`] — Permission Entries, the compact page-table format
//!   (§4.1.1),
//! * [`dvm_mmu`] — Devirtualized Access Validation in the IOMMU: the
//!   Access Validation Cache, the bitmap variant, and preload-on-read
//!   (§4.1.2, §4.2),
//! * [`dvm_accel`] — the Graphicionado-style accelerator and the four
//!   graph workloads (§6),
//! * [`dvm_cpu`] — cDVM for CPU cores (§7),
//!
//! and exposes the experiment API the benchmark harnesses use to
//! regenerate every table and figure of the paper.
//!
//! # Examples
//!
//! ```
//! use dvm_core::{run_graph_experiment, ExperimentConfig, SchemeId, Workload};
//! use dvm_graph::{rmat, RmatParams};
//!
//! # fn main() -> Result<(), dvm_types::DvmError> {
//! let graph = rmat(10, 4, RmatParams::default(), 1);
//! let workload = Workload::Bfs { root: 0 };
//! let dvm = run_graph_experiment(
//!     &workload,
//!     &graph,
//!     &ExperimentConfig::for_mmu(SchemeId::DVM_PE_PLUS),
//! )?;
//! let ideal = run_graph_experiment(
//!     &workload,
//!     &graph,
//!     &ExperimentConfig::for_mmu(SchemeId::IDEAL),
//! )?;
//! let overhead = dvm.cycles as f64 / ideal.cycles as f64;
//! assert!(overhead >= 1.0);
//! # Ok(())
//! # }
//! ```

pub mod experiment;
pub mod sweep;
pub mod table1;

pub use experiment::{
    flavor_for, run_graph_experiment, run_paper_configs, ExperimentConfig, GraphRunReport,
};
pub use sweep::{
    effective_jobs, parallel_map_ordered, CellReports, EpochGrid, SweepCell, SweepProgress,
    SweepRunner, SweepSpec,
};
pub use table1::{page_table_study, PageTableStudy};

// Re-export the pieces downstream users need most, so `dvm-core` works as
// a single-dependency facade.
pub use dvm_accel::{AccelConfig, RunResult, Workload};
pub use dvm_cpu::{evaluate as evaluate_cpu, CpuModelConfig, CpuRunReport, CpuScheme, CpuWorkload};
pub use dvm_energy::{EnergyAccount, EnergyParams, MmEvent};
pub use dvm_graph::Dataset;
pub use dvm_mem::{DramConfig, MachineConfig};
pub use dvm_mmu::{SchemeId, SchemeStructures, TranslationScheme};
pub use dvm_os::{
    ChurnConfig, ChurnEpoch, ChurnResult, MapFlavor, Os, OsConfig, ShbenchConfig, ShbenchResult,
};
pub use dvm_types::{AccessKind, DvmError, Fault, PageSize, Permission, PhysAddr, VirtAddr};
