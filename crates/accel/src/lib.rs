//! A Graphicionado-style graph-processing accelerator model (Ham et al.,
//! MICRO'16), the accelerator the paper evaluates DVM on (§6.1): eight
//! processing engines with single-cycle pipeline stages, no scratchpad,
//! streaming a CSR graph out of shared memory through the IOMMU.
//!
//! The four workloads of the paper — BFS, PageRank, SSSP and
//! Collaborative Filtering — execute *functionally* against simulated
//! physical memory via the process's page tables, so every result can be
//! checked against the host references in [`reference`](mod@reference),
//! while every access is timed by the configured memory-management
//! scheme.
//!
//! # Examples
//!
//! ```no_run
//! use dvm_accel::{layout, run, AccelConfig, Workload};
//! use dvm_energy::EnergyParams;
//! use dvm_graph::Dataset;
//! use dvm_mem::{Dram, DramConfig};
//! use dvm_mmu::{Iommu, MemSystem, SchemeId};
//! use dvm_os::{Os, OsConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut os = Os::new(OsConfig::default());
//! let pid = os.spawn()?;
//! let graph = Dataset::Flickr.generate(16);
//! let workload = Workload::Bfs { root: 0 };
//! let g = layout::load_graph(&mut os, pid, &graph, workload.prop_stride())?;
//!
//! let mut iommu = Iommu::new(SchemeId::DVM_PE_PLUS, EnergyParams::default());
//! let mut dram = Dram::new(DramConfig::default());
//! // `PageTable` and `PermBitmap` are small Copy handles; copying them out
//! // lets the memory system borrow `os.machine.mem` mutably.
//! let pt = os.process(pid)?.page_table;
//! let bitmap = os.bitmap;
//! let mut sys = MemSystem::new(&mut iommu, &pt, bitmap.as_ref(), &mut os.machine.mem, &mut dram);
//! let result = run(&workload, &g, &mut sys, &AccelConfig::default())?;
//! println!("BFS took {} cycles", result.cycles);
//! # Ok(())
//! # }
//! ```

pub mod layout;
pub mod reference;
pub mod run;

pub use layout::{load_graph, GraphInMemory, EDGE_BYTES};
pub use run::{
    dump_props_f32, dump_props_u32, run, run_via, AccelConfig, RunResult, Workload, BFS_INF,
};
