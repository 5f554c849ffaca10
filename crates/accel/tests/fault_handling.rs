//! Accelerator fault behaviour: DAV must stop a workload that strays onto
//! memory it has no right to touch, without corrupting anything.

use dvm_accel::{layout, run, AccelConfig, Workload};
use dvm_energy::EnergyParams;
use dvm_graph::{rmat, RmatParams};
use dvm_mem::{Dram, DramConfig, MachineConfig};
use dvm_mmu::{Iommu, MemSystem, SchemeId};
use dvm_os::{MapFlavor, Os, OsConfig};
use dvm_types::{FaultKind, Permission};

/// A revoked write permission aborts the offload with exactly one
/// protection fault, both under DVM (validated through a PE) and under
/// conventional 4K paging (translated through the TLB and walker).
#[test]
fn revoked_permissions_abort_the_offload() {
    for scheme in [SchemeId::DVM_PE_PLUS, SchemeId::CONV_4K] {
        let flavor = match scheme.required_leaf_size() {
            Some(page_size) => MapFlavor::Paged(page_size),
            None => MapFlavor::DvmPe,
        };
        let mut os = Os::new(OsConfig {
            machine: MachineConfig { mem_bytes: 1 << 30 },
            flavor,
            ..OsConfig::default()
        });
        let pid = os.spawn().unwrap();
        let graph = rmat(10, 4, RmatParams::default(), 21);
        let workload = Workload::PageRank { iterations: 1 };
        let g = layout::load_graph(&mut os, pid, &graph, workload.prop_stride()).unwrap();

        // The host revokes write access to the temp array before
        // offloading — the accelerator's first reduce write must fault.
        os.mprotect(pid, g.temp_va, Permission::ReadOnly).unwrap();

        let mut iommu = Iommu::new(scheme, EnergyParams::default());
        let mut dram = Dram::new(DramConfig::default());
        let pt = os.process(pid).unwrap().page_table;
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut os.machine.mem, &mut dram);
        let fault = run(&workload, &g, &mut sys, &AccelConfig::default()).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Protection, "{scheme}");
        assert!(g.temp_va.raw() <= fault.va.raw(), "{scheme}");
        assert_eq!(sys.iommu.stats.faults.get(), 1, "{scheme}");
    }
}

#[test]
fn unmapped_graph_memory_faults_as_not_mapped() {
    let mut os = Os::new(OsConfig {
        machine: MachineConfig { mem_bytes: 1 << 30 },
        ..OsConfig::default()
    });
    let pid = os.spawn().unwrap();
    let graph = rmat(10, 4, RmatParams::default(), 22);
    let workload = Workload::Bfs { root: 0 };
    let g = layout::load_graph(&mut os, pid, &graph, workload.prop_stride()).unwrap();

    // The host unmaps the next-frontier array (a use-after-free bug); the
    // accelerator faults on its first enqueue. (The current frontier must
    // stay mapped — the host writes the root into it during setup.)
    os.munmap(pid, g.frontier_b_va).unwrap();

    let mut iommu = Iommu::new(SchemeId::DVM_PE, EnergyParams::default());
    let mut dram = Dram::new(DramConfig::default());
    let pt = os.process(pid).unwrap().page_table;
    let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut os.machine.mem, &mut dram);
    let fault = run(&workload, &g, &mut sys, &AccelConfig::default()).unwrap_err();
    assert_eq!(fault.kind, FaultKind::NotMapped);
}

#[test]
fn faults_do_not_corrupt_other_processes() {
    // Process B's data is physically adjacent to process A's graph; a
    // faulting run on behalf of A must leave B untouched.
    let mut os = Os::new(OsConfig {
        machine: MachineConfig { mem_bytes: 1 << 30 },
        ..OsConfig::default()
    });
    let a = os.spawn().unwrap();
    let b = os.spawn().unwrap();
    let secret_va = os.mmap(b, 1 << 20, Permission::ReadWrite).unwrap();
    os.write_u64(b, secret_va, 0x5ECE7).unwrap();

    let graph = rmat(9, 4, RmatParams::default(), 23);
    let workload = Workload::Sssp {
        root: 0,
        max_iterations: 8,
    };
    let g = layout::load_graph(&mut os, a, &graph, workload.prop_stride()).unwrap();
    os.mprotect(a, g.prop_va, Permission::ReadOnly).unwrap();

    let mut iommu = Iommu::new(SchemeId::DVM_PE_PLUS, EnergyParams::default());
    let mut dram = Dram::new(DramConfig::default());
    let pt = os.process(a).unwrap().page_table;
    let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut os.machine.mem, &mut dram);
    // SSSP initialization writes the prop array through the OS... it is
    // done untimed by the runner, so the fault comes from the timed path.
    let result = run(&workload, &g, &mut sys, &AccelConfig::default());
    assert!(result.is_err());
    assert_eq!(os.read_u64(b, secret_va).unwrap(), 0x5ECE7);
}
