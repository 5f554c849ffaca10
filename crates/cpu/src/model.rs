//! The cDVM analytical model (paper §7.3, Figure 10).
//!
//! The paper measures L2 TLB misses, page-walk cycles and total cycles on
//! hardware, instruments TLB misses with BadgerTrap to estimate AVC hit
//! rates, and applies "a simple analytical model to conservatively
//! estimate the VM overheads under cDVM, like past work". We reproduce the
//! same structure end to end in simulation:
//!
//! 1. run the workload's access stream through the scheme's MMU model
//!    (two-level TLB + PWC/AVC + page tables built by the scheme's OS
//!    flavour), accumulating translation cycles;
//! 2. charge each access its workload-calibrated base cost
//!    (compute + data-cache mix);
//! 3. report `overhead = translation_cycles / base_cycles` — the ideal
//!    baseline being the same run with translation removed, exactly as the
//!    paper's "runtime normalized to the ideal case".

use crate::mmu::{CpuMmu, CpuMmuConfig, CpuScheme};
use crate::workloads::{AccessStream, CpuWorkload};
use dvm_mem::MachineConfig;
use dvm_os::{MapFlavor, Os, OsConfig, VmaKind};
use dvm_types::{DvmError, PageSize, Permission};

/// Parameters of a Figure 10 evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct CpuModelConfig {
    /// Footprint divisor (power of two): published footprints are scaled
    /// down by this. The default of 1 (full scale) costs almost nothing —
    /// the access streams are trace-only, so no data frames materialize.
    pub footprint_div: u64,
    /// Accesses simulated per run.
    pub accesses: u64,
    /// Simulated machine size in bytes.
    pub machine_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CpuModelConfig {
    fn default() -> Self {
        Self {
            // Full published footprints: the THP-vs-cDVM gap on mcf comes
            // precisely from 1.7 GiB exceeding the 1 GiB 2M-TLB reach.
            footprint_div: 1,
            accesses: 2_000_000,
            machine_bytes: 12 << 30,
            seed: 0xC0DE,
        }
    }
}

/// Result of one workload x scheme evaluation.
#[derive(Debug, Clone)]
pub struct CpuRunReport {
    /// Workload evaluated.
    pub workload: CpuWorkload,
    /// Scheme evaluated.
    pub scheme: CpuScheme,
    /// Base (translation-free) cycles.
    pub base_cycles: f64,
    /// Cycles spent translating.
    pub translation_cycles: f64,
    /// L1 DTLB miss rate.
    pub l1_miss_rate: f64,
    /// L2 DTLB miss rate (of L1 misses).
    pub l2_miss_rate: f64,
    /// Walker memory references per 1000 accesses.
    pub walk_refs_per_kilo_access: f64,
}

impl CpuRunReport {
    /// VM overhead relative to the ideal (translation-free) run, as a
    /// percentage — the paper's Figure 10 metric.
    pub fn overhead_percent(&self) -> f64 {
        100.0 * self.translation_cycles / self.base_cycles
    }
}

/// Evaluate one workload under one scheme.
///
/// # Errors
///
/// Propagates OS allocation failures.
pub fn evaluate(
    workload: CpuWorkload,
    scheme: CpuScheme,
    config: &CpuModelConfig,
) -> Result<CpuRunReport, DvmError> {
    let flavor = match scheme {
        CpuScheme::Base4K => MapFlavor::Paged(PageSize::Size4K),
        CpuScheme::Thp => MapFlavor::Paged(PageSize::Size2M),
        CpuScheme::Cdvm => MapFlavor::DvmPe,
    };
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: config.machine_bytes,
        },
        flavor,
        ..OsConfig::default()
    });
    let pid = os.spawn()?;
    let profile = workload.profile();
    let footprint = (profile.footprint_bytes / config.footprint_div).max(1 << 20);
    // cDVM identity-maps all segments (§7.2); the conventional schemes map
    // the same layout with uniform leaves. Code/stack exist for realism
    // but the data stream dominates, as in the paper's measurements.
    let heap = os.mmap_kind(pid, footprint, Permission::ReadWrite, VmaKind::Heap)?;
    let _code = os.mmap_kind(pid, 8 << 20, Permission::ReadExec, VmaKind::Code)?;
    let _stack = os.mmap_kind(pid, 8 << 20, Permission::ReadWrite, VmaKind::Stack)?;

    let mut mmu = CpuMmu::new(scheme, CpuMmuConfig::default());
    let pt = os.process(pid)?.page_table;
    let mut stream = AccessStream::new(&profile, heap, footprint, config.seed);

    let mut translation_cycles = 0u64;
    for _ in 0..config.accesses {
        let va = stream.next_va();
        translation_cycles += mmu.translate(va, &pt, &os.machine.mem);
    }

    let base_cycles = profile.base_cycles_per_access * config.accesses as f64;
    Ok(CpuRunReport {
        workload,
        scheme,
        base_cycles,
        translation_cycles: translation_cycles as f64,
        l1_miss_rate: mmu.l1_stats().miss_rate(),
        l2_miss_rate: mmu.l2_stats().miss_rate(),
        walk_refs_per_kilo_access: 1000.0 * mmu.stats.walk_mem_refs.get() as f64
            / config.accesses as f64,
    })
}

/// Evaluate every workload under every scheme (the full Figure 10).
///
/// # Errors
///
/// Propagates the first failing run.
pub fn evaluate_all(config: &CpuModelConfig) -> Result<Vec<CpuRunReport>, DvmError> {
    let mut out = Vec::new();
    for workload in CpuWorkload::ALL {
        for scheme in CpuScheme::ALL {
            out.push(evaluate(workload, scheme, config)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_sim::DetRng;

    fn quick() -> CpuModelConfig {
        CpuModelConfig {
            footprint_div: 16,
            accesses: 200_000,
            machine_bytes: 2 << 30,
            ..CpuModelConfig::default()
        }
    }

    /// The seeded cases' configuration: 40k accesses at 1/16 footprints.
    fn small(seed: u64) -> CpuModelConfig {
        CpuModelConfig {
            accesses: 40_000,
            seed,
            ..quick()
        }
    }

    #[test]
    fn cdvm_beats_thp_beats_4k_on_mcf() {
        // Full-scale footprint: mcf's 1.7 GiB exceeding the 1 GiB 2M-TLB
        // reach is exactly what separates THP from cDVM here.
        let cfg = CpuModelConfig {
            accesses: 300_000,
            ..CpuModelConfig::default()
        };
        let base = evaluate(CpuWorkload::Mcf, CpuScheme::Base4K, &cfg).unwrap();
        let thp = evaluate(CpuWorkload::Mcf, CpuScheme::Thp, &cfg).unwrap();
        let cdvm = evaluate(CpuWorkload::Mcf, CpuScheme::Cdvm, &cfg).unwrap();
        assert!(
            base.overhead_percent() > thp.overhead_percent(),
            "4K {:.1}% vs THP {:.1}%",
            base.overhead_percent(),
            thp.overhead_percent()
        );
        assert!(
            thp.overhead_percent() > cdvm.overhead_percent(),
            "THP {:.1}% vs cDVM {:.1}%",
            thp.overhead_percent(),
            cdvm.overhead_percent()
        );
    }

    #[test]
    fn mcf_is_the_worst_4k_workload() {
        let cfg = quick();
        let mcf = evaluate(CpuWorkload::Mcf, CpuScheme::Base4K, &cfg)
            .unwrap()
            .overhead_percent();
        for w in [CpuWorkload::Bt, CpuWorkload::Cg] {
            let o = evaluate(w, CpuScheme::Base4K, &cfg)
                .unwrap()
                .overhead_percent();
            assert!(mcf > o, "mcf {mcf:.1}% vs {w} {o:.1}%");
        }
    }

    #[test]
    fn bt_streaming_has_low_overhead() {
        let cfg = quick();
        let bt = evaluate(CpuWorkload::Bt, CpuScheme::Base4K, &cfg).unwrap();
        assert!(
            bt.overhead_percent() < 30.0,
            "bt overhead {:.1}%",
            bt.overhead_percent()
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let cfg = quick();
        let a = evaluate(CpuWorkload::Canneal, CpuScheme::Cdvm, &cfg).unwrap();
        let b = evaluate(CpuWorkload::Canneal, CpuScheme::Cdvm, &cfg).unwrap();
        assert_eq!(a.translation_cycles, b.translation_cycles);
        assert_eq!(a.l1_miss_rate, b.l1_miss_rate);
        // 12 seeded model seeds in 0..1000, THP on xsbench.
        for case in 0..12u64 {
            let seed = DetRng::new(case).below(1000);
            let cfg = small(seed);
            let a = evaluate(CpuWorkload::Xsbench, CpuScheme::Thp, &cfg).unwrap();
            let b = evaluate(CpuWorkload::Xsbench, CpuScheme::Thp, &cfg).unwrap();
            let ctx = format!("case {case}: seed {seed}");
            assert_eq!(a.translation_cycles, b.translation_cycles, "{ctx}");
            assert_eq!(a.l1_miss_rate, b.l1_miss_rate, "{ctx}");
            assert_eq!(a.l2_miss_rate, b.l2_miss_rate, "{ctx}");
        }
    }

    /// On identical access streams and TLB geometry, cDVM's PE walks
    /// cost no more cycles than 4K leaf walks, and touch memory no more
    /// often. (At these scaled footprints, under 1 GiB, the regions use
    /// L2 PEs, whose working set can exceed the 1 KiB AVC; at published
    /// footprints L3 PEs make the ratio unbounded, as Figure 10 shows.)
    /// 12 seeded (seed, workload) draws, after seed 0 on the fifth
    /// workload: a once-failing case, kept pinned.
    #[test]
    fn cdvm_never_loses_to_4k() {
        let draws = (0..12u64).map(|case| {
            let mut rng = DetRng::new(case);
            (rng.below(1000), rng.below(5) as usize)
        });
        for (seed, widx) in std::iter::once((0, 4)).chain(draws) {
            let workload = CpuWorkload::ALL[widx];
            let cfg = small(seed);
            let base = evaluate(workload, CpuScheme::Base4K, &cfg).unwrap();
            let cdvm = evaluate(workload, CpuScheme::Cdvm, &cfg).unwrap();
            assert!(
                cdvm.translation_cycles <= base.translation_cycles,
                "{workload} seed {seed}: cDVM {} vs 4K {} cycles",
                cdvm.translation_cycles,
                base.translation_cycles
            );
            assert!(
                cdvm.walk_refs_per_kilo_access <= base.walk_refs_per_kilo_access,
                "{workload} seed {seed}: walker refs cDVM {} vs 4K {}",
                cdvm.walk_refs_per_kilo_access,
                base.walk_refs_per_kilo_access
            );
        }
    }
}
