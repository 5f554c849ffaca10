//! Figure 11 (extension): DVM versus shared-virtual-addressing rivals.
//! Execution time normalized to Ideal for the 4K baseline, DVM-PE+, and
//! the two SVA schemes — SVA-Pf (TLB-prefetching SVA, after Kurth et
//! al.) and SVA-IOMMU (RISC-V IOMMU with a 64-entry 8-way IOTLB and a
//! one-time context fetch, after Koenig et al.) — over the same
//! workload × dataset grid as Figure 8.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig11 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{BenchArgs, Metric, NormalizedFigure};
use dvm_core::SchemeId;

fn main() {
    // Ideal (== 1.0 by construction) is always swept: every column
    // normalizes to it.
    NormalizedFigure {
        experiment: "fig11",
        title: "Figure 11: DVM vs SVA rivals, runtime normalized to Ideal",
        defaults: &[
            SchemeId::CONV_4K,
            SchemeId::DVM_PE_PLUS,
            SchemeId::SVA_PF,
            SchemeId::SVA_IOMMU,
        ],
        baseline: SchemeId::IDEAL,
        metric: Metric::Cycles,
        footer: &[
            "expected: SVA-Pf's next-page prefetch helps streaming workloads (CF)",
            "but wastes walker and DRAM bandwidth on random access, where it can",
            "even lose to plain 4K; SVA-IOMMU pays for its smaller 8-way IOTLB,",
            "which misses far more often than the 4K FA TLB (its context is",
            "fetched once per run).",
            "DVM-PE+ beats both by validating identity mappings, not translating.",
        ],
    }
    .run(&BenchArgs::parse());
}
