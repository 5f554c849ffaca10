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

use dvm_bench::{AccelFigure, BenchArgs};

fn main() {
    AccelFigure::Fig11.run(&BenchArgs::parse());
}
