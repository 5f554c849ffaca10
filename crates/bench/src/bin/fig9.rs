//! Figure 9: dynamic energy spent in address translation / access
//! validation, normalized to the 4K TLB+PWC baseline.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig9 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{BenchArgs, Metric, NormalizedFigure};
use dvm_core::SchemeId;

fn main() {
    // The figure shows 2M, 1G, DVM-BM, DVM-PE, DVM-PE+ relative to 4K
    // (Ideal spends nothing and is omitted); the 4K baseline is always
    // swept even when filtered out of the columns.
    NormalizedFigure {
        experiment: "fig9",
        title: "Figure 9: dynamic MM energy normalized to 4K,TLB+PWC",
        defaults: &SchemeId::PAPER_SET,
        baseline: SchemeId::CONV_4K,
        metric: Metric::MmEnergy,
        footer: &[
            "paper: DVM-PE uses ~0.24x the 4K baseline's dynamic energy",
            "(3.9x less than 2M); DVM-BM ~0.85x; 1G low due to few misses.",
        ],
    }
    .run(&BenchArgs::parse());
}
