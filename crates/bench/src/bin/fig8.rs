//! Figure 8: accelerator execution time under each memory-management
//! scheme, normalized to the Ideal (direct physical access) run.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig8 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{BenchArgs, Metric, NormalizedFigure};
use dvm_core::SchemeId;

fn main() {
    // Ideal (== 1.0 by construction) is omitted as in the figure, but
    // always swept: every column normalizes to it.
    NormalizedFigure {
        experiment: "fig8",
        title: "Figure 8: execution time normalized to Ideal",
        defaults: &SchemeId::PAPER_SET,
        baseline: SchemeId::IDEAL,
        metric: Metric::Cycles,
        footer: &[
            "paper: 4K/2M ~2.2x/2.1x, DVM-BM ~1.23x, DVM-PE ~1.035x,",
            "DVM-PE+ ~1.017x, 1G near-ideal for these footprints.",
        ],
    }
    .run(&BenchArgs::parse());
}
