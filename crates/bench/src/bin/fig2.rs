//! Figure 2: TLB miss rates for the graph workloads with a 128-entry
//! fully associative TLB, 4 KiB vs 2 MiB pages.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig2 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{AccelFigure, BenchArgs};

fn main() {
    AccelFigure::Fig2.run(&BenchArgs::parse());
}
