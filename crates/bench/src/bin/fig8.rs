//! Figure 8: accelerator execution time under each memory-management
//! scheme, normalized to the Ideal (direct physical access) run.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig8 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{AccelFigure, BenchArgs};

fn main() {
    AccelFigure::Fig8.run(&BenchArgs::parse());
}
