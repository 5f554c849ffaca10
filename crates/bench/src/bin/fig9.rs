//! Figure 9: dynamic energy spent in address translation / access
//! validation, normalized to the 4K TLB+PWC baseline.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig9 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{AccelFigure, BenchArgs};

fn main() {
    AccelFigure::Fig9.run(&BenchArgs::parse());
}
