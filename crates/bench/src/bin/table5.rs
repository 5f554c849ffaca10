//! Table 5: the paper reports lines of code changed in Linux v4.10 per
//! affected feature. Our reproduction implements the whole OS substrate
//! from scratch, so the analogous accounting is the size of each module
//! implementing those features; this binary counts them from the source
//! tree and prints both side by side.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin table5 [--json PATH]
//! ```

use dvm_bench::{run_grid, BenchArgs, FigureJson, Json};
use dvm_sim::Table;
use std::path::Path;

/// Count non-blank, non-comment-only lines in a source file.
fn loc(path: &Path) -> u64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!"))
        .count() as u64
}

fn main() {
    let args = BenchArgs::parse();
    args.reject_schemes("table5");
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = manifest.parent().expect("crates dir");
    println!("Table 5: implementation size per affected feature\n");
    println!("(The paper patched Linux; we built the substrate from scratch, so");
    println!("our column is the size of the module implementing each feature.)\n");

    let rows: &[(&str, u64, &[&str])] = &[
        (
            "Heap / memory-mapped segments (identity mapping, Fig. 7)",
            56 + 1,
            &["os/src/os.rs"],
        ),
        (
            "Address-space layout (flexible VMAs, ASLR)",
            39 + 63, // paper: code segment + stack segment
            &["os/src/process.rs"],
        ),
        (
            "Page tables (Permission Entries)",
            78,
            &["pagetable/src/entry.rs", "pagetable/src/table.rs"],
        ),
        (
            "User allocator (glibc malloc via mmap)",
            0, // the paper counts only kernel lines
            &["os/src/malloc.rs"],
        ),
        (
            "Miscellaneous (bitmap DAV support, fragmentation stress)",
            15,
            &["pagetable/src/bitmap.rs", "os/src/shbench.rs"],
        ),
    ];
    let labels: Vec<String> = rows
        .iter()
        .map(|(feature, _, _)| feature.to_string())
        .collect();
    let ours_counts: Vec<u64> = run_grid(&args, &labels, |i| {
        rows[i].2.iter().map(|f| loc(&crates.join(f))).sum::<u64>()
    });

    let mut table = Table::new(&["feature", "paper (Linux LoC)", "this repo (Rust LoC)"]);
    let mut fig = FigureJson::new(
        "table5",
        args.scale.name(),
        &["paper (Linux LoC)", "this repo (Rust LoC)"],
    );
    let mut paper_total = 0u64;
    let mut ours_total = 0u64;
    for ((feature, paper_loc, _), &ours) in rows.iter().zip(&ours_counts) {
        paper_total += paper_loc;
        ours_total += ours;
        table.row(&[
            (*feature).into(),
            if *paper_loc == 0 {
                "(userspace)".into()
            } else {
                paper_loc.to_string()
            },
            ours.to_string(),
        ]);
        fig.row(feature, vec![Json::UInt(*paper_loc), Json::UInt(ours)]);
    }
    table.row(&[
        "total".into(),
        paper_total.to_string(),
        ours_total.to_string(),
    ]);
    fig.summary(
        "total",
        Json::Arr(vec![Json::UInt(paper_total), Json::UInt(ours_total)]),
    );
    args.emit_json(&fig);
    println!("{table}");
    println!("paper total: 252 lines changed in Linux v4.10 (Table 5).");
}
