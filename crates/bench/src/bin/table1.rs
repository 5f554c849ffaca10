//! Table 1: page-table sizes for PageRank and CF, with and without
//! Permission Entries.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin table1 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{run_grid, BenchArgs, FigureJson, Json};
use dvm_core::{page_table_study, Dataset, PageTableStudy, Workload};
use dvm_sim::Table;

fn main() {
    let args = BenchArgs::parse();
    args.reject_schemes("table1");
    println!(
        "Table 1: page-table sizes (PageRank for graph inputs, CF for bipartite), scale = {}\n",
        args.scale.name()
    );
    let datasets: Vec<Dataset> = Dataset::ALL
        .into_iter()
        .filter(|&d| args.wants(d))
        .collect();
    let labels: Vec<String> = datasets
        .iter()
        .map(|d| d.short_name().to_string())
        .collect();
    let studies: Vec<PageTableStudy> = run_grid(&args, &labels, |i| {
        let dataset = datasets[i];
        let workload = if dataset.is_bipartite() {
            Workload::Cf {
                iterations: 1,
                features: 8,
            }
        } else {
            Workload::PageRank { iterations: 1 }
        };
        let graph = dataset.generate(args.scale.divisor(dataset));
        page_table_study(&graph, &workload).expect("study failed")
    });

    let columns = [
        "heap (MB)",
        "page tables (KB)",
        "% L1PTEs",
        "with PEs (KB)",
        "reduction",
    ];
    let mut table = Table::new(&std::iter::once("input").chain(columns).collect::<Vec<_>>());
    let mut fig = FigureJson::new("table1", args.scale.name(), &columns);
    for (dataset, study) in datasets.iter().zip(&studies) {
        let reduction = study.conventional_kb() as f64 / study.pe_kb().max(1) as f64;
        table.row(&[
            dataset.short_name().into(),
            format!("{}", study.heap_bytes >> 20),
            format!("{}", study.conventional_kb()),
            format!("{:.1}%", study.l1_fraction() * 100.0),
            format!("{}", study.pe_kb()),
            format!("{reduction:.0}x"),
        ]);
        fig.row(
            dataset.short_name(),
            vec![
                Json::UInt(study.heap_bytes >> 20),
                Json::UInt(study.conventional_kb()),
                Json::Float(study.l1_fraction()),
                Json::UInt(study.pe_kb()),
                Json::Float(reduction),
            ],
        );
    }
    args.emit_json(&fig);
    println!("{table}");
    println!("paper: 616-13340 KB conventional, ~98-99% L1PTEs, 48-68 KB with PEs.");
}
