//! Table 3: the evaluation datasets — published properties and the
//! synthetic stand-ins generated at the selected scale.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin table3 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{run_grid, BenchArgs, FigureJson, Json};
use dvm_core::Dataset;
use dvm_sim::Table;

fn main() {
    let args = BenchArgs::parse();
    args.reject_schemes("table3");
    println!(
        "Table 3: graph datasets (published vs generated stand-ins), scale = {}\n",
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
    // Generation is the entire cost of this table; fan it out.
    let generated: Vec<[u64; 3]> = run_grid(&args, &labels, |i| {
        let dataset = datasets[i];
        let graph = dataset.generate(args.scale.divisor(dataset));
        [
            u64::from(graph.num_vertices()),
            graph.num_edges(),
            graph.footprint_bytes(),
        ]
    });

    let columns = [
        "paper |V|",
        "paper |E|",
        "paper heap",
        "gen div",
        "gen |V|",
        "gen |E|",
        "gen heap (MB)",
    ];
    let mut table = Table::new(&std::iter::once("graph").chain(columns).collect::<Vec<_>>());
    let mut fig = FigureJson::new("table3", args.scale.name(), &columns);
    for (dataset, &[vertices, edges, footprint]) in datasets.iter().zip(&generated) {
        let spec = dataset.spec();
        let div = args.scale.divisor(*dataset);
        table.row(&[
            dataset.short_name().into(),
            format!("{:.2}M", spec.vertices as f64 / 1e6),
            format!("{:.2}M", spec.edges as f64 / 1e6),
            format!("{:.2} GB", spec.heap_mib as f64 / 1024.0),
            format!("1/{div}"),
            format!("{:.2}M", vertices as f64 / 1e6),
            format!("{:.2}M", edges as f64 / 1e6),
            format!("{}", footprint >> 20),
        ]);
        fig.row(
            dataset.short_name(),
            vec![
                Json::UInt(spec.vertices),
                Json::UInt(spec.edges),
                Json::UInt(spec.heap_mib),
                Json::UInt(u64::from(div)),
                Json::UInt(vertices),
                Json::UInt(edges),
                Json::UInt(footprint),
            ],
        );
    }
    args.emit_json(&fig);
    println!("{table}");
}
