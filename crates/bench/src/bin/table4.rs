//! Table 4: percentage of system memory successfully allocated with
//! identity mapping under shbench churn, for 16/32/64 GiB machines.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin table4 [--scale smoke|quick|paper|full] [--jobs N]
//! ```
//!
//! `smoke`/`quick` use 4/8/16 GiB machines; `paper`/`full` the published
//! 16/32/64 GiB.

use dvm_bench::{run_grid, BenchArgs, FigureJson, Json, Scale};
use dvm_core::{MachineConfig, Os, OsConfig, ShbenchConfig};
use dvm_os::shbench;
use dvm_sim::Table;

type Experiment = (&'static str, fn() -> ShbenchConfig);

fn main() {
    let args = BenchArgs::parse();
    args.reject_schemes("table4");
    let gib: &[u64] = match args.scale {
        Scale::Smoke | Scale::Quick => &[4, 8, 16],
        _ => &[16, 32, 64],
    };
    println!(
        "Table 4: % of memory identity-mapped at first failure (shbench), scale = {}\n",
        args.scale.name()
    );
    let experiments: [Experiment; 3] = [
        ("expt 1 (small)", ShbenchConfig::experiment1),
        ("expt 2 (large)", ShbenchConfig::experiment2),
        ("expt 3 (4x large)", ShbenchConfig::experiment3),
    ];
    // Every (machine size, experiment) cell builds its own OS, so the
    // grid is shared-nothing and runs on the grid runner.
    let units: Vec<(u64, usize)> = gib
        .iter()
        .flat_map(|&g| (0..experiments.len()).map(move |e| (g, e)))
        .collect();
    let labels: Vec<String> = units
        .iter()
        .map(|&(g, e)| format!("{g}GB/{}", experiments[e].0))
        .collect();
    let percents: Vec<f64> = run_grid(&args, &labels, |i| {
        let (g, e) = units[i];
        let mut os = Os::new(OsConfig {
            machine: MachineConfig { mem_bytes: g << 30 },
            ..OsConfig::default()
        });
        let result = shbench::run(&mut os, experiments[e].1()).expect("shbench failed");
        result.identity_percent()
    });

    let columns: Vec<&str> = experiments.iter().map(|(name, _)| *name).collect();
    let mut table = Table::new(
        &std::iter::once("system memory")
            .chain(columns.iter().copied())
            .collect::<Vec<_>>(),
    );
    let mut fig = FigureJson::new("table4", args.scale.name(), &columns);
    for (i, &g) in gib.iter().enumerate() {
        let label = format!("{g} GB");
        let cells = &percents[i * experiments.len()..(i + 1) * experiments.len()];
        let mut row = vec![label.clone()];
        row.extend(cells.iter().map(|p| format!("{p:.0}%")));
        table.row(&row);
        fig.row(&label, cells.iter().map(|&p| Json::Float(p)).collect());
    }
    args.emit_json(&fig);
    println!("{table}");
    println!("paper: 95-97% across all cells.");
}
