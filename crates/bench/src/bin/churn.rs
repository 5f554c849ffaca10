//! Multi-tenant churn: long-horizon fork/exec/exit time-series showing
//! identity-mapping decay under buddy-allocator fragmentation.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin churn [--scale smoke|quick|paper|full] [--jobs N]
//! ```
//!
//! The paper evaluates identity mapping on fresh address spaces; this
//! harness runs the regime a production system lives in — processes
//! arriving, CoW-forking, exec'ing and exiting for dozens of epochs while
//! the machine sits near its memory capacity. Each scheme configuration
//! is one simulation unit producing a whole trajectory; the JSON document
//! has one row per (config, epoch) in [`EpochGrid`] order.

use dvm_bench::{run_grid, BenchArgs, FigureJson, Json, Scale};
use dvm_core::{ChurnConfig, ChurnEpoch, EpochGrid, MapFlavor};
use dvm_os::churn;
use dvm_sim::Table;
use dvm_types::PageSize;

/// The scheme configurations compared, in column-group order.
const CONFIGS: [(&str, MapFlavor); 3] = [
    ("DVM-PE", MapFlavor::DvmPe),
    ("Paged-4K", MapFlavor::Paged(PageSize::Size4K)),
    ("Paged-2M", MapFlavor::Paged(PageSize::Size2M)),
];

/// The scenario at each scale (flavour is filled in per unit). `quick`
/// is the library default — the tuned 512 MiB scenario whose decay the
/// dvm-os unit tests pin.
fn scenario(scale: Scale) -> ChurnConfig {
    match scale {
        Scale::Smoke => ChurnConfig {
            mem_bytes: 128 << 20,
            epochs: 12,
            arrivals_per_epoch: 5,
            cow_fork_fraction: 0.4,
            mean_lifetime_epochs: 3,
            regions_per_proc: 2,
            min_region_bytes: 64 << 10,
            max_region_bytes: 2 << 20,
            ..ChurnConfig::default()
        },
        Scale::Quick => ChurnConfig::default(),
        Scale::Paper => ChurnConfig {
            mem_bytes: 2 << 30,
            epochs: 96,
            arrivals_per_epoch: 12,
            mean_lifetime_epochs: 8,
            max_region_bytes: 16 << 20,
            ..ChurnConfig::default()
        },
        Scale::Full => ChurnConfig {
            mem_bytes: 4 << 30,
            epochs: 192,
            arrivals_per_epoch: 16,
            mean_lifetime_epochs: 10,
            regions_per_proc: 4,
            max_region_bytes: 32 << 20,
            ..ChurnConfig::default()
        },
    }
}

fn rate_json(rate: Option<f64>) -> Json {
    rate.map_or(Json::Null, Json::Float)
}

fn main() {
    let args = BenchArgs::parse();
    args.reject_schemes("churn");
    let base = scenario(args.scale);
    println!(
        "Churn: identity-mapping decay over {} epochs of fork/exec/exit, \
         {} MiB machine, scale = {}\n",
        base.epochs,
        base.mem_bytes >> 20,
        args.scale.name()
    );

    let grid = EpochGrid::new(CONFIGS.iter().map(|(name, _)| *name), base.epochs);
    let labels: Vec<String> = grid.configs.clone();
    let series: Vec<Vec<ChurnEpoch>> = run_grid(&args, &labels, |i| {
        let config = ChurnConfig {
            flavor: CONFIGS[i].1,
            ..base
        };
        let result = churn::run(&config).expect("churn scenario failed");
        assert_eq!(
            result.leaked_frames, 0,
            "{}: frames leaked through the churn drain",
            CONFIGS[i].0
        );
        result.epochs
    });

    let columns = [
        "live_procs",
        "mmaps",
        "identity_rate",
        "identity_bytes_requested",
        "identity_bytes_padded",
        "demand_bytes",
        "cow_breaks",
        "oom_events",
        "free_frames",
        "free_runs",
        "largest_run",
        "sub_granule_runs",
    ];
    let mut fig = FigureJson::new("churn", args.scale.name(), &columns);
    for (c, e) in grid.rows() {
        let epoch = &series[c][e as usize];
        fig.row(
            &grid.row_label(c, e),
            vec![
                Json::UInt(epoch.live_procs),
                Json::UInt(epoch.mmaps()),
                rate_json(epoch.identity_rate()),
                Json::UInt(epoch.identity_bytes_requested),
                Json::UInt(epoch.identity_bytes_padded),
                Json::UInt(epoch.demand_bytes),
                Json::UInt(epoch.cow_breaks),
                Json::UInt(epoch.oom_events),
                Json::UInt(epoch.free_frames),
                Json::UInt(epoch.free_runs),
                Json::UInt(epoch.largest_run),
                Json::UInt(epoch.sub_granule_runs),
            ],
        );
    }
    // Pooled first-quarter vs last-quarter success rates: the decay
    // headline, per configuration.
    let n = base.epochs as usize;
    for ((name, _), epochs) in CONFIGS.iter().zip(&series) {
        let pooled = |range: std::ops::Range<usize>| {
            let maps: u64 = epochs[range.clone()].iter().map(|e| e.identity_maps).sum();
            let total: u64 = epochs[range].iter().map(ChurnEpoch::mmaps).sum();
            (total > 0).then(|| maps as f64 / total as f64)
        };
        fig.summary(
            &format!("{name}_identity_rate_early"),
            rate_json(pooled(0..n / 4)),
        );
        fig.summary(
            &format!("{name}_identity_rate_late"),
            rate_json(pooled(3 * n / 4..n)),
        );
    }
    args.emit_json(&fig);

    // Condensed text view: every config at a sample of epochs.
    let mut table = Table::new(&[
        "config",
        "epoch",
        "live",
        "id-rate",
        "free runs",
        "largest",
        "sub-gran",
        "cow",
        "oom",
    ]);
    let step = (n / 12).max(1);
    for (c, (name, _)) in CONFIGS.iter().enumerate() {
        for epoch in series[c]
            .iter()
            .filter(|e| (e.epoch as usize).is_multiple_of(step) || e.epoch as usize == n - 1)
        {
            table.row(&[
                name.to_string(),
                format!("{}", epoch.epoch),
                format!("{}", epoch.live_procs),
                epoch
                    .identity_rate()
                    .map_or_else(|| "n/a".to_string(), |r| format!("{r:.3}")),
                format!("{}", epoch.free_runs),
                format!("{}", epoch.largest_run),
                format!("{}", epoch.sub_granule_runs),
                format!("{}", epoch.cow_breaks),
                format!("{}", epoch.oom_events),
            ]);
        }
    }
    println!("{table}");
    for ((name, _), epochs) in CONFIGS.iter().zip(&series) {
        let early: u64 = epochs[..n / 4].iter().map(ChurnEpoch::mmaps).sum();
        let early_ok: u64 = epochs[..n / 4].iter().map(|e| e.identity_maps).sum();
        let late: u64 = epochs[3 * n / 4..].iter().map(ChurnEpoch::mmaps).sum();
        let late_ok: u64 = epochs[3 * n / 4..].iter().map(|e| e.identity_maps).sum();
        let show = |ok: u64, total: u64| {
            if total == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", 100.0 * ok as f64 / total as f64)
            }
        };
        println!(
            "{name}: identity success {} (first quarter) -> {} (last quarter)",
            show(early_ok, early),
            show(late_ok, late),
        );
    }
    println!("paper: not evaluated (the paper measures fresh address spaces only).");
}
