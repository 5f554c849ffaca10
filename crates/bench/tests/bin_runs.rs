//! Bench binaries end to end: a `--jobs 2` run produces byte-identical
//! stdout and `--json` output to a serial run, and Figure 2 run after
//! Figure 8 replays every unit from their shared report cache.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvm-bin-runs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(exe: &str, args: &[&str]) -> Output {
    let output = Command::new(exe).args(args).output().expect("binary ran");
    assert!(
        output.status.success(),
        "{exe} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn grid_binary_jobs_match_serial_byte_for_byte() {
    // virt runs the non-sweep grid path (run_grid); it has no datasets,
    // so it is the cheapest end-to-end check of that runner's threads.
    let exe = env!("CARGO_BIN_EXE_virt");
    let dir = scratch("virt");
    let serial_json = dir.join("serial.json");
    let serial = run(exe, &["--json", serial_json.to_str().unwrap()]);
    let threaded_json = dir.join("jobs2.json");
    let threaded = run(
        exe,
        &["--jobs", "2", "--json", threaded_json.to_str().unwrap()],
    );
    assert_eq!(serial.stdout, threaded.stdout);
    assert_eq!(read(&serial_json), read(&threaded_json));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig2_after_fig8_replays_every_unit_from_the_report_cache() {
    // reproduce_all.sh runs fig8 before fig2 on one report cache: fig2's
    // (4K, 2M) units are a subset of fig8's, so fig2 simulates (and
    // generates) nothing, and its output equals an uncached run's.
    let dir = scratch("fig2-replay");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (cache, fig8_json, replay_json, plain_json) = (
        path("report-cache"),
        path("fig8.json"),
        path("fig2_replay.json"),
        path("fig2_plain.json"),
    );
    // FR alone: three workloads, and CF's long feature rows would make
    // this debug-build test several times slower.
    let grid = ["--scale", "smoke", "--datasets", "FR"];
    let fig2 = env!("CARGO_BIN_EXE_fig2");
    run(
        env!("CARGO_BIN_EXE_fig8"),
        &[
            &grid[..],
            &[
                "--jobs",
                "2",
                "--report-cache",
                &cache,
                "--json",
                &fig8_json,
            ],
        ]
        .concat(),
    );
    let replay = run(
        fig2,
        &[
            &grid[..],
            &["--report-cache", &cache, "--json", &replay_json],
        ]
        .concat(),
    );
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert!(
        stderr.contains("report-cache: hits=") && stderr.contains(" misses=0 "),
        "fig2 should replay every unit: {stderr}"
    );
    let plain = run(fig2, &[&grid[..], &["--json", &plain_json]].concat());
    assert_eq!(replay.stdout, plain.stdout);
    assert_eq!(read(Path::new(&replay_json)), read(Path::new(&plain_json)));
    let _ = std::fs::remove_dir_all(&dir);
}
