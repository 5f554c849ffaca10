//! Bench binaries end to end: a `--jobs 2` run produces byte-identical
//! stdout and `--json` output to a serial run, and a warm dataset cache
//! skips generation.

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
fn second_cached_run_skips_generation() {
    let exe = env!("CARGO_BIN_EXE_table3");
    let dir = scratch("cache-counts");
    let cache = dir.join("cache");
    let args = [
        "--scale",
        "smoke",
        "--datasets",
        "FR,NF",
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let first = run(exe, &args);
    let second = run(exe, &args);
    let stderr_of = |o: &Output| String::from_utf8_lossy(&o.stderr).to_string();
    assert!(
        stderr_of(&first).contains("hits=0 misses=2"),
        "first run should generate both datasets: {}",
        stderr_of(&first)
    );
    assert!(
        stderr_of(&second).contains("hits=2 misses=0"),
        "second run should hit the cache twice: {}",
        stderr_of(&second)
    );
    assert_eq!(first.stdout, second.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}
