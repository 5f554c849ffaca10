//! The sharding contract, end to end over real binaries: an N-shard run
//! on a loopback farm (`--shards N`) produces byte-identical stdout and
//! `--json` output to a serial run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvm-shard-merge-{tag}-{}", std::process::id()));
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
fn fig2_sharded_runs_match_serial_byte_for_byte() {
    let exe = env!("CARGO_BIN_EXE_fig2");
    let dir = scratch("fig2");
    let serial_json = dir.join("serial.json");
    let serial = run(
        exe,
        &[
            "--scale",
            "smoke",
            "--jobs",
            "1",
            "--json",
            serial_json.to_str().unwrap(),
        ],
    );

    let cache = dir.join("cache");
    for shards in [2, 3] {
        let sharded_json = dir.join(format!("sharded{shards}.json"));
        let child = Command::new(exe)
            .args([
                "--scale",
                "smoke",
                "--jobs",
                "1",
                "--shards",
                &shards.to_string(),
                "--progress",
                "--cache-dir",
                cache.to_str().unwrap(),
                "--json",
                sharded_json.to_str().unwrap(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary ran");
        let sharded = child.wait_with_output().expect("binary finished");
        let stderr = String::from_utf8_lossy(&sharded.stderr);
        assert!(
            sharded.status.success(),
            "--shards {shards} failed:\n{stderr}"
        );
        assert_eq!(
            serial.stdout, sharded.stdout,
            "stdout of --shards {shards} differs from serial"
        );
        assert_eq!(
            read(&serial_json),
            read(&sharded_json),
            "--json of --shards {shards} differs from serial"
        );
        // Each slice reports its own cache counters (reproduce_all.sh
        // sums them), and the per-slice progress streams arrive as one
        // ordered global count over the whole grid. The first run's
        // workers race to fill the empty shared cache dir; none may ever
        // load a torn entry.
        let cache_lines: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("dataset-cache:"))
            .collect();
        assert_eq!(cache_lines.len(), shards, "stderr:\n{stderr}");
        for line in cache_lines {
            assert!(line.contains("rejected=0"), "torn entry loaded: {line}");
        }
        let counts: Vec<&str> = stderr
            .lines()
            .filter_map(|l| l.strip_prefix("progress: ")?.split(' ').next())
            .collect();
        let total = counts.len();
        let want: Vec<String> = (1..=total).map(|done| format!("{done}/{total}")).collect();
        assert_eq!(counts, want, "stderr:\n{stderr}");
        // No slice process outlives the run.
        assert!(
            !any_process_mentions(cache.to_str().unwrap()),
            "slice processes outlived --shards {shards}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whether a live process's command line mentions `needle` (never,
/// where `/proc` is unavailable).
fn any_process_mentions(needle: &str) -> bool {
    std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .any(|e| {
            std::fs::read(e.path().join("cmdline"))
                .is_ok_and(|cmd| String::from_utf8_lossy(&cmd).contains(needle))
        })
}

#[test]
fn grid_binary_shards_match_serial_byte_for_byte() {
    // virt runs the non-sweep grid path (run_grid); it has no datasets,
    // so it is the cheapest end-to-end check of that runner.
    let exe = env!("CARGO_BIN_EXE_virt");
    let dir = scratch("virt");
    let serial_json = dir.join("serial.json");
    let serial = run(exe, &["--json", serial_json.to_str().unwrap()]);
    let sharded_json = dir.join("sharded.json");
    let sharded = run(
        exe,
        &["--shards", "2", "--json", sharded_json.to_str().unwrap()],
    );
    assert_eq!(serial.stdout, sharded.stdout);
    assert_eq!(read(&serial_json), read(&sharded_json));
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
