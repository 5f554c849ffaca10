//! Bench binaries end to end: a `--jobs 2` run produces byte-identical
//! stdout and `--json` output to a serial run, `accelfigs` writes what
//! the four accelerator-grid figure binaries print, and `resultdiff`
//! exits 0, 1 or 2 as documented.

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
fn accelfigs_matches_the_standalone_bins() {
    // One union sweep must render each figure exactly as its own binary
    // does from a sweep of its own schemes: same text, same JSON, down to
    // the per-scheme reports embedded in every row.
    let dir = scratch("accelfigs");
    // FR alone: three workloads, and CF's long feature rows would make
    // this test several times slower.
    let grid = ["--scale", "smoke", "--datasets", "FR"];
    run(
        env!("CARGO_BIN_EXE_accelfigs"),
        &[&[dir.to_str().unwrap()], &grid[..], &["--jobs", "2"]].concat(),
    );
    for (fig, exe) in [
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("fig2", env!("CARGO_BIN_EXE_fig2")),
        ("fig9", env!("CARGO_BIN_EXE_fig9")),
        ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ] {
        let json = dir.join(format!("{fig}_alone.json"));
        let alone = run(
            exe,
            &[&grid[..], &["--json", json.to_str().unwrap()]].concat(),
        );
        let written = dir.join(format!("{fig}_smoke.txt"));
        assert_eq!(
            read(&written),
            String::from_utf8(alone.stdout).unwrap(),
            "{fig} text"
        );
        assert_eq!(
            read(&written.with_extension("json")),
            read(&json),
            "{fig} JSON"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `resultdiff` on two documents and return its exit code.
fn resultdiff(golden: &Path, fresh: &Path) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_resultdiff"))
        .args([golden, fresh])
        .output()
        .expect("resultdiff ran")
        .status
        .code()
        .expect("resultdiff exited")
}

#[test]
fn resultdiff_exits_0_on_agreement_1_on_drift_and_2_on_bad_input() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let golden = fixtures.join("fig8_smoke.json");
    let text = read(&golden);
    let dir = scratch("resultdiff");
    let write = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    };

    assert_eq!(resultdiff(&golden, &write("same.json", text.as_bytes())), 0);

    // One changed value: the first report's cycle count, plus one.
    let at = text.find("\"cycles\": ").expect("fixture has cycles") + "\"cycles\": ".len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let cycles: u64 = text[at..end].parse().unwrap();
    let drifted = format!("{}{}{}", &text[..at], cycles + 1, &text[end..]);
    assert_eq!(
        resultdiff(&golden, &write("drift.json", drifted.as_bytes())),
        1
    );

    let truncated = write("truncated.json", &text.as_bytes()[..text.len() / 2]);
    let mut bytes = text.clone().into_bytes();
    bytes[text.len() / 2] = 0xff;
    let not_utf8 = write("not_utf8.json", &bytes);
    for (fresh, what) in [
        (dir.join("missing.json"), "missing file"),
        (truncated, "truncated file"),
        (not_utf8, "non-UTF-8 bytes"),
        (fixtures.join("fig11_smoke.json"), "experiment mismatch"),
    ] {
        assert_eq!(resultdiff(&golden, &fresh), 2, "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
