//! Scheme and MMU refactors must not change what a scheme simulates.
//! Each fixture is a `--scale smoke --json` document recorded on the
//! tree before a refactor of the scheme or MMU code:
//!
//! - `fig8_smoke.json` before the closed-enum `MmuConfig` became the
//!   scheme trait (the seven paper schemes);
//! - `fig11_smoke.json` before the conventional baselines and both SVA
//!   rivals became rows of one TLB-backed scheme (SVA-Pf and SVA-IOMMU
//!   appear only in Fig. 11);
//! - `fig10_smoke.json` before the CPU MMU dropped its unread energy
//!   account (the only figure that runs the cDVM CPU path).
//!
//! Any divergence means a scheme's behaviour, not just its plumbing,
//! changed.

use std::path::Path;
use std::process::Command;

/// Run `bin --scale smoke --json OUT` and compare OUT with the fixture
/// byte for byte.
fn assert_reproduces_fixture(bin: &str, exe: &str, fixture: &str) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let expected = std::fs::read(&fixture).expect("fixture present");

    let dir = std::env::temp_dir().join(format!("dvm-refactor-eq-{bin}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join(format!("{bin}_smoke.json"));
    // Captured, so the figure's table stays out of the test log.
    let run = Command::new(exe)
        .args(["--scale", "smoke", "--json"])
        .arg(&out)
        .output()
        .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
    assert!(
        run.status.success(),
        "{bin} exited with {}: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );

    let produced = std::fs::read(&out).unwrap_or_else(|e| panic!("{bin} wrote the document: {e}"));
    assert!(
        produced == expected,
        "{bin} smoke document diverged from {} ({} vs {} bytes); a scheme's \
         simulated behaviour changed",
        fixture.display(),
        produced.len(),
        expected.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trait_dispatch_reproduces_the_pre_refactor_fig8_document() {
    assert_reproduces_fixture("fig8", env!("CARGO_BIN_EXE_fig8"), "fig8_smoke.json");
}

#[test]
fn tlb_scheme_rows_reproduce_the_pre_refactor_fig11_document() {
    assert_reproduces_fixture("fig11", env!("CARGO_BIN_EXE_fig11"), "fig11_smoke.json");
}

#[test]
fn cpu_mmu_without_energy_account_reproduces_the_fig10_document() {
    assert_reproduces_fixture("fig10", env!("CARGO_BIN_EXE_fig10"), "fig10_smoke.json");
}
