//! The sweep engine's contract: results are identical — bit for bit —
//! regardless of how many worker threads execute the grid. The bench
//! binaries rely on this to keep `--jobs N` output byte-identical to a
//! serial run.

use dvm_core::{SchemeId, SweepRunner, SweepSpec, Workload};
use dvm_graph::Dataset;

fn small_spec() -> SweepSpec {
    // Two datasets at a heavy divisor keep this fast while still
    // exercising graph sharing across schemes and multiple cells.
    SweepSpec::for_pairs(
        vec![
            (Workload::Bfs { root: 0 }, Dataset::Flickr),
            (Workload::PageRank { iterations: 1 }, Dataset::Flickr),
            (Workload::Bfs { root: 0 }, Dataset::Rmat24),
        ],
        &[SchemeId::CONV_4K, SchemeId::DVM_BM, SchemeId::IDEAL],
        |_| 1024,
    )
}

#[test]
fn parallel_sweep_matches_serial_bit_for_bit() {
    let spec = small_spec();
    let serial = SweepRunner::new(&spec).run().expect("serial sweep");
    let parallel = SweepRunner::new(&spec)
        .jobs(4)
        .run()
        .expect("parallel sweep");
    assert_eq!(serial.len(), parallel.len());
    // GraphRunReport has no Eq impl (it carries floats), so compare the
    // full Debug rendering — any field diverging shows up here.
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(format!("{s:?}"), format!("{p:?}"));
    }
}

#[test]
fn repeated_serial_sweeps_are_stable() {
    let spec = small_spec();
    let a = SweepRunner::new(&spec).run().expect("first run");
    let b = SweepRunner::new(&spec).run().expect("second run");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
