//! Conformance digests for `BuddyAllocator`'s observable behaviour.
//!
//! Seeded random sequences of every allocating and freeing entry point run
//! on machines of several sizes, including non-power-of-two tails. After
//! every operation the return value (errors included), `stats()`,
//! `free_span_histogram()`, `free_runs()` and the allocator's `Debug` text
//! are folded into one digest per machine size. The digests were recorded
//! from the B-tree allocator; any representation of the free lists and the
//! allocation map must reproduce them exactly, which pins the
//! lowest-address block choice every golden depends on.

use dvm_mem::{BuddyAllocator, FrameRange};
use dvm_sim::{fnv1a, DetRng};

/// Frames in each test machine: a single frame, a tiny odd machine, a
/// non-power-of-two one, a power of two, and a large one with a 5-frame
/// tail past its last order-14 block.
const TOTALS: [u64; 5] = [1, 7, 1000, 4096, 3 * (1 << 14) + 5];

/// Tracked allocations as the caller sees them: every piece the allocator
/// keeps in its allocation map, split the way `free_subrange` splits it.
struct Model {
    pieces: Vec<FrameRange>,
}

impl Model {
    fn remove(&mut self, start: u64, end: u64) {
        let mut kept = Vec::with_capacity(self.pieces.len() + 1);
        for p in self.pieces.drain(..) {
            if p.end() <= start || p.start >= end {
                kept.push(p);
                continue;
            }
            if p.start < start {
                kept.push(FrameRange {
                    start: p.start,
                    count: start - p.start,
                });
            }
            if end < p.end() {
                kept.push(FrameRange {
                    start: end,
                    count: p.end() - end,
                });
            }
        }
        kept.sort_unstable_by_key(|p| p.start);
        self.pieces = kept;
    }

    fn add(&mut self, r: FrameRange) {
        let at = self.pieces.partition_point(|p| p.start < r.start);
        self.pieces.insert(at, r);
    }
}

/// A request size in `1..=total`, log-uniform in its bit length so small
/// and machine-sized requests both occur.
fn request(rng: &mut DetRng, total: u64) -> u64 {
    let bits = 64 - total.leading_zeros() as u64;
    let cap = (1u64 << rng.below(bits + 1)).min(total);
    rng.range(1, cap + 1)
}

/// Run `ops` random operations on a fresh `total`-frame machine and return
/// the digest of everything observable after each of them.
fn digest(total: u64, seed: u64, ops: u32) -> u64 {
    let mut rng = DetRng::new(seed);
    let mut b = BuddyAllocator::new(total);
    let mut model = Model { pieces: Vec::new() };
    let mut h = fnv1a(format!("{b:?}").as_bytes());
    for op in 0..ops {
        let ret = match rng.below(8) {
            0 | 1 => {
                let r = b.alloc_frames(request(&mut rng, total));
                if let Ok(r) = r {
                    model.add(r);
                }
                format!("alloc {r:?}")
            }
            2 => {
                let align = 1u64 << rng.below(10);
                let r = b.alloc_frames_first_fit(request(&mut rng, total), align);
                if let Ok(r) = r {
                    model.add(r);
                }
                format!("first_fit {align} {r:?}")
            }
            3 => {
                let frame = rng.below(total + 2);
                let got = b.alloc_specific_frame(frame);
                if got {
                    model.add(FrameRange {
                        start: frame,
                        count: 1,
                    });
                }
                format!("specific {frame} {got}")
            }
            4 if !model.pieces.is_empty() => {
                let r = model.pieces[rng.below(model.pieces.len() as u64) as usize];
                b.free_frames(r);
                model.remove(r.start, r.end());
                format!("free {r:?}")
            }
            5 | 6 if !model.pieces.is_empty() => {
                // A run that starts inside one piece and, half the time at
                // each seam, continues into the adjacent piece.
                let mut i = rng.below(model.pieces.len() as u64) as usize;
                let p = model.pieces[i];
                let start = p.start + rng.below(p.count);
                let mut end = start + rng.range(1, p.end() - start + 1);
                while end == model.pieces[i].end()
                    && i + 1 < model.pieces.len()
                    && model.pieces[i + 1].start == end
                    && rng.chance(0.5)
                {
                    i += 1;
                    end = model.pieces[i].start + rng.range(1, model.pieces[i].count + 1);
                }
                let r = FrameRange {
                    start,
                    count: end - start,
                };
                b.free_subrange(r);
                model.remove(start, end);
                format!("free_subrange {r:?}")
            }
            _ => {
                // Half the probes start inside a tracked piece and may run
                // one frame past it (or past the machine); the rest are
                // arbitrary ranges.
                let r = if !model.pieces.is_empty() && rng.chance(0.5) {
                    let p = model.pieces[rng.below(model.pieces.len() as u64) as usize];
                    let start = p.start + rng.below(p.count);
                    let count = rng.range(1, p.end() - start + 2);
                    FrameRange { start, count }
                } else {
                    let start = rng.below(total);
                    let count = rng.range(1, total - start + 1);
                    FrameRange { start, count }
                };
                format!("is_allocated {r:?} {}", b.is_allocated(r))
            }
        };
        let line = format!(
            "{h:016x} {op} {ret} {:?} {:?} {:?} {b:?}",
            b.stats(),
            b.free_span_histogram(),
            b.free_runs()
        );
        h = fnv1a(line.as_bytes());
    }
    // Drain: every remaining piece back, then the machine is one run.
    for r in std::mem::take(&mut model.pieces) {
        b.free_frames(r);
    }
    assert_eq!(b.free_frames_count(), total, "seed {seed}: drain");
    assert_eq!(
        b.free_runs(),
        vec![FrameRange {
            start: 0,
            count: total
        }],
        "seed {seed}: drain"
    );
    fnv1a(format!("{h:016x} {b:?}").as_bytes())
}

#[test]
fn allocator_behaviour_is_pinned() {
    let digests: Vec<u64> = TOTALS
        .iter()
        .map(|&total| {
            let per_seed: Vec<u64> = (0..6u64)
                .map(|seed| digest(total, seed ^ total.rotate_left(17), 500))
                .collect();
            fnv1a(format!("{per_seed:?}").as_bytes())
        })
        .collect();
    assert_eq!(
        digests,
        [
            0x6df7_c766_c625_a329,
            0xd099_f605_ac90_9db9,
            0x397f_f09d_d848_ba42,
            0x2ae3_1692_5ae4_c2ea,
            0xfbcd_e489_bbba_7b56,
        ],
        "allocator behaviour changed"
    );
}
