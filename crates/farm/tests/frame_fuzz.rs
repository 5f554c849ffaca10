//! Seeded corruption of farm frames: bit flips, truncations and lying
//! length prefixes fed to `read_frame` must end in `Err` — every frame
//! decoded before the error identical to the one that was sent — with
//! no panic, no hang, and no allocation sized by a length prefix rather
//! than by the bytes that actually arrived.
//!
//! This file is its own test binary so that the counting allocator
//! below sees only the decoder's allocations.

use dvm_farm::proto::{read_frame, write_frame, Frame, MAX_FRAME};
use dvm_sim::DetRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, remembering the largest request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added work is an
// atomic update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass straight on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// The frames of a short farm conversation: handshake, a job, progress
/// and a fragment-sized body.
fn conversation() -> Vec<Frame> {
    let fragment: Vec<u8> = (0..6000u32)
        .flat_map(|i| format!("{{\"index\": {i}}},").into_bytes())
        .collect();
    [
        ("HELLO dvmfarm/2 worker w1", &b""[..]),
        ("RUN 1 0 2 fig2", b"--scale\nsmoke\n--jobs\n1"),
        ("PROG 1 0", b"progress: shard 0/2 1/2 (BFS/FR 4K)"),
        ("DONE 1 0", &fragment),
        ("READY", b""),
    ]
    .into_iter()
    .map(|(header, body)| Frame {
        header: header.to_string(),
        body: body.to_vec(),
    })
    .collect()
}

/// Decode frames until the first error; every frame before it must be
/// the one sent at that position. Returns the largest allocation made.
fn decode_checked(wire: &[u8], sent: &[Frame], case: &str) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    let mut r = wire;
    let mut got = Vec::new();
    while let Ok(frame) = read_frame(&mut r) {
        got.push(frame);
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(got.len() <= sent.len(), "{case}: decoded extra frames");
    for (i, (got, sent)) in got.iter().zip(sent).enumerate() {
        assert!(
            got == sent,
            "{case}: frame {i} decoded to a different value"
        );
    }
    largest
}

#[test]
fn corrupted_frames_decode_to_err_or_the_frames_sent() {
    let sent = conversation();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for frame in &sent {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame.header, &frame.body).unwrap();
        frames.push(wire);
    }
    let wire = frames.concat();
    // The intact conversation decodes completely.
    let mut r = &wire[..];
    for frame in &sent {
        assert_eq!(&read_frame(&mut r).unwrap(), frame);
    }
    assert!(r.is_empty());

    // Whatever the corruption, nothing allocated may exceed a small
    // multiple of the bytes on the wire (a lying prefix of up to
    // MAX_FRAME must not reserve MAX_FRAME bytes).
    let bound = 4 * wire.len() + 4096;
    assert!(bound < MAX_FRAME);
    for seed in 0..3000u64 {
        let mut rng = DetRng::new(seed);
        let (case, corrupt) = match seed % 3 {
            0 => {
                let mut bytes = wire.clone();
                for _ in 0..=rng.below(3) {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << rng.below(8);
                }
                (format!("seed {seed}: bit flips"), bytes)
            }
            1 => {
                let len = rng.below(wire.len() as u64) as usize;
                (
                    format!("seed {seed}: truncated to {len}"),
                    wire[..len].to_vec(),
                )
            }
            _ => {
                // Rewrite one frame's length prefix with a lie: near the
                // truth, anywhere in range, or exactly the cap.
                let victim = rng.below(frames.len() as u64) as usize;
                let frame = &frames[victim];
                let space = frame.iter().position(|&b| b == b' ').unwrap();
                let truth: u64 = std::str::from_utf8(&frame[..space])
                    .unwrap()
                    .parse()
                    .unwrap();
                let lie = match rng.below(3) {
                    0 => (truth + rng.range(1, 64))
                        .saturating_sub(rng.below(128))
                        .max(1),
                    1 => rng.range(1, MAX_FRAME as u64 + 1),
                    _ => MAX_FRAME as u64,
                };
                if lie == truth {
                    continue;
                }
                let mut lying = frames[..victim].concat();
                lying.extend_from_slice(lie.to_string().as_bytes());
                lying.extend_from_slice(&frame[space..]);
                lying.extend(frames[victim + 1..].concat());
                (
                    format!("seed {seed}: frame {victim} claims {lie} bytes"),
                    lying,
                )
            }
        };
        let largest = decode_checked(&corrupt, &sent, &case);
        assert!(largest <= bound, "{case}: allocated {largest} bytes");
    }
}
