//! Sparse, byte-addressable simulated physical memory.
//!
//! Frames are materialized lazily on first write, and the frame table
//! grows only up to the highest frame written, so a simulated 32 GiB
//! machine costs host memory proportional to the bytes actually touched.
//! Reads from never-written frames observe zeros, matching an OS that
//! hands out zeroed pages.

use dvm_types::{PhysAddr, PAGE_SHIFT, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};

const FRAME_BYTES: usize = PAGE_SIZE as usize;

type Frame = Box<[u8; FRAME_BYTES]>;

/// Source of globally unique page-table generation numbers. A single
/// process-wide counter (rather than per-`PhysMem` counters) guarantees a
/// memo tagged with one memory's generation can never accidentally match
/// another instance's. The values feed equality checks only — never any
/// simulated output — so allocation order across threads is irrelevant.
static PT_GEN: AtomicU64 = AtomicU64::new(1);

fn next_pt_gen() -> u64 {
    PT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// Byte-addressable physical memory backed by lazily allocated 4 KiB frames.
///
/// # Examples
///
/// ```
/// use dvm_mem::PhysMem;
/// use dvm_types::PhysAddr;
/// let mut mem = PhysMem::new(16);
/// assert_eq!(mem.read_u32(PhysAddr::new(0x40)), 0); // zero page
/// mem.write_u32(PhysAddr::new(0x40), 7);
/// assert_eq!(mem.read_u32(PhysAddr::new(0x40)), 7);
/// ```
#[derive(Debug)]
pub struct PhysMem {
    /// Frames `[0, frames.len())`; grown on first write up to the highest
    /// frame written. A frame past its end reads as zero.
    frames: Vec<Option<Frame>>,
    total_frames: u64,
    resident: u64,
    pt_gen: u64,
}

impl PhysMem {
    /// Create memory with `total_frames` 4 KiB frames, all zero.
    pub fn new(total_frames: u64) -> Self {
        Self {
            frames: Vec::new(),
            total_frames,
            resident: 0,
            pt_gen: next_pt_gen(),
        }
    }

    /// Number of frames this memory can hold.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Number of frames actually materialized (host-memory footprint).
    pub fn resident_frames(&self) -> u64 {
        self.resident
    }

    /// Generation tag of the page tables stored in this memory. Any walk
    /// cached outside the page tables (the IOMMU's walk memo in
    /// `dvm-mmu`) is valid only while this value is unchanged.
    #[inline]
    pub fn pt_gen(&self) -> u64 {
        self.pt_gen
    }

    /// Record that a page-table entry stored in this memory was mutated
    /// (or a table frame freed), invalidating every memoized translation.
    /// Called by `dvm-pagetable` on each structural update.
    #[inline]
    pub fn note_pt_mutation(&mut self) {
        self.pt_gen = next_pt_gen();
    }

    #[inline]
    fn frame_of(&self, pa: PhysAddr) -> (usize, usize) {
        let frame = pa.raw() >> PAGE_SHIFT;
        let offset = (pa.raw() & (PAGE_SIZE - 1)) as usize;
        if frame >= self.total_frames {
            self.out_of_range(pa);
        }
        (frame as usize, offset)
    }

    /// Table index of frame number `frame`.
    fn index_of(&self, frame: u64) -> usize {
        if frame >= self.total_frames {
            panic!("physical frame {frame:#x} beyond memory");
        }
        frame as usize
    }

    /// Frame `frame`'s bytes, or `None` if it was never written.
    #[inline]
    fn frame(&self, frame: usize) -> Option<&[u8; FRAME_BYTES]> {
        self.frames.get(frame).and_then(Option::as_deref)
    }

    /// The frame at a table miss in `read_u64` or `read_row`: past the
    /// grown end it reads as zero, past the machine it panics.
    #[cold]
    #[inline(never)]
    fn unwritten(&self, pa: PhysAddr) {
        self.frame_of(pa);
    }

    #[cold]
    #[inline(never)]
    fn out_of_range(&self, pa: PhysAddr) -> ! {
        panic!("physical access beyond memory: {pa}");
    }

    /// Frame `index`'s bytes, materializing it on first write. `index` is
    /// in range.
    #[inline]
    fn frame_mut(&mut self, index: usize) -> &mut [u8; FRAME_BYTES] {
        if !matches!(self.frames.get(index), Some(Some(_))) {
            self.materialize(index);
        }
        self.frames[index]
            .as_deref_mut()
            .expect("frame materialized above")
    }

    /// Give frame `index` zeroed storage, growing the table to it.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, index: usize) {
        if index >= self.frames.len() {
            self.frames.resize_with(index + 1, || None);
        }
        self.frames[index] = Some(Box::new([0u8; FRAME_BYTES]));
        self.resident += 1;
    }

    /// Read `buf.len()` bytes starting at `pa`, crossing frames as needed.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond physical memory.
    pub fn read_bytes(&self, pa: PhysAddr, buf: &mut [u8]) {
        let mut addr = pa;
        let mut done = 0usize;
        while done < buf.len() {
            let (frame, offset) = self.frame_of(addr);
            let n = (FRAME_BYTES - offset).min(buf.len() - done);
            match self.frame(frame) {
                Some(data) => buf[done..done + n].copy_from_slice(&data[offset..offset + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            addr += n as u64;
        }
    }

    /// Write `buf` starting at `pa`, crossing frames as needed.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond physical memory.
    pub fn write_bytes(&mut self, pa: PhysAddr, buf: &[u8]) {
        let mut addr = pa;
        let mut done = 0usize;
        while done < buf.len() {
            let (frame, offset) = self.frame_of(addr);
            let n = (FRAME_BYTES - offset).min(buf.len() - done);
            self.frame_mut(frame)[offset..offset + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            addr += n as u64;
        }
    }

    /// Fill `len` bytes at `pa` with zero (releases nothing; keeps frames).
    pub fn zero_bytes(&mut self, pa: PhysAddr, len: u64) {
        let mut addr = pa;
        let mut left = len;
        while left > 0 {
            let (frame, offset) = self.frame_of(addr);
            let n = ((FRAME_BYTES - offset) as u64).min(left);
            if self.frame(frame).is_some() {
                self.frame_mut(frame)[offset..offset + n as usize].fill(0);
            }
            left -= n;
            addr += n;
        }
    }

    /// Copy one whole frame to another (copy-on-write resolution).
    ///
    /// # Panics
    ///
    /// Panics if either frame lies beyond memory.
    pub fn copy_frame(&mut self, src_frame: u64, dst_frame: u64) {
        let (src, dst) = (self.index_of(src_frame), self.index_of(dst_frame));
        match self.frame(src).copied() {
            Some(data) => {
                *self.frame_mut(dst) = data;
            }
            None => {
                // Source never materialized: destination reads as zero too.
                if self.frame(dst).is_some() {
                    self.frame_mut(dst).fill(0);
                }
            }
        }
    }

    /// Drop the backing storage of a frame (frees host memory; the frame
    /// reads as zero afterwards). Called when the allocator reclaims frames.
    ///
    /// # Panics
    ///
    /// Panics if the frame lies beyond memory.
    pub fn discard_frame(&mut self, frame: u64) {
        let frame = self.index_of(frame);
        if self.frames.get_mut(frame).and_then(Option::take).is_some() {
            self.resident -= 1;
        }
    }
}

macro_rules! typed_access {
    ($read:ident, $write:ident, $ty:ty) => {
        impl PhysMem {
            /// Read a little-endian value; unwritten memory reads as zero.
            ///
            /// # Panics
            ///
            /// Panics if the access extends beyond physical memory.
            #[inline]
            pub fn $read(&self, pa: PhysAddr) -> $ty {
                const N: usize = core::mem::size_of::<$ty>();
                let mut buf = [0u8; N];
                // Fast path: within one frame. A single `get` doubles as
                // the bounds assert and the slot fetch — no re-derivation.
                let frame = (pa.raw() >> PAGE_SHIFT) as usize;
                let offset = (pa.raw() & (PAGE_SIZE - 1)) as usize;
                if offset + N <= FRAME_BYTES {
                    match self.frames.get(frame) {
                        Some(Some(data)) => buf.copy_from_slice(&data[offset..offset + N]),
                        Some(None) => {}
                        None => self.unwritten(pa),
                    }
                } else {
                    self.read_bytes(pa, &mut buf);
                }
                <$ty>::from_le_bytes(buf)
            }

            /// Write a little-endian value.
            ///
            /// # Panics
            ///
            /// Panics if the access extends beyond physical memory.
            #[inline]
            pub fn $write(&mut self, pa: PhysAddr, value: $ty) {
                let buf = value.to_le_bytes();
                let (frame, offset) = self.frame_of(pa);
                if offset + buf.len() <= FRAME_BYTES {
                    self.frame_mut(frame)[offset..offset + buf.len()].copy_from_slice(&buf);
                } else {
                    self.write_bytes(pa, &buf);
                }
            }
        }
    };
}

typed_access!(read_u8, write_u8, u8);
typed_access!(read_u16, write_u16, u16);
typed_access!(read_u32, write_u32, u32);
typed_access!(read_u64, write_u64, u64);

/// A 4-byte little-endian element of a row moved by
/// [`PhysMem::read_row`] and [`PhysMem::write_row`].
pub trait RowWord: Copy {
    /// Decode a little-endian word.
    fn from_le(bytes: [u8; 4]) -> Self;
    /// Encode as a little-endian word.
    fn to_le(self) -> [u8; 4];
}

impl RowWord for u32 {
    #[inline]
    fn from_le(bytes: [u8; 4]) -> Self {
        u32::from_le_bytes(bytes)
    }
    #[inline]
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }
}

impl RowWord for f32 {
    #[inline]
    fn from_le(bytes: [u8; 4]) -> Self {
        f32::from_le_bytes(bytes)
    }
    #[inline]
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }
}

impl PhysMem {
    #[cold]
    #[inline(never)]
    fn row_crosses_frame(&self, pa: PhysAddr, words: usize) -> ! {
        panic!("row of {words} words at {pa} crosses a frame boundary");
    }

    /// Read `out.len()` consecutive words starting at `pa`, all within
    /// `pa`'s frame: one in-frame copy. An unwritten frame reads as zeros.
    ///
    /// # Panics
    ///
    /// Panics if the row crosses a frame boundary or lies beyond memory.
    #[inline(always)]
    pub fn read_row<T: RowWord>(&self, pa: PhysAddr, out: &mut [T]) {
        let frame = (pa.raw() >> PAGE_SHIFT) as usize;
        let offset = (pa.raw() & (PAGE_SIZE - 1)) as usize;
        // Cannot overflow: a slice of 4-byte words spans at most
        // `isize::MAX` bytes.
        let len = out.len() * 4;
        if len > FRAME_BYTES - offset {
            self.row_crosses_frame(pa, out.len());
        }
        match self.frames.get(frame) {
            Some(Some(data)) => {
                let bytes = &data[offset..offset + len];
                for (word, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                    *word = T::from_le(b.try_into().expect("4-byte chunk"));
                }
            }
            Some(None) => out.fill(T::from_le([0; 4])),
            None => {
                self.unwritten(pa);
                out.fill(T::from_le([0; 4]));
            }
        }
    }

    /// Write `row` as consecutive words starting at `pa`, all within
    /// `pa`'s frame: one in-frame copy, materializing only that frame.
    ///
    /// # Panics
    ///
    /// Panics if the row crosses a frame boundary or lies beyond memory.
    #[inline(always)]
    pub fn write_row<T: RowWord>(&mut self, pa: PhysAddr, row: &[T]) {
        let (frame, offset) = self.frame_of(pa);
        // Cannot overflow, as in `read_row`.
        let len = row.len() * 4;
        if len > FRAME_BYTES - offset {
            self.row_crosses_frame(pa, row.len());
        }
        let bytes = &mut self.frame_mut(frame)[offset..offset + len];
        for (b, word) in bytes.chunks_exact_mut(4).zip(row) {
            b.copy_from_slice(&word.to_le());
        }
    }

    /// Read an `f32` stored little-endian at `pa`.
    #[inline]
    pub fn read_f32(&self, pa: PhysAddr) -> f32 {
        f32::from_bits(self.read_u32(pa))
    }

    /// Write an `f32` little-endian at `pa`.
    #[inline]
    pub fn write_f32(&mut self, pa: PhysAddr, value: f32) {
        self.write_u32(pa, value.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_first_write() {
        let mem = PhysMem::new(4);
        assert_eq!(mem.read_u64(PhysAddr::new(0)), 0);
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn typed_roundtrips() {
        let mut mem = PhysMem::new(4);
        mem.write_u8(PhysAddr::new(1), 0xab);
        mem.write_u16(PhysAddr::new(2), 0xcdef);
        mem.write_u32(PhysAddr::new(8), 0x1234_5678);
        mem.write_u64(PhysAddr::new(16), u64::MAX - 1);
        mem.write_f32(PhysAddr::new(32), 1.5);
        assert_eq!(mem.read_u8(PhysAddr::new(1)), 0xab);
        assert_eq!(mem.read_u16(PhysAddr::new(2)), 0xcdef);
        assert_eq!(mem.read_u32(PhysAddr::new(8)), 0x1234_5678);
        assert_eq!(mem.read_u64(PhysAddr::new(16)), u64::MAX - 1);
        assert_eq!(mem.read_f32(PhysAddr::new(32)), 1.5);
    }

    #[test]
    fn cross_frame_access() {
        let mut mem = PhysMem::new(4);
        let pa = PhysAddr::new(PAGE_SIZE - 3);
        mem.write_u64(pa, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(pa), 0x0102_0304_0506_0708);
        assert_eq!(mem.resident_frames(), 2);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut mem = PhysMem::new(8);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        mem.write_bytes(PhysAddr::new(100), &data);
        let mut back = vec![0u8; data.len()];
        mem.read_bytes(PhysAddr::new(100), &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn copy_frame_duplicates_content() {
        let mut mem = PhysMem::new(4);
        mem.write_u64(PhysAddr::from_frame(1), 99);
        mem.copy_frame(1, 3);
        assert_eq!(mem.read_u64(PhysAddr::from_frame(3)), 99);
        // Copying an unmaterialized frame zeroes the destination.
        mem.copy_frame(2, 3);
        assert_eq!(mem.read_u64(PhysAddr::from_frame(3)), 0);
    }

    #[test]
    fn discard_frame_zeroes_and_frees() {
        let mut mem = PhysMem::new(2);
        mem.write_u64(PhysAddr::new(0), 5);
        assert_eq!(mem.resident_frames(), 1);
        mem.discard_frame(0);
        assert_eq!(mem.resident_frames(), 0);
        assert_eq!(mem.read_u64(PhysAddr::new(0)), 0);
    }

    #[test]
    fn zero_bytes_clears_range() {
        let mut mem = PhysMem::new(4);
        mem.write_bytes(PhysAddr::new(10), &[1u8; 64]);
        mem.zero_bytes(PhysAddr::new(12), 4);
        assert_eq!(mem.read_u16(PhysAddr::new(10)), 0x0101);
        assert_eq!(mem.read_u32(PhysAddr::new(12)), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(16)), 1);
    }

    #[test]
    fn row_copy_stays_in_one_frame() {
        let mut mem = PhysMem::new(4);
        // An unwritten frame reads as zeros and stays unmaterialized.
        let mut row = [7.0f32; 6];
        mem.read_row(PhysAddr::from_frame(1) + 8, &mut row);
        assert_eq!(row, [0.0; 6]);
        assert_eq!(mem.resident_frames(), 0);
        // A row ending exactly at the frame's end materializes that frame
        // alone and round-trips word for word.
        let pa = PhysAddr::from_frame(2) + (PAGE_SIZE - 24);
        let vals = [1.5f32, -2.0, 3.25, 0.0, f32::MIN_POSITIVE, 1e9];
        mem.write_row(pa, &vals);
        assert_eq!(mem.resident_frames(), 1);
        mem.read_row(pa, &mut row);
        assert_eq!(row, vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(mem.read_f32(pa + i as u64 * 4), *v);
        }
        let mut words = [0u32; 2];
        mem.read_row(pa, &mut words);
        assert_eq!(words, [1.5f32.to_bits(), (-2.0f32).to_bits()]);
        assert_eq!(
            mem.read_u32(PhysAddr::from_frame(3)),
            0,
            "next frame untouched"
        );
    }

    #[test]
    #[should_panic(expected = "crosses a frame boundary")]
    fn row_crossing_a_frame_panics() {
        let mut mem = PhysMem::new(2);
        mem.write_row(PhysAddr::new(PAGE_SIZE - 4), &[1u32, 2]);
    }

    #[test]
    #[should_panic(expected = "beyond memory")]
    fn out_of_range_panics() {
        let mem = PhysMem::new(1);
        let _ = mem.read_u8(PhysAddr::new(PAGE_SIZE));
    }

    #[test]
    fn frame_table_grows_to_the_highest_frame_written() {
        // A 32 GiB machine holds no per-frame storage until written.
        let mut mem = PhysMem::new(8 << 20);
        assert_eq!(mem.total_frames(), 8 << 20);
        assert_eq!(mem.frames.capacity(), 0);
        let last_word = PhysAddr::new(3 * PAGE_SIZE - 8);
        mem.write_u64(last_word, 7);
        assert_eq!(mem.frames.len(), 3);
        // Never-written frames past the grown end read as zero through
        // every read path and do not grow the table.
        let far = PhysAddr::from_frame((8 << 20) - 1);
        assert_eq!(mem.read_u64(far), 0);
        assert_eq!(mem.read_u64(far + (PAGE_SIZE - 8)), 0);
        let mut row = [1u32; 4];
        mem.read_row(far, &mut row);
        assert_eq!(row, [0; 4]);
        let mut buf = [1u8; 16];
        mem.read_bytes(last_word, &mut buf);
        assert_eq!(buf, [7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        mem.zero_bytes(far, 64);
        mem.copy_frame(1000, 999);
        mem.discard_frame(5000);
        assert_eq!(mem.frames.len(), 3);
        assert_eq!(mem.resident_frames(), 1);
        // Copying a written frame far out grows the table to it; the
        // resident count is the frames materialized, not the table length.
        mem.copy_frame(2, 1000);
        assert_eq!(mem.frames.len(), 1001);
        assert_eq!(mem.resident_frames(), 2);
        let copied = PhysAddr::from_frame(1000) + (PAGE_SIZE - 8);
        assert_eq!(mem.read_u64(copied), 7);
        mem.discard_frame(1000);
        mem.discard_frame(1000);
        assert_eq!(mem.resident_frames(), 1);
        assert_eq!(mem.read_u64(copied), 0);
    }

    /// Every entry point still panics one frame past the machine, with
    /// the table grown (frame 0 written) or not.
    #[test]
    fn every_entry_point_panics_past_the_machine() {
        type EntryPoint = (&'static str, fn(&mut PhysMem));
        let entry_points: [EntryPoint; 6] = [
            ("read_u64", |m| {
                m.read_u64(PhysAddr::from_frame(4));
            }),
            ("read_row", |m| {
                m.read_row(PhysAddr::from_frame(4), &mut [0u32; 2])
            }),
            ("write_bytes", |m| {
                m.write_bytes(PhysAddr::new(4 * PAGE_SIZE - 2), &[1; 4])
            }),
            ("copy_frame from", |m| m.copy_frame(4, 0)),
            ("copy_frame to", |m| m.copy_frame(0, 4)),
            ("discard_frame", |m| m.discard_frame(4)),
        ];
        for grown in [false, true] {
            for (name, call) in entry_points {
                let caught = std::panic::catch_unwind(|| {
                    let mut mem = PhysMem::new(4);
                    if grown {
                        mem.write_u8(PhysAddr::new(0), 1);
                    }
                    call(&mut mem);
                });
                let message = caught.expect_err(name);
                let text = message
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert!(text.contains("beyond memory"), "{name}: {text}");
            }
        }
        // The last in-range byte is fine.
        PhysMem::new(4).write_u8(PhysAddr::new(4 * PAGE_SIZE - 1), 1);
    }
}
