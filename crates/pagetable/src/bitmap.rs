//! The flat permission bitmap used by the paper's DVM-BM variant (§6.3).
//!
//! "We store permissions for all VAs in a flat 2MB bitmap in memory for
//! 1-step DAV" — 2 bits per 4 KiB page, so a 2 MiB bitmap covers 32 GiB of
//! virtual address space. The bitmap lives in simulated physical memory
//! (allocated contiguously from the buddy allocator) so bitmap fetches hit
//! simulated DRAM and can be cached by physical address, exactly like
//! Border Control's permission structures.

use dvm_mem::{BuddyAllocator, FrameRange, PhysMem};
use dvm_types::{DvmError, Permission, PhysAddr, VirtAddr, PAGE_SIZE};

/// Flat 2-bit-per-page permission bitmap over a VA prefix `[0, reach)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermBitmap {
    base_frame: u64,
    pages_covered: u64,
}

impl PermBitmap {
    /// Allocate a bitmap covering `reach_bytes` of virtual address space
    /// (rounded up to a whole number of 4 KiB bitmap frames). Every entry
    /// starts as `Permission::None` ("not identity mapped").
    ///
    /// # Errors
    ///
    /// [`DvmError::OutOfMemory`] if the contiguous bitmap allocation fails;
    /// [`DvmError::InvalidArgument`] if `reach_bytes == 0`.
    pub fn new(
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        reach_bytes: u64,
    ) -> Result<Self, DvmError> {
        if reach_bytes == 0 {
            return Err(DvmError::InvalidArgument("bitmap must cover some VA"));
        }
        let pages_covered = reach_bytes.div_ceil(PAGE_SIZE);
        let bitmap_bytes = pages_covered.div_ceil(4); // 2 bits per page
        let frames = bitmap_bytes.div_ceil(PAGE_SIZE);
        let range = alloc.alloc_frames(frames)?;
        mem.zero_bytes(PhysAddr::from_frame(range.start), frames * PAGE_SIZE);
        Ok(Self {
            base_frame: range.start,
            pages_covered,
        })
    }

    /// Bytes of bitmap storage.
    pub fn storage_bytes(&self) -> u64 {
        self.pages_covered.div_ceil(4).div_ceil(PAGE_SIZE) * PAGE_SIZE
    }

    /// Number of 4 KiB VA pages covered.
    pub fn pages_covered(&self) -> u64 {
        self.pages_covered
    }

    /// Physical address of the bitmap *byte* holding `vpn`'s field; this is
    /// what the DVM-BM bitmap cache tags on (block-aligned by the cache).
    #[inline]
    pub fn entry_pa(&self, vpn: u64) -> PhysAddr {
        debug_assert!(vpn < self.pages_covered, "vpn beyond bitmap reach");
        PhysAddr::from_frame(self.base_frame) + vpn / 4
    }

    /// Permission recorded for virtual page `vpn`; pages beyond the reach
    /// report `Permission::None` (forcing the fallback translation path).
    pub fn perms_of(&self, mem: &PhysMem, vpn: u64) -> Permission {
        if vpn >= self.pages_covered {
            return Permission::None;
        }
        let byte = mem.read_u8(self.entry_pa(vpn));
        Permission::from_bits((byte >> ((vpn % 4) * 2)) & 0b11)
    }

    /// Record `perms` for `count` pages starting at `start_vpn`. The OS
    /// calls this when identity regions are mapped, unmapped (with
    /// `Permission::None`) or re-protected.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the bitmap's reach.
    pub fn set_range(&self, mem: &mut PhysMem, start_vpn: u64, count: u64, perms: Permission) {
        assert!(
            start_vpn + count <= self.pages_covered,
            "bitmap range [{start_vpn}, +{count}) beyond reach {}",
            self.pages_covered
        );
        for vpn in start_vpn..start_vpn + count {
            let pa = self.entry_pa(vpn);
            let shift = (vpn % 4) * 2;
            let byte = mem.read_u8(pa);
            let updated = (byte & !(0b11 << shift)) | (perms.bits() << shift);
            mem.write_u8(pa, updated);
        }
    }

    /// Record permissions for a byte range (4 KiB-aligned).
    pub fn set_bytes(&self, mem: &mut PhysMem, start: VirtAddr, len: u64, perms: Permission) {
        debug_assert!(start.raw().is_multiple_of(PAGE_SIZE) && len.is_multiple_of(PAGE_SIZE));
        self.set_range(mem, start.raw() / PAGE_SIZE, len / PAGE_SIZE, perms);
    }

    /// Release the bitmap's frames.
    pub fn free(self, mem: &mut PhysMem, alloc: &mut BuddyAllocator) {
        let frames = self.storage_bytes() / PAGE_SIZE;
        for f in self.base_frame..self.base_frame + frames {
            mem.discard_frame(f);
        }
        alloc.free_frames(FrameRange {
            start: self.base_frame,
            count: frames,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, BuddyAllocator) {
        (PhysMem::new(1 << 16), BuddyAllocator::new(1 << 16))
    }

    #[test]
    fn paper_sizing_2mb_for_32gb() {
        let (mut mem, mut alloc) = setup();
        let bm = PermBitmap::new(&mut mem, &mut alloc, 32 << 30).unwrap();
        assert_eq!(bm.storage_bytes(), 2 << 20);
    }

    #[test]
    fn default_is_none() {
        let (mut mem, mut alloc) = setup();
        let bm = PermBitmap::new(&mut mem, &mut alloc, 1 << 30).unwrap();
        assert_eq!(bm.perms_of(&mem, 0), Permission::None);
        assert_eq!(bm.perms_of(&mem, 1234), Permission::None);
    }

    #[test]
    fn set_and_read_back() {
        let (mut mem, mut alloc) = setup();
        let bm = PermBitmap::new(&mut mem, &mut alloc, 1 << 30).unwrap();
        bm.set_range(&mut mem, 10, 5, Permission::ReadWrite);
        assert_eq!(bm.perms_of(&mem, 9), Permission::None);
        for vpn in 10..15 {
            assert_eq!(bm.perms_of(&mem, vpn), Permission::ReadWrite);
        }
        assert_eq!(bm.perms_of(&mem, 15), Permission::None);
        // Overwrite a sub-range.
        bm.set_range(&mut mem, 12, 2, Permission::ReadOnly);
        assert_eq!(bm.perms_of(&mem, 11), Permission::ReadWrite);
        assert_eq!(bm.perms_of(&mem, 12), Permission::ReadOnly);
        assert_eq!(bm.perms_of(&mem, 14), Permission::ReadWrite);
    }

    #[test]
    fn neighbours_in_same_byte_do_not_clobber() {
        let (mut mem, mut alloc) = setup();
        let bm = PermBitmap::new(&mut mem, &mut alloc, 1 << 20).unwrap();
        bm.set_range(&mut mem, 0, 1, Permission::ReadOnly);
        bm.set_range(&mut mem, 1, 1, Permission::ReadWrite);
        bm.set_range(&mut mem, 2, 1, Permission::ReadExec);
        assert_eq!(bm.perms_of(&mem, 0), Permission::ReadOnly);
        assert_eq!(bm.perms_of(&mem, 1), Permission::ReadWrite);
        assert_eq!(bm.perms_of(&mem, 2), Permission::ReadExec);
        assert_eq!(bm.perms_of(&mem, 3), Permission::None);
    }

    #[test]
    fn out_of_reach_is_none() {
        let (mut mem, mut alloc) = setup();
        let bm = PermBitmap::new(&mut mem, &mut alloc, 1 << 20).unwrap();
        assert_eq!(bm.perms_of(&mem, 1 << 40), Permission::None);
    }

    #[test]
    fn free_returns_frames() {
        let (mut mem, mut alloc) = setup();
        let before = alloc.free_frames_count();
        let bm = PermBitmap::new(&mut mem, &mut alloc, 32 << 30).unwrap();
        assert!(alloc.free_frames_count() < before);
        bm.free(&mut mem, &mut alloc);
        assert_eq!(alloc.free_frames_count(), before);
    }

    #[test]
    fn set_bytes_page_granularity() {
        let (mut mem, mut alloc) = setup();
        let bm = PermBitmap::new(&mut mem, &mut alloc, 1 << 30).unwrap();
        bm.set_bytes(
            &mut mem,
            VirtAddr::new(8 * PAGE_SIZE),
            2 * PAGE_SIZE,
            Permission::ReadWrite,
        );
        assert_eq!(bm.perms_of(&mem, 8), Permission::ReadWrite);
        assert_eq!(bm.perms_of(&mem, 9), Permission::ReadWrite);
        assert_eq!(bm.perms_of(&mem, 10), Permission::None);
    }
}
