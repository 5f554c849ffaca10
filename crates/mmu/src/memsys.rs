//! The accelerator-facing memory system: functional data access through
//! the IOMMU plus end-to-end latency accounting.
//!
//! Every typed accessor performs the *real* load/store against simulated
//! physical memory at the validated physical address, and returns the
//! access's total latency: `validation + data fetch` serialized, or
//! `max(validation, data fetch)` when the IOMMU allowed a DVM-PE+ preload
//! to overlap (paper Figure 4).

use crate::iommu::{Iommu, Validation};
use crate::scheme::{dispatch, SchemeDispatch};
use dvm_mem::{Dram, PhysMem, RowWord};
use dvm_pagetable::{PageTable, PermBitmap};
use dvm_sim::Cycles;
use dvm_types::{AccessKind, Fault, FaultKind, PageSize, PhysAddr, VirtAddr, PAGE_SIZE};

/// A borrow-bundle tying one IOMMU to one process's address space for the
/// duration of an accelerator run.
#[derive(Debug)]
pub struct MemSystem<'a> {
    /// The IOMMU validating accesses.
    pub iommu: &'a mut Iommu,
    /// Page table of the process that offloaded the computation.
    pub pt: &'a PageTable,
    /// DVM-BM permission bitmap, when the configuration needs one.
    pub bitmap: Option<&'a PermBitmap>,
    /// Simulated physical memory.
    pub mem: &'a mut PhysMem,
    /// DRAM timing model.
    pub dram: &'a mut Dram,
}

impl<'a> MemSystem<'a> {
    /// Bundle the borrows for one accelerator run.
    pub fn new(
        iommu: &'a mut Iommu,
        pt: &'a PageTable,
        bitmap: Option<&'a PermBitmap>,
        mem: &'a mut PhysMem,
        dram: &'a mut Dram,
    ) -> Self {
        Self {
            iommu,
            pt,
            bitmap,
            mem,
            dram,
        }
    }

    /// Validate an access and charge the data-fetch timing, without
    /// touching data (trace-driven mode).
    ///
    /// # Errors
    ///
    /// Propagates the IOMMU's [`Fault`].
    pub fn access(&mut self, va: VirtAddr, kind: AccessKind) -> Result<Cycles, Fault> {
        self.access_via::<dispatch::Dyn>(va, kind)
    }

    /// [`access`](Self::access) with a compile-time dispatch token (see
    /// [`SchemeDispatch`]); `D` must match the IOMMU's configured scheme.
    ///
    /// # Errors
    ///
    /// Propagates the IOMMU's [`Fault`].
    #[inline]
    pub fn access_via<D: SchemeDispatch>(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Cycles, Fault> {
        let v = self.validate::<D>(va, kind)?;
        Ok(self.finish(va, kind, v))
    }

    #[inline]
    fn validate<D: SchemeDispatch>(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Validation, Fault> {
        self.iommu
            .access_via::<D>(va, kind, self.pt, self.bitmap, self.mem, self.dram)
    }

    #[inline]
    fn finish(&mut self, va: VirtAddr, kind: AccessKind, v: Validation) -> Cycles {
        if v.squashed_preload {
            // The mispredicted preload consumed a DRAM transaction at the
            // predicted (identity) address before being discarded.
            let _ = self.dram.access(va.to_identity_pa(), AccessKind::Read);
        }
        let data_latency = self.dram.occupancy_access(v.pa, kind);
        if v.overlap {
            v.latency.max(data_latency)
        } else {
            v.latency + data_latency
        }
    }
}

/// Row accesses: one validated transaction moves a whole contiguous row
/// of 4-byte words (a CF feature vector, an edge record). A unit-stride
/// burst needs at most one translation per page it touches, and the
/// timing model charges the burst once, at its first address. The row
/// paths are `#[inline(always)]`: into the accelerator's loops they
/// measured faster than with `#[inline]` (DESIGN §3).
impl MemSystem<'_> {
    /// Load the row at `va` into `out`; returns its latency.
    ///
    /// Validation and timing are exactly those of one word load at `va`
    /// (so cycles, IOMMU counters, energy and DRAM counts match
    /// [`read_u32_via`](Self::read_u32_via)). The words in `va`'s page
    /// come from the validated physical address in one in-frame copy; any
    /// words past the page boundary are translated untimed, never read
    /// from the physically next frame.
    ///
    /// # Errors
    ///
    /// Propagates the IOMMU's [`Fault`], or a fault on a later page the
    /// row touches that is unmapped or unreadable.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 4-byte aligned.
    #[inline(always)]
    pub fn read_row_via<D: SchemeDispatch, T: RowWord>(
        &mut self,
        va: VirtAddr,
        out: &mut [T],
    ) -> Result<Cycles, Fault> {
        let n = words_in_page(va, out.len());
        let v = self.validate::<D>(va, AccessKind::Read)?;
        let latency = self.finish(va, AccessKind::Read, v);
        if n == out.len() {
            self.mem.read_row(v.pa, out);
        } else {
            let (head, tail) = out.split_at_mut(n);
            self.mem.read_row(v.pa, head);
            self.untimed_read_row(va + n as u64 * 4, tail, true)?;
        }
        Ok(latency)
    }

    /// Store `row` at `va`; returns its latency. The write counterpart of
    /// [`read_row_via`](Self::read_row_via), timed as one word store.
    ///
    /// # Errors
    ///
    /// Propagates the IOMMU's [`Fault`], or a fault on a later page the
    /// row touches that is unmapped or not writable (the words before it
    /// are already stored).
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 4-byte aligned.
    #[inline(always)]
    pub fn write_row_via<D: SchemeDispatch, T: RowWord>(
        &mut self,
        va: VirtAddr,
        row: &[T],
    ) -> Result<Cycles, Fault> {
        let n = words_in_page(va, row.len());
        let v = self.validate::<D>(va, AccessKind::Write)?;
        let latency = self.finish(va, AccessKind::Write, v);
        if n == row.len() {
            self.mem.write_row(v.pa, row);
        } else {
            let (head, tail) = row.split_at(n);
            self.mem.write_row(v.pa, head);
            self.untimed_write_row(va + n as u64 * 4, tail, true)?;
        }
        Ok(latency)
    }

    /// Untimed load of the row at `va`: one page-table translation and
    /// one in-frame copy per 4 KiB page it touches. With `check`,
    /// every page must be readable.
    ///
    /// # Errors
    ///
    /// A [`Fault`] at the first page that is unmapped, or unreadable when
    /// `check`.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 4-byte aligned.
    fn untimed_read_row<T: RowWord>(
        &self,
        va: VirtAddr,
        out: &mut [T],
        check: bool,
    ) -> Result<(), Fault> {
        let mut va = va;
        let mut rest = out;
        while !rest.is_empty() {
            let (chunk, next) = rest.split_at_mut(words_in_page(va, rest.len()));
            let pa = self.untimed_pa(va, AccessKind::Read, check)?;
            self.mem.read_row(pa, chunk);
            va += chunk.len() as u64 * 4;
            rest = next;
        }
        Ok(())
    }

    /// Untimed store of `row` at `va`, page by page as
    /// [`untimed_read_row`](Self::untimed_read_row). With `check`,
    /// every page must be writable.
    ///
    /// # Errors
    ///
    /// A [`Fault`] at the first page that is unmapped, or not writable
    /// when `check`; the words before it are already stored.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 4-byte aligned.
    fn untimed_write_row<T: RowWord>(
        &mut self,
        va: VirtAddr,
        row: &[T],
        check: bool,
    ) -> Result<(), Fault> {
        let mut va = va;
        let mut rest = row;
        while !rest.is_empty() {
            let (chunk, next) = rest.split_at(words_in_page(va, rest.len()));
            let pa = self.untimed_pa(va, AccessKind::Write, check)?;
            self.mem.write_row(pa, chunk);
            va += chunk.len() as u64 * 4;
            rest = next;
        }
        Ok(())
    }

    /// `va`'s physical address from one page-table walk; with
    /// `check`, the page's permissions must allow `kind`.
    fn untimed_pa(&self, va: VirtAddr, kind: AccessKind, check: bool) -> Result<PhysAddr, Fault> {
        let fault = |kind_of| Fault {
            va,
            access: kind,
            kind: kind_of,
        };
        let (pa, perms) = self
            .pt
            .translate(self.mem, va)
            .ok_or_else(|| fault(FaultKind::NotMapped))?;
        if !check || perms.allows(kind) {
            Ok(pa)
        } else {
            Err(fault(FaultKind::Protection))
        }
    }
}

/// Host access: the host CPU fills the arrays before an offload and reads
/// the results after it directly, not through the IOMMU (paper §4.1). A
/// host copy charges no cycles, touches no IOMMU or DRAM state and checks
/// no permissions.
impl MemSystem<'_> {
    /// Store `row` at `va` for the host: one page-table translation and
    /// one in-frame copy per 4 KiB page it touches.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 4-byte aligned or a page the row touches is
    /// unmapped.
    pub fn host_write_row<T: RowWord>(&mut self, va: VirtAddr, row: &[T]) {
        self.untimed_write_row(va, row, false)
            .unwrap_or_else(|fault| panic!("host write of unmapped {}", fault.va));
    }

    /// Load the row at `va` into `out` for the host, page by page as
    /// [`host_write_row`](Self::host_write_row).
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 4-byte aligned or a page the row touches is
    /// unmapped.
    pub fn host_read_row<T: RowWord>(&self, va: VirtAddr, out: &mut [T]) {
        self.untimed_read_row(va, out, false)
            .unwrap_or_else(|fault| panic!("host read of unmapped {}", fault.va));
    }
}

/// How many of a row's `len` words, starting at the 4-byte-aligned `va`,
/// lie in `va`'s 4 KiB page (at least one when `len > 0`).
#[inline(always)]
fn words_in_page(va: VirtAddr, len: usize) -> usize {
    assert!(
        va.raw().is_multiple_of(4),
        "row at {va} is not 4-byte aligned"
    );
    let room = (PAGE_SIZE - va.page_offset(PageSize::Size4K)) / 4;
    // `room` is at most 1024, so the conversion is lossless.
    len.min(room as usize)
}

macro_rules! typed {
    ($read:ident, $read_via:ident, $write:ident, $write_via:ident, $ty:ty,
     $mem_read:ident, $mem_write:ident) => {
        impl<'a> MemSystem<'a> {
            /// Load a value through the IOMMU; returns `(value, latency)`.
            ///
            /// # Errors
            ///
            /// Propagates the IOMMU's [`Fault`].
            pub fn $read(&mut self, va: VirtAddr) -> Result<($ty, Cycles), Fault> {
                self.$read_via::<dispatch::Dyn>(va)
            }

            /// Statically dispatched load (see [`SchemeDispatch`]).
            ///
            /// # Errors
            ///
            /// Propagates the IOMMU's [`Fault`].
            #[inline]
            pub fn $read_via<D: SchemeDispatch>(
                &mut self,
                va: VirtAddr,
            ) -> Result<($ty, Cycles), Fault> {
                let v = self.validate::<D>(va, AccessKind::Read)?;
                let latency = self.finish(va, AccessKind::Read, v);
                Ok((self.mem.$mem_read(v.pa), latency))
            }

            /// Store a value through the IOMMU; returns the latency.
            ///
            /// # Errors
            ///
            /// Propagates the IOMMU's [`Fault`].
            pub fn $write(&mut self, va: VirtAddr, value: $ty) -> Result<Cycles, Fault> {
                self.$write_via::<dispatch::Dyn>(va, value)
            }

            /// Statically dispatched store (see [`SchemeDispatch`]).
            ///
            /// # Errors
            ///
            /// Propagates the IOMMU's [`Fault`].
            #[inline]
            pub fn $write_via<D: SchemeDispatch>(
                &mut self,
                va: VirtAddr,
                value: $ty,
            ) -> Result<Cycles, Fault> {
                let v = self.validate::<D>(va, AccessKind::Write)?;
                let latency = self.finish(va, AccessKind::Write, v);
                self.mem.$mem_write(v.pa, value);
                Ok(latency)
            }
        }
    };
}

typed!(
    read_u32,
    read_u32_via,
    write_u32,
    write_u32_via,
    u32,
    read_u32,
    write_u32
);
typed!(
    read_u64,
    read_u64_via,
    write_u64,
    write_u64_via,
    u64,
    read_u64,
    write_u64
);
typed!(
    read_f32,
    read_f32_via,
    write_f32,
    write_f32_via,
    f32,
    read_f32,
    write_f32
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeId;
    use dvm_energy::EnergyParams;
    use dvm_mem::{BuddyAllocator, Dram, DramConfig, PhysMem};
    use dvm_pagetable::PageTable;
    use dvm_types::{Permission, VirtAddr};

    fn harness() -> (PhysMem, BuddyAllocator, PageTable, Dram) {
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        // Reserve and identity-map a 2 MiB arena at 16 MiB.
        // (Frames are already free; we only need the mapping here.)
        pt.map_identity_pe(
            &mut mem,
            &mut alloc,
            VirtAddr::new(16 << 20),
            2 << 20,
            Permission::ReadWrite,
        )
        .unwrap();
        (mem, alloc, pt, Dram::new(DramConfig::default()))
    }

    #[test]
    fn functional_roundtrip_all_configs() {
        for config in SchemeId::PAPER_SET {
            if config == SchemeId::DVM_BM {
                continue; // exercised in the bitmap test below
            }
            let (mut mem, _alloc, pt, mut dram) = harness();
            let mut iommu = Iommu::new(config, EnergyParams::default());
            let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
            let va = VirtAddr::new((16 << 20) + 0x100);
            sys.write_u64(va, 0xfeed_f00d).unwrap();
            let (v, _) = sys.read_u64(va).unwrap();
            assert_eq!(v, 0xfeed_f00d, "config {config}");
        }
    }

    #[test]
    fn conventional_4k_uses_tables_with_leaves() {
        // The harness maps with PEs; for the conventional config we remap
        // with 4K leaves to honour the OS layout invariant.
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        pt.map_identity_leaves(
            &mut mem,
            &mut alloc,
            VirtAddr::new(16 << 20),
            1 << 20,
            Permission::ReadWrite,
            dvm_types::PageSize::Size4K,
        )
        .unwrap();
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::CONV_4K, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let va = VirtAddr::new(16 << 20);
        // First access: TLB miss + walk (4 steps, at least one DRAM ref).
        let lat1 = sys.access(va, AccessKind::Read).unwrap();
        // Second access same page: TLB hit -> 1 + pipelined data access.
        let lat2 = sys.access(va, AccessKind::Read).unwrap();
        assert!(lat1 > lat2, "walk must cost more than a TLB hit");
        assert_eq!(lat2, 1 + sys.dram.config().occupancy_cycles);
        assert_eq!(sys.iommu.tlb_stats().unwrap().misses(), 1);
        assert_eq!(sys.iommu.tlb_stats().unwrap().hits(), 1);
    }

    #[test]
    fn dvm_pe_plus_overlaps_reads_but_not_writes() {
        let (mut mem, _alloc, pt, mut dram) = harness();
        let mut iommu = Iommu::new(SchemeId::DVM_PE_PLUS, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let va = VirtAddr::new((16 << 20) + 64);
        let data = sys.dram.config().occupancy_cycles;
        // Warm the AVC.
        let _ = sys.access(va, AccessKind::Read).unwrap();
        let read_lat = sys.access(va, AccessKind::Read).unwrap();
        let write_lat = sys.access(va, AccessKind::Write).unwrap();
        // Read: max(1-cycle pipelined DAV, data) == data. Write: 1 + data
        // (stores must validate before updating memory - paper Figure 4).
        assert_eq!(read_lat, data);
        assert_eq!(write_lat, 1 + data);
        assert!(sys.iommu.stats.preload_overlaps.get() >= 2);
        assert_eq!(sys.iommu.stats.preload_squashes.get(), 0);
    }

    #[test]
    fn dvm_bitmap_validates_and_falls_back() {
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        let bitmap = PermBitmap::new(&mut mem, &mut alloc, 1 << 30).unwrap();
        // Identity arena, recorded in the bitmap.
        pt.map_identity_pe(
            &mut mem,
            &mut alloc,
            VirtAddr::new(16 << 20),
            1 << 20,
            Permission::ReadWrite,
        )
        .unwrap();
        bitmap.set_bytes(
            &mut mem,
            VirtAddr::new(16 << 20),
            1 << 20,
            Permission::ReadWrite,
        );
        // A non-identity 4K page NOT in the bitmap (00 -> fallback).
        let alien_va = VirtAddr::new(64 << 20);
        let alien_pa = dvm_types::PhysAddr::new(32 << 20);
        pt.map_page(
            &mut mem,
            &mut alloc,
            alien_va,
            alien_pa,
            dvm_types::PageSize::Size4K,
            Permission::ReadWrite,
        )
        .unwrap();
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::DVM_BM, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, Some(&bitmap), &mut mem, &mut dram);
        // Identity access validates via the bitmap.
        sys.write_u32(VirtAddr::new(16 << 20), 7).unwrap();
        assert_eq!(sys.iommu.stats.identity_validations.get(), 1);
        // Alien access falls back to translation and still works.
        sys.write_u32(alien_va, 9).unwrap();
        assert_eq!(sys.iommu.stats.fallback_translations.get(), 1);
        let (v, _) = sys.read_u32(alien_va).unwrap();
        assert_eq!(v, 9);
        // The data really landed at the alien PA.
        assert_eq!(sys.mem.read_u32(alien_pa), 9);
    }

    #[test]
    fn protection_fault_on_write_to_readonly() {
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        pt.map_identity_pe(
            &mut mem,
            &mut alloc,
            VirtAddr::new(16 << 20),
            128 * 1024,
            Permission::ReadOnly,
        )
        .unwrap();
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::DVM_PE_PLUS, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let va = VirtAddr::new(16 << 20);
        assert!(sys.read_u32(va).is_ok());
        let fault = sys.write_u32(va, 1).unwrap_err();
        assert_eq!(fault.kind, dvm_types::FaultKind::Protection);
        assert_eq!(sys.iommu.stats.faults.get(), 1);
        // Unmapped access faults as NotMapped (and squashes the preload).
        let fault = sys.read_u32(VirtAddr::new(900 << 20)).unwrap_err();
        assert_eq!(fault.kind, dvm_types::FaultKind::NotMapped);
        assert_eq!(sys.iommu.stats.preload_squashes.get(), 1);
    }

    /// Two 4K VA pages on non-adjacent frames, A read-write and B with
    /// `page_b` permissions, with page C left unmapped.
    const ROW_VA: u64 = 64 << 20;
    const FRAME_A: u64 = (32 << 20) >> 12;
    const FRAME_B: u64 = (40 << 20) >> 12;

    fn split_pages(
        config: SchemeId,
        page_b: Permission,
    ) -> (PhysMem, PageTable, Option<PermBitmap>) {
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        let bitmap = config
            .needs_bitmap()
            .then(|| PermBitmap::new(&mut mem, &mut alloc, 1 << 30).unwrap());
        for (page, frame, perms) in [(0, FRAME_A, Permission::ReadWrite), (1, FRAME_B, page_b)] {
            pt.map_page(
                &mut mem,
                &mut alloc,
                VirtAddr::new(ROW_VA + page * PAGE_SIZE),
                PhysAddr::from_frame(frame),
                PageSize::Size4K,
                perms,
            )
            .unwrap();
        }
        (mem, pt, bitmap)
    }

    /// Every builtin scheme that accepts 4K leaves and honours a
    /// non-identity mapping (Ideal accesses PA == VA by definition).
    const FOUR_K_SCHEMES: [SchemeId; 6] = [
        SchemeId::CONV_4K,
        SchemeId::DVM_BM,
        SchemeId::DVM_PE,
        SchemeId::DVM_PE_PLUS,
        SchemeId::SVA_PF,
        SchemeId::SVA_IOMMU,
    ];

    /// Everything one access can move: latency, IOMMU counters, energy
    /// and DRAM counts.
    fn footprint(sys: &MemSystem<'_>, latency: Cycles) -> String {
        format!(
            "{latency} {:?} {} {} {} {:?}",
            sys.iommu.stats,
            sys.iommu.energy.total_pj(),
            sys.dram.reads(),
            sys.dram.writes(),
            sys.dram.channel_accesses()
        )
    }

    #[test]
    fn page_crossing_row_moves_like_words_and_times_like_one() {
        // 3 words at the end of page A, 5 at the start of page B.
        let va = VirtAddr::new(ROW_VA + PAGE_SIZE - 12);
        for config in FOUR_K_SCHEMES {
            let (mut mem, pt, bitmap) = split_pages(config, Permission::ReadWrite);
            let row: Vec<f32> = (0..8).map(|i| 1.5 + i as f32).collect();
            let mut dram = Dram::new(DramConfig::default());
            let mut iommu = Iommu::new(config, EnergyParams::default());

            // Row write vs one timed word store.
            let mut sys = MemSystem::new(&mut iommu, &pt, bitmap.as_ref(), &mut mem, &mut dram);
            let lat = sys.write_row_via::<dispatch::Dyn, f32>(va, &row).unwrap();
            let row_write = footprint(&sys, lat);
            let mut stored = [0.0f32; 8];
            sys.host_read_row(va, &mut stored);
            assert_eq!(stored.to_vec(), row, "{config} write");
            // Nothing spilled into the frame physically after page A.
            assert_eq!(sys.mem.read_u64(PhysAddr::from_frame(FRAME_A + 1)), 0);
            // The reference word accesses run on an identical second
            // machine with its own IOMMU and DRAM.
            let (mut mem2, pt2, bitmap2) = split_pages(config, Permission::ReadWrite);
            let mut dram2 = Dram::new(DramConfig::default());
            let mut iommu2 = Iommu::new(config, EnergyParams::default());
            let mut word =
                MemSystem::new(&mut iommu2, &pt2, bitmap2.as_ref(), &mut mem2, &mut dram2);
            let lat = word.write_f32_via::<dispatch::Dyn>(va, row[0]).unwrap();
            assert_eq!(row_write, footprint(&word, lat), "{config} write");

            // Row read vs a host write and one timed word load.
            let mut dram = Dram::new(DramConfig::default());
            let mut iommu = Iommu::new(config, EnergyParams::default());
            let mut sys = MemSystem::new(&mut iommu, &pt, bitmap.as_ref(), &mut mem, &mut dram);
            let want: Vec<f32> = (0..8).map(|i| -(i as f32)).collect();
            sys.host_write_row(va, &want);
            let mut got = [0.0f32; 8];
            let lat = sys
                .read_row_via::<dispatch::Dyn, f32>(va, &mut got)
                .unwrap();
            assert_eq!(got.to_vec(), want, "{config} read");
            let row_read = footprint(&sys, lat);
            let mut dram2 = Dram::new(DramConfig::default());
            let mut iommu2 = Iommu::new(config, EnergyParams::default());
            let mut word =
                MemSystem::new(&mut iommu2, &pt2, bitmap2.as_ref(), &mut mem2, &mut dram2);
            let (_, lat) = word.read_f32_via::<dispatch::Dyn>(va).unwrap();
            assert_eq!(row_read, footprint(&word, lat), "{config} read");
        }
    }

    #[test]
    fn row_into_an_unmapped_page_faults_at_that_page() {
        let (mut mem, pt, _) = split_pages(SchemeId::CONV_4K, Permission::ReadWrite);
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::CONV_4K, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let page_c = VirtAddr::new(ROW_VA + 2 * PAGE_SIZE);
        let before_c = |bytes: u64| VirtAddr::new(page_c.raw() - bytes);
        let mut out = [0u32; 4];
        let fault = sys
            .read_row_via::<dispatch::Dyn, u32>(before_c(8), &mut out)
            .unwrap_err();
        assert_eq!((fault.va, fault.kind), (page_c, FaultKind::NotMapped));
        let fault = sys
            .write_row_via::<dispatch::Dyn, u32>(before_c(4), &[1, 2])
            .unwrap_err();
        assert_eq!(fault.access, AccessKind::Write);
        assert_eq!((fault.va, fault.kind), (page_c, FaultKind::NotMapped));
    }

    #[test]
    fn row_tail_on_a_read_only_page_faults_at_that_page() {
        let (mut mem, pt, _) = split_pages(SchemeId::CONV_4K, Permission::ReadOnly);
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::CONV_4K, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let page_b = VirtAddr::new(ROW_VA + PAGE_SIZE);
        let va = VirtAddr::new(page_b.raw() - 8);
        let fault = sys
            .write_row_via::<dispatch::Dyn, u32>(va, &[1, 2, 3, 4])
            .unwrap_err();
        assert_eq!(fault.access, AccessKind::Write);
        assert_eq!((fault.va, fault.kind), (page_b, FaultKind::Protection));
        // The words on page A were stored before the tail faulted.
        let mut got = [9u32; 4];
        sys.read_row_via::<dispatch::Dyn, u32>(va, &mut got)
            .unwrap();
        assert_eq!(got, [1, 2, 0, 0]);
    }

    #[test]
    fn host_rows_ignore_permissions_and_touch_no_timing_state() {
        let (mut mem, pt, _) = split_pages(SchemeId::CONV_4K, Permission::ReadOnly);
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::CONV_4K, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let before = footprint(&sys, 0);
        // A row from the end of page A across all of read-only page B.
        let va = VirtAddr::new(ROW_VA + PAGE_SIZE - 8);
        let row: Vec<u32> = (1..=1026).collect();
        sys.host_write_row(va, &row);
        let mut got = vec![0u32; row.len()];
        sys.host_read_row(va, &mut got);
        assert_eq!(got, row);
        assert_eq!(sys.mem.read_u32(PhysAddr::from_frame(FRAME_B)), 3);
        assert_eq!(footprint(&sys, 0), before);
    }

    #[test]
    #[should_panic(expected = "host write of unmapped")]
    fn host_row_into_an_unmapped_page_panics() {
        let (mut mem, pt, _) = split_pages(SchemeId::CONV_4K, Permission::ReadWrite);
        let mut dram = Dram::new(DramConfig::default());
        let mut iommu = Iommu::new(SchemeId::CONV_4K, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        sys.host_write_row(VirtAddr::new(ROW_VA + 2 * PAGE_SIZE - 4), &[1u32, 2]);
    }

    #[test]
    fn ideal_has_zero_translation_latency() {
        let (mut mem, _alloc, pt, mut dram) = harness();
        let mut iommu = Iommu::new(SchemeId::IDEAL, EnergyParams::default());
        let mut sys = MemSystem::new(&mut iommu, &pt, None, &mut mem, &mut dram);
        let lat = sys
            .access(VirtAddr::new(16 << 20), AccessKind::Read)
            .unwrap();
        assert_eq!(lat, sys.dram.config().occupancy_cycles);
        assert_eq!(sys.iommu.energy.total_pj(), 0.0);
    }
}
