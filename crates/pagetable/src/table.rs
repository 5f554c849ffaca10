//! The 4-level page table, stored *inside* simulated physical memory.
//!
//! Table pages are allocated from the machine's buddy allocator and read
//! and written through [`PhysMem`], so a hardware walk performed by the
//! MMU models touches the same simulated DRAM the workload data lives in —
//! the paper's PWC/AVC cache entries by the physical address of the PTE,
//! and those addresses are real here.
//!
//! Three mapping flavours are provided:
//!
//! * [`PageTable::map_identity_pe`] — DVM: install Permission Entries at
//!   the highest level whose 1/16-slot granularity fits the region
//!   (§4.1.1); falls back to regular identity leaf PTEs below 128 KiB
//!   granularity.
//! * [`PageTable::map_identity_leaves`] — conventional: identity regions
//!   mapped with regular leaf PTEs of at most a chosen page size (4 KiB /
//!   2 MiB / 1 GiB), using larger leaves wherever alignment allows.
//! * [`PageTable::map_page`] — one page at an arbitrary (non-identity)
//!   translation; the demand-paging and copy-on-write path.

use crate::entry::{Pte, ENTRIES_PER_TABLE, ENTRY_BYTES, PE_FIELDS};
use crate::walk::{Walk, WalkOutcome, WalkStep};
use dvm_mem::{BuddyAllocator, FrameRange, PhysMem};
use dvm_types::{align_down, DvmError, PageSize, Permission, PhysAddr, VirtAddr, PAGE_SIZE};

/// Root level of the table (PML4).
pub const TOP_LEVEL: u8 = 4;

/// Highest VA exclusive supported (canonical lower half, 48-bit).
pub const VA_LIMIT: u64 = 1 << 48;

/// log2 of the VA span mapped by one entry at `level`.
#[inline]
pub fn level_shift(level: u8) -> u32 {
    12 + 9 * (level as u32 - 1)
}

/// VA span in bytes mapped by one entry at `level`.
#[inline]
pub fn entry_span(level: u8) -> u64 {
    1u64 << level_shift(level)
}

/// VA span covered by one of the 16 permission fields of a PE at `level`
/// (128 KiB at L2, 64 MiB at L3, 32 GiB at L4 — §4.1.1).
#[inline]
pub fn slot_span(level: u8) -> u64 {
    entry_span(level) / PE_FIELDS as u64
}

/// A process page table rooted in one 4 KiB frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTable {
    root_frame: u64,
}

impl PageTable {
    /// Allocate an empty page table.
    ///
    /// # Errors
    ///
    /// Returns [`DvmError::OutOfMemory`] if no frame is available.
    pub fn new(mem: &mut PhysMem, alloc: &mut BuddyAllocator) -> Result<Self, DvmError> {
        Ok(Self {
            root_frame: Self::alloc_table(mem, alloc)?,
        })
    }

    /// Frame number of the root table (the simulated CR3 / IOMMU base).
    pub fn root_frame(&self) -> u64 {
        self.root_frame
    }

    fn alloc_table(mem: &mut PhysMem, alloc: &mut BuddyAllocator) -> Result<u64, DvmError> {
        let frame = alloc.alloc_frame()?;
        mem.zero_bytes(PhysAddr::from_frame(frame), PAGE_SIZE);
        Ok(frame)
    }

    #[inline]
    fn entry_pa(frame: u64, idx: usize) -> PhysAddr {
        PhysAddr::from_frame(frame) + idx as u64 * ENTRY_BYTES
    }

    #[inline]
    fn read_entry(mem: &PhysMem, frame: u64, idx: usize) -> Pte {
        Pte::from_raw(mem.read_u64(Self::entry_pa(frame, idx)))
    }

    #[inline]
    fn write_entry(mem: &mut PhysMem, frame: u64, idx: usize, pte: Pte) {
        // Every structural mutation of any table funnels through here, so
        // this is the single choke point that invalidates memoized
        // walks (the IOMMU's walk memo in `dvm-mmu`).
        mem.note_pt_mutation();
        mem.write_u64(Self::entry_pa(frame, idx), pte.raw());
    }

    /// Perform a hardware page walk for `va`, recording every entry read.
    ///
    /// # Panics
    ///
    /// Panics if `va` is outside the canonical 48-bit range.
    pub fn walk(&self, mem: &PhysMem, va: VirtAddr) -> Walk {
        assert!(va.raw() < VA_LIMIT, "non-canonical address {va}");
        let mut steps = [WalkStep {
            level: 0,
            pte_pa: PhysAddr::ZERO,
        }; 4];
        let mut n = 0usize;
        let mut frame = self.root_frame;
        let mut level = TOP_LEVEL;
        loop {
            let idx = va.pt_index(level);
            steps[n] = WalkStep {
                level,
                pte_pa: Self::entry_pa(frame, idx),
            };
            n += 1;
            let pte = Self::read_entry(mem, frame, idx);
            if !pte.is_present() {
                return Walk::new(&steps[..n], WalkOutcome::NotMapped { level });
            }
            if pte.is_pe() {
                let slot = ((va.raw() >> (level_shift(level) - 4)) & 0xf) as usize;
                return Walk::new(
                    &steps[..n],
                    WalkOutcome::PermissionEntry {
                        perms: pte.pe_field(slot),
                        level,
                    },
                );
            }
            if pte.is_leaf() {
                let page = match level {
                    1 => PageSize::Size4K,
                    2 => PageSize::Size2M,
                    3 => PageSize::Size1G,
                    _ => unreachable!("leaf at level {level}"),
                };
                let pa = PhysAddr::from_frame(pte.pfn()) + (va.raw() & (entry_span(level) - 1));
                return Walk::new(
                    &steps[..n],
                    WalkOutcome::Leaf {
                        pa,
                        perms: pte.perms(),
                        page,
                    },
                );
            }
            frame = pte.pfn();
            level -= 1;
        }
    }

    /// Functional translation: `(PA, perms)` for `va`, or `None`.
    pub fn translate(&self, mem: &PhysMem, va: VirtAddr) -> Option<(PhysAddr, Permission)> {
        self.walk(mem, va).resolve(va)
    }

    /// `true` if no byte of `[start, start+len)` has a mapping (unallocated
    /// PE slots count as unmapped). Used as an atomicity precheck by the
    /// mapping operations so `VaRangeBusy` is raised before any mutation.
    pub fn is_range_unmapped(&self, mem: &PhysMem, start: VirtAddr, len: u64) -> bool {
        self.first_mapped_in(mem, start, len).is_none()
    }

    /// First mapped address in `[start, start+len)`, skipping unmapped
    /// spans at the granularity the walk reveals.
    pub fn first_mapped_in(&self, mem: &PhysMem, start: VirtAddr, len: u64) -> Option<VirtAddr> {
        let lo = start.raw();
        let hi = lo.saturating_add(len).min(VA_LIMIT);
        let mut cursor = lo;
        while cursor < hi {
            let walk = self.walk(mem, VirtAddr::new(cursor));
            match walk.outcome {
                WalkOutcome::NotMapped { level } => {
                    cursor = align_down(cursor, entry_span(level)) + entry_span(level);
                }
                WalkOutcome::PermissionEntry { perms, level } => {
                    if perms.is_mapped() {
                        return Some(VirtAddr::new(cursor));
                    }
                    cursor = align_down(cursor, slot_span(level)) + slot_span(level);
                }
                WalkOutcome::Leaf { .. } => return Some(VirtAddr::new(cursor)),
            }
        }
        None
    }

    /// Map one page of the given size at an arbitrary translation
    /// (`va -> pa`). Permission Entries and huge leaves in the way are
    /// demoted/split as needed. This is the demand-paging / CoW path.
    ///
    /// # Errors
    ///
    /// [`DvmError::VaRangeBusy`] if a mapping already exists at `va`;
    /// [`DvmError::OutOfMemory`] if a table frame cannot be allocated;
    /// [`DvmError::InvalidArgument`] on misaligned addresses.
    pub fn map_page(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        page: PageSize,
        perms: Permission,
    ) -> Result<(), DvmError> {
        if !va.is_page_aligned(page) || !pa.is_page_aligned(page) {
            return Err(DvmError::InvalidArgument("map_page: misaligned va/pa"));
        }
        if let Some(busy) = self.first_mapped_in(mem, va, page.bytes()) {
            return Err(DvmError::VaRangeBusy {
                va: busy,
                len: page.bytes(),
            });
        }
        let (frame, idx) = self.ensure_level(mem, alloc, va, page.leaf_level())?;
        let existing = Self::read_entry(mem, frame, idx);
        if existing.is_present() {
            return Err(DvmError::VaRangeBusy {
                va: va.page_base(page),
                len: page.bytes(),
            });
        }
        Self::write_entry(mem, frame, idx, Pte::leaf(pa.frame(), perms));
        Ok(())
    }

    /// Replace or create the 4 KiB mapping at `va` with `va -> pa`,
    /// demoting PEs and splitting huge leaves on the way down. Used to
    /// resolve copy-on-write (the new page is not identity mapped).
    ///
    /// # Errors
    ///
    /// [`DvmError::OutOfMemory`] if demotion needs a table frame.
    pub fn remap_page(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        perms: Permission,
    ) -> Result<(), DvmError> {
        let (frame, idx) = self.ensure_level(mem, alloc, va, 1)?;
        Self::write_entry(mem, frame, idx, Pte::leaf(pa.frame(), perms));
        Ok(())
    }

    /// Identity-map `[start, start+len)` (with `PA == VA`) using Permission
    /// Entries at the highest level whose slot granularity fits, regular
    /// identity leaf PTEs otherwise.
    ///
    /// # Errors
    ///
    /// [`DvmError::VaRangeBusy`] if any byte of the range is already
    /// mapped; [`DvmError::OutOfMemory`] on table-frame exhaustion;
    /// [`DvmError::InvalidArgument`] on misalignment or overflow.
    pub fn map_identity_pe(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        start: VirtAddr,
        len: u64,
        perms: Permission,
    ) -> Result<(), DvmError> {
        self.map_identity_pe_granular(mem, alloc, start, len, perms, PE_FIELDS as u32)
    }

    /// [`Self::map_identity_pe`] with a reduced number of *effective*
    /// permission fields per entry — the paper's "Alternatives" design
    /// point (§4.1.1) that packs 4 (L2) or 8 (L3) regions into the spare
    /// bits of regular PTEs instead of adding a 16-field entry format.
    /// Coarser fields mean coarser slot alignment, so more regions fall
    /// back to leaf tables (`coarse_pe_fields_need_coarser_alignment` and
    /// `coarse_pe_tables_are_bigger` in `tests/table_ops.rs` show both).
    ///
    /// # Errors
    ///
    /// As for [`Self::map_identity_pe`], plus [`DvmError::InvalidArgument`]
    /// if `fields` is not a power of two in `1..=16`.
    pub fn map_identity_pe_granular(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        start: VirtAddr,
        len: u64,
        perms: Permission,
        fields: u32,
    ) -> Result<(), DvmError> {
        if fields == 0 || fields > PE_FIELDS as u32 || !fields.is_power_of_two() {
            return Err(DvmError::InvalidArgument("PE fields must be 1|2|4|8|16"));
        }
        let (lo, hi) = Self::check_range(start, len)?;
        if let Some(va) = self.first_mapped_in(mem, start, len) {
            return Err(DvmError::VaRangeBusy { va, len });
        }
        self.map_pe_rec(
            mem,
            alloc,
            TOP_LEVEL,
            self.root_frame,
            0,
            lo,
            hi,
            perms,
            fields,
        )
    }

    /// Identity-map `[start, start+len)` with conventional leaf PTEs,
    /// using the largest page size `<= max_page` that alignment permits at
    /// each point (interior gets huge leaves, edges get 4 KiB).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::map_identity_pe`].
    pub fn map_identity_leaves(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        start: VirtAddr,
        len: u64,
        perms: Permission,
        max_page: PageSize,
    ) -> Result<(), DvmError> {
        let (lo, hi) = Self::check_range(start, len)?;
        if let Some(va) = self.first_mapped_in(mem, start, len) {
            return Err(DvmError::VaRangeBusy { va, len });
        }
        let mut cursor = lo;
        while cursor < hi {
            let mut chosen = PageSize::Size4K;
            for page in [PageSize::Size1G, PageSize::Size2M] {
                if page <= max_page && cursor % page.bytes() == 0 && cursor + page.bytes() <= hi {
                    chosen = page;
                    break;
                }
            }
            self.map_page(
                mem,
                alloc,
                VirtAddr::new(cursor),
                PhysAddr::new(cursor),
                chosen,
                perms,
            )?;
            cursor += chosen.bytes();
        }
        Ok(())
    }

    /// Remove all mappings intersecting `[start, start+len)`. Unmapped
    /// gaps inside the range are ignored. Child tables left empty are
    /// freed.
    ///
    /// # Errors
    ///
    /// [`DvmError::OutOfMemory`] if a partial unmap needs to demote a PE
    /// or split a huge leaf and no table frame is available;
    /// [`DvmError::InvalidArgument`] on misalignment.
    pub fn unmap_region(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        start: VirtAddr,
        len: u64,
    ) -> Result<(), DvmError> {
        let (lo, hi) = Self::check_range(start, len)?;
        self.unmap_rec(mem, alloc, TOP_LEVEL, self.root_frame, 0, lo, hi)?;
        Ok(())
    }

    /// Set the permissions of every mapped page intersecting
    /// `[start, start+len)` (used to mark CoW ranges read-only). Unmapped
    /// gaps are ignored; identity and non-identity mappings both keep
    /// their translations.
    ///
    /// # Errors
    ///
    /// [`DvmError::OutOfMemory`] if a partial update needs to demote a PE
    /// or split a huge leaf; [`DvmError::InvalidArgument`] on misalignment.
    pub fn protect_region(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        start: VirtAddr,
        len: u64,
        perms: Permission,
    ) -> Result<(), DvmError> {
        let (lo, hi) = Self::check_range(start, len)?;
        self.protect_rec(mem, alloc, TOP_LEVEL, self.root_frame, 0, lo, hi, perms)
    }

    /// Tear down the whole table, freeing every table frame (but not the
    /// mapped data frames — those belong to the OS's VMAs).
    pub fn free_all(self, mem: &mut PhysMem, alloc: &mut BuddyAllocator) {
        Self::free_rec(mem, alloc, TOP_LEVEL, self.root_frame);
    }

    fn check_range(start: VirtAddr, len: u64) -> Result<(u64, u64), DvmError> {
        if len == 0 {
            return Err(DvmError::InvalidArgument("zero-length range"));
        }
        if !start.is_page_aligned(PageSize::Size4K) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(DvmError::InvalidArgument("range not 4K aligned"));
        }
        let hi = start
            .raw()
            .checked_add(len)
            .filter(|&hi| hi <= VA_LIMIT)
            .ok_or(DvmError::InvalidArgument("range beyond canonical VA"))?;
        Ok((start.raw(), hi))
    }

    /// Descend to `target_level` for `va`, creating tables and demoting
    /// PEs / splitting huge leaves on the way. Returns `(frame, index)` of
    /// the entry at `target_level`.
    fn ensure_level(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        va: VirtAddr,
        target_level: u8,
    ) -> Result<(u64, usize), DvmError> {
        let mut frame = self.root_frame;
        let mut level = TOP_LEVEL;
        while level > target_level {
            let idx = va.pt_index(level);
            let pte = Self::read_entry(mem, frame, idx);
            let child = if !pte.is_present() {
                let child = Self::alloc_table(mem, alloc)?;
                Self::write_entry(mem, frame, idx, Pte::table(child));
                child
            } else if pte.is_table() {
                pte.pfn()
            } else if pte.is_pe() {
                let base = align_down(va.raw(), entry_span(level));
                self.demote_entry(mem, alloc, frame, idx, level, base)?
            } else {
                // Huge leaf in the way: split it one level down.
                let base = align_down(va.raw(), entry_span(level));
                self.demote_entry(mem, alloc, frame, idx, level, base)?
            };
            frame = child;
            level -= 1;
        }
        Ok((frame, va.pt_index(level)))
    }

    /// Expand the PE or huge leaf at (`frame`, `idx`, `level`) into a
    /// child table one level down with equivalent mappings; returns the
    /// child frame.
    fn demote_entry(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        frame: u64,
        idx: usize,
        level: u8,
        entry_base_va: u64,
    ) -> Result<u64, DvmError> {
        let pte = Self::read_entry(mem, frame, idx);
        debug_assert!(level >= 2, "nothing to demote below L2");
        let child = Self::alloc_table(mem, alloc)?;
        let child_level = level - 1;
        let child_span = entry_span(child_level);
        for i in 0..ENTRIES_PER_TABLE {
            let e = if pte.is_pe() {
                let perms = pte.pe_field(i / (ENTRIES_PER_TABLE / PE_FIELDS));
                if !perms.is_mapped() {
                    Pte::EMPTY
                } else if child_level == 1 {
                    // Identity leaf: PA == VA by the PE invariant.
                    let child_va = entry_base_va + i as u64 * child_span;
                    Pte::leaf(child_va >> 12, perms)
                } else {
                    Pte::permission_entry(&[perms; PE_FIELDS])
                }
            } else {
                // Huge leaf split: contiguous translation, smaller leaves.
                debug_assert!(pte.is_leaf());
                let child_pfn = pte.pfn() + i as u64 * (child_span / PAGE_SIZE);
                Pte::leaf(child_pfn, pte.perms())
            };
            Self::write_entry(mem, child, i, e);
        }
        Self::write_entry(mem, frame, idx, Pte::table(child));
        Ok(child)
    }

    #[allow(clippy::too_many_arguments)]
    fn map_pe_rec(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        level: u8,
        frame: u64,
        table_base: u64,
        lo: u64,
        hi: u64,
        perms: Permission,
        fields: u32,
    ) -> Result<(), DvmError> {
        let span = entry_span(level);
        let idx_lo = ((lo - table_base) >> level_shift(level)) as usize;
        let idx_hi = ((hi - 1 - table_base) >> level_shift(level)) as usize;
        for idx in idx_lo..=idx_hi {
            let entry_lo = table_base + idx as u64 * span;
            let entry_hi = entry_lo + span;
            let seg_lo = lo.max(entry_lo);
            let seg_hi = hi.min(entry_hi);
            let pte = Self::read_entry(mem, frame, idx);
            // Effective slot: coarser when fewer fields are available.
            let slot = slot_span(level) * (PE_FIELDS as u64 / fields as u64);
            let pe_able = level >= 2
                && seg_lo.is_multiple_of(slot)
                && seg_hi.is_multiple_of(slot)
                && (!pte.is_present() || pte.is_pe());
            if pe_able {
                let mut pe = if pte.is_present() {
                    pte
                } else {
                    Pte::permission_entry(&[Permission::None; PE_FIELDS])
                };
                let phys_slot = slot_span(level);
                let f_lo = ((seg_lo - entry_lo) / phys_slot) as usize;
                let f_hi = ((seg_hi - entry_lo) / phys_slot) as usize;
                for f in f_lo..f_hi {
                    if pe.pe_field(f).is_mapped() {
                        return Err(DvmError::VaRangeBusy {
                            va: VirtAddr::new(entry_lo + f as u64 * phys_slot),
                            len: phys_slot,
                        });
                    }
                    pe = pe.with_pe_field(f, perms);
                }
                Self::write_entry(mem, frame, idx, pe);
            } else if level == 1 {
                if pte.is_present() {
                    return Err(DvmError::VaRangeBusy {
                        va: VirtAddr::new(entry_lo),
                        len: span,
                    });
                }
                debug_assert!(seg_lo == entry_lo && seg_hi == entry_hi);
                Self::write_entry(mem, frame, idx, Pte::leaf(entry_lo >> 12, perms));
            } else {
                let child = if !pte.is_present() {
                    let child = Self::alloc_table(mem, alloc)?;
                    Self::write_entry(mem, frame, idx, Pte::table(child));
                    child
                } else if pte.is_table() {
                    pte.pfn()
                } else if pte.is_pe() {
                    self.demote_entry(mem, alloc, frame, idx, level, entry_lo)?
                } else {
                    return Err(DvmError::VaRangeBusy {
                        va: VirtAddr::new(entry_lo),
                        len: span,
                    });
                };
                self.map_pe_rec(
                    mem,
                    alloc,
                    level - 1,
                    child,
                    entry_lo,
                    seg_lo,
                    seg_hi,
                    perms,
                    fields,
                )?;
            }
        }
        Ok(())
    }

    /// Returns `true` if the table at `frame` became empty.
    #[allow(clippy::too_many_arguments)]
    fn unmap_rec(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        level: u8,
        frame: u64,
        table_base: u64,
        lo: u64,
        hi: u64,
    ) -> Result<bool, DvmError> {
        let span = entry_span(level);
        let idx_lo = ((lo - table_base) >> level_shift(level)) as usize;
        let idx_hi = ((hi - 1 - table_base) >> level_shift(level)) as usize;
        for idx in idx_lo..=idx_hi {
            let entry_lo = table_base + idx as u64 * span;
            let entry_hi = entry_lo + span;
            let seg_lo = lo.max(entry_lo);
            let seg_hi = hi.min(entry_hi);
            let full = seg_lo == entry_lo && seg_hi == entry_hi;
            let pte = Self::read_entry(mem, frame, idx);
            if !pte.is_present() {
                continue;
            }
            if pte.is_pe() {
                let slot = slot_span(level);
                if seg_lo.is_multiple_of(slot) && seg_hi.is_multiple_of(slot) {
                    let mut pe = pte;
                    let f_lo = ((seg_lo - entry_lo) / slot) as usize;
                    let f_hi = ((seg_hi - entry_lo) / slot) as usize;
                    for f in f_lo..f_hi {
                        pe = pe.with_pe_field(f, Permission::None);
                    }
                    Self::write_entry(
                        mem,
                        frame,
                        idx,
                        if pe.pe_is_empty() { Pte::EMPTY } else { pe },
                    );
                } else {
                    let child = self.demote_entry(mem, alloc, frame, idx, level, entry_lo)?;
                    if self.unmap_rec(mem, alloc, level - 1, child, entry_lo, seg_lo, seg_hi)? {
                        Self::free_table_frame(mem, alloc, child);
                        Self::write_entry(mem, frame, idx, Pte::EMPTY);
                    }
                }
            } else if pte.is_leaf() {
                if full || level == 1 {
                    Self::write_entry(mem, frame, idx, Pte::EMPTY);
                } else {
                    let child = self.demote_entry(mem, alloc, frame, idx, level, entry_lo)?;
                    if self.unmap_rec(mem, alloc, level - 1, child, entry_lo, seg_lo, seg_hi)? {
                        Self::free_table_frame(mem, alloc, child);
                        Self::write_entry(mem, frame, idx, Pte::EMPTY);
                    }
                }
            } else {
                let child = pte.pfn();
                if self.unmap_rec(mem, alloc, level - 1, child, entry_lo, seg_lo, seg_hi)? {
                    Self::free_table_frame(mem, alloc, child);
                    Self::write_entry(mem, frame, idx, Pte::EMPTY);
                }
            }
        }
        Ok(Self::table_is_empty(mem, frame))
    }

    #[allow(clippy::too_many_arguments)]
    fn protect_rec(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BuddyAllocator,
        level: u8,
        frame: u64,
        table_base: u64,
        lo: u64,
        hi: u64,
        perms: Permission,
    ) -> Result<(), DvmError> {
        let span = entry_span(level);
        let idx_lo = ((lo - table_base) >> level_shift(level)) as usize;
        let idx_hi = ((hi - 1 - table_base) >> level_shift(level)) as usize;
        for idx in idx_lo..=idx_hi {
            let entry_lo = table_base + idx as u64 * span;
            let entry_hi = entry_lo + span;
            let seg_lo = lo.max(entry_lo);
            let seg_hi = hi.min(entry_hi);
            let full = seg_lo == entry_lo && seg_hi == entry_hi;
            let pte = Self::read_entry(mem, frame, idx);
            if !pte.is_present() {
                continue;
            }
            if pte.is_pe() {
                let slot = slot_span(level);
                if seg_lo.is_multiple_of(slot) && seg_hi.is_multiple_of(slot) {
                    let mut pe = pte;
                    let f_lo = ((seg_lo - entry_lo) / slot) as usize;
                    let f_hi = ((seg_hi - entry_lo) / slot) as usize;
                    for f in f_lo..f_hi {
                        if pe.pe_field(f).is_mapped() {
                            pe = pe.with_pe_field(f, perms);
                        }
                    }
                    Self::write_entry(mem, frame, idx, pe);
                } else {
                    let child = self.demote_entry(mem, alloc, frame, idx, level, entry_lo)?;
                    self.protect_rec(
                        mem,
                        alloc,
                        level - 1,
                        child,
                        entry_lo,
                        seg_lo,
                        seg_hi,
                        perms,
                    )?;
                }
            } else if pte.is_leaf() {
                if full || level == 1 {
                    Self::write_entry(mem, frame, idx, Pte::leaf(pte.pfn(), perms));
                } else {
                    let child = self.demote_entry(mem, alloc, frame, idx, level, entry_lo)?;
                    self.protect_rec(
                        mem,
                        alloc,
                        level - 1,
                        child,
                        entry_lo,
                        seg_lo,
                        seg_hi,
                        perms,
                    )?;
                }
            } else {
                self.protect_rec(
                    mem,
                    alloc,
                    level - 1,
                    pte.pfn(),
                    entry_lo,
                    seg_lo,
                    seg_hi,
                    perms,
                )?;
            }
        }
        Ok(())
    }

    fn table_is_empty(mem: &PhysMem, frame: u64) -> bool {
        (0..ENTRIES_PER_TABLE).all(|i| !Self::read_entry(mem, frame, i).is_present())
    }

    fn free_table_frame(mem: &mut PhysMem, alloc: &mut BuddyAllocator, frame: u64) {
        mem.note_pt_mutation();
        mem.discard_frame(frame);
        alloc.free_frames(FrameRange {
            start: frame,
            count: 1,
        });
    }

    fn free_rec(mem: &mut PhysMem, alloc: &mut BuddyAllocator, level: u8, frame: u64) {
        if level > 1 {
            for idx in 0..ENTRIES_PER_TABLE {
                let pte = Self::read_entry(mem, frame, idx);
                if pte.is_table() {
                    Self::free_rec(mem, alloc, level - 1, pte.pfn());
                }
            }
        }
        Self::free_table_frame(mem, alloc, frame);
    }
}
