//! The OS memory-management model: eager contiguous identity mapping with
//! demand-paging fallback (paper Figure 7), fork with copy-on-write, and
//! functional CPU-side access to process memory.

use crate::process::{backing_granule, Backing, Pid, Process, Vma, VmaKind};
use dvm_mem::{FrameRange, Machine, MachineConfig};
use dvm_pagetable::{PageTable, PermBitmap};
use dvm_sim::{DetRng, U64Map, U64Set};
use dvm_types::{
    align_up, AccessKind, DvmError, Fault, FaultKind, PageSize, Permission, PhysAddr, VirtAddr,
    PAGE_SIZE,
};
use std::collections::HashMap;

/// How the OS builds page tables for mapped regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapFlavor {
    /// DVM: Permission Entries at the highest possible level.
    DvmPe,
    /// Conventional: regular leaf PTEs of a uniform page size; identity
    /// allocations are padded/aligned to that size so every leaf can use it
    /// (the hugetlbfs-style invariant the conventional TLB models rely on).
    Paged(PageSize),
}

impl MapFlavor {
    fn leaf(self) -> Option<PageSize> {
        match self {
            MapFlavor::DvmPe => None,
            MapFlavor::Paged(ps) => Some(ps),
        }
    }

    /// Granule identity allocations of `len` bytes are padded to. Under
    /// DVM this is the PE slot span at the level that can cover the whole
    /// region: 128 KiB (L2 slots) normally, 64 MiB (L3 slots) for GiB-scale
    /// regions — padding to it means every heap region is coverable
    /// entirely by Permission Entries at the highest level, keeping the
    /// page table (and thus the AVC working set) tiny. The sub-slot
    /// alternative would degrade whole entries to 4 KiB leaf tables.
    /// Huge-page flavours pad to the page size (the hugetlbfs invariant).
    pub fn identity_granule(self, len: u64) -> u64 {
        match self {
            MapFlavor::DvmPe if len >= (1 << 30) => dvm_pagetable::slot_span(3),
            MapFlavor::DvmPe => dvm_pagetable::slot_span(2),
            MapFlavor::Paged(ps) => ps.bytes(),
        }
    }
}

/// OS construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct OsConfig {
    /// Machine memory.
    pub machine: MachineConfig,
    /// Page-table flavour.
    pub flavor: MapFlavor,
    /// Maintain the DVM-BM permission bitmap alongside page tables.
    pub maintain_bitmap: bool,
    /// Attempt identity mapping on `mmap` (disable for the demand-paging
    /// ablation).
    pub identity_enabled: bool,
    /// Seed for ASLR placement decisions.
    pub aslr_seed: u64,
}

impl Default for OsConfig {
    fn default() -> Self {
        Self {
            machine: MachineConfig::default(),
            flavor: MapFlavor::DvmPe,
            maintain_bitmap: false,
            identity_enabled: true,
            aslr_seed: 0x5eed,
        }
    }
}

/// OS-level event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Successful identity mappings.
    pub identity_maps: u64,
    /// Bytes *requested* (page-aligned `mmap` length) that ended up
    /// identity mapped. Success-*rate* metrics (the churn time-series)
    /// must use this: comparing padded numerators against unpadded
    /// requests over-counts identity coverage by up to the padding
    /// granule per mapping.
    pub identity_bytes_requested: u64,
    /// Bytes actually reserved for identity mappings after padding to the
    /// flavour granule ([`MapFlavor::identity_granule`]). This is the
    /// physical-memory footprint; Table 4's percentage uses the padded
    /// VMA lengths (via [`Process::identity_bytes`]) for both numerator
    /// and denominator, so it stays consistent.
    pub identity_bytes_padded: u64,
    /// `mmap`s that fell back to demand paging.
    pub identity_fallbacks: u64,
    /// Bytes mapped by the fallback path (padded to the backing granule).
    pub demand_bytes: u64,
    /// Copy-on-write faults resolved.
    pub cow_faults: u64,
    /// CoW faults resolved by reusing a now-exclusive frame.
    pub cow_reuses: u64,
    /// Pages swapped out (extension; see `swap`).
    pub swapped_out: u64,
    /// Pages swapped back in.
    pub swapped_in: u64,
    /// Swap-ins that re-established identity mapping.
    pub swap_reidentified: u64,
}

/// The simulated operating system.
///
/// Owns the machine (allocator + physical memory), all processes and the
/// optional DVM-BM bitmap. See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Os {
    /// The machine this OS manages. Public because the MMU models borrow
    /// `machine.mem` while the OS is otherwise immutable.
    pub machine: Machine,
    flavor: MapFlavor,
    identity_enabled: bool,
    /// DVM-BM permission bitmap (present when configured).
    pub bitmap: Option<PermBitmap>,
    pub(crate) processes: HashMap<Pid, Process>,
    next_pid: Pid,
    rng: DetRng,
    /// Reference counts for frames shared between processes; a frame not
    /// present here has exactly one owner.
    frame_refs: U64Map<u32>,
    /// Event counters.
    pub stats: OsStats,
}

impl Os {
    /// Boot an OS on a fresh machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid or (when
    /// `maintain_bitmap` is set) the bitmap allocation fails.
    pub fn new(config: OsConfig) -> Self {
        let mut machine = Machine::new(config.machine);
        let bitmap = config.maintain_bitmap.then(|| {
            PermBitmap::new(
                &mut machine.mem,
                &mut machine.allocator,
                config.machine.mem_bytes,
            )
            .expect("bitmap allocation at boot")
        });
        Self {
            machine,
            flavor: config.flavor,
            identity_enabled: config.identity_enabled,
            bitmap,
            processes: HashMap::new(),
            next_pid: 1,
            rng: DetRng::new(config.aslr_seed),
            frame_refs: U64Map::default(),
            stats: OsStats::default(),
        }
    }

    /// The configured page-table flavour.
    pub fn flavor(&self) -> MapFlavor {
        self.flavor
    }

    /// Create a new, empty process.
    ///
    /// # Errors
    ///
    /// [`DvmError::OutOfMemory`] if the root page table cannot be allocated.
    pub fn spawn(&mut self) -> Result<Pid, DvmError> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let pt = PageTable::new(&mut self.machine.mem, &mut self.machine.allocator)?;
        // ASLR for the demand-paged area: 28 bits of entropy, page shifted,
        // parked above any possible physical address (§4.3.2).
        let demand_base = (1u64 << 46) + (self.rng.below(1 << 28) << 12);
        self.processes
            .insert(pid, Process::new(pid, pt, demand_base));
        Ok(pid)
    }

    /// Borrow a process.
    ///
    /// # Errors
    ///
    /// [`DvmError::NoSuchProcess`] if `pid` does not exist.
    pub fn process(&self, pid: Pid) -> Result<&Process, DvmError> {
        self.processes.get(&pid).ok_or(DvmError::NoSuchProcess(pid))
    }

    fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, DvmError> {
        self.processes
            .get_mut(&pid)
            .ok_or(DvmError::NoSuchProcess(pid))
    }

    /// `mmap`: allocate and map `len` bytes with identity mapping when
    /// possible, demand paging otherwise (paper Figure 7). Returns the
    /// region's virtual address; whether it is identity mapped can be
    /// queried via [`Process::vma_at`].
    ///
    /// # Errors
    ///
    /// [`DvmError::OutOfMemory`] if even scattered 4 KiB allocation fails;
    /// [`DvmError::InvalidArgument`] for a zero-length request;
    /// [`DvmError::NoSuchProcess`] for an unknown pid.
    pub fn mmap(&mut self, pid: Pid, len: u64, perms: Permission) -> Result<VirtAddr, DvmError> {
        self.mmap_kind(pid, len, perms, VmaKind::Heap)
    }

    /// [`Os::mmap`] with an explicit segment kind (code/data/stack mapping
    /// for cDVM experiments).
    ///
    /// # Errors
    ///
    /// As for [`Os::mmap`].
    pub fn mmap_kind(
        &mut self,
        pid: Pid,
        len: u64,
        perms: Permission,
        kind: VmaKind,
    ) -> Result<VirtAddr, DvmError> {
        if len == 0 {
            return Err(DvmError::InvalidArgument("mmap of zero bytes"));
        }
        self.process(pid)?; // existence check
        let len = align_up(len, PAGE_SIZE);

        if self.identity_enabled {
            if let Some(va) = self.try_identity_map(pid, len, perms, kind)? {
                return Ok(va);
            }
            self.stats.identity_fallbacks += 1;
        }
        self.demand_map(pid, len, perms, kind)
    }

    /// The identity-mapping attempt: contiguous PM allocation, then
    /// `VA := PA` if that virtual range is free.
    fn try_identity_map(
        &mut self,
        pid: Pid,
        len: u64,
        perms: Permission,
        kind: VmaKind,
    ) -> Result<Option<VirtAddr>, DvmError> {
        let granule = self.flavor.identity_granule(len);
        let padded = align_up(len, granule);
        let frames = padded / PAGE_SIZE;
        // Fast path: one naturally aligned power-of-two buddy block.
        // Fallback: first-fit over coalesced free runs, which succeeds
        // whenever an aligned contiguous run exists at all.
        let range = match self.machine.allocator.alloc_frames(frames) {
            Ok(range) => range,
            Err(DvmError::OutOfMemory { .. }) => {
                match self
                    .machine
                    .allocator
                    .alloc_frames_first_fit(frames, granule / PAGE_SIZE)
                {
                    Ok(range) => range,
                    Err(DvmError::OutOfMemory { .. }) => return Ok(None),
                    Err(e) => return Err(e),
                }
            }
            Err(e) => return Err(e),
        };
        let va = PhysAddr::from_frame(range.start).to_identity_va();
        let proc = self.processes.get_mut(&pid).expect("checked");
        if !proc.range_is_free(va, padded) {
            self.machine.allocator.free_frames(range);
            return Ok(None);
        }
        let map_result = match self.flavor {
            MapFlavor::DvmPe => proc.page_table.map_identity_pe(
                &mut self.machine.mem,
                &mut self.machine.allocator,
                va,
                padded,
                perms,
            ),
            MapFlavor::Paged(ps) => proc.page_table.map_identity_leaves(
                &mut self.machine.mem,
                &mut self.machine.allocator,
                va,
                padded,
                perms,
                ps,
            ),
        };
        if let Err(e) = map_result {
            self.machine.allocator.free_frames(range);
            return match e {
                DvmError::OutOfMemory { .. } => Ok(None),
                other => Err(other),
            };
        }
        if let Some(bitmap) = &self.bitmap {
            bitmap.set_bytes(&mut self.machine.mem, va, padded, perms);
        }
        proc.vmas.insert(
            va.raw(),
            Vma {
                start: va,
                len: padded,
                perms,
                kind,
                backing: Backing::Identity(range),
                cow: false,
                cow_pages: U64Map::default(),
                swapped: U64Set::default(),
            },
        );
        self.stats.identity_maps += 1;
        self.stats.identity_bytes_requested += len;
        self.stats.identity_bytes_padded += padded;
        Ok(Some(va))
    }

    /// Demand-paging fallback: high-area VA, scattered granule-sized
    /// physical chunks, non-identity leaf mappings.
    fn demand_map(
        &mut self,
        pid: Pid,
        len: u64,
        perms: Permission,
        kind: VmaKind,
    ) -> Result<VirtAddr, DvmError> {
        let granule = backing_granule(self.flavor.leaf());
        let padded = align_up(len, granule);
        let proc = self.processes.get_mut(&pid).expect("checked");
        proc.demand_cursor = align_up(proc.demand_cursor, granule);
        let va = proc.take_demand_range(padded);
        let chunk_frames = granule / PAGE_SIZE;
        let mut frames: Vec<u64> = Vec::with_capacity((padded / PAGE_SIZE) as usize);
        let mut chunks: Vec<FrameRange> = Vec::new();
        for _ in 0..(padded / granule) {
            match self.machine.allocator.alloc_frames(chunk_frames) {
                Ok(range) => {
                    frames.extend(range.start..range.end());
                    chunks.push(range);
                }
                Err(e) => {
                    for c in chunks {
                        self.machine.allocator.free_frames(c);
                    }
                    return Err(e);
                }
            }
        }
        let leaf = self.flavor.leaf().unwrap_or(PageSize::Size4K);
        for (i, chunk) in chunks.iter().enumerate() {
            let mapped = proc.page_table.map_page(
                &mut self.machine.mem,
                &mut self.machine.allocator,
                va + i as u64 * granule,
                PhysAddr::from_frame(chunk.start),
                leaf,
                perms,
            );
            if let Err(e) = mapped {
                // Out of table frames mid-way: drop the whole leaves
                // mapped so far (no split, so no allocation) and give
                // every data chunk back.
                if i > 0 {
                    proc.page_table.unmap_region(
                        &mut self.machine.mem,
                        &mut self.machine.allocator,
                        va,
                        i as u64 * granule,
                    )?;
                }
                for c in chunks {
                    self.machine.allocator.free_frames(c);
                }
                return Err(e);
            }
        }
        proc.vmas.insert(
            va.raw(),
            Vma {
                start: va,
                len: padded,
                perms,
                kind,
                backing: Backing::Paged(frames),
                cow: false,
                cow_pages: U64Map::default(),
                swapped: U64Set::default(),
            },
        );
        self.stats.demand_bytes += padded;
        Ok(va)
    }

    /// Unmap and free a whole region previously returned by [`Os::mmap`].
    ///
    /// # Errors
    ///
    /// [`DvmError::InvalidArgument`] if `va` is not the start of a VMA.
    pub fn munmap(&mut self, pid: Pid, va: VirtAddr) -> Result<(), DvmError> {
        let proc = self
            .processes
            .get_mut(&pid)
            .ok_or(DvmError::NoSuchProcess(pid))?;
        let vma = proc
            .vmas
            .remove(&va.raw())
            .ok_or(DvmError::InvalidArgument("munmap of unknown region"))?;
        proc.page_table.unmap_region(
            &mut self.machine.mem,
            &mut self.machine.allocator,
            vma.start,
            vma.len,
        )?;
        if let Some(bitmap) = &self.bitmap {
            bitmap.set_bytes(&mut self.machine.mem, vma.start, vma.len, Permission::None);
        }
        self.release_vma_frames(&vma);
        Ok(())
    }

    /// Change the logical permissions of a whole VMA.
    ///
    /// # Errors
    ///
    /// [`DvmError::InvalidArgument`] if `va` is not the start of a VMA.
    pub fn mprotect(&mut self, pid: Pid, va: VirtAddr, perms: Permission) -> Result<(), DvmError> {
        let proc = self
            .processes
            .get_mut(&pid)
            .ok_or(DvmError::NoSuchProcess(pid))?;
        let (start, len) = {
            let vma = proc
                .vmas
                .get_mut(&va.raw())
                .ok_or(DvmError::InvalidArgument("mprotect of unknown region"))?;
            vma.perms = perms;
            (vma.start, vma.len)
        };
        proc.page_table.protect_region(
            &mut self.machine.mem,
            &mut self.machine.allocator,
            start,
            len,
            perms,
        )?;
        if let Some(bitmap) = &self.bitmap {
            // Only identity pages are recorded in the bitmap; CoW overrides
            // were already cleared to 00 when they stopped being identity.
            let is_identity = self
                .processes
                .get(&pid)
                .and_then(|p| p.vma_at(start))
                .is_some_and(Vma::is_identity);
            if is_identity {
                bitmap.set_bytes(&mut self.machine.mem, start, len, perms);
            }
        }
        Ok(())
    }

    /// Fork: duplicate `parent`'s address space copy-on-write (paper §5).
    /// Writable regions are hardware-protected read-only in both processes;
    /// the first write to a shared page copies it, which also breaks that
    /// page's identity mapping — hence the paper's advice to fork *before*
    /// allocating accelerator-shared structures.
    ///
    /// # Errors
    ///
    /// [`DvmError::NoSuchProcess`] / [`DvmError::OutOfMemory`]. A fork
    /// that fails leaves no child behind and no frame with an extra
    /// reference.
    pub fn fork(&mut self, parent: Pid) -> Result<Pid, DvmError> {
        self.process(parent)?;
        let child = self.spawn()?;
        if let Err(e) = self.share_address_space(parent, child) {
            // Failed mid-build: the partial child holds a reference to
            // exactly the VMAs it finished mapping; exiting releases them
            // and its page table.
            self.exit(child).expect("the partial child exists");
            return Err(e);
        }
        Ok(child)
    }

    /// Map every VMA of `parent` copy-on-write into the fresh `child`.
    /// A VMA's frames gain the child's reference only once the child's
    /// mapping of that VMA is complete.
    fn share_address_space(&mut self, parent: Pid, child: Pid) -> Result<(), DvmError> {
        let parent_vmas: Vec<Vma> = self.process(parent)?.vmas().cloned().collect();
        let parent_cursor = self.process(parent)?.demand_cursor;

        for vma in parent_vmas {
            let writable = vma.perms.allows(AccessKind::Write);
            let hw_perms = if writable {
                Permission::ReadOnly
            } else {
                vma.perms
            };

            // Protect the parent's mappings read-only.
            if writable {
                let parent_proc = self.processes.get_mut(&parent).expect("checked");
                parent_proc.page_table.protect_region(
                    &mut self.machine.mem,
                    &mut self.machine.allocator,
                    vma.start,
                    vma.len,
                    hw_perms,
                )?;
                if let Some(bitmap) = &self.bitmap {
                    if vma.is_identity() {
                        bitmap.set_bytes(&mut self.machine.mem, vma.start, vma.len, hw_perms);
                    }
                }
                let parent_proc = self.processes.get_mut(&parent).expect("checked");
                if let Some(v) = parent_proc.vma_at_mut(vma.start) {
                    v.cow = true;
                }
            }

            // Build the child's mappings: same translations, CoW-protected.
            let child_proc = self.processes.get_mut(&child).expect("fresh child");
            match &vma.backing {
                Backing::Identity(_) => {
                    match self.flavor {
                        MapFlavor::DvmPe => child_proc.page_table.map_identity_pe(
                            &mut self.machine.mem,
                            &mut self.machine.allocator,
                            vma.start,
                            vma.len,
                            hw_perms,
                        )?,
                        MapFlavor::Paged(ps) => child_proc.page_table.map_identity_leaves(
                            &mut self.machine.mem,
                            &mut self.machine.allocator,
                            vma.start,
                            vma.len,
                            hw_perms,
                            ps,
                        )?,
                    }
                    // Re-point pages that the parent had already privatized
                    // — in page order: the remap sequence allocates table
                    // frames, and HashMap iteration order would make the
                    // allocator layout differ run to run.
                    let mut privatized: Vec<(u64, u64)> =
                        vma.cow_pages.iter().map(|(&p, &f)| (p, f)).collect();
                    privatized.sort_unstable();
                    for (page, frame) in privatized {
                        child_proc.page_table.remap_page(
                            &mut self.machine.mem,
                            &mut self.machine.allocator,
                            vma.start + page * PAGE_SIZE,
                            PhysAddr::from_frame(frame),
                            hw_perms,
                        )?;
                    }
                }
                Backing::Paged(_) => {
                    for page in 0..vma.pages() {
                        child_proc.page_table.map_page(
                            &mut self.machine.mem,
                            &mut self.machine.allocator,
                            vma.start + page * PAGE_SIZE,
                            PhysAddr::from_frame(vma.frame_of_page(page)),
                            PageSize::Size4K,
                            hw_perms,
                        )?;
                    }
                }
            }
            let mut child_vma = vma.clone();
            child_vma.cow = writable;
            child_proc.vmas.insert(child_vma.start.raw(), child_vma);

            // Share every currently backing frame.
            for page in 0..vma.pages() {
                let frame = vma.frame_of_page(page);
                *self.frame_refs.entry(frame).or_insert(1) += 1;
            }
        }
        let child_proc = self.processes.get_mut(&child).expect("fresh child");
        child_proc.demand_cursor = child_proc.demand_cursor.max(parent_cursor);
        Ok(())
    }

    /// `vfork`: create a child that *shares* the parent's address space
    /// (no copying, no CoW) — the paper's recommended way to create
    /// processes after accelerator-shared structures exist, since it
    /// cannot break identity mappings (§5). The child must not outlive
    /// the parent's address space; exiting a vfork child releases nothing.
    ///
    /// # Errors
    ///
    /// [`DvmError::NoSuchProcess`] if `parent` does not exist.
    pub fn vfork(&mut self, parent: Pid) -> Result<Pid, DvmError> {
        let (parent_pt, parent_vmas, parent_cursor) = {
            let p = self.process(parent)?;
            (p.page_table, p.vmas.clone(), p.demand_cursor)
        };
        let pid = self.next_pid;
        self.next_pid += 1;
        let mut child = Process::new(pid, parent_pt, parent_cursor);
        child.vmas = parent_vmas;
        child.borrowed_address_space = true;
        self.processes.insert(pid, child);
        Ok(pid)
    }

    /// Attempt to resolve a fault raised by the IOMMU or a CPU access on
    /// behalf of `pid`. Returns `true` if the fault was a CoW write that
    /// has been resolved and the access should be retried.
    ///
    /// # Errors
    ///
    /// [`DvmError::OutOfMemory`] if a copy frame cannot be allocated.
    pub fn resolve_fault(&mut self, pid: Pid, fault: Fault) -> Result<bool, DvmError> {
        if fault.kind != FaultKind::Protection || fault.access != AccessKind::Write {
            return Ok(false);
        }
        let proc = self.process_mut(pid)?;
        let Some(vma) = proc.vma_at(fault.va) else {
            return Ok(false);
        };
        if !vma.cow || !vma.perms.allows(AccessKind::Write) {
            return Ok(false);
        }
        let vma_start = vma.start;
        let vma_perms = vma.perms;
        let page_idx = (fault.va - vma_start) / PAGE_SIZE;
        let old_frame = vma.frame_of_page(page_idx);
        let page_va = vma_start + page_idx * PAGE_SIZE;

        let shared = self.frame_refs.contains_key(&old_frame);
        if !shared {
            // Sole owner again: restore write permission in place (keeps
            // the identity mapping intact).
            let proc = self.processes.get_mut(&pid).expect("checked");
            proc.page_table.protect_region(
                &mut self.machine.mem,
                &mut self.machine.allocator,
                page_va,
                PAGE_SIZE,
                vma_perms,
            )?;
            if let Some(bitmap) = &self.bitmap {
                // The system-wide bitmap cannot tell which process is
                // asking, and a sibling may have privatized this VA; keep
                // it 00 so DVM-BM falls back to the (per-process) page
                // table, which is always correct.
                bitmap.set_bytes(&mut self.machine.mem, page_va, PAGE_SIZE, Permission::None);
            }
            self.stats.cow_faults += 1;
            self.stats.cow_reuses += 1;
            return Ok(true);
        }

        // Copy the page; the copy cannot be identity mapped (§5).
        let new_frame = self.machine.allocator.alloc_frame()?;
        self.machine.mem.copy_frame(old_frame, new_frame);
        let proc = self.processes.get_mut(&pid).expect("checked");
        proc.page_table.remap_page(
            &mut self.machine.mem,
            &mut self.machine.allocator,
            page_va,
            PhysAddr::from_frame(new_frame),
            vma_perms,
        )?;
        if let Some(vma) = proc.vma_at_mut(fault.va) {
            vma.cow_pages.insert(page_idx, new_frame);
        }
        if let Some(bitmap) = &self.bitmap {
            // The page is no longer identity mapped: 00 forces fallback.
            bitmap.set_bytes(&mut self.machine.mem, page_va, PAGE_SIZE, Permission::None);
        }
        self.release_frame_ref(old_frame);
        self.stats.cow_faults += 1;
        Ok(true)
    }

    /// Terminate a process, releasing its memory and page table.
    ///
    /// # Errors
    ///
    /// [`DvmError::NoSuchProcess`] if `pid` does not exist.
    pub fn exit(&mut self, pid: Pid) -> Result<(), DvmError> {
        let proc = self
            .processes
            .remove(&pid)
            .ok_or(DvmError::NoSuchProcess(pid))?;
        if proc.borrowed_address_space {
            // A vfork child borrows its parent's address space; nothing
            // to release.
            return Ok(());
        }
        for vma in proc.vmas.values() {
            if let Some(bitmap) = &self.bitmap {
                if vma.is_identity() {
                    bitmap.set_bytes(&mut self.machine.mem, vma.start, vma.len, Permission::None);
                }
            }
            self.release_vma_frames(vma);
        }
        proc.page_table
            .free_all(&mut self.machine.mem, &mut self.machine.allocator);
        Ok(())
    }

    /// Release a VMA's data frames, honouring CoW sharing, in one walk in
    /// page order. A frame this VMA holds the last reference to joins the
    /// current run when it directly follows it and starts a new run
    /// otherwise; each run goes back with one `free_subrange`. A shared
    /// frame only drops a reference, and a swapped-out page has no frame.
    /// So an unshared identity region is one run, and demand-paged frames
    /// form runs wherever their allocation made them contiguous. Freeing a
    /// run at once leaves the allocator exactly as freeing its frames one
    /// at a time in page order would (DESIGN.md, "Teardown by runs").
    fn release_vma_frames(&mut self, vma: &Vma) {
        let mut run = FrameRange { start: 0, count: 0 };
        for page in 0..vma.pages() {
            if vma.swapped.contains(&page) {
                continue;
            }
            // After a CoW copy the process already dropped its reference
            // to the hidden original (in `resolve_fault`), so the frame
            // currently backing the page is the only one to release.
            let frame = vma.frame_of_page(page);
            if self.drop_shared_ref(frame) {
                continue;
            }
            self.machine.mem.discard_frame(frame);
            if frame != run.end() {
                self.free_run(run);
                run = FrameRange {
                    start: frame,
                    count: 0,
                };
            }
            run.count += 1;
        }
        self.free_run(run);
    }

    /// Give a run of already discarded frames back to the allocator.
    fn free_run(&mut self, run: FrameRange) {
        if run.count > 0 {
            self.machine.allocator.free_subrange(run);
        }
    }

    /// Internal: release one frame during swap-out (honours CoW sharing).
    pub(crate) fn release_frame_for_swap(&mut self, frame: u64) {
        self.release_frame_ref(frame);
    }

    /// Internal: try to allocate a *specific* frame (swap-in wants the
    /// identity frame back). Returns `false` if it is in use.
    pub(crate) fn try_claim_specific_frame(&mut self, frame: u64) -> bool {
        self.machine.allocator.alloc_specific_frame(frame)
    }

    /// Drop one reference to `frame`; frees it when the last owner lets go.
    fn release_frame_ref(&mut self, frame: u64) {
        if !self.drop_shared_ref(frame) {
            self.machine.mem.discard_frame(frame);
            self.machine.allocator.free_subrange(FrameRange {
                start: frame,
                count: 1,
            });
        }
    }

    /// Drop one reference to `frame` if another owner keeps it; returns
    /// `false`, changing nothing, when the caller holds the last one.
    fn drop_shared_ref(&mut self, frame: u64) -> bool {
        match self.frame_refs.get_mut(&frame) {
            None => return false,
            Some(n) if *n > 2 => *n -= 1,
            Some(_) => {
                self.frame_refs.remove(&frame);
            }
        }
        true
    }

    /// Translate a VA in `pid`'s address space (functional, no timing).
    pub fn translate(&self, pid: Pid, va: VirtAddr) -> Option<(PhysAddr, Permission)> {
        self.processes
            .get(&pid)?
            .page_table
            .translate(&self.machine.mem, va)
    }

    /// CPU-side functional write with CoW resolution, page by page.
    ///
    /// # Errors
    ///
    /// [`DvmError::Fault`] if any page is unmapped or not writable.
    pub fn write_bytes(&mut self, pid: Pid, va: VirtAddr, data: &[u8]) -> Result<(), DvmError> {
        let mut offset = 0usize;
        while offset < data.len() {
            let cur = va + offset as u64;
            let in_page = (PAGE_SIZE - cur.page_offset(PageSize::Size4K)) as usize;
            let n = in_page.min(data.len() - offset);
            let pa = self.resolve_for_write(pid, cur)?;
            self.machine.mem.write_bytes(pa, &data[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// CPU-side functional read, page by page.
    ///
    /// # Errors
    ///
    /// [`DvmError::Fault`] if any page is unmapped.
    pub fn read_bytes(&self, pid: Pid, va: VirtAddr, buf: &mut [u8]) -> Result<(), DvmError> {
        let mut offset = 0usize;
        while offset < buf.len() {
            let cur = va + offset as u64;
            let in_page = (PAGE_SIZE - cur.page_offset(PageSize::Size4K)) as usize;
            let n = in_page.min(buf.len() - offset);
            let (pa, perms) = self.translate(pid, cur).ok_or(DvmError::Fault(Fault {
                va: cur,
                access: AccessKind::Read,
                kind: FaultKind::NotMapped,
            }))?;
            if !perms.allows(AccessKind::Read) {
                return Err(DvmError::Fault(Fault {
                    va: cur,
                    access: AccessKind::Read,
                    kind: FaultKind::Protection,
                }));
            }
            self.machine
                .mem
                .read_bytes(pa, &mut buf[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// Functional 8-byte write (CoW-aware).
    ///
    /// # Errors
    ///
    /// As for [`Os::write_bytes`].
    pub fn write_u64(&mut self, pid: Pid, va: VirtAddr, value: u64) -> Result<(), DvmError> {
        self.write_bytes(pid, va, &value.to_le_bytes())
    }

    /// Functional 8-byte read.
    ///
    /// # Errors
    ///
    /// As for [`Os::read_bytes`].
    pub fn read_u64(&self, pid: Pid, va: VirtAddr) -> Result<u64, DvmError> {
        let mut buf = [0u8; 8];
        self.read_bytes(pid, va, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn resolve_for_write(&mut self, pid: Pid, va: VirtAddr) -> Result<PhysAddr, DvmError> {
        for _ in 0..2 {
            match self.translate(pid, va) {
                Some((pa, perms)) if perms.allows(AccessKind::Write) => return Ok(pa),
                Some((_, _)) => {
                    let fault = Fault {
                        va,
                        access: AccessKind::Write,
                        kind: FaultKind::Protection,
                    };
                    if !self.resolve_fault(pid, fault)? {
                        return Err(fault.into());
                    }
                }
                None => {
                    return Err(DvmError::Fault(Fault {
                        va,
                        access: AccessKind::Write,
                        kind: FaultKind::NotMapped,
                    }))
                }
            }
        }
        Err(DvmError::Fault(Fault {
            va,
            access: AccessKind::Write,
            kind: FaultKind::Protection,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os_with(flavor: MapFlavor) -> Os {
        Os::new(OsConfig {
            machine: MachineConfig {
                mem_bytes: 256 << 20,
            },
            flavor,
            ..OsConfig::default()
        })
    }

    /// Pins the requested/padded accounting split: a success-rate metric
    /// must divide like with like, so the two quantities are tracked
    /// separately instead of the old padded-only `identity_bytes`.
    #[test]
    fn identity_bytes_requested_vs_padded() {
        let mut os = os_with(MapFlavor::DvmPe);
        let pid = os.spawn().unwrap();
        os.mmap(pid, 5000, Permission::ReadWrite).unwrap();
        // The request rounds up to whole pages (2); the physical
        // reservation pads to the 128 KiB PE slot span.
        assert_eq!(os.stats.identity_maps, 1);
        assert_eq!(os.stats.identity_bytes_requested, 2 * PAGE_SIZE);
        assert_eq!(os.stats.identity_bytes_padded, dvm_pagetable::slot_span(2));
        assert!(os.stats.identity_bytes_padded > os.stats.identity_bytes_requested);

        let mut os = os_with(MapFlavor::Paged(PageSize::Size2M));
        let pid = os.spawn().unwrap();
        os.mmap(pid, PAGE_SIZE, Permission::ReadWrite).unwrap();
        assert_eq!(os.stats.identity_bytes_requested, PAGE_SIZE);
        assert_eq!(os.stats.identity_bytes_padded, 2 << 20);
        // The padded footprint is also what the VMA view reports (the
        // Table 4 numerator).
        assert_eq!(os.process(pid).unwrap().identity_bytes(), 2 << 20);
    }
}
