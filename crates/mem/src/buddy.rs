//! A binary buddy frame allocator with eager contiguous allocation.
//!
//! This is the reproduction's stand-in for the Linux buddy allocator plus
//! the eager-paging modifications of Karakostas et al. that the paper
//! builds on (§4.3.1): an allocation of `n` frames grabs the smallest
//! power-of-two block that fits, then immediately frees the tail so only
//! `n` frames stay allocated. Blocks are naturally aligned, which is what
//! lets the OS later map identity regions with 2 MB / 1 GB leaf entries.
//!
//! Representation: each order's free blocks are a bitmap over block
//! index (`start >> order`) with summary levels above it, so the
//! lowest-addressed free block of an order is a few `trailing_zeros`
//! calls. Allocation always takes the lowest-addressed suitable block,
//! so allocation sequences are reproducible run-to-run. The allocation
//! map is two bitmaps over frames (allocated, and first frame of a
//! tracked allocation); coalesced free runs are word scans of the first.
//! Every bitmap grows on first use, so a fresh machine costs a few words
//! whatever its size.

use dvm_types::DvmError;
use std::fmt;

/// A contiguous range of physical frames returned by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRange {
    /// First frame number.
    pub start: u64,
    /// Number of frames.
    pub count: u64,
}

impl FrameRange {
    /// One-past-the-end frame number.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.count
    }

    /// `true` if `frame` lies inside this range.
    #[inline]
    pub fn contains(&self, frame: u64) -> bool {
        (self.start..self.end()).contains(&frame)
    }
}

/// Point-in-time allocator statistics (for fragmentation studies, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuddyStats {
    /// Total frames managed.
    pub total_frames: u64,
    /// Frames currently free.
    pub free_frames: u64,
    /// Frames currently allocated.
    pub allocated_frames: u64,
    /// Size (in frames) of the largest free block.
    pub largest_free_block: u64,
    /// Number of distinct free blocks (higher = more fragmented).
    pub free_block_count: u64,
}

/// Histogram of *coalesced free runs* (see [`BuddyAllocator::free_runs`]),
/// the fragmentation ground truth an identity-mapping OS cares about:
/// identity success depends on contiguous runs existing, not on how the
/// buddy free lists happen to slice them into power-of-two blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeSpanHistogram {
    /// `buckets[k]` counts runs of length `l` frames with
    /// `2^k <= l < 2^(k+1)`; the last bucket also absorbs anything larger.
    /// The vector length is fixed by the allocator's maximum order, so
    /// histograms from equally sized machines are directly comparable.
    pub buckets: Vec<u64>,
    /// Total number of runs (the sum over `buckets`).
    pub runs: u64,
    /// Length in frames of the largest run (0 when nothing is free).
    pub largest_run: u64,
}

/// A growable bitmap. Bits past the end of `words` read as zero, so a
/// bitmap costs host memory only up to its highest bit ever set.
#[derive(Clone, Default)]
struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// Word `w`; zero past the end.
    #[inline]
    fn word(&self, w: u64) -> u64 {
        self.words.get(w as usize).copied().unwrap_or(0)
    }

    #[inline]
    fn get(&self, i: u64) -> bool {
        self.word(i / 64) >> (i % 64) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: u64) {
        let w = (i / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: u64) {
        if let Some(word) = self.words.get_mut((i / 64) as usize) {
            *word &= !(1 << (i % 64));
        }
    }

    /// Set (`on`) or clear every bit of `[start, end)`.
    fn fill(&mut self, start: u64, end: u64, on: bool) {
        if start >= end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        if on && last >= self.words.len() as u64 {
            self.words.resize(last as usize + 1, 0);
        }
        // Clearing past the end has nothing to clear.
        for w in first..(last + 1).min(self.words.len() as u64) {
            let lo = if w == first { start % 64 } else { 0 };
            let hi = if w == last { (end - 1) % 64 } else { 63 };
            let mask = (u64::MAX << lo) & (u64::MAX >> (63 - hi));
            if on {
                self.words[w as usize] |= mask;
            } else {
                self.words[w as usize] &= !mask;
            }
        }
    }

    /// The first index in `[from, limit)` whose bit is `on`, or `limit`.
    #[inline]
    fn find(&self, from: u64, limit: u64, on: bool) -> u64 {
        if from >= limit {
            return limit;
        }
        let flip = if on { 0 } else { u64::MAX };
        let mut w = from / 64;
        let mut bits = (self.word(w) ^ flip) & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            // No bit is set past the end.
            if w * 64 >= limit || (on && w >= self.words.len() as u64) {
                return limit;
            }
            bits = self.word(w) ^ flip;
        }
        (w * 64 + u64::from(bits.trailing_zeros())).min(limit)
    }

    /// Indices of the set bits, ascending.
    fn ones(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let bit = u64::from(bits.trailing_zeros());
                bits &= bits.wrapping_sub(1);
                (bit < 64).then_some(w as u64 * 64 + bit)
            })
        })
    }
}

/// Two bitmaps are equal when they hold the same bits, whatever their
/// lengths.
impl PartialEq for Bits {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for Bits {}

/// The free blocks of one order, as a bitmap over `start >> order`. Above
/// it sit summary levels, each with one bit per non-zero word of the level
/// below, up to a level of a single word; the lowest block is one
/// `trailing_zeros` per level.
#[derive(Clone, PartialEq, Eq)]
struct BlockSet {
    levels: Vec<Bits>,
    len: u64,
}

impl BlockSet {
    /// An empty set of block indices below `slots`.
    fn new(slots: u64) -> Self {
        let mut levels = vec![Bits::default()];
        let mut span = slots;
        while span > 64 {
            span = span.div_ceil(64);
            levels.push(Bits::default());
        }
        Self { levels, len: 0 }
    }

    #[inline]
    fn contains(&self, i: u64) -> bool {
        self.levels[0].get(i)
    }

    fn insert(&mut self, mut i: u64) {
        debug_assert!(!self.contains(i), "block {i} is already free");
        for level in &mut self.levels {
            let was_empty = level.word(i / 64) == 0;
            level.set(i);
            if !was_empty {
                break;
            }
            i /= 64;
        }
        self.len += 1;
    }

    /// Remove block `i`; `false` if it was not in the set.
    fn remove(&mut self, mut i: u64) -> bool {
        if !self.contains(i) {
            return false;
        }
        for level in &mut self.levels {
            level.clear(i);
            if level.word(i / 64) != 0 {
                break;
            }
            i /= 64;
        }
        self.len -= 1;
        true
    }

    /// Remove and return the lowest block.
    fn pop_first(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut i = 0u64;
        for level in self.levels.iter().rev() {
            i = i * 64 + u64::from(level.word(i).trailing_zeros());
        }
        self.remove(i);
        Some(i)
    }
}

/// Binary buddy allocator over 4 KiB frames.
#[derive(Clone, PartialEq, Eq)]
pub struct BuddyAllocator {
    total_frames: u64,
    max_order: u32,
    /// `free_lists[k]` holds the free blocks of `2^k` frames.
    free_lists: Vec<BlockSet>,
    /// One bit per allocated frame.
    allocated: Bits,
    /// One bit per first frame of a tracked allocation; with `allocated`,
    /// the allocation map used for validation and for splitting on
    /// partial frees (the eager-allocation tail trim).
    starts: Bits,
    free_frames: u64,
}

/// The text the allocator has always printed: each free list as the set
/// of its block starts, and the allocation map as `{start: count, ..}`.
impl fmt::Debug for BuddyAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let free_lists = fmt::from_fn(|f| {
            f.debug_list()
                .entries(self.free_lists.iter().enumerate().map(|(order, set)| {
                    fmt::from_fn(move |f| {
                        f.debug_set()
                            .entries(set.levels[0].ones().map(|i| i << order))
                            .finish()
                    })
                }))
                .finish()
        });
        let allocated = fmt::from_fn(|f| {
            f.debug_map()
                .entries(self.starts.ones().map(|s| (s, self.tracked_end(s) - s)))
                .finish()
        });
        f.debug_struct("BuddyAllocator")
            .field("total_frames", &self.total_frames)
            .field("max_order", &self.max_order)
            .field("free_lists", &free_lists)
            .field("allocated", &allocated)
            .field("free_frames", &self.free_frames)
            .finish()
    }
}

impl BuddyAllocator {
    /// Create an allocator managing frames `[0, total_frames)`.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero.
    pub fn new(total_frames: u64) -> Self {
        assert!(total_frames > 0, "allocator must manage at least one frame");
        let max_order = 63 - total_frames.next_power_of_two().leading_zeros();
        let mut this = Self {
            total_frames,
            max_order,
            free_lists: (0..=max_order)
                .map(|order| BlockSet::new(total_frames.div_ceil(1 << order)))
                .collect(),
            allocated: Bits::default(),
            starts: Bits::default(),
            free_frames: 0,
        };
        // Carve the (possibly non-power-of-two) span into maximal aligned
        // blocks.
        this.insert_free_span(0, total_frames);
        this.free_frames = total_frames;
        this
    }

    /// Total frames managed.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Frames currently free.
    pub fn free_frames_count(&self) -> u64 {
        self.free_frames
    }

    /// Allocate `count` contiguous frames (eager contiguous allocation).
    ///
    /// Grabs the smallest power-of-two buddy block that fits and immediately
    /// returns the tail beyond `count` to the free lists, per the paper's
    /// eager-paging policy.
    ///
    /// # Errors
    ///
    /// Returns [`DvmError::OutOfMemory`] if no contiguous block of the
    /// required order is free, and [`DvmError::InvalidArgument`] if
    /// `count == 0`.
    pub fn alloc_frames(&mut self, count: u64) -> Result<FrameRange, DvmError> {
        if count == 0 {
            return Err(DvmError::InvalidArgument("cannot allocate zero frames"));
        }
        let order = order_for(count);
        let start = self.take_block(order).ok_or(DvmError::OutOfMemory {
            requested: count * dvm_types::PAGE_SIZE,
        })?;
        // Trim: return frames beyond `count` immediately.
        let block_frames = 1u64 << order;
        if block_frames > count {
            self.insert_free_span(start + count, block_frames - count);
            self.free_frames += block_frames - count;
        }
        self.free_frames -= block_frames;
        self.track(start, count);
        Ok(FrameRange { start, count })
    }

    /// Allocate a single frame (demand paging path).
    ///
    /// # Errors
    ///
    /// Returns [`DvmError::OutOfMemory`] when memory is exhausted.
    pub fn alloc_frame(&mut self) -> Result<u64, DvmError> {
        Ok(self.alloc_frames(1)?.start)
    }

    /// Allocate `count` contiguous frames with `align`-frame start
    /// alignment by *first-fit over coalesced free runs*, spanning buddy
    /// blocks if needed. Slower than [`Self::alloc_frames`] but succeeds
    /// whenever a suitable contiguous run exists at all — the fallback an
    /// identity-mapping OS uses when the power-of-two path fails (a 10 MB
    /// request should not require a free 16 MB buddy block).
    ///
    /// # Errors
    ///
    /// [`DvmError::OutOfMemory`] if no aligned contiguous run of `count`
    /// frames exists; [`DvmError::InvalidArgument`] if `count == 0` or
    /// `align` is not a power of two.
    pub fn alloc_frames_first_fit(
        &mut self,
        count: u64,
        align: u64,
    ) -> Result<FrameRange, DvmError> {
        if count == 0 {
            return Err(DvmError::InvalidArgument("cannot allocate zero frames"));
        }
        if align == 0 || !align.is_power_of_two() {
            return Err(DvmError::InvalidArgument(
                "alignment must be a power of two",
            ));
        }
        // First fit over the coalesced runs, lowest address first.
        let start = self
            .runs()
            .find_map(|run| {
                let aligned = run.start.next_multiple_of(align);
                (aligned + count <= run.end()).then_some(aligned)
            })
            .ok_or(DvmError::OutOfMemory {
                requested: count * dvm_types::PAGE_SIZE,
            })?;
        self.carve_free_range(start, count);
        self.free_frames -= count;
        self.track(start, count);
        Ok(FrameRange { start, count })
    }

    /// Remove the (known-free) frame range `[start, start+count)` from the
    /// free lists, re-inserting the uncovered parts of the blocks at its
    /// two ends.
    fn carve_free_range(&mut self, start: u64, count: u64) {
        let end = start + count;
        let mut cursor = start;
        while cursor < end {
            // The free block holding `cursor`.
            let order = (0..=self.max_order)
                .find(|&order| self.free_lists[order as usize].remove(cursor >> order))
                .expect("carved frames are free");
            let bstart = cursor >> order << order;
            let bend = bstart + (1u64 << order);
            if bstart < start {
                self.insert_free_span(bstart, start - bstart);
            }
            if bend > end {
                self.insert_free_span(end, bend - end);
            }
            cursor = bend;
        }
    }

    /// Try to allocate one *specific* frame (the swap-in path wants a
    /// page's original identity frame back). Returns `false` if the frame
    /// is currently allocated or out of range.
    pub fn alloc_specific_frame(&mut self, frame: u64) -> bool {
        if frame >= self.total_frames {
            return false;
        }
        // Find the free block containing `frame`.
        for order in 0..=self.max_order {
            let start = frame & !((1u64 << order) - 1);
            if start + (1u64 << order) > self.total_frames
                || !self.free_lists[order as usize].remove(frame >> order)
            {
                continue;
            }
            // Split down, freeing the halves that do not contain `frame`.
            let mut cur_order = order;
            let mut cur_start = start;
            while cur_order > 0 {
                cur_order -= 1;
                let half = 1u64 << cur_order;
                if frame < cur_start + half {
                    self.put_block(cur_start + half, cur_order);
                } else {
                    self.put_block(cur_start, cur_order);
                    cur_start += half;
                }
            }
            debug_assert_eq!(cur_start, frame);
            self.free_frames -= 1;
            self.track(frame, 1);
            return true;
        }
        false
    }

    /// Free a previously allocated range (whole allocations only).
    ///
    /// # Panics
    ///
    /// Panics if the range was not returned by [`Self::alloc_frames`] (or
    /// remaining after [`Self::free_subrange`]); catching double frees and
    /// wild frees loudly is deliberate — they are simulator bugs.
    pub fn free_frames(&mut self, range: FrameRange) {
        let tracked = self
            .starts
            .get(range.start)
            .then(|| self.tracked_end(range.start) - range.start);
        if tracked != Some(range.count) {
            panic!("free of untracked range {range:?} (allocator has {tracked:?} at that start)");
        }
        self.untrack(range.start, range.end());
        self.release_span(range.start, range.count);
    }

    /// Free a range of allocated frames, splitting the tracked allocation
    /// bookkeeping. The range may cover parts of several adjacent
    /// allocations. Used by the OS to tear down a region one run of frames
    /// at a time, and to free single frames after a CoW copy or a
    /// swap-out.
    ///
    /// Freeing a range in one call leaves exactly the state that freeing
    /// its frames one at a time in ascending order leaves: both split the
    /// bookkeeping at the same two ends, and `release_span` puts back the
    /// range's aligned blocks in ascending order, which are the blocks
    /// per-frame frees complete, in the same order (a sub-block's buddy
    /// always lies inside its block).
    ///
    /// # Panics
    ///
    /// Panics if any frame of the range is not allocated.
    pub fn free_subrange(&mut self, range: FrameRange) {
        let end = range.end();
        let hole = self.allocated.find(range.start, end, false);
        if hole < end {
            panic!("free_subrange {range:?} covers unallocated frame {hole}");
        }
        if range.count == 0 {
            return;
        }
        // Frame `end`, if allocated, now starts a tracked allocation.
        if self.allocated.get(end) {
            self.starts.set(end);
        }
        self.untrack(range.start, end);
        self.release_span(range.start, range.count);
    }

    /// `true` if every frame of `range` is currently allocated.
    pub fn is_allocated(&self, range: FrameRange) -> bool {
        self.allocated.find(range.start, range.end(), false) == range.end()
    }

    /// Snapshot of fragmentation statistics.
    pub fn stats(&self) -> BuddyStats {
        let mut largest = 0u64;
        let mut blocks = 0u64;
        for (order, list) in self.free_lists.iter().enumerate() {
            if list.len > 0 {
                largest = largest.max(1u64 << order);
                blocks += list.len;
            }
        }
        BuddyStats {
            total_frames: self.total_frames,
            free_frames: self.free_frames,
            allocated_frames: self.total_frames - self.free_frames,
            largest_free_block: largest,
            free_block_count: blocks,
        }
    }

    /// Address-ordered maximal runs of free frames, coalescing adjacent
    /// free blocks across buddy-order boundaries. Runs are what contiguous
    /// (identity-mapping) allocation can actually use: the eager-paging
    /// tail trim and `free_subrange` both leave adjacent blocks that buddy
    /// merging cannot always fuse, so the free *lists* over-state
    /// fragmentation that this view sees through.
    pub fn free_runs(&self) -> Vec<FrameRange> {
        self.runs().collect()
    }

    /// Histogram of coalesced free-run lengths by power-of-two bucket
    /// (the churn time-series' fragmentation metric).
    pub fn free_span_histogram(&self) -> FreeSpanHistogram {
        let mut buckets = vec![0u64; self.max_order as usize + 1];
        let mut runs = 0u64;
        let mut largest = 0u64;
        for run in self.runs() {
            let bucket = (63 - run.count.leading_zeros()).min(self.max_order) as usize;
            buckets[bucket] += 1;
            runs += 1;
            largest = largest.max(run.count);
        }
        FreeSpanHistogram {
            buckets,
            runs,
            largest_run: largest,
        }
    }

    /// The maximal runs of unallocated frames, lowest first: a word scan of
    /// the allocation bitmap. Every frame is either allocated or in exactly
    /// one free block, so these are the coalesced free blocks.
    fn runs(&self) -> impl Iterator<Item = FrameRange> + '_ {
        let mut cursor = 0;
        std::iter::from_fn(move || {
            let start = self.allocated.find(cursor, self.total_frames, false);
            if start == self.total_frames {
                return None;
            }
            cursor = self.allocated.find(start, self.total_frames, true);
            Some(FrameRange {
                start,
                count: cursor - start,
            })
        })
    }

    /// One past the last frame of the tracked allocation starting at `start`.
    fn tracked_end(&self, start: u64) -> u64 {
        let next_start = self.starts.find(start + 1, self.total_frames, true);
        self.allocated
            .find(start, self.total_frames, false)
            .min(next_start)
    }

    /// Record `[start, start+count)` as one tracked allocation.
    fn track(&mut self, start: u64, count: u64) {
        self.allocated.fill(start, start + count, true);
        self.starts.set(start);
    }

    /// Drop `[start, end)` from the allocation map.
    fn untrack(&mut self, start: u64, end: u64) {
        self.allocated.fill(start, end, false);
        self.starts.fill(start, end, false);
    }

    /// Take one block of exactly `order`, splitting larger blocks if needed.
    fn take_block(&mut self, order: u32) -> Option<u64> {
        // The smallest order >= requested with a free block.
        let mut have = (order..=self.max_order).find(|&k| self.free_lists[k as usize].len > 0)?;
        let start = self.free_lists[have as usize].pop_first()? << have;
        // Split down to the requested order, freeing the upper halves.
        while have > order {
            have -= 1;
            self.free_lists[have as usize].insert((start >> have) + 1);
        }
        Some(start)
    }

    /// Free one naturally aligned block of `order`, merging with buddies.
    fn put_block(&mut self, mut start: u64, mut order: u32) {
        debug_assert!(start.is_multiple_of(1u64 << order), "unaligned block free");
        loop {
            if order >= self.max_order {
                break;
            }
            let buddy = start ^ (1u64 << order);
            // The buddy may extend past the end of memory on non-power-of-two
            // machines; then it can never be free.
            if buddy + (1u64 << order) > self.total_frames
                || !self.free_lists[order as usize].remove(buddy >> order)
            {
                break;
            }
            start = start.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(start >> order);
    }

    /// Insert an arbitrary span as maximal aligned free blocks (no merge
    /// needed at construction; merge handled by `put_block` later).
    fn insert_free_span(&mut self, mut start: u64, mut count: u64) {
        while count > 0 {
            let align_order = if start == 0 {
                self.max_order
            } else {
                start.trailing_zeros().min(self.max_order)
            };
            let size_order = 63 - count.leading_zeros();
            let order = align_order.min(size_order).min(self.max_order);
            self.free_lists[order as usize].insert(start >> order);
            start += 1u64 << order;
            count -= 1u64 << order;
        }
    }

    /// Release a span back to the free lists with buddy merging, block by
    /// aligned block.
    fn release_span(&mut self, mut start: u64, mut count: u64) {
        self.free_frames += count;
        while count > 0 {
            let align_order = if start == 0 {
                self.max_order
            } else {
                start.trailing_zeros().min(self.max_order)
            };
            let size_order = 63 - count.leading_zeros();
            let order = align_order.min(size_order);
            self.put_block(start, order);
            start += 1u64 << order;
            count -= 1u64 << order;
        }
    }
}

/// Smallest order whose block holds `count` frames (`ceil(log2(count))`).
fn order_for(count: u64) -> u32 {
    debug_assert!(count > 0);
    64 - (count - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_sim::DetRng;

    #[test]
    fn order_for_counts() {
        assert_eq!(order_for(1), 0);
        assert_eq!(order_for(2), 1);
        assert_eq!(order_for(3), 2);
        assert_eq!(order_for(4), 2);
        assert_eq!(order_for(5), 3);
        assert_eq!(order_for(512), 9);
        assert_eq!(order_for(513), 10);
    }

    #[test]
    fn alloc_free_restores_everything() {
        let mut b = BuddyAllocator::new(1024);
        let r1 = b.alloc_frames(10).unwrap();
        let r2 = b.alloc_frames(100).unwrap();
        assert_eq!(b.free_frames_count(), 1024 - 110);
        b.free_frames(r1);
        b.free_frames(r2);
        let stats = b.stats();
        assert_eq!(stats.free_frames, 1024);
        assert_eq!(stats.largest_free_block, 1024);
        assert_eq!(stats.free_block_count, 1);
    }

    #[test]
    fn blocks_are_naturally_aligned() {
        let mut b = BuddyAllocator::new(4096);
        for want in [1u64, 2, 4, 16, 64, 512] {
            let r = b.alloc_frames(want).unwrap();
            assert_eq!(r.start % want.next_power_of_two(), 0, "count {want}");
        }
        // Every request size up to 511 frames, each on a fresh machine.
        for n in 1u64..512 {
            let r = BuddyAllocator::new(2048).alloc_frames(n).unwrap();
            assert_eq!(r.start % n.next_power_of_two(), 0, "fresh count {n}");
        }
    }

    #[test]
    fn trim_returns_tail_immediately() {
        let mut b = BuddyAllocator::new(64);
        // 5 frames round to an 8-block; tail of 3 must be free again.
        let r = b.alloc_frames(5).unwrap();
        assert_eq!(b.free_frames_count(), 64 - 5);
        // The 3 trimmed frames are free again: a 1-frame alloc lands right
        // after the allocation (lowest-address-first policy), a 2-frame
        // alloc takes the aligned pair behind it.
        let r1 = b.alloc_frames(1).unwrap();
        assert_eq!(r1.start, r.end());
        let r2 = b.alloc_frames(2).unwrap();
        assert_eq!(r2.start, r.end() + 1);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut b = BuddyAllocator::new(16);
        let _r = b.alloc_frames(16).unwrap();
        assert!(matches!(
            b.alloc_frames(1),
            Err(DvmError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn fragmentation_blocks_large_allocs() {
        let mut b = BuddyAllocator::new(16);
        let ranges: Vec<_> = (0..16).map(|_| b.alloc_frames(1).unwrap()).collect();
        // Free every other frame: 8 free frames but max block = 1.
        for r in ranges.iter().step_by(2) {
            b.free_frames(*r);
        }
        assert_eq!(b.free_frames_count(), 8);
        assert!(b.alloc_frames(2).is_err());
        assert_eq!(b.stats().largest_free_block, 1);
    }

    #[test]
    fn merging_recreates_large_blocks() {
        let mut b = BuddyAllocator::new(16);
        let ranges: Vec<_> = (0..16).map(|_| b.alloc_frames(1).unwrap()).collect();
        for r in ranges {
            b.free_frames(r);
        }
        assert_eq!(b.stats().largest_free_block, 16);
    }

    #[test]
    fn non_power_of_two_total() {
        let mut b = BuddyAllocator::new(100);
        assert_eq!(b.free_frames_count(), 100);
        let mut got = 0;
        while let Ok(r) = b.alloc_frames(1) {
            assert!(r.start < 100);
            got += 1;
        }
        assert_eq!(got, 100);
        // Every machine size up to 699 frames is fully usable one frame
        // at a time, whatever its power-of-two decomposition.
        for total in 1u64..700 {
            let mut b = BuddyAllocator::new(total);
            let mut got = 0u64;
            while b.alloc_frames(1).is_ok() {
                got += 1;
            }
            assert_eq!(got, total, "total {total}");
        }
    }

    #[test]
    fn free_subrange_splits_bookkeeping() {
        let mut b = BuddyAllocator::new(64);
        let r = b.alloc_frames(16).unwrap();
        b.free_subrange(FrameRange {
            start: r.start + 4,
            count: 4,
        });
        assert_eq!(b.free_frames_count(), 64 - 12);
        assert!(b.is_allocated(FrameRange {
            start: r.start,
            count: 4
        }));
        assert!(!b.is_allocated(FrameRange {
            start: r.start + 4,
            count: 4
        }));
        assert!(b.is_allocated(FrameRange {
            start: r.start + 8,
            count: 8
        }));
        // Remaining pieces can be freed as wholes.
        b.free_frames(FrameRange {
            start: r.start,
            count: 4,
        });
        b.free_frames(FrameRange {
            start: r.start + 8,
            count: 8,
        });
        assert_eq!(b.free_frames_count(), 64);
    }

    #[test]
    #[should_panic(expected = "untracked range")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(16);
        let r = b.alloc_frames(2).unwrap();
        b.free_frames(r);
        b.free_frames(r);
    }

    #[test]
    fn first_fit_spans_buddy_blocks() {
        let mut b = BuddyAllocator::new(64);
        // Fragment: allocate everything as singles, free a 10-frame run
        // crossing several buddy boundaries (frames 3..13).
        let all: Vec<_> = (0..64).map(|_| b.alloc_frames(1).unwrap()).collect();
        for r in &all[3..13] {
            b.free_frames(*r);
        }
        // No order-3 (8-frame) aligned block exists, so pow2 fails...
        assert!(b.alloc_frames(8).is_err());
        // ...but first-fit finds the run.
        let r = b.alloc_frames_first_fit(8, 1).unwrap();
        assert_eq!(r.start, 3);
        assert_eq!(b.free_frames_count(), 2);
        b.free_frames(r);
        assert_eq!(b.free_frames_count(), 10);
    }

    #[test]
    fn first_fit_respects_alignment() {
        let mut b = BuddyAllocator::new(128);
        let head = b.alloc_frames(3).unwrap(); // frames 0..3 busy
        let r = b.alloc_frames_first_fit(8, 8).unwrap();
        assert_eq!(r.start % 8, 0);
        assert!(r.start >= head.end());
        b.free_frames(r);
        b.free_frames(head);
        assert_eq!(b.stats().largest_free_block, 128);
    }

    #[test]
    fn first_fit_accounting_is_exact() {
        let mut b = BuddyAllocator::new(256);
        let r1 = b.alloc_frames_first_fit(100, 1).unwrap();
        assert_eq!(b.free_frames_count(), 156);
        let r2 = b.alloc_frames_first_fit(156, 1).unwrap();
        assert_eq!(b.free_frames_count(), 0);
        assert!(b.alloc_frames_first_fit(1, 1).is_err());
        b.free_frames(r1);
        b.free_frames(r2);
        assert_eq!(b.stats().largest_free_block, 256);
        assert_eq!(b.stats().free_block_count, 1);
    }

    #[test]
    fn alloc_specific_frame_claims_and_respects_busy() {
        let mut b = BuddyAllocator::new(64);
        assert!(b.alloc_specific_frame(37), "free frame claimable");
        assert_eq!(b.free_frames_count(), 63);
        assert!(!b.alloc_specific_frame(37), "already allocated");
        // Neighbours are still allocatable, and 37 is skipped.
        let mut got = Vec::new();
        for _ in 0..63 {
            got.push(b.alloc_frames(1).unwrap().start);
        }
        assert!(!got.contains(&37));
        assert!(b.alloc_frames(1).is_err());
        // Free 37 and everything merges back.
        b.free_frames(FrameRange {
            start: 37,
            count: 1,
        });
        for f in got {
            b.free_frames(FrameRange { start: f, count: 1 });
        }
        assert_eq!(b.stats().largest_free_block, 64);
    }

    #[test]
    fn alloc_specific_frame_out_of_range() {
        let mut b = BuddyAllocator::new(16);
        assert!(!b.alloc_specific_frame(16));
        assert!(!b.alloc_specific_frame(u64::MAX));
    }

    #[test]
    fn deterministic_lowest_first() {
        let mut a = BuddyAllocator::new(256);
        let mut b = BuddyAllocator::new(256);
        for n in [3u64, 9, 1, 30, 2] {
            assert_eq!(a.alloc_frames(n).unwrap(), b.alloc_frames(n).unwrap());
        }
    }

    #[test]
    fn free_runs_coalesce_across_block_boundaries() {
        let mut b = BuddyAllocator::new(64);
        assert_eq!(
            b.free_runs(),
            vec![FrameRange {
                start: 0,
                count: 64
            }]
        );
        // Allocate everything as singles, then free a run crossing buddy
        // boundaries plus one isolated frame.
        let all: Vec<_> = (0..64).map(|_| b.alloc_frames(1).unwrap()).collect();
        for r in &all[3..13] {
            b.free_frames(*r);
        }
        b.free_frames(all[20]);
        let runs = b.free_runs();
        assert_eq!(
            runs,
            vec![
                FrameRange {
                    start: 3,
                    count: 10
                },
                FrameRange {
                    start: 20,
                    count: 1
                },
            ]
        );
        let hist = b.free_span_histogram();
        assert_eq!(hist.runs, 2);
        assert_eq!(hist.largest_run, 10);
        // A 10-frame run lands in bucket 3 (8..16), the single in bucket 0.
        assert_eq!(hist.buckets[3], 1);
        assert_eq!(hist.buckets[0], 1);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn histogram_bucket_count_is_machine_determined() {
        let a = BuddyAllocator::new(1024);
        let b = BuddyAllocator::new(1024);
        assert_eq!(a.free_span_histogram(), b.free_span_histogram());
        assert_eq!(a.free_span_histogram().buckets.len(), 11);
    }

    /// A block set's count and summary levels agree with its bitmap: a
    /// summary bit is set exactly when the word below it is non-zero, and
    /// the top level is one word.
    fn check_summaries(set: &BlockSet) {
        assert_eq!(set.len, set.levels[0].ones().count() as u64, "block count");
        for pair in set.levels.windows(2) {
            let (below, above) = (&pair[0], &pair[1]);
            for w in 0..below.words.len().max(above.words.len() * 64) as u64 {
                assert_eq!(above.get(w), below.word(w) != 0, "summary bit {w}");
            }
        }
        assert!(set.levels.last().unwrap().words.len() <= 1, "top level");
    }

    /// Seeded inserts and removes on one block set against a plain
    /// membership vector: `pop_first` is always the lowest member, and the
    /// summaries stay exact (set sizes span one, two and three levels).
    #[test]
    fn block_set_pops_its_lowest_member() {
        for (seed, slots) in [
            (1u64, 1u64),
            (2, 64),
            (3, 65),
            (4, 4096),
            (5, 4097),
            (6, 300_000),
        ] {
            let mut rng = DetRng::new(seed);
            let mut set = BlockSet::new(slots);
            let mut oracle = vec![false; slots as usize];
            for op in 0..4000u32 {
                let i = if rng.chance(0.5) {
                    rng.below(slots)
                } else {
                    rng.below(slots.min(200))
                };
                match rng.below(3) {
                    0 if !oracle[i as usize] => {
                        set.insert(i);
                        oracle[i as usize] = true;
                    }
                    1 => assert_eq!(set.remove(i), std::mem::take(&mut oracle[i as usize])),
                    _ => {
                        let lowest = oracle.iter().position(|&b| b).map(|i| i as u64);
                        assert_eq!(set.pop_first(), lowest, "seed {seed} op {op}");
                        if let Some(i) = lowest {
                            oracle[i as usize] = false;
                        }
                    }
                }
                if op % 97 == 0 {
                    check_summaries(&set);
                }
            }
            check_summaries(&set);
        }
    }

    #[test]
    fn bitmap_scans_and_fills() {
        let mut bits = Bits::default();
        assert_eq!(bits.find(0, 1000, true), 1000);
        assert_eq!(bits.find(5, 1000, false), 5);
        bits.fill(60, 200, true);
        assert_eq!(bits.words.len(), 4);
        assert_eq!(bits.find(0, 1000, true), 60);
        assert_eq!(bits.find(60, 1000, false), 200);
        assert_eq!(bits.find(61, 150, false), 150);
        bits.fill(64, 128, false);
        assert_eq!(
            bits.ones().collect::<Vec<_>>(),
            [60, 61, 62, 63]
                .into_iter()
                .chain(128..200)
                .collect::<Vec<_>>()
        );
        // Clearing past the end neither grows nor panics, and length does
        // not count towards equality.
        bits.fill(500, 900, false);
        assert_eq!(bits.words.len(), 4);
        let mut longer = bits.clone();
        longer.set(1000);
        longer.clear(1000);
        assert_eq!(longer.words.len(), 16);
        assert!(longer == bits);
        assert!(bits == longer);
        longer.set(999);
        assert!(longer != bits);
    }

    /// The allocator's `Debug` text is the one its derived form printed
    /// when the free lists were ordered sets and the allocation map an
    /// ordered map (hashed by `os_semantics`), in compact and `{:#?}`
    /// form.
    #[test]
    fn debug_text_lists_blocks_and_allocations() {
        let mut b = BuddyAllocator::new(12);
        let r = b.alloc_frames(3).unwrap();
        assert!(b.alloc_specific_frame(2));
        b.free_subrange(FrameRange {
            start: r.start + 1,
            count: 1,
        });
        assert_eq!(
            format!("{b:?}"),
            "BuddyAllocator { total_frames: 12, max_order: 4, free_lists: \
             [{3, 9, 11}, {0}, {4}, {}, {}], allocated: {2: 1, 8: 1, 10: 1}, free_frames: 9 }"
        );
        assert_eq!(
            format!("{:#?}", BuddyAllocator::new(2)),
            "BuddyAllocator {\n    total_frames: 2,\n    max_order: 1,\n    free_lists: [\n        \
             {},\n        {\n            0,\n        },\n    ],\n    allocated: {},\n    \
             free_frames: 2,\n}"
        );
    }

    /// Every structural invariant the allocator promises, checked against
    /// the caller's view of live allocations: free-list blocks in range
    /// and non-overlapping (a bitmap over `start >> order` keeps them
    /// aligned), exact summaries, free-frame conservation, and
    /// disjointness of free space from live allocations.
    fn check_invariants(b: &BuddyAllocator, live: &[FrameRange]) {
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        for (order, list) in b.free_lists.iter().enumerate() {
            for start in list.levels[0].ones().map(|i| i << order) {
                blocks.push((start, 1u64 << order));
            }
            check_summaries(list);
        }
        blocks.sort_unstable();
        let mut free_total = 0u64;
        let mut prev_end = 0u64;
        for &(start, len) in &blocks {
            assert!(
                start >= prev_end,
                "overlapping free blocks at {start} (previous ends at {prev_end})"
            );
            prev_end = start + len;
            assert!(prev_end <= b.total_frames(), "free block escapes memory");
            free_total += len;
        }
        assert_eq!(free_total, b.free_frames_count(), "free-frame conservation");
        // The allocated bitmap is exactly the complement of the free blocks.
        assert_eq!(
            b.allocated.ones().count() as u64 + free_total,
            b.total_frames(),
            "allocated bits"
        );
        for &(start, len) in &blocks {
            let end = start + len;
            assert_eq!(
                b.allocated.find(start, end, true),
                end,
                "free block {start} allocated"
            );
        }
        let live_total: u64 = live.iter().map(|r| r.count).sum();
        assert_eq!(
            free_total + live_total,
            b.total_frames(),
            "live + free must cover the machine"
        );
        for r in live {
            assert!(b.is_allocated(*r), "live range {r:?} not tracked");
            for &(start, len) in &blocks {
                assert!(
                    start + len <= r.start || start >= r.end(),
                    "free block [{start}, {}) overlaps live {r:?}",
                    start + len
                );
            }
        }
    }

    /// Satellite regression: 10k mixed alloc / first-fit / whole-free /
    /// subrange-free operations from a fixed seed, with the invariants of
    /// `check_invariants` holding throughout. Buddy-merge *completeness*
    /// is deliberately not asserted (the eager tail trim and subrange
    /// frees leave adjacent same-order blocks unmerged by design); the
    /// final state instead must coalesce into one full-machine *run*.
    #[test]
    fn randomized_churn_preserves_invariants() {
        let mut rng = DetRng::new(0xB0DD1);
        let total = 4096u64;
        let mut b = BuddyAllocator::new(total);
        let mut live: Vec<FrameRange> = Vec::new();
        for op in 0..10_000u32 {
            match rng.below(5) {
                0 | 1 => {
                    let count = rng.range(1, 64);
                    if let Ok(r) = b.alloc_frames(count) {
                        live.push(r);
                    }
                }
                2 => {
                    let count = rng.range(1, 96);
                    let align = 1u64 << rng.below(4);
                    if let Ok(r) = b.alloc_frames_first_fit(count, align) {
                        live.push(r);
                    }
                }
                3 => {
                    if !live.is_empty() {
                        let i = rng.below(live.len() as u64) as usize;
                        let r = live.swap_remove(i);
                        b.free_frames(r);
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let i = rng.below(live.len() as u64) as usize;
                        let r = live.swap_remove(i);
                        let off = rng.below(r.count);
                        let len = rng.range(1, r.count - off + 1);
                        b.free_subrange(FrameRange {
                            start: r.start + off,
                            count: len,
                        });
                        if off > 0 {
                            live.push(FrameRange {
                                start: r.start,
                                count: off,
                            });
                        }
                        if off + len < r.count {
                            live.push(FrameRange {
                                start: r.start + off + len,
                                count: r.count - off - len,
                            });
                        }
                    }
                }
            }
            if op % 256 == 0 {
                check_invariants(&b, &live);
            }
        }
        check_invariants(&b, &live);
        for r in live.drain(..) {
            b.free_frames(r);
        }
        check_invariants(&b, &live);
        assert_eq!(b.free_frames_count(), total);
        assert_eq!(
            b.free_runs(),
            vec![FrameRange {
                start: 0,
                count: total
            }]
        );
        // The coalesced view makes the whole machine allocatable again
        // even if buddy merging left seams.
        let all = b.alloc_frames_first_fit(total, 1).unwrap();
        assert_eq!(b.free_frames_count(), 0);
        b.free_frames(all);
    }

    /// 64 seeded sequences of 1..200 operations mixing buddy allocations,
    /// whole frees and tail-half trims on a 1024-frame machine: no two
    /// live ranges ever overlap, free-frame accounting is exact after
    /// every operation, and freeing everything restores one maximal
    /// block (which `randomized_churn_preserves_invariants`, with its
    /// arbitrary subrange frees, deliberately does not assert).
    #[test]
    fn alloc_free_trim_mix_never_overlaps_and_fully_merges() {
        let total = 1024u64;
        for seed in 0..64u64 {
            let mut rng = DetRng::new(seed);
            let mut b = BuddyAllocator::new(total);
            let mut live: Vec<FrameRange> = Vec::new();
            for op in 0..rng.range(1, 200) {
                match rng.below(3) {
                    0 => {
                        let n = rng.range(1, 64);
                        if let Ok(r) = b.alloc_frames(n) {
                            assert_eq!(r.count, n, "seed {seed} op {op}");
                            assert!(r.end() <= total, "seed {seed} op {op}: {r:?}");
                            for other in &live {
                                assert!(
                                    r.end() <= other.start || other.end() <= r.start,
                                    "seed {seed} op {op}: {r:?} overlaps {other:?}"
                                );
                            }
                            live.push(r);
                        }
                    }
                    1 => {
                        let i = rng.below(32) as usize;
                        if !live.is_empty() {
                            b.free_frames(live.remove(i % live.len()));
                        }
                    }
                    _ => {
                        let i = rng.below(32) as usize;
                        if !live.is_empty() {
                            let idx = i % live.len();
                            let r = live[idx];
                            if r.count >= 2 {
                                let keep = r.count / 2;
                                b.free_subrange(FrameRange {
                                    start: r.start + keep,
                                    count: r.count - keep,
                                });
                                live[idx] = FrameRange {
                                    start: r.start,
                                    count: keep,
                                };
                            }
                        }
                    }
                }
                let live_frames: u64 = live.iter().map(|r| r.count).sum();
                assert_eq!(
                    b.free_frames_count(),
                    total - live_frames,
                    "seed {seed} op {op}: free-frame accounting"
                );
            }
            for r in live.drain(..) {
                b.free_frames(r);
            }
            let stats = b.stats();
            assert_eq!(stats.free_frames, total, "seed {seed}");
            assert_eq!(stats.largest_free_block, total, "seed {seed}");
            assert_eq!(stats.free_block_count, 1, "seed {seed}");
        }
    }

    /// The invariant the OS's teardown by runs rests on: from any
    /// reachable state, freeing a run of allocated frames with one
    /// `free_subrange` leaves the allocator exactly as freeing the run's
    /// frames one at a time in ascending order does — free lists and
    /// allocation map, not just the coalesced free runs. States are built
    /// from trimmed buddy allocations, first-fit allocations, whole frees
    /// and scattered one-frame frees; runs lie inside one allocation or
    /// span adjacent ones.
    #[test]
    fn one_run_free_equals_ascending_frame_frees() {
        for seed in 0..256u64 {
            let mut rng = DetRng::new(seed);
            let total = rng.range(64, 2048);
            let mut b = BuddyAllocator::new(total);
            let mut live: Vec<FrameRange> = Vec::new();
            for _ in 0..rng.range(4, 120) {
                match rng.below(6) {
                    0 | 1 => {
                        if let Ok(r) = b.alloc_frames(rng.range(1, 96)) {
                            live.push(r);
                        }
                    }
                    2 => {
                        let align = 1u64 << rng.below(5);
                        if let Ok(r) = b.alloc_frames_first_fit(rng.range(1, 128), align) {
                            live.push(r);
                        }
                    }
                    3 if !live.is_empty() => {
                        let r = live.swap_remove(rng.below(live.len() as u64) as usize);
                        b.free_frames(r);
                    }
                    _ if !live.is_empty() => {
                        let i = rng.below(live.len() as u64) as usize;
                        let r = live.swap_remove(i);
                        let f = r.start + rng.below(r.count);
                        b.free_subrange(FrameRange { start: f, count: 1 });
                        live.extend(
                            [(r.start, f - r.start), (f + 1, r.end() - f - 1)]
                                .into_iter()
                                .filter(|&(_, count)| count > 0)
                                .map(|(start, count)| FrameRange { start, count }),
                        );
                    }
                    _ => {}
                }
            }
            if live.is_empty() {
                continue;
            }
            live.sort_unstable_by_key(|r| r.start);
            let mut i = rng.below(live.len() as u64) as usize;
            let start = live[i].start + rng.below(live[i].count);
            let mut end = start + rng.range(1, live[i].end() - start + 1);
            while end == live[i].end() && i + 1 < live.len() && live[i + 1].start == end {
                if !rng.chance(0.5) {
                    break;
                }
                i += 1;
                end = live[i].start + rng.range(1, live[i].count + 1);
            }
            let mut per_frame = b.clone();
            for f in start..end {
                per_frame.free_subrange(FrameRange { start: f, count: 1 });
            }
            b.free_subrange(FrameRange {
                start,
                count: end - start,
            });
            assert_eq!(b, per_frame, "seed {seed}: run [{start}, {end})");
            assert_eq!(b.free_runs(), per_frame.free_runs(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "covers unallocated frame")]
    fn free_subrange_over_a_free_frame_panics() {
        let mut b = BuddyAllocator::new(16);
        let r = b.alloc_frames(3).unwrap();
        b.free_subrange(FrameRange {
            start: r.start,
            count: 4,
        });
    }
}
