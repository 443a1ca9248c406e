//! Segments: the contiguous, growable granule space and its bump cursor.
//!
//! A heap reserves one contiguous virtual-address window, recorded in the
//! superblock, and maps its file over all of it (`sys`). **Segment 0** — the
//! superblock page, its bitmap and its data region — is the file's front;
//! every extra segment is `[commit bitmap][data]`, self-describing from its
//! byte length alone ([`seg_geometry`]), appended at *file offset == VA
//! offset*. The arena is therefore contiguous, `granule_off` stays pure
//! arithmetic, and in-arena pointers keep working across growth.
//!
//! Invariants this file owns:
//!
//! * **Growth publication order.** `grow` extends the file (`ftruncate`:
//!   zero-filled = a valid, empty segment), stamps the directory entry, and
//!   bumps `W_SEG_COUNT` — the valid flag — **last**. A crash before the
//!   count moves leaves a file longer than the directory total, which attach
//!   ignores (the next growth re-truncates and re-stamps); a file *shorter*
//!   than the total is typed corruption ([`MapError::Truncated`]).
//! * **Growth never maps.** The bytes are readable in every attached process
//!   the moment the file covers them; growing, and noticing a peer's growth
//!   (`refresh_segments`), only append a volatile [`SegSlot`] through the one
//!   `adopt_segment`. Slots are append-only — fields, then a `Release` count —
//!   so readers never see a half-initialized slot. The refresh is internal:
//!   every translation or bounds check that misses runs it before answering.
//! * **Header before bump.** Every chunk below `W_BUMP` starts with a valid
//!   header (`alloc`). Reservations are whole chunks, so the cursors only
//!   ever sit on a chunk boundary or a segment end. A reservation CASes the
//!   volatile cursor `W_BUMP_RESV` forward (writing `PAD` filler over any
//!   segment tail it skips — chunks never straddle a segment), its owner
//!   writes the chunk header, and `publish_bump` moves `W_BUMP` only once
//!   every earlier reservation has published. The reserve-to-publish
//!   window runs under `W_ALLOC_LOCK`, so a SIGKILLed peer leaves at most
//!   one gap, which the thief of its lock overwrites with `PAD`
//!   (`heal_bump_gap`).

use super::alloc::{encode_hdr, SLAB, ST_PAD};
use super::superblock::{
    persist, plausible_segment, W_ALLOC_LOCK, W_BUMP, W_BUMP_RESV, W_SEG0, W_SEG_COUNT,
};
use super::{lock_np, MapError, MappedHeap, GRANULE, MAX_SEGMENTS, PAGE};
use crate::stats;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

/// Volatile descriptor of one segment (see the module docs).
#[derive(Default)]
pub(super) struct SegSlot {
    /// First global granule index served by this segment.
    pub(super) g_start: AtomicUsize,
    /// Data granules in this segment.
    pub(super) granules: AtomicUsize,
    /// VA offset (from `base`) of this segment's commit bitmap.
    pub(super) bm_off: AtomicUsize,
    /// VA offset (from `base`) of this segment's data region.
    pub(super) data_off: AtomicUsize,
}

impl SegSlot {
    /// One past the last global granule of this segment.
    pub(super) fn g_end(&self) -> usize {
        self.g_start.load(Relaxed) + self.granules.load(Relaxed)
    }
}

/// Geometry of an extra (non-0) segment of `bytes`: `[bitmap][data]`, both
/// granule-aligned, derived deterministically from the byte length alone.
/// Returns `(bitmap_bytes, data_granules)`.
pub(super) fn seg_geometry(bytes: usize) -> (usize, usize) {
    let bm_bytes = (bytes / GRANULE).div_ceil(8).next_multiple_of(GRANULE);
    (bm_bytes, bytes.saturating_sub(bm_bytes) / GRANULE)
}

/// A won bump reservation: granules `[from, end)` belong to the caller;
/// its chunks start at `start` (pads, if any, were written to
/// `[from, start)`). The caller must write the header of every chunk in
/// `[start, end)` and then call `publish_bump(from, end)`.
pub(super) struct Resv {
    pub(super) from: usize,
    pub(super) start: usize,
    pub(super) end: usize,
}

/// Holds the bump lock (`W_ALLOC_LOCK`); released on drop. See
/// [`MappedHeap::lock_bump`].
pub(super) struct BumpLockGuard<'a> {
    heap: &'a MappedHeap,
}

impl Drop for BumpLockGuard<'_> {
    fn drop(&mut self) {
        self.heap.word(W_ALLOC_LOCK).store(0, Release);
    }
}

impl MappedHeap {
    // -- the segment table ---------------------------------------------------

    /// Appends the volatile slot of the next `bytes`-long segment, which
    /// starts where the segments adopted so far end. The one way a segment
    /// becomes visible to this handle: at construction, after our own `grow`,
    /// and when a refresh finds a peer's. Caller holds `grow_lock` (or is
    /// constructing the handle).
    pub(super) fn adopt_segment(&self, bytes: usize) {
        let n = self.n_segs.load(Acquire);
        let off = self.size.load(Acquire);
        let (bm_bytes, granules) = seg_geometry(bytes);
        let g_start = self.segs[n - 1].g_end();
        let slot = &self.segs[n];
        slot.g_start.store(g_start, Relaxed);
        slot.granules.store(granules, Relaxed);
        slot.bm_off.store(off, Relaxed);
        slot.data_off.store(off + bm_bytes, Relaxed);
        self.size.store(off + bytes, Release);
        self.n_segs.store(n + 1, Release);
    }

    /// Adopts any segments a *peer* published since our last look. Cheap
    /// when nothing changed: one superblock load. This maintains volatile bookkeeping only
    /// — the bytes were readable all along.
    pub(super) fn refresh_segments(&self) -> Result<(), MapError> {
        let published = self.word(W_SEG_COUNT).load(Acquire) as usize + 1;
        if published <= self.n_segs.load(Acquire) {
            return Ok(());
        }
        if published > MAX_SEGMENTS + 1 {
            return Err(MapError::BadSuperblock("segment count exceeds the directory"));
        }
        let _guard = lock_np(&self.grow_lock);
        for k in self.n_segs.load(Acquire)..published {
            let bytes = self.word(W_SEG0 + k - 1).load(Acquire);
            if !plausible_segment(bytes) {
                return Err(MapError::BadSuperblock("impossible segment-directory entry"));
            }
            if self.size.load(Acquire) + bytes as usize > self.reserve {
                return Err(MapError::BadSuperblock("VA reservation does not cover the segments"));
            }
            self.adopt_segment(bytes as usize);
        }
        Ok(())
    }

    /// Extends the arena by a new segment (double the current total, at
    /// least enough for `need_granules`, capped by the VA reservation).
    /// Returns `Ok` without growing when a concurrent grower already made
    /// room. See the module docs for the crash-ordering argument.
    pub(super) fn grow(&self, need_granules: usize) -> Result<(), MapError> {
        // A peer may have grown already. (Nobody can grow from here on:
        // callers hold the bump lock.)
        self.refresh_segments()?;
        let _guard = lock_np(&self.grow_lock);
        // Re-check under the lock: another thread may have grown while we
        // waited, or freed bump space past a pad.
        let mut pos = self.word(W_BUMP_RESV).load(Acquire) as usize;
        while let Some(i) = self.seg_of_granule(pos) {
            let end = self.segs[i].g_end();
            if pos + need_granules <= end {
                return Ok(());
            }
            pos = end;
        }
        let count = self.n_segs.load(Acquire) - 1;
        if count >= MAX_SEGMENTS {
            return Err(MapError::Exhausted);
        }
        let total = self.size.load(Acquire);
        // Double the heap, but at least enough for the request; the VA
        // reservation is the hard ceiling.
        let min_bytes = ((need_granules + 2) * GRANULE * 2).next_multiple_of(PAGE);
        let mut new_bytes = total.max(min_bytes);
        if total.checked_add(new_bytes).is_none_or(|t| t > self.reserve) {
            new_bytes = self.reserve - total;
        }
        if new_bytes < PAGE || seg_geometry(new_bytes).1 < need_granules {
            return Err(MapError::Exhausted);
        }
        // (1) Extend the file: the new range is zero-filled, i.e. a valid,
        // empty segment, and readable through the mapping at once. (A longer
        // leftover from a torn growth is truncated away first — it was never
        // published, so nothing points there.)
        self.file.set_len((total + new_bytes) as u64)?;
        // (2) Stamp the directory entry, (3) publish the count last.
        persist(self.word(W_SEG0 + count), new_bytes as u64);
        persist(self.word(W_SEG_COUNT), (count + 1) as u64);
        self.adopt_segment(new_bytes);
        stats::count_segments_grown(1);
        Ok(())
    }

    // -- granule <-> address translation ------------------------------------

    /// Index of the adopted segment holding global granule `g`.
    #[inline]
    pub(super) fn seg_of_granule(&self, g: usize) -> Option<usize> {
        let n = self.n_segs.load(Acquire);
        // Newest segment first: the bump cursor lives there.
        (0..n).rev().find(|&i| g >= self.segs[i].g_start.load(Relaxed) && g < self.segs[i].g_end())
    }

    /// The adopted segment holding global granule `g`; a miss first adopts
    /// whatever a peer may have published since our last look.
    #[inline]
    pub(super) fn seg_of(&self, g: usize) -> &SegSlot {
        let i = self.seg_of_granule(g).or_else(|| {
            self.refresh_segments().ok()?;
            self.seg_of_granule(g)
        });
        &self.segs[i.expect("granule inside the mapped arena")]
    }

    /// VA offset of global granule `g`.
    #[inline]
    pub(super) fn granule_off(&self, g: usize) -> usize {
        let s = self.seg_of(g);
        s.data_off.load(Relaxed) + (g - s.g_start.load(Relaxed)) * GRANULE
    }

    /// Granule index of the block whose payload starts at `p`.
    #[inline]
    pub(super) fn granule_of(&self, p: *mut u8) -> usize {
        if let Some(g) = self.try_granule_of(p) {
            return g;
        }
        // The pointer may land in a segment a peer grew.
        let _ = self.refresh_segments();
        self.try_granule_of(p).expect("payload pointer outside every mapped segment")
    }

    /// The global index of the granule holding `p`, when `p` lies in an
    /// adopted segment's data region.
    pub(super) fn try_granule_of(&self, p: *const u8) -> Option<usize> {
        let off = (p as usize).checked_sub(self.base as usize)?;
        let n = self.n_segs.load(Acquire);
        for i in (0..n).rev() {
            let s = &self.segs[i];
            let doff = s.data_off.load(Relaxed);
            if off >= doff && off < doff + s.granules.load(Relaxed) * GRANULE {
                return Some(s.g_start.load(Relaxed) + (off - doff) / GRANULE);
            }
        }
        None
    }

    /// Whether the whole `len`-byte span at heap offset `off` lies inside the
    /// published bytes and past the superblock page, which holds no object
    /// (offset 0 is the null link) — the check attach-time link validation
    /// must use before following a link to an object of that size (an object
    /// *starting* in the last bytes of the arena would otherwise be read past
    /// its end). A miss first adopts segments a peer may have published.
    pub fn contains_span(&self, off: usize, len: usize) -> bool {
        let inside = || {
            off >= PAGE && off.checked_add(len).is_some_and(|end| end <= self.size.load(Acquire))
        };
        inside() || (self.refresh_segments().is_ok() && inside())
    }

    // -- the bump cursor -------------------------------------------------------

    /// Serializes the bump path under the `W_ALLOC_LOCK` superblock word
    /// (holder = participant slot + 1), stealing the lock — and healing the
    /// holder's un-published reservation gap — when the holder process is
    /// dead.
    pub(super) fn lock_bump(&self) -> BumpLockGuard<'_> {
        let me = self.my_slot.load(Relaxed) as u64 + 1;
        let lock = self.word(W_ALLOC_LOCK);
        let mut spins = 0u32;
        loop {
            if lock.compare_exchange_weak(0, me, AcqRel, Acquire).is_ok() {
                self.heal_bump_gap();
                return BumpLockGuard { heap: self };
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                // Periodically probe the holder: a SIGKILLed peer can die
                // with the lock held. (Threads of our own process read as
                // live — they release in finite time.)
                let cur = lock.load(Acquire);
                if cur != 0
                    && cur != me
                    && !self.slot_is_live((cur - 1) as usize)
                    && lock.compare_exchange(cur, me, AcqRel, Acquire).is_ok()
                {
                    self.heal_bump_gap();
                    return BumpLockGuard { heap: self };
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Closes the gap a dead bump-lock holder left between the persistent
    /// bump word and the reservation cursor: the granules were reserved but
    /// their headers may be missing, so the whole gap is overwritten with
    /// `PAD` filler (split at segment boundaries) and the bump published to
    /// the cursor. Restores the header-before-bump invariant for the next
    /// full-attach walk. Caller holds the bump lock; under it at most one
    /// reservation is ever outstanding, and a gap only exists after a steal.
    fn heal_bump_gap(&self) {
        let bump = self.word(W_BUMP).load(Acquire) as usize;
        let resv = self.word(W_BUMP_RESV).load(Acquire) as usize;
        let mut g = bump;
        while g < resv {
            let end = self.seg_of(g).g_end().min(resv);
            persist(self.hdr(g), encode_hdr(ST_PAD, (end - g - 1) as u64));
            g = end;
        }
        if bump < resv {
            persist(self.word(W_BUMP), resv as u64);
        }
    }

    /// Reserves `need` contiguous granules, a whole number of chunks, from
    /// the bump region (growing the arena when exhausted). Lock-free: CASes
    /// the volatile reservation cursor forward, writing `PAD` filler over any
    /// segment tail it skips.
    pub(super) fn bump_reserve(&self, need: usize) -> Result<Resv, MapError> {
        debug_assert!(need.is_multiple_of(SLAB));
        let resv = self.word(W_BUMP_RESV);
        loop {
            let cur = resv.load(Acquire) as usize;
            let mut pads: Vec<(usize, usize)> = Vec::new();
            let mut pos = cur;
            let start = loop {
                let Some(i) = self.seg_of_granule(pos) else { break None };
                let seg_end = self.segs[i].g_end();
                if pos + need <= seg_end {
                    break Some(pos);
                }
                pads.push((pos, seg_end - pos - 1));
                pos = seg_end;
            };
            let Some(start) = start else {
                self.grow(need)?;
                continue;
            };
            let end = start + need;
            if resv.compare_exchange(cur as u64, end as u64, AcqRel, Acquire).is_err() {
                continue;
            }
            // Won [cur, end): write the pad headers now; the caller writes
            // the chunk headers and then publishes the persistent bump.
            for (g, ppg) in pads {
                self.hdr(g).store(encode_hdr(ST_PAD, ppg as u64), Release);
            }
            return Ok(Resv { from: cur, start, end });
        }
    }

    /// Publishes the persistent bump word for the reservation `[from, to)`,
    /// **in reservation order**: waits until every earlier reservation has
    /// published (and therefore written its headers), preserving the
    /// header-before-bump invariant across threads.
    pub(super) fn publish_bump(&self, from: usize, to: usize) {
        let w = self.word(W_BUMP);
        let mut spins = 0u32;
        while w.load(Acquire) != from as u64 {
            spins += 1;
            if spins > 128 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        w.store(to as u64, Release);
    }
}
