//! Blocks: headers, commit bitmaps, the two allocator tiers, and the attach
//! passes over them (walk/heal, relocation, sweep).
//!
//! Every block is one **header granule** — word 0 `magic | state | payload
//! granules`, word 1 the free-list next-link — followed by its payload
//! granules; each segment's **commit bitmap** has one bit per granule, set
//! iff that granule heads a `COMMITTED` block.
//!
//! Blocks of 1..=[`MAX_CLASS`] payload granules (the node/descriptor sizes on
//! every hot path) are served from per-thread (tid-indexed, cache-padded)
//! free lists, refilled [`SLAB_BLOCKS`] at a time from the bump cursor
//! (`segments`) and spilled to per-class **lock-free global stacks**
//! (version-counted Treiber stacks whose heads are superblock words, shared by
//! every attached process, and whose next-links live in the free blocks'
//! header granules). Larger blocks (recovery areas, roots, catalogs — cold
//! paths) go through a small non-poisoning mutex.
//!
//! Invariants this file owns:
//!
//! * **Allocation state is the headers plus the bitmaps.** Free lists, stack
//!   heads and next-links are volatile state in persistent space, rebuilt by
//!   every full attach; no crash can tear a persistent list pointer.
//! * **Transition order.** `alloc` writes the header (`ALLOCATED`) before the
//!   bump offset is published (`segments`); the caller initializes the
//!   payload, then `commit` sets the bitmap bit **before** flipping the
//!   header to `COMMITTED`; `free` flips the header to `FREE` **before**
//!   clearing the bit. These are plain ordered stores — a `SIGKILL` loses no
//!   completed store — not `superblock::persist`: they sit on every
//!   operation's hot path.
//! * **Every torn state classifies.** The attach walk therefore reads an
//!   `ALLOCATED` block as a torn tail allocation (poisoned with [`POISON`]
//!   and freed), a `FREE` block with a set bit as a lost bit-clear (healed),
//!   and any other header/bitmap disagreement as *corruption*: a typed
//!   [`MapError`], never undefined behaviour. Blocks never straddle a segment
//!   boundary, which is what makes the walk and the sweep independent per
//!   segment (`fan_out`).
//! * **Relocation is a fallback with two known weaknesses.** When the
//!   recorded base is taken, every word of every committed payload whose
//!   (tag-stripped) value lands inside the old window is rebased. That is
//!   sound only because every persistent pointer of the ISB structures points
//!   into the arena and *user payloads must not alias the arena's address
//!   range*; and the pass is not crash-atomic — a kill midway leaves a mixed
//!   image under the old recorded base (ROADMAP item 4).

use super::fanout::fan_out;
use super::superblock::{W_ALLOC_LOCK, W_BUMP, W_BUMP_RESV, W_GLOBAL0};
use super::{lock_np, MapError, MappedHeap, GRANULE, POISON};
use crate::stats;
use crate::tid;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};

const HDR_MAGIC: u64 = 0xB10C;
const ST_ALLOCATED: u64 = 1;
const ST_COMMITTED: u64 = 2;
const ST_FREE: u64 = 3;
/// Segment-tail filler written by the reservation path so blocks never
/// straddle a segment boundary. Header-only: the payload-granule count may
/// be zero, the commit bit is never set, and pads never enter a free list.
pub(super) const ST_PAD: u64 = 4;

/// Largest size class (payload granules) served by the sharded free lists;
/// larger blocks take the cold mutex path.
pub const MAX_CLASS: usize = 8;
/// Blocks carved from the bump region per sharded free-list refill.
pub const SLAB_BLOCKS: usize = 8;
/// Per-thread free-list capacity per class; overflow spills to the global
/// lock-free stack.
const CACHE_CAP: usize = 64;
/// Committed blocks per relocation work unit.
const RELOC_CHUNK: usize = 4096;

#[inline]
pub(super) fn encode_hdr(state: u64, payload_granules: u64) -> u64 {
    (HDR_MAGIC << 48) | (state << 40) | payload_granules
}

#[inline]
fn decode_hdr(h: u64) -> Option<(u64, u64)> {
    if h >> 48 != HDR_MAGIC {
        return None;
    }
    Some(((h >> 40) & 0xFF, h & 0xFFFF_FFFF))
}

/// Per-thread size-class free lists (header granule indices). Indexed by the
/// registered tid and only ever touched by that thread, which is what makes
/// the `UnsafeCell` sound (same discipline as `isb::pool`).
pub(super) type ThreadCache = [Vec<u32>; MAX_CLASS];

/// One segment's share of the attach walk.
#[derive(Default)]
struct SegWalk {
    committed: Vec<(usize, usize)>,
    free: HashMap<u32, Vec<u32>>,
    poisoned: usize,
    healed: usize,
    free_blocks: usize,
}

impl MappedHeap {
    // -- headers and bitmap ------------------------------------------------

    #[inline]
    pub(super) fn hdr(&self, g: usize) -> &AtomicU64 {
        // SAFETY: granule g starts inside a mapped data region.
        unsafe { &*(self.base.add(self.granule_off(g)) as *const AtomicU64) }
    }

    /// Second word of the header granule: the free-list next-link (volatile
    /// state in persistent space, rebuilt on attach; torn values harmless).
    #[inline]
    fn link_word(&self, g: usize) -> &AtomicU64 {
        // SAFETY: word 1 of the 8-word header granule.
        unsafe { &*(self.base.add(self.granule_off(g) + 8) as *const AtomicU64) }
    }

    #[inline]
    fn payload(&self, g: usize) -> *mut u8 {
        // Payload starts one granule after the header granule.
        unsafe { self.base.add(self.granule_off(g) + GRANULE) }
    }

    /// Bitmap word + bit index covering global granule `g`.
    #[inline]
    fn bm_word(&self, g: usize) -> (&AtomicU64, u32) {
        let s = self.seg_of(g);
        let local = g - s.g_start.load(Relaxed);
        let off = s.bm_off.load(Relaxed) + (local / 64) * 8;
        debug_assert!(off + 8 <= s.data_off.load(Relaxed));
        // SAFETY: inside the segment's bitmap region.
        (unsafe { &*(self.base.add(off) as *const AtomicU64) }, (local % 64) as u32)
    }

    #[inline]
    fn bm_test(&self, g: usize) -> bool {
        let (w, b) = self.bm_word(g);
        w.load(Acquire) & (1 << b) != 0
    }

    #[inline]
    fn bm_set(&self, g: usize) {
        let (w, b) = self.bm_word(g);
        w.fetch_or(1 << b, SeqCst);
    }

    #[inline]
    fn bm_clear(&self, g: usize) {
        let (w, b) = self.bm_word(g);
        w.fetch_and(!(1 << b), SeqCst);
    }

    // -- allocation --------------------------------------------------------

    /// Pops from / pushes to the per-class global lock-free stack. The heads
    /// live in superblock words ([`W_GLOBAL0`]), so in shared mode every
    /// attached process pushes to and pops from the same stacks.
    fn global_pop(&self, cls: usize) -> Option<usize> {
        let head = self.word(W_GLOBAL0 + cls);
        loop {
            let h = head.load(Acquire);
            let g1 = h & 0xFFFF_FFFF;
            if g1 == 0 {
                return None;
            }
            let g = (g1 - 1) as usize;
            let next = self.link_word(g).load(Acquire) & 0xFFFF_FFFF;
            let ver = (h >> 32).wrapping_add(1) & 0xFFFF_FFFF;
            if head.compare_exchange_weak(h, (ver << 32) | next, AcqRel, Acquire).is_ok() {
                return Some(g);
            }
        }
    }

    fn global_push(&self, cls: usize, g: usize) {
        let head = self.word(W_GLOBAL0 + cls);
        loop {
            let h = head.load(Acquire);
            self.link_word(g).store(h & 0xFFFF_FFFF, Release);
            let ver = (h >> 32).wrapping_add(1) & 0xFFFF_FFFF;
            if head.compare_exchange_weak(h, (ver << 32) | (g as u64 + 1), AcqRel, Acquire).is_ok()
            {
                return;
            }
        }
    }

    /// This thread's size-class cache, when it has a registered tid.
    ///
    /// SAFETY (of the cell access): the slot is indexed by the caller's own
    /// tid and only ever touched by that thread.
    #[allow(clippy::mut_from_ref)]
    fn my_cache(&self) -> Option<&mut ThreadCache> {
        let t = tid::try_tid()?;
        Some(unsafe { &mut *self.caches[t].get() })
    }

    /// Allocates a block with at least `bytes` of payload (64-byte aligned,
    /// rounded up to whole granules). The block is `ALLOCATED`: the caller
    /// must initialize the payload and then call [`MappedHeap::commit`];
    /// until then an attach treats it as torn and poisons it.
    pub fn alloc(&self, bytes: usize) -> Result<*mut u8, MapError> {
        stats::count_heap_allocs(1);
        let pg = bytes.max(1).div_ceil(GRANULE);
        if pg <= MAX_CLASS {
            self.alloc_sharded(pg)
        } else {
            self.alloc_cold(pg)
        }
    }

    /// A committed, zero-filled block of at least `bytes` (root blocks and
    /// catalog roots; blocks recycled from the free list carry stale
    /// payloads).
    pub(super) fn alloc_zeroed(&self, bytes: usize) -> Result<*mut u8, MapError> {
        let p = self.alloc(bytes)?;
        // SAFETY: freshly allocated block of at least `bytes`.
        unsafe { std::ptr::write_bytes(p, 0, bytes.max(1).div_ceil(GRANULE) * GRANULE) };
        self.commit(p);
        Ok(p)
    }

    /// Flips a free-list block back to `ALLOCATED` and returns its payload.
    fn take_block(&self, g: usize, pg: usize) -> *mut u8 {
        self.hdr(g).store(encode_hdr(ST_ALLOCATED, pg as u64), Release);
        self.payload(g)
    }

    fn alloc_sharded(&self, pg: usize) -> Result<*mut u8, MapError> {
        let cls = pg - 1;
        if let Some(cache) = self.my_cache() {
            if let Some(g) = cache[cls].pop() {
                stats::count_free_list_hits(1);
                return Ok(self.take_block(g as usize, pg));
            }
        }
        if let Some(g) = self.global_pop(cls) {
            stats::count_free_list_hits(1);
            return Ok(self.take_block(g, pg));
        }
        // Slab refill: carve SLAB_BLOCKS same-class blocks out of one bump
        // reservation. Block 0 is returned ALLOCATED; the rest are stocked
        // FREE (crash-safe: a lost cache is rebuilt from their headers).
        // Shared mode serializes the reserve+publish window under the bump
        // lock so a SIGKILLed peer can leave at most one healable gap.
        stats::count_slab_refills(1);
        let stride = 1 + pg;
        let bump_lock = self.lock_shared_bump();
        let r = self.bump_reserve(stride * SLAB_BLOCKS)?;
        self.hdr(r.start).store(encode_hdr(ST_ALLOCATED, pg as u64), Release);
        for i in 1..SLAB_BLOCKS {
            self.hdr(r.start + i * stride).store(encode_hdr(ST_FREE, pg as u64), Release);
        }
        self.publish_bump(r.from, r.end);
        drop(bump_lock);
        if let Some(cache) = self.my_cache() {
            for i in 1..SLAB_BLOCKS {
                cache[cls].push((r.start + i * stride) as u32);
            }
        } else {
            for i in 1..SLAB_BLOCKS {
                self.global_push(cls, r.start + i * stride);
            }
        }
        Ok(self.payload(r.start))
    }

    /// The mutex path: blocks above `MAX_CLASS` (recovery areas, roots,
    /// catalogs).
    fn alloc_cold(&self, pg: usize) -> Result<*mut u8, MapError> {
        let mut cold = lock_np(&self.cold);
        if let Some(list) = cold.get_mut(&(pg as u32)) {
            if let Some(g) = list.pop() {
                stats::count_free_list_hits(1);
                return Ok(self.take_block(g as usize, pg));
            }
        }
        // The cold mutex stays held across the bump: large blocks are rare.
        let bump_lock = self.lock_shared_bump();
        let r = self.bump_reserve(1 + pg)?;
        self.hdr(r.start).store(encode_hdr(ST_ALLOCATED, pg as u64), Release);
        self.publish_bump(r.from, r.end);
        drop(bump_lock);
        Ok(self.payload(r.start))
    }

    /// Marks the block at payload `p` fully initialized. Bitmap bit before
    /// header state (see the module docs for the crash analysis).
    pub fn commit(&self, p: *mut u8) {
        let g = self.granule_of(p);
        let (state, pg) = decode_hdr(self.hdr(g).load(Acquire)).expect("commit of a non-block");
        debug_assert_eq!(state, ST_ALLOCATED, "commit of a block not in ALLOCATED state");
        self.bm_set(g);
        self.hdr(g).store(encode_hdr(ST_COMMITTED, pg), Release);
    }

    /// Returns the block at payload `p` to the free lists (header to `FREE`
    /// before the bitmap bit clears; no destructor runs).
    ///
    /// # Safety
    /// `p` must be a payload pointer obtained from this heap's
    /// [`MappedHeap::alloc`] whose block no thread can still reach, freed at
    /// most once per allocation.
    pub unsafe fn free(&self, p: *mut u8) {
        let g = self.granule_of(p);
        let (_, pg) = decode_hdr(self.hdr(g).load(Acquire)).expect("free of a non-block");
        self.hdr(g).store(encode_hdr(ST_FREE, pg), Release);
        self.bm_clear(g);
        let pg = pg as usize;
        if pg <= MAX_CLASS {
            let cls = pg - 1;
            if let Some(cache) = self.my_cache() {
                if cache[cls].len() < CACHE_CAP {
                    cache[cls].push(g as u32);
                    return;
                }
            }
            self.global_push(cls, g);
        } else {
            lock_np(&self.cold).entry(pg as u32).or_default().push(g as u32);
        }
    }

    /// Payload bytes of the `COMMITTED` block whose payload starts at `p`;
    /// `None` when `p` is not the payload of one. For pointers read out of an
    /// untrusted image (a catalog entry's root): nothing is dereferenced
    /// before the granule ahead of `p` is known to lie in a data region, and
    /// the commit bit — which the attach walk cross-checked against the
    /// headers — is what says a block starts there, so bytes inside another
    /// block's payload that merely look like a header do not pass.
    pub fn committed_payload_bytes(&self, p: *const u8) -> Option<usize> {
        let off = (p as usize).checked_sub(self.base as usize)?;
        if !off.is_multiple_of(GRANULE) {
            return None;
        }
        // A peer may have published the segment `p` lives in.
        self.refresh_segments().ok()?;
        let (s, d) = self.segs[..self.n_segs.load(Acquire)].iter().find_map(|s| {
            let d = s.data_off.load(Relaxed);
            (off > d && off < d + s.granules.load(Relaxed) * GRANULE).then_some((s, d))
        })?;
        let g = s.g_start.load(Relaxed) + (off - d) / GRANULE - 1;
        if !self.bm_test(g) {
            return None;
        }
        match decode_hdr(self.hdr(g).load(Acquire))? {
            (ST_COMMITTED, pg) if g + 1 + pg as usize <= s.g_end() => Some(pg as usize * GRANULE),
            _ => None,
        }
    }

    // -- attach walk -------------------------------------------------------

    /// Walks every block header up to the bump offset: rebuilds the free
    /// lists, poisons torn tail allocations, heals benign bitmap bits, and
    /// fails with a typed error on any state no crash ordering can produce.
    /// One work unit per segment. Returns the committed blocks as
    /// `(granule, payload_granules)`.
    pub(super) fn walk_and_heal(&mut self) -> Result<Vec<(usize, usize)>, MapError> {
        let bump = self.word(W_BUMP).load(Acquire) as usize;
        // Reset the volatile-in-persistent allocator words (reservation
        // cursor, bump lock, global free-stack heads): their last-run values
        // are stale garbage, and the walk below restocks the stacks.
        self.word(W_BUMP_RESV).store(bump as u64, SeqCst);
        self.word(W_ALLOC_LOCK).store(0, SeqCst);
        for cls in 0..MAX_CLASS {
            self.word(W_GLOBAL0 + cls).store(0, SeqCst);
        }
        let n = self.n_segs.load(Acquire);
        let this = &*self;
        let mut walks: Vec<(usize, Result<SegWalk, MapError>)> =
            fan_out(n, Vec::new, |out, i| out.push((i, this.walk_segment(i, bump))))
                .into_iter()
                .flatten()
                .collect();
        // Segment order: the first corrupt segment names the error, and the
        // free lists are stocked the same way whoever walked what.
        walks.sort_unstable_by_key(|&(i, _)| i);
        let mut committed = Vec::new();
        let mut free: HashMap<u32, Vec<u32>> = HashMap::new();
        for (_, walk) in walks {
            let sw = walk?;
            committed.extend(sw.committed);
            for (pg, mut list) in sw.free {
                free.entry(pg).or_default().append(&mut list);
            }
            self.report.poisoned += sw.poisoned;
            self.report.healed_bits += sw.healed;
            self.report.free_blocks += sw.free_blocks;
        }
        self.report.committed = committed.len();
        self.report.free_blocks += self.report.poisoned;
        // Stock the allocator: hot classes into the lock-free stacks, the
        // rest into the cold map.
        for (pg, list) in free {
            if (pg as usize) <= MAX_CLASS {
                for g in list {
                    self.global_push(pg as usize - 1, g as usize);
                }
            } else {
                lock_np(&self.cold).entry(pg).or_default().extend(list);
            }
        }
        Ok(committed)
    }

    /// Walks one segment's slice of the granule space (see `walk_and_heal`).
    fn walk_segment(&self, i: usize, bump: usize) -> Result<SegWalk, MapError> {
        let s = &self.segs[i];
        let g0 = s.g_start.load(Relaxed);
        let granules = s.granules.load(Relaxed);
        // A segment that growth published but the bump never reached (a kill
        // between the two) lies wholly past the bump: empty, not corrupt.
        let limit = bump.clamp(g0, g0 + granules);
        let mut w = SegWalk::default();
        let mut committed_set: HashSet<usize> = HashSet::new();
        let mut g = g0;
        while g < limit {
            let (state, pg) = decode_hdr(self.hdr(g).load(Acquire))
                .ok_or(MapError::CorruptHeader { granule: g })?;
            let pg = pg as usize;
            if (state != ST_PAD && pg == 0) || g + 1 + pg > limit {
                return Err(MapError::CorruptHeader { granule: g });
            }
            match state {
                ST_PAD => {
                    // Segment-tail filler: skipped; its bits must be clear
                    // (enforced by the bitmap cross-check below).
                }
                ST_COMMITTED => {
                    if !self.bm_test(g) {
                        return Err(MapError::CorruptBitmap { granule: g });
                    }
                    w.committed.push((g, pg));
                    committed_set.insert(g);
                }
                ST_ALLOCATED => {
                    // Torn tail allocation: the owning operation never
                    // committed it, so nothing can reference it. Poison the
                    // payload (so any stale use is loud) and recycle it.
                    let p = self.payload(g) as *mut u64;
                    for k in 0..pg * (GRANULE / 8) {
                        // SAFETY: payload of a block wholly inside the arena.
                        unsafe { p.add(k).write(POISON) };
                    }
                    self.hdr(g).store(encode_hdr(ST_FREE, pg as u64), Release);
                    self.bm_clear(g);
                    w.free.entry(pg as u32).or_default().push(g as u32);
                    w.poisoned += 1;
                }
                ST_FREE => {
                    if self.bm_test(g) {
                        // Crash between the two halves of a free: benign.
                        self.bm_clear(g);
                        w.healed += 1;
                    }
                    w.free.entry(pg as u32).or_default().push(g as u32);
                    w.free_blocks += 1;
                }
                _ => return Err(MapError::CorruptHeader { granule: g }),
            }
            g += 1 + pg;
        }
        if g != limit {
            return Err(MapError::CorruptHeader { granule: g });
        }
        // Cross-check: every set bitmap bit must sit under a committed
        // header. A bit with no block under it cannot result from any crash
        // ordering — it is corruption.
        for wi in 0..granules.div_ceil(64) {
            let (word, _) = self.bm_word(g0 + wi * 64);
            let mut bits = word.load(Acquire);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let gran = g0 + wi * 64 + b;
                if !committed_set.contains(&gran) {
                    return Err(MapError::CorruptBitmap { granule: gran });
                }
            }
        }
        Ok(w)
    }

    /// The offset-relocation pass: rebases every committed payload word that
    /// points into the old mapping (see the module docs for the aliasing
    /// caveat). One work unit per [`RELOC_CHUNK`] blocks — blocks are
    /// disjoint, so the units race on nothing.
    pub(super) fn relocate(&self, old_base: usize, committed: &[(usize, usize)]) {
        let (old, new) = (old_base as u64, self.base as u64);
        let span = self.size.load(Acquire) as u64;
        let chunks: Vec<_> = committed.chunks(RELOC_CHUNK).collect();
        fan_out(
            chunks.len(),
            || (),
            |_, unit| {
                for &(g, pg) in chunks[unit] {
                    let p = self.payload(g) as *mut u64;
                    for i in 0..pg * (GRANULE / 8) {
                        // SAFETY: exclusive attach; units hold disjoint blocks.
                        let v = unsafe { p.add(i).read() };
                        let t = v & !1; // strip the info-pointer tag bit
                        if t >= old && t < old + span {
                            unsafe { p.add(i).write((t - old + new) | (v & 1)) };
                        }
                    }
                }
            },
        );
    }

    /// Frees every committed block whose payload address is **not** in
    /// `live` (attach-time garbage collection of blocks leaked by a crash:
    /// pool caches, limbo bags, unlinked nodes). One work unit per segment;
    /// the frees land in the lock-free stacks / cold map, which are safe
    /// under that concurrency. Returns the number swept.
    ///
    /// # Safety
    /// Requires quiescent exclusive access, and `live` must contain every
    /// payload address still reachable from the structure's roots.
    pub unsafe fn sweep_except(&self, live: &HashSet<usize>) -> usize {
        let bump = self.word(W_BUMP).load(Acquire) as usize;
        let n = self.n_segs.load(Acquire);
        // SAFETY: forwarded contract, one segment's slice per unit.
        fan_out(n, || 0, |swept, i| *swept += unsafe { self.sweep_segment(i, bump, live) })
            .into_iter()
            .sum()
    }

    /// # Safety
    /// As [`MappedHeap::sweep_except`] (one segment's slice).
    unsafe fn sweep_segment(&self, i: usize, bump: usize, live: &HashSet<usize>) -> usize {
        let s = &self.segs[i];
        let limit = bump.min(s.g_end());
        let mut swept = 0;
        let mut g = s.g_start.load(Relaxed);
        while g < limit {
            let (state, pg) = decode_hdr(self.hdr(g).load(Acquire)).expect("swept a corrupt heap");
            if state == ST_COMMITTED && !live.contains(&(self.payload(g) as usize)) {
                unsafe { self.free(self.payload(g)) };
                swept += 1;
            }
            g += 1 + pg as usize;
        }
        swept
    }
}
