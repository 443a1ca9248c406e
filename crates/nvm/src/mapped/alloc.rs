//! Blocks: slabs, commit bitmaps, the two allocator tiers, and the attach
//! passes over them (walk/heal, sweep).
//!
//! Every segment's granule space is cut into **chunks** of [`SLAB`]
//! granules (4 KiB), aligned to the segment's first granule, so one word of
//! the segment's **commit bitmap** (one bit per granule) covers exactly one
//! chunk. Granule 0 of a chunk is a **header granule**, one of three kinds:
//!
//! * a **slab** — word 0 `magic | SLAB | class`, word 1 the *allocated*
//!   mask, word 2 the *committed* mask — heads the blocks of one size class:
//!   class `c` in 1..=[`MAX_CLASS`] holds `63 / c` blocks of `c` payload
//!   granules at chunk granules `1 + i·c`, and class 0, the **half slab**,
//!   holds 126 blocks of [`HALF`] bytes, two per payload granule, each
//!   aligned to its size so it never straddles a cache line (the nodes of
//!   every structure). A half slab's masks and bitmap bit are its *even*
//!   halves'; its *odd* halves (granule offset 32) have their own
//!   allocated, committed and bitmap words (header words 3, 4, 5), indexed
//!   the same way, so no two blocks ever share a bit. In every other slab
//!   those three words are zero;
//! * a **cold block** — word 0 `magic | state | payload granules` — heads
//!   one block above `MAX_CLASS` (recovery areas, roots, catalogs) whose
//!   payload starts at chunk granule 1 and runs on over as many whole chunks
//!   as it needs;
//! * a **pad** — segment-tail and gap filler (`segments`), no block.
//!
//! A block is named by its payload: the header is the first granule of the
//! payload granule's chunk and the granule offset picks the mask set, so
//! `commit`, `free` and `committed_payload_bytes` find it by arithmetic. A
//! bitmap bit (a segment bitmap's, or a half slab's odd-half word) is set
//! iff its granule starts the payload of a committed block; a slab's masks
//! are indexed like its bitmap word. The free lists and the global stacks
//! name a small block by its **half-granule index** (`2·granule + odd`).
//!
//! Small blocks are served from per-thread (tid-indexed, cache-padded) free
//! lists, stocked one slab carve at a time from the bump cursor
//! (`segments`) and spilled to per-class **lock-free global stacks**
//! (version-counted Treiber stacks whose heads are superblock words, shared
//! by every attached process, and whose next-links live in word 0 of the
//! free blocks' payloads). Cold blocks go through a small non-poisoning
//! mutex.
//!
//! Invariants this file owns:
//!
//! * **Allocation state is the headers plus the bitmaps.** Free lists, stack
//!   heads and next-links are volatile state in persistent space, rebuilt by
//!   every full attach; no crash can tear a persistent list pointer.
//! * **Transition order.** A slab carve writes its header (class and all
//!   five mask words) before the bump offset is published (`segments`);
//!   `alloc` sets the block's allocated bit (a cold block: its header to
//!   `ALLOCATED`); the caller initializes the payload, then `commit` sets
//!   the bitmap bit **before** the committed bit (`COMMITTED`); `free`
//!   clears the committed bit and then the allocated bit (`FREE`)
//!   **before** the bitmap bit. Every block runs this order on bits of its
//!   own — two threads committing and freeing the two halves of one granule
//!   touch different words. These are plain ordered atomics — a `SIGKILL`
//!   loses no completed store — not `superblock::persist`: they sit on
//!   every operation's hot path.
//! * **Every torn state classifies.** The attach walk therefore reads an
//!   allocated, uncommitted block as a torn allocation (its payload, and
//!   only its — 32 bytes for a half — poisoned with [`POISON`] and freed;
//!   this also covers a commit or a free cut between its two steps), a free
//!   block with a set bit as a lost bit-clear (healed), and any other
//!   disagreement — a committed block with no bit, a committed bit with no
//!   allocated bit, a mask or bitmap bit on a granule that starts no block
//!   (a header, a pad, a payload's inside, a slab's remainder, an odd half
//!   outside a half slab), a header off a chunk boundary — as *corruption*:
//!   a typed [`MapError`], never undefined behaviour. Slabs and blocks never
//!   straddle a segment boundary, which is what makes the walk and the sweep
//!   independent per segment (`fan_out`).
//! * **No pass rewrites a payload.** The walk reads and heals headers and
//!   bitmaps, and poisons only torn (never committed) payloads: a committed
//!   payload is the caller's, and its links are heap offsets that mean the
//!   same at every base.

use super::fanout::fan_out;
use super::segments::SegSlot;
use super::superblock::{W_ALLOC_LOCK, W_BUMP, W_BUMP_RESV, W_GLOBAL0, W_PART0};
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
/// Segment-tail and gap filler written by the bump path so chunks never
/// straddle a segment boundary. Header-only: it covers `1 + count` granules
/// (the count may be zero), holds no block and never carries a bit.
pub(super) const ST_PAD: u64 = 4;
/// A slab header; its count field is the class (payload granules per block,
/// 0 for the half class).
const ST_SLAB: u64 = 5;
/// Slab header words: the allocated and the committed mask of the even
/// halves — of every block, in a slab of whole granules.
const W_ALLOCATED: usize = 1;
const W_COMMITTED: usize = 2;
/// A half slab's odd halves: their allocated and committed masks and their
/// bitmap word. Zero in every other slab.
const W_ODD_ALLOCATED: usize = 3;
const W_ODD_COMMITTED: usize = 4;
const W_ODD_BITMAP: usize = 5;

/// Largest size class (payload granules) served by the sharded free lists;
/// larger blocks take the cold mutex path.
pub const MAX_CLASS: usize = 8;
/// Size classes of the sharded free lists: class 0 is the half class
/// ([`HALF`]-byte blocks), class `k` ≥ 1 holds blocks of `k` payload
/// granules.
pub const CLASSES: usize = MAX_CLASS + 1;
/// Payload bytes of a half-class block: half a granule, aligned to its size,
/// so a block never straddles a cache line.
pub const HALF: usize = GRANULE / 2;
// One global stack head per class, below the participant registry.
const _: () = assert!(W_GLOBAL0 + CLASSES <= W_PART0);
/// Granules per chunk: a slab, or the unit a cold block and a reservation
/// are rounded up to. One commit-bitmap word.
pub(super) const SLAB: usize = 64;
/// Per-thread free-list capacity per class; overflow spills to the global
/// lock-free stack.
const CACHE_CAP: usize = 64;

#[inline]
pub(super) fn encode_hdr(state: u64, count: u64) -> u64 {
    (HDR_MAGIC << 48) | (state << 40) | count
}

#[inline]
fn decode_hdr(h: u64) -> Option<(u64, u64)> {
    if h >> 48 != HDR_MAGIC {
        return None;
    }
    Some(((h >> 40) & 0xFF, h & 0xFFFF_FFFF))
}

/// Granule-bit mask of a class-`cls` slab's block starts: `1 + k·cls` for
/// `k < 63 / cls`; in a half slab every payload granule (two blocks each).
fn slab_starts(cls: usize) -> u64 {
    let pg = cls.max(1);
    (0..(SLAB - 1) / pg).fold(0, |m, k| m | 1 << (1 + k * pg))
}

/// Blocks of a class-`cls` slab: two per payload granule in a half slab.
fn slab_blocks(cls: usize) -> usize {
    (SLAB - 1).checked_div(cls).unwrap_or(2 * (SLAB - 1))
}

/// Payload bytes of a block of small class `cls` (the index of
/// [`HeapUsage`]'s per-class counts).
pub fn block_bytes(cls: usize) -> usize {
    if cls == 0 {
        HALF
    } else {
        cls * GRANULE
    }
}

/// The class [`MappedHeap::alloc`] serves `bytes` from: the half class up
/// to [`HALF`] bytes, else whole payload granules (above [`MAX_CLASS`], a
/// cold block).
fn class_of(bytes: usize) -> usize {
    if bytes <= HALF {
        0
    } else {
        bytes.div_ceil(GRANULE)
    }
}

/// The blocks of the class-`cls` slab headed at granule `chunk`, lowest
/// first, by half-granule index.
fn slab_halves(
    chunk: usize,
    cls: usize,
) -> impl DoubleEndedIterator<Item = usize> + ExactSizeIterator {
    let step = (2 * cls).max(1);
    (0..slab_blocks(cls)).map(move |k| 2 * (chunk + 1) + k * step)
}

/// Granules a block of `pg` payload granules spans outside a slab: its
/// header and payload, rounded up to whole chunks.
fn cold_span(pg: usize) -> usize {
    (1 + pg).next_multiple_of(SLAB)
}

/// Granules a chunk header of `state` / `count` covers (the walks' step).
fn span(state: u64, count: usize) -> usize {
    match state {
        ST_SLAB => SLAB,
        ST_PAD => 1 + count,
        _ => cold_span(count),
    }
}

/// The indices of the set bits of `m`, lowest first.
fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = (m != 0).then(|| m.trailing_zeros() as usize)?;
        m &= m - 1;
        Some(b)
    })
}

/// Per-thread size-class free lists (half-granule indices). Indexed by the
/// registered tid and only ever touched by that thread, which is what makes
/// the `UnsafeCell` sound (same discipline as `isb::pool`).
pub(super) type ThreadCache = [Vec<u32>; CLASSES];

/// What a heap's bumped granules hold ([`MappedHeap::usage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapUsage {
    /// Per size class (index = payload granules, 0 = the half class): blocks
    /// handed out — committed, or allocated and not yet committed.
    pub committed: [usize; CLASSES],
    /// Per size class: free blocks, returned or carved and never handed out.
    pub free: [usize; CLASSES],
    /// Slab header granules.
    pub headers: usize,
    /// Granules that hold no block: segment-tail and gap pads, and each
    /// slab's remainder past its last block.
    pub pads: usize,
    /// Granules of blocks above [`MAX_CLASS`]: header, payload and the
    /// round-up to a whole chunk.
    pub cold: usize,
}

impl HeapUsage {
    /// Granules accounted for — [`MappedHeap::bump_granules`], when no
    /// thread is allocating. (Half blocks come 126 to a slab, so their
    /// bytes are whole granules.)
    pub fn granules(&self) -> usize {
        let blocks: usize =
            (0..CLASSES).map(|c| (self.committed[c] + self.free[c]) * block_bytes(c)).sum();
        blocks / GRANULE + self.headers + self.pads + self.cold
    }
}

/// A granule's coordinates, from one segment lookup: the header words of
/// its chunk, and the bitmap word over the chunk with the granule's bit in
/// it (the same bit in a slab's masks).
struct Loc<'a> {
    hdr: &'a [AtomicU64; W_ODD_BITMAP + 1],
    bm: &'a AtomicU64,
    bit: u64,
}

impl Loc<'_> {
    /// The `[allocated, committed, bitmap]` words of the blocks at this
    /// granule: a half slab's odd halves' own, or else the slab's masks and
    /// the segment bitmap.
    fn masks(&self, odd: bool) -> [&AtomicU64; 3] {
        if odd {
            [&self.hdr[W_ODD_ALLOCATED], &self.hdr[W_ODD_COMMITTED], &self.hdr[W_ODD_BITMAP]]
        } else {
            [&self.hdr[W_ALLOCATED], &self.hdr[W_COMMITTED], self.bm]
        }
    }
}

/// One segment's share of the attach walk.
#[derive(Default)]
struct SegWalk {
    committed: usize,
    free: HashMap<u32, Vec<u32>>,
    poisoned: usize,
    healed: usize,
    free_blocks: usize,
}

impl MappedHeap {
    // -- headers and bitmap ------------------------------------------------

    /// Word 0 of granule `g`: a chunk header when `g` starts a chunk.
    #[inline]
    pub(super) fn hdr(&self, g: usize) -> &AtomicU64 {
        // SAFETY: granule g starts inside a mapped data region.
        unsafe { &*(self.base.add(self.granule_off(g)) as *const AtomicU64) }
    }

    /// Coordinates of global granule `g`, which lies in segment `s`.
    #[inline]
    fn loc_in(&self, s: &SegSlot, g: usize) -> Loc<'_> {
        let local = g - s.g_start.load(Relaxed);
        let chunk = local / SLAB;
        let hdr = s.data_off.load(Relaxed) + chunk * SLAB * GRANULE;
        let bm = s.bm_off.load(Relaxed) + chunk * 8;
        debug_assert!(bm + 8 <= s.data_off.load(Relaxed));
        // SAFETY: the chunk's first granule lies in the segment's data
        // region, its bitmap word in the segment's bitmap.
        unsafe {
            Loc {
                hdr: &*(self.base.add(hdr) as *const [AtomicU64; W_ODD_BITMAP + 1]),
                bm: &*(self.base.add(bm) as *const AtomicU64),
                bit: 1 << (local % SLAB),
            }
        }
    }

    #[inline]
    fn loc(&self, g: usize) -> Loc<'_> {
        self.loc_in(self.seg_of(g), g)
    }

    #[inline]
    fn payload(&self, g: usize) -> *mut u8 {
        // SAFETY: granule g lies inside a mapped data region.
        unsafe { self.base.add(self.granule_off(g)) }
    }

    /// The payload at half-granule index `h`: granule `h / 2`, its odd half
    /// when `h` is odd.
    #[inline]
    fn half_payload(&self, h: usize) -> *mut u8 {
        // SAFETY: both halves of a granule lie inside the granule.
        unsafe { self.payload(h / 2).add(h % 2 * HALF) }
    }

    /// The half-granule index of payload `p` (granules, and so the base,
    /// are granule-aligned).
    #[inline]
    fn half_of(&self, p: *mut u8) -> usize {
        2 * self.granule_of(p) + (p as usize - self.base as usize) % GRANULE / HALF
    }

    /// Word 0 of a free small block's payload, by half-granule index: its
    /// free-list next-link (volatile state in persistent space, rebuilt on
    /// attach; torn values harmless).
    #[inline]
    fn link_word(&self, h: usize) -> &AtomicU64 {
        // SAFETY: the first word of a payload.
        unsafe { &*(self.half_payload(h) as *const AtomicU64) }
    }

    /// Overwrites the `bytes`-byte payload at `p` with [`POISON`].
    fn poison(&self, p: *mut u8, bytes: usize) {
        let p = p as *mut u64;
        for k in 0..bytes / 8 {
            // SAFETY: payload of a block wholly inside the arena.
            unsafe { p.add(k).write(POISON) };
        }
    }

    // -- allocation --------------------------------------------------------

    /// Pops from / pushes to the per-class global lock-free stack, whose
    /// entries are half-granule indices. The heads live in superblock words
    /// ([`W_GLOBAL0`]), so every attached process pushes to and pops from
    /// the same stacks.
    fn global_pop(&self, cls: usize) -> Option<usize> {
        let head = self.word(W_GLOBAL0 + cls);
        loop {
            let h = head.load(Acquire);
            let top1 = h & 0xFFFF_FFFF;
            if top1 == 0 {
                return None;
            }
            let top = (top1 - 1) as usize;
            let next = self.link_word(top).load(Acquire) & 0xFFFF_FFFF;
            let ver = (h >> 32).wrapping_add(1) & 0xFFFF_FFFF;
            if head.compare_exchange_weak(h, (ver << 32) | next, AcqRel, Acquire).is_ok() {
                return Some(top);
            }
        }
    }

    fn global_push(&self, cls: usize, half: usize) {
        let head = self.word(W_GLOBAL0 + cls);
        loop {
            let h = head.load(Acquire);
            self.link_word(half).store(h & 0xFFFF_FFFF, Release);
            let ver = (h >> 32).wrapping_add(1) & 0xFFFF_FFFF;
            if head
                .compare_exchange_weak(h, (ver << 32) | (half as u64 + 1), AcqRel, Acquire)
                .is_ok()
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

    /// Allocates a block with at least `bytes` of payload: a [`HALF`]-byte
    /// block aligned to its size for up to `HALF` bytes (the structures'
    /// nodes), else whole granules, 64-byte aligned. The block is
    /// `ALLOCATED`: the caller must initialize the payload and then call
    /// [`MappedHeap::commit`]; until then an attach treats it as torn and
    /// poisons it.
    pub fn alloc(&self, bytes: usize) -> Result<*mut u8, MapError> {
        self.alloc_class(class_of(bytes))
    }

    /// A committed, zero-filled block of at least `bytes` (root blocks and
    /// catalog roots; blocks recycled from the free list carry stale
    /// payloads). Whole granules even for a few bytes: a root keeps a cache
    /// line of its own.
    pub(super) fn alloc_zeroed(&self, bytes: usize) -> Result<*mut u8, MapError> {
        let pg = bytes.max(1).div_ceil(GRANULE);
        let p = self.alloc_class(pg)?;
        // SAFETY: freshly allocated block of `pg` granules.
        unsafe { std::ptr::write_bytes(p, 0, pg * GRANULE) };
        self.commit(p);
        Ok(p)
    }

    /// A block of class `cls`: a slab block up to [`MAX_CLASS`], else a cold
    /// block of `cls` payload granules.
    fn alloc_class(&self, cls: usize) -> Result<*mut u8, MapError> {
        stats::count_heap_allocs(1);
        if cls <= MAX_CLASS {
            self.alloc_sharded(cls)
        } else {
            self.alloc_cold(cls)
        }
    }

    fn alloc_sharded(&self, cls: usize) -> Result<*mut u8, MapError> {
        let cached = self.my_cache().and_then(|cache| cache[cls].pop());
        if let Some(h) = cached.map(|h| h as usize).or_else(|| self.global_pop(cls)) {
            stats::count_free_list_hits(1);
            let at = self.loc(h / 2);
            at.masks(h % 2 == 1)[0].fetch_or(at.bit, Release);
            return Ok(self.half_payload(h));
        }
        // Slab carve: one chunk of same-class blocks. Block 0 (granule 1,
        // its even half in a half slab) is returned allocated; the rest are
        // stocked free (crash-safe: a lost cache is rebuilt from the masks).
        // Every other mask word starts clear, the odd halves' too: the
        // chunk may hold what a carve that died before its publish wrote.
        // The reserve+publish window runs under the bump lock so a
        // SIGKILLed peer can leave at most one healable gap.
        stats::count_slab_refills(1);
        let bump_lock = self.lock_bump();
        let r = self.bump_reserve(SLAB)?;
        let slab = self.loc(r.start);
        slab.hdr[W_ALLOCATED].store(1 << 1, Release);
        for w in W_COMMITTED..=W_ODD_BITMAP {
            slab.hdr[w].store(0, Release);
        }
        slab.hdr[0].store(encode_hdr(ST_SLAB, cls as u64), Release);
        self.publish_bump(r.from, r.end);
        drop(bump_lock);
        // Reversed, so the thread's cache hands the blocks out in order.
        let rest = slab_halves(r.start, cls).skip(1).rev();
        match self.my_cache() {
            Some(cache) => cache[cls].extend(rest.map(|h| h as u32)),
            None => rest.for_each(|h| self.global_push(cls, h)),
        }
        Ok(self.payload(r.start + 1))
    }

    /// The mutex path: blocks above `MAX_CLASS` (recovery areas, roots,
    /// catalogs).
    fn alloc_cold(&self, pg: usize) -> Result<*mut u8, MapError> {
        let mut cold = lock_np(&self.cold);
        if let Some(g) = cold.get_mut(&(pg as u32)).and_then(Vec::pop) {
            stats::count_free_list_hits(1);
            self.loc(g as usize).hdr[0].store(encode_hdr(ST_ALLOCATED, pg as u64), Release);
            return Ok(self.payload(g as usize));
        }
        // The cold mutex stays held across the bump: large blocks are rare.
        let bump_lock = self.lock_bump();
        let r = self.bump_reserve(cold_span(pg))?;
        self.hdr(r.start).store(encode_hdr(ST_ALLOCATED, pg as u64), Release);
        self.publish_bump(r.from, r.end);
        drop(bump_lock);
        Ok(self.payload(r.start + 1))
    }

    /// Marks the block at payload `p` fully initialized. Bitmap bit before
    /// header state (see the module docs for the crash analysis).
    pub fn commit(&self, p: *mut u8) {
        let h = self.half_of(p);
        let (at, odd) = (self.loc(h / 2), h % 2 == 1);
        let (state, n) = decode_hdr(at.hdr[0].load(Acquire)).expect("commit of a non-block");
        if state != ST_SLAB {
            debug_assert!(state == ST_ALLOCATED && !odd, "commit of a block not ALLOCATED");
            at.bm.fetch_or(at.bit, SeqCst);
            at.hdr[0].store(encode_hdr(ST_COMMITTED, n), Release);
            return;
        }
        let [allocated, committed, bm] = at.masks(odd);
        debug_assert!(
            (!odd || n == 0) && allocated.load(Relaxed) & !committed.load(Relaxed) & at.bit != 0,
            "commit of a block not in ALLOCATED state"
        );
        bm.fetch_or(at.bit, SeqCst);
        committed.fetch_or(at.bit, Release);
    }

    /// Returns the block at payload `p` to the free lists (header state
    /// before the bitmap bit; no destructor runs).
    ///
    /// # Safety
    /// `p` must be a payload pointer obtained from this heap's
    /// [`MappedHeap::alloc`] whose block no thread can still reach, freed at
    /// most once per allocation.
    pub unsafe fn free(&self, p: *mut u8) {
        let h = self.half_of(p);
        let at = self.loc(h / 2);
        let (state, n) = decode_hdr(at.hdr[0].load(Acquire)).expect("free of a non-block");
        if state != ST_SLAB {
            at.hdr[0].store(encode_hdr(ST_FREE, n), Release);
            at.bm.fetch_and(!at.bit, SeqCst);
            lock_np(&self.cold).entry(n as u32).or_default().push((h / 2) as u32);
            return;
        }
        let [allocated, committed, bm] = at.masks(h % 2 == 1);
        committed.fetch_and(!at.bit, Release);
        allocated.fetch_and(!at.bit, Release);
        bm.fetch_and(!at.bit, SeqCst);
        let cls = n as usize;
        if let Some(cache) = self.my_cache() {
            if cache[cls].len() < CACHE_CAP {
                cache[cls].push(h as u32);
                return;
            }
        }
        self.global_push(cls, h);
    }

    /// Payload bytes of the `COMMITTED` block whose payload starts at `p`;
    /// `None` when `p` is not the payload of one. For pointers read out of an
    /// untrusted image (a catalog entry's root): nothing is dereferenced
    /// before `p` is known to lie in a data region, and the commit bit —
    /// which the attach walk cross-checked against the headers — is what says
    /// a block starts there, so bytes inside another block's payload that
    /// merely look like a header do not pass. A granule's second half
    /// answers only in a half slab.
    pub fn committed_payload_bytes(&self, p: *const u8) -> Option<usize> {
        let off = (p as usize).checked_sub(self.base as usize)?;
        if !off.is_multiple_of(HALF) {
            return None;
        }
        let odd = off % GRANULE == HALF;
        // A peer may have published the segment `p` lives in.
        self.refresh_segments().ok()?;
        let g = self.try_granule_of(p)?;
        let s = self.seg_of(g);
        let at = self.loc_in(s, g);
        let [_, committed, bm] = at.masks(odd);
        if bm.load(Acquire) & at.bit == 0 {
            return None;
        }
        let head = g - at.bit.trailing_zeros() as usize;
        match decode_hdr(at.hdr[0].load(Acquire))? {
            (ST_SLAB, cls)
                if cls <= MAX_CLASS as u64
                    && (cls == 0 || !odd)
                    && slab_starts(cls as usize) & committed.load(Acquire) & at.bit != 0
                    && head + SLAB <= s.g_end() =>
            {
                Some(block_bytes(cls as usize))
            }
            (ST_COMMITTED, pg)
                if !odd && at.bit == 1 << 1 && head + 1 + pg as usize <= s.g_end() =>
            {
                Some(pg as usize * GRANULE)
            }
            _ => None,
        }
    }

    /// What the bumped granules hold, read off the chunk headers below the
    /// bump (read-only; a racy snapshot while other threads allocate).
    pub fn usage(&self) -> HeapUsage {
        let bump = self.word(W_BUMP).load(Acquire) as usize;
        let mut u = HeapUsage::default();
        for s in &self.segs[..self.n_segs.load(Acquire)] {
            for (_, at, state, n) in self.chunks(s, bump) {
                match state {
                    ST_SLAB => {
                        let starts = slab_starts(n);
                        let blocks = slab_blocks(n);
                        let used: u32 = [false, true]
                            .map(|odd| (at.masks(odd)[0].load(Acquire) & starts).count_ones())
                            .iter()
                            .sum();
                        let used = used as usize;
                        u.committed[n] += used;
                        u.free[n] += blocks - used;
                        u.headers += 1;
                        u.pads += SLAB - 1 - blocks * block_bytes(n) / GRANULE;
                    }
                    ST_PAD => u.pads += 1 + n,
                    _ => u.cold += cold_span(n),
                }
            }
        }
        u
    }

    /// The chunk headers of segment `s` below `bump`, as `(granule,
    /// coordinates, state, count)`, on an image the attach walk validated.
    fn chunks<'a>(
        &'a self,
        s: &'a SegSlot,
        bump: usize,
    ) -> impl Iterator<Item = (usize, Loc<'a>, u64, usize)> + 'a {
        let mut g = s.g_start.load(Relaxed);
        std::iter::from_fn(move || {
            let at = (g < bump.min(s.g_end())).then(|| self.loc_in(s, g))?;
            let (state, n) = decode_hdr(at.hdr[0].load(Acquire)).expect("a validated header");
            let chunk = g;
            g += span(state, n as usize);
            Some((chunk, at, state, n as usize))
        })
    }

    // -- attach walk -------------------------------------------------------

    /// Walks every chunk header up to the bump offset: rebuilds the free
    /// lists, poisons torn allocations, heals benign bitmap bits, and fails
    /// with a typed error on any state no crash ordering can produce. One
    /// work unit per segment.
    pub(super) fn walk_and_heal(&mut self) -> Result<(), MapError> {
        let bump = self.word(W_BUMP).load(Acquire) as usize;
        // Reset the volatile-in-persistent allocator words (reservation
        // cursor, bump lock, global free-stack heads): their last-run values
        // are stale garbage, and the walk below restocks the stacks.
        self.word(W_BUMP_RESV).store(bump as u64, SeqCst);
        self.word(W_ALLOC_LOCK).store(0, SeqCst);
        for cls in 0..CLASSES {
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
        let mut free: HashMap<u32, Vec<u32>> = HashMap::new();
        for (_, walk) in walks {
            let sw = walk?;
            self.report.committed += sw.committed;
            for (cls, mut list) in sw.free {
                free.entry(cls).or_default().append(&mut list);
            }
            self.report.poisoned += sw.poisoned;
            self.report.healed_bits += sw.healed;
            self.report.free_blocks += sw.free_blocks;
        }
        self.report.free_blocks += self.report.poisoned;
        // Stock the allocator: small classes (half-granule indices) into
        // the lock-free stacks, cold blocks (payload granules, by size) into
        // the cold map.
        for (cls, list) in free {
            if (cls as usize) <= MAX_CLASS {
                // Reversed, so the stacks hand the lowest blocks out first.
                for h in list.into_iter().rev() {
                    self.global_push(cls as usize, h as usize);
                }
            } else {
                lock_np(&self.cold).entry(cls).or_default().extend(list);
            }
        }
        Ok(())
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
        // The bitmap the walk expects, one word per chunk: the bits of the
        // committed blocks.
        let mut expect = vec![0u64; granules.div_ceil(SLAB)];
        let mut g = g0;
        while g < limit {
            let bad = |at: usize| MapError::CorruptHeader { granule: at };
            let at = self.loc_in(s, g);
            if at.bit != 1 {
                return Err(bad(g));
            }
            let (state, n) = decode_hdr(at.hdr[0].load(Acquire)).ok_or(bad(g))?;
            let n = n as usize;
            let end = g + span(state, n);
            if end > limit {
                return Err(bad(g));
            }
            let want = &mut expect[(g - g0) / SLAB];
            match state {
                ST_PAD => {
                    // Filler: holds no block; its bits must be clear
                    // (enforced by the bitmap cross-check below).
                }
                ST_SLAB => {
                    if n > MAX_CLASS {
                        return Err(bad(g));
                    }
                    // The odd halves' words hold blocks in a half slab only:
                    // anywhere else a bit there starts no block.
                    let starts = slab_starts(n);
                    *want = self.walk_masks(&mut w, g, n, &at, false, starts)?;
                    self.walk_masks(&mut w, g, n, &at, true, if n == 0 { starts } else { 0 })?;
                }
                ST_ALLOCATED | ST_COMMITTED | ST_FREE => {
                    // A small block only ever lives in a slab.
                    if n <= MAX_CLASS {
                        return Err(bad(g));
                    }
                    let (p, bit) = (g + 1, 1 << 1);
                    let set = at.bm.load(Acquire) & bit != 0;
                    if state == ST_COMMITTED {
                        if !set {
                            return Err(MapError::CorruptBitmap { granule: p });
                        }
                        *want = bit;
                        w.committed += 1;
                    } else {
                        if state == ST_ALLOCATED {
                            self.poison(self.payload(p), n * GRANULE);
                            at.hdr[0].store(encode_hdr(ST_FREE, n as u64), Release);
                            w.poisoned += 1;
                        } else {
                            w.healed += usize::from(set);
                            w.free_blocks += 1;
                        }
                        if set {
                            at.bm.fetch_and(!bit, SeqCst);
                        }
                        w.free.entry(n as u32).or_default().push(p as u32);
                    }
                }
                _ => return Err(bad(g)),
            }
            g = end;
        }
        // Cross-check: every set bitmap bit must be one the walk expects. A
        // bit on a header, a pad, a payload's inside or past the bump cannot
        // result from any crash ordering — it is corruption.
        for (k, want) in expect.into_iter().enumerate() {
            let chunk = g0 + k * SLAB;
            let stray = self.loc_in(s, chunk).bm.load(Acquire) & !want;
            if stray != 0 {
                return Err(MapError::CorruptBitmap {
                    granule: chunk + stray.trailing_zeros() as usize,
                });
            }
        }
        Ok(w)
    }

    /// One mask set of the class-`cls` slab headed at granule `g` — its even
    /// halves' (every block's, in a slab of whole granules) or its odd
    /// halves' — whose blocks start at the bits of `starts`: checks it,
    /// poisons and frees the torn blocks, clears lost bitmap bits, and
    /// returns the committed mask.
    fn walk_masks(
        &self,
        w: &mut SegWalk,
        g: usize,
        cls: usize,
        at: &Loc<'_>,
        odd: bool,
        starts: u64,
    ) -> Result<u64, MapError> {
        let [aw, cw, bw] = at.masks(odd);
        let (a, c) = (aw.load(Acquire), cw.load(Acquire));
        // A mask bit on no block start, or a committed block that was never
        // allocated: no crash ordering writes it.
        let wrong = (a | c) & !starts | c & !a;
        if wrong != 0 {
            return Err(MapError::CorruptHeader { granule: g + wrong.trailing_zeros() as usize });
        }
        // A committed block with no bit, or a bit on no block start.
        let bm = bw.load(Acquire);
        let wrong = c & !bm | bm & !starts;
        if wrong != 0 {
            return Err(MapError::CorruptBitmap { granule: g + wrong.trailing_zeros() as usize });
        }
        // Torn allocations: the owning operation never committed them, so
        // nothing can reference them. Poison the payloads (so any stale use
        // is loud) and recycle them. A free block's set bit is a lost
        // bit-clear.
        let torn = a & !c;
        let healed = bm & !a;
        let half = |b: usize| 2 * (g + b) + usize::from(odd);
        for b in bits(torn) {
            self.poison(self.half_payload(half(b)), block_bytes(cls));
        }
        if torn != 0 {
            aw.fetch_and(!torn, Release);
        }
        if bm & (torn | healed) != 0 {
            bw.fetch_and(!(torn | healed), SeqCst);
        }
        w.committed += c.count_ones() as usize;
        let free = w.free.entry(cls as u32).or_default();
        free.extend(bits(starts & !c).map(|b| half(b) as u32));
        w.poisoned += torn.count_ones() as usize;
        w.healed += healed.count_ones() as usize;
        w.free_blocks += (starts & !a).count_ones() as usize;
        Ok(c)
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
        let mut swept = 0;
        for (g, at, state, _) in self.chunks(&self.segs[i], bump) {
            // The committed masks of the even and the odd halves.
            let committed = match state {
                ST_SLAB => [false, true].map(|odd| at.masks(odd)[1].load(Acquire)),
                ST_COMMITTED => [1 << 1, 0],
                _ => [0, 0],
            };
            for (odd, c) in committed.into_iter().enumerate() {
                for b in bits(c) {
                    let p = self.half_payload(2 * (g + b) + odd);
                    if !live.contains(&(p as usize)) {
                        unsafe { self.free(p) };
                        swept += 1;
                    }
                }
            }
        }
        swept
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tmp;
    use super::*;
    use crate::mapped::MIN_HEAP_BYTES;

    /// `(allocated, committed, bitmap)` bits of the block at payload `p`.
    fn bits_of(heap: &MappedHeap, p: *mut u8) -> (bool, bool, bool) {
        let h = heap.half_of(p);
        let at = heap.loc(h / 2);
        let [a, c, b] = at.masks(h % 2 == 1).map(|w| w.load(Acquire) & at.bit != 0);
        (a, c, b)
    }

    /// A committed block of `bytes` whose payload — all of it and nothing
    /// past it, which may be a sibling half — is filled with `0xAA`.
    fn committed(heap: &MappedHeap, bytes: usize) -> *mut u8 {
        let p = heap.alloc(bytes).unwrap();
        unsafe { std::ptr::write_bytes(p, 0xAA, block_bytes(class_of(bytes))) };
        heap.commit(p);
        p
    }

    /// The first pad header of segment 0, after committing cold blocks until
    /// the 64 KiB first segment overflows into a second one.
    fn grow_past_first_segment(heap: &MappedHeap) -> usize {
        while heap.segments() == 1 {
            committed(heap, 4096);
        }
        let s = &heap.segs[0];
        let mut g = s.g_start.load(Relaxed);
        loop {
            let (state, n) = decode_hdr(heap.hdr(g).load(Acquire)).unwrap();
            if state == ST_PAD {
                return g;
            }
            g += span(state, n as usize);
        }
    }

    #[test]
    fn slab_carve_serves_63_class1_or_21_class3_blocks() {
        let path = tmp("slab_carve");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        for (bytes, cls, per_slab) in [(24, 0, 126), (64, 1, 63), (128, 2, 31), (192, 3, 21)] {
            let bump = heap.bump_granules();
            let mut blocks: Vec<_> = (0..per_slab).map(|_| heap.alloc(bytes).unwrap()).collect();
            assert_eq!(heap.bump_granules(), bump + SLAB, "{per_slab} x {bytes} B bump one slab");
            // The header granule first, then the payloads back to back,
            // each aligned to and as long as its class: two halves to a
            // granule in the half slab.
            blocks.sort();
            let step = block_bytes(cls);
            for (k, &p) in blocks.iter().enumerate() {
                assert_eq!(p, heap.payload(bump + 1).wrapping_add(k * step), "{bytes} B block {k}");
                assert!((p as usize).is_multiple_of(step.min(GRANULE)));
            }
            assert_eq!(decode_hdr(heap.hdr(bump).load(Acquire)), Some((ST_SLAB, cls as u64)));
            heap.alloc(bytes).unwrap();
            assert_eq!(
                heap.bump_granules(),
                bump + 2 * SLAB,
                "block {} opens a slab",
                per_slab + 1
            );
        }
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    /// Two threads commit and free the two halves of the same granules
    /// over and over: each half keeps its own bits, so the image reads back
    /// with every block committed and nothing to heal.
    #[test]
    fn slab_sibling_halves_commit_and_free_concurrently() {
        let path = tmp("slab_siblings");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        tid::set_tid(1);
        let base = heap.base() as usize;
        let blocks: Vec<_> = (0..2 * (SLAB - 1)).map(|_| committed(&heap, HALF) as usize).collect();
        let (evens, odds): (Vec<usize>, Vec<usize>) =
            blocks.iter().partition(|&&p| p % GRANULE == 0);
        assert_eq!((evens.len(), odds.len()), (SLAB - 1, SLAB - 1));
        std::thread::scope(|s| {
            for (t, mine) in [(2, evens), (3, odds)] {
                let heap = &heap;
                s.spawn(move || {
                    tid::set_tid(t);
                    for _ in 0..200 {
                        for &p in &mine {
                            unsafe { heap.free(p as *mut u8) };
                            // The thread's own cache hands the block back.
                            let q = heap.alloc(HALF).unwrap();
                            assert_eq!(q as usize, p);
                            unsafe { std::ptr::write_bytes(q, t as u8, HALF) };
                            heap.commit(q);
                        }
                    }
                });
            }
        });
        drop(heap);
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        let r = *heap.report();
        assert_eq!((r.committed, r.poisoned, r.healed_bits), (2 * (SLAB - 1), 0, 0));
        for &p in &blocks {
            let p = heap.base().wrapping_add(p - base);
            assert_eq!(bits_of(&heap, p), (true, true, true));
            let fill = if (p as usize).is_multiple_of(GRANULE) { 2 } else { 3 };
            assert!((0..HALF).all(|k| unsafe { p.add(k).read() } == fill));
        }
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slab_usage_sums_to_bump_granules() {
        let path = tmp("slab_usage");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        // Every hot class of the structures plus two cold sizes, over more
        // than the first segment holds (its tail becomes a pad); then every
        // third round of them is freed.
        let sizes = [24, 120, 192, 512, 9 * GRANULE, 100 * GRANULE];
        let blocks: Vec<_> = (0..600).map(|i| committed(&heap, sizes[i % sizes.len()])).collect();
        for (_, &p) in
            blocks.iter().enumerate().filter(|(i, _)| (i / sizes.len()).is_multiple_of(3))
        {
            unsafe { heap.free(p) };
        }
        assert!(heap.segments() > 1);
        let u = heap.usage();
        assert_eq!(u.granules(), heap.bump_granules());
        // 100 blocks of each size, 66 still live; slabs of 126 halves, 31,
        // 21 and 7 blocks.
        for (cls, per_slab) in [(0, 126), (2, 31), (3, 21), (8, 7)] {
            let slabs = 100usize.div_ceil(per_slab);
            assert_eq!(u.committed[cls], 66, "class {cls}");
            assert_eq!(u.free[cls], slabs * per_slab - 66, "class {cls}");
        }
        assert_eq!(u.headers, 1 + 4 + 5 + 15);
        assert_eq!(u.cold, 100 * SLAB + 100 * 2 * SLAB);
        assert!(u.pads >= 1, "segment 0's tail is a pad");
        // The attach walk reads the same image back.
        drop(heap);
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        assert_eq!(heap.usage(), u);
        assert_eq!(heap.report().committed, 6 * 66);
        assert_eq!(heap.report().free_blocks, u.free.iter().sum::<usize>() + 2 * 34);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slab_committed_payload_bytes_answers_only_at_block_starts() {
        let path = tmp("slab_cpb");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        let bytes = |g: usize| heap.committed_payload_bytes(heap.payload(g));
        // One class-8 slab: blocks at granules 1, 9, .., 49 of the chunk;
        // 57..63 lie past its count.
        let blocks: Vec<_> = (0..7).map(|_| committed(&heap, 8 * GRANULE)).collect();
        let h = heap.granule_of(blocks[0]) - 1;
        for (k, &p) in blocks.iter().enumerate() {
            assert_eq!(p, heap.payload(h + 1 + 8 * k));
            assert_eq!(heap.committed_payload_bytes(p), Some(8 * GRANULE));
        }
        for (g, what) in
            [(h, "the slab header"), (h + 2, "a block's inside"), (h + 57, "past count")]
        {
            assert_eq!(bytes(g), None, "{what}");
            // Not even under a forged bit: the header says no block is there.
            let at = heap.loc(g);
            at.bm.fetch_or(at.bit, SeqCst);
            assert_eq!(bytes(g), None, "{what} with its bit set");
            at.bm.fetch_and(!at.bit, SeqCst);
        }
        // An allocated block answers only once committed.
        let q = heap.alloc(GRANULE).unwrap();
        assert_eq!(heap.committed_payload_bytes(q), None);
        heap.commit(q);
        assert_eq!(heap.committed_payload_bytes(q), Some(GRANULE));
        // A cold block at its payload only; nothing in a pad.
        let cold = committed(&heap, 20 * GRANULE);
        assert_eq!(heap.committed_payload_bytes(cold), Some(20 * GRANULE));
        assert_eq!(bytes(heap.granule_of(cold) - 1), None);
        let pad = grow_past_first_segment(&heap);
        assert_eq!((bytes(pad), bytes(pad + 1)), (None, None));
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    /// Offsets inside a granule: the second half answers only at a
    /// committed odd half of a half slab, and nothing answers 8 or 16 bytes
    /// in — not even under a forged odd-half bit.
    #[test]
    fn slab_committed_payload_bytes_answers_at_half_starts_only_in_a_half_slab() {
        let path = tmp("slab_cpb_half");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        let cpb = |p: *mut u8, off: usize| heap.committed_payload_bytes(p.wrapping_add(off));
        let one = committed(&heap, GRANULE);
        let two = committed(&heap, 2 * GRANULE);
        for (p, what) in [(one, "one-granule"), (two, "two-granule")] {
            for off in [8, 16, HALF] {
                assert_eq!(cpb(p, off), None, "+{off} inside a {what} block");
            }
        }
        assert_eq!(cpb(two, GRANULE + HALF), None, "+96 inside a two-granule block");
        // A forged odd-half bit on a whole-granule block is no block either.
        let at = heap.loc(heap.granule_of(one));
        for w in [W_ODD_ALLOCATED, W_ODD_COMMITTED, W_ODD_BITMAP] {
            at.hdr[w].fetch_or(at.bit, SeqCst);
        }
        assert_eq!(cpb(one, HALF), None, "+32 inside a one-granule block with odd-half bits");
        for w in [W_ODD_ALLOCATED, W_ODD_COMMITTED, W_ODD_BITMAP] {
            at.hdr[w].fetch_and(!at.bit, SeqCst);
        }
        // Both halves of one granule, committed: each answers 32 bytes.
        let even = committed(&heap, HALF);
        let odd = committed(&heap, HALF);
        assert_eq!(odd, even.wrapping_add(HALF), "the carve's first two blocks share a granule");
        assert_eq!((cpb(even, 0), cpb(odd, 0)), (Some(HALF), Some(HALF)));
        for off in [8, 16] {
            assert_eq!((cpb(even, off), cpb(odd, off)), (None, None), "+{off} inside a half");
        }
        // A free half does not answer, nor an allocated one until committed;
        // its sibling answers throughout.
        unsafe { heap.free(odd) };
        assert_eq!((cpb(even, 0), cpb(odd, 0)), (Some(HALF), None), "a free odd half");
        let again = heap.alloc(HALF).unwrap();
        assert_eq!(again, odd);
        assert_eq!(cpb(odd, 0), None, "an allocated odd half");
        heap.commit(odd);
        assert_eq!(cpb(odd, 0), Some(HALF));
        unsafe { heap.free(even) };
        assert_eq!((cpb(even, 0), cpb(odd, 0)), (None, Some(HALF)), "a free even half");
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    /// What an attach makes of one block's `(allocated, committed, bitmap)`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Want {
        Free,
        Healed,
        Poisoned,
        Live,
        CorruptBitmap,
        CorruptHeader,
    }

    /// Every combination of the three bits of one block, patched into a real
    /// heap image beside a committed neighbour, classifies as the table says:
    /// the same outcomes a per-block header had. The block is a one-granule
    /// one, and each half of a granule whose other half is committed: the
    /// sibling comes through byte for byte, and a torn half is poisoned over
    /// its own 32 bytes only.
    #[test]
    fn slab_torn_state_matrix_classifies_every_image() {
        use Want::*;
        let table = [
            ((false, false, false), Free),
            ((false, false, true), Healed),
            ((true, false, false), Poisoned),
            ((true, false, true), Poisoned),
            ((true, true, true), Live),
            ((true, true, false), CorruptBitmap),
            ((false, true, false), CorruptHeader),
            ((false, true, true), CorruptHeader),
        ];
        for (bytes, target) in [(GRANULE, 1), (HALF, 0), (HALF, 1)] {
            for ((a, c, b), want) in table {
                let image = format!("{bytes} B block {target}, {:?}", (a, c, b));
                let path = tmp("slab_matrix");
                let (g, off, sibling) = {
                    let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
                    let pair = [committed(&heap, bytes), committed(&heap, bytes)];
                    let p = pair[target];
                    let h = heap.half_of(p);
                    let at = heap.loc(h / 2);
                    for (w, on) in at.masks(h % 2 == 1).into_iter().zip([a, c, b]) {
                        if on {
                            w.fetch_or(at.bit, SeqCst);
                        } else {
                            w.fetch_and(!at.bit, SeqCst);
                        }
                    }
                    let off = |p: *mut u8| p as usize - heap.base() as usize;
                    (h / 2, off(p), off(pair[1 - target]))
                };
                let got = match MappedHeap::open(&path, MIN_HEAP_BYTES) {
                    Err(MapError::CorruptBitmap { granule }) if granule == g => CorruptBitmap,
                    Err(MapError::CorruptHeader { granule }) if granule == g => CorruptHeader,
                    Err(e) => panic!("{image}: unexpected {e}"),
                    Ok(heap) => {
                        let r = *heap.report();
                        let at = |off: usize| unsafe { heap.base().add(off) };
                        let (p, sibling) = (at(off), at(sibling));
                        let live = (r.committed, r.poisoned, r.healed_bits) == (2, 0, 0);
                        assert_eq!(bits_of(&heap, p), (live, live, live), "{image}");
                        assert_eq!(heap.committed_payload_bytes(p), live.then_some(bytes));
                        // Word 0 of a free payload holds its free-list link.
                        let word = |k| unsafe { (p as *const u64).add(k).read() };
                        let poisoned = (1..bytes / 8).all(|k| word(k) == POISON);
                        assert_eq!(poisoned, r.poisoned == 1, "{image}");
                        let untouched =
                            (0..bytes).all(|k| unsafe { sibling.add(k).read() } == 0xAA);
                        assert!(untouched, "{image}: the committed neighbour was written");
                        assert_eq!(heap.committed_payload_bytes(sibling), Some(bytes), "{image}");
                        match (r.committed, r.poisoned, r.healed_bits) {
                            (1, 0, 0) => Free,
                            (1, 0, 1) => Healed,
                            (1, 1, 0) => Poisoned,
                            (2, 0, 0) => Live,
                            other => panic!("{image}: report {other:?}"),
                        }
                    }
                };
                assert_eq!(got, want, "{image}");
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// A bitmap or mask bit on a granule that starts no block — a slab
    /// header, a block's inside, a slab's remainder, a pad, a cold block's
    /// header, an odd half outside a half slab — is typed corruption.
    #[test]
    fn slab_stray_bits_on_headers_and_pads_fail_typed() {
        type Patch = fn(&MappedHeap, usize, usize, usize, usize) -> (usize, bool);
        // Each patch gets the class-8 slab, the cold block, the pad granule
        // and the half slab, sets one bit and names the granule and whether
        // the error is a bitmap (else a header) one.
        let patches: [(&str, Patch); 13] = [
            ("slab header bit", |heap, h, _, _, _| (set_bm(heap, h), true)),
            ("bit inside a block", |heap, h, _, _, _| (set_bm(heap, h + 2), true)),
            ("bit past the count", |heap, h, _, _, _| (set_bm(heap, h + 57), true)),
            ("pad header bit", |heap, _, _, pad, _| (set_bm(heap, pad), true)),
            ("bit inside a pad", |heap, _, _, pad, _| (set_bm(heap, pad + 1), true)),
            ("cold header bit", |heap, _, cold, _, _| (set_bm(heap, cold), true)),
            ("allocated bit on the header", |heap, h, _, _, _| {
                heap.loc(h).hdr[W_ALLOCATED].fetch_or(1, SeqCst);
                (h, false)
            }),
            ("committed bit past the count", |heap, h, _, _, _| {
                let at = heap.loc(h);
                at.hdr[W_ALLOCATED].fetch_or(1 << 57, SeqCst);
                at.hdr[W_COMMITTED].fetch_or(1 << 57, SeqCst);
                (h + 57, false)
            }),
            ("odd-half allocated bit on a half slab's header", |heap, _, _, _, hs| {
                heap.loc(hs).hdr[W_ODD_ALLOCATED].fetch_or(1, SeqCst);
                (hs, false)
            }),
            ("odd-half bitmap bit on a half slab's header", |heap, _, _, _, hs| {
                heap.loc(hs).hdr[W_ODD_BITMAP].fetch_or(1, SeqCst);
                (hs, true)
            }),
            ("odd-half bitmap bit beside a whole block", |heap, h, _, _, _| {
                heap.loc(h).hdr[W_ODD_BITMAP].fetch_or(1 << 1, SeqCst);
                (h + 1, true)
            }),
            ("odd-half committed bit in a slab's remainder", |heap, h, _, _, _| {
                let at = heap.loc(h);
                at.hdr[W_ODD_ALLOCATED].fetch_or(1 << 57, SeqCst);
                at.hdr[W_ODD_COMMITTED].fetch_or(1 << 57, SeqCst);
                (h + 57, false)
            }),
            ("odd-half allocated bit on a cold block's header", |heap, _, cold, _, _| {
                // A cold header's words past word 0 are not masks: only a
                // slab's odd-half words are read.
                heap.loc(cold).hdr[W_ODD_ALLOCATED].fetch_or(1 << 1, SeqCst);
                set_bm(heap, cold);
                (cold, true)
            }),
        ];
        for (what, patch) in patches {
            let path = tmp("slab_stray");
            let (granule, bitmap) = {
                let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
                let h = heap.granule_of(committed(&heap, 8 * GRANULE)) - 1;
                let hs = heap.granule_of(committed(&heap, HALF)) - 1;
                let cold = heap.granule_of(committed(&heap, 20 * GRANULE)) - 1;
                let pad = grow_past_first_segment(&heap);
                patch(&heap, h, cold, pad, hs)
            };
            match MappedHeap::open(&path, MIN_HEAP_BYTES) {
                Err(MapError::CorruptBitmap { granule: g }) if bitmap => {
                    assert_eq!(g, granule, "{what}")
                }
                Err(MapError::CorruptHeader { granule: g }) if !bitmap => {
                    assert_eq!(g, granule, "{what}")
                }
                other => panic!("{what}: got {other:?}"),
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    fn set_bm(heap: &MappedHeap, g: usize) -> usize {
        let at = heap.loc(g);
        at.bm.fetch_or(at.bit, SeqCst);
        g
    }

    /// A heap whose bump lock died with a reservation in flight: the
    /// thief pads the gap, the next slab follows it, and the usage and the
    /// attach walk account for both.
    #[test]
    fn slab_after_a_healed_bump_gap() {
        let path = tmp("slab_gap");
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        heap.release_attach_lock();
        committed(&heap, GRANULE);
        // A peer in registry slot 5 (unclaimed, hence dead) reserved a slab,
        // scribbled over it and died holding the lock.
        let gap = heap.bump_granules();
        heap.word(W_BUMP_RESV).store((gap + SLAB) as u64, SeqCst);
        heap.hdr(gap).store(u64::MAX, SeqCst);
        heap.word(W_ALLOC_LOCK).store(5 + 1, SeqCst);
        let p = committed(&heap, 3 * GRANULE);
        assert_eq!(decode_hdr(heap.hdr(gap).load(Acquire)), Some((ST_PAD, SLAB as u64 - 1)));
        assert_eq!(heap.granule_of(p), gap + SLAB + 1, "the next slab follows the healed gap");
        let u = heap.usage();
        assert_eq!(u.granules(), heap.bump_granules());
        assert_eq!(u.pads, SLAB, "the gap; slabs of classes 1 and 3 leave no remainder");
        drop(heap);
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        assert_eq!((heap.report().committed, heap.usage()), (2, u));
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }
}
