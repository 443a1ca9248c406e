//! The ISB-tracking engine: the [`Info`] descriptor and the generic,
//! idempotent [`help`] procedure (Algorithm 1 of the paper).
//!
//! An operation's execution goes through phases:
//!
//! 1. **Gather** (data-structure specific): collect the *AffectSet* — the
//!    nodes the operation will lock/update/delete, as `(info cell, expected
//!    info value)` pairs — plus the *WriteSet* (CAS triples) and *NewSet*
//!    (freshly allocated nodes, pre-tagged with the operation's Info).
//! 2. **Helping**: if any gathered info value is tagged, complete that
//!    operation first and retry.
//! 3. The Info is filled, persisted, published in `RD_q`, and [`help`] runs:
//!    * **Tagging**: CAS each affect cell from its expected value to the
//!      tagged Info pointer, in AffectSet order (the invoker starts at the
//!      first element, helpers at the second). On failure, **backtrack**
//!      untags the already-tagged prefix (to `untagged(info)` — a fresh
//!      value, preserving pointer freshness) and the attempt fails.
//!    * **Update**: execute the WriteSet CASes (idempotent: re-execution
//!      fails silently), then durably set the descriptor's `DONE` bit: its
//!      response is the precomputed `presult`.
//!    * **Cleanup**: untag every affect/new node still in the structure;
//!      deletion-tagged positions (mask bit set) stay tagged forever,
//!      doubling as Harris mark bits.
//!
//! ### Layout
//!
//! A descriptor block is one cache line or two ([`Lines`]; 64 or 128 bytes
//! under every real model): the queue draws one-line descriptors, every
//! other kind two-line ones. Word 0 is the volatile bookkeeping —
//! `installs` (u32), `shared`, `failed_at` and the class byte, which the
//! block keeps for life — then `meta` (the set sizes and the `LINK` /
//! `DONE` bits), `presult`, and the set words that pack the AffectSet
//! pairs, the WriteSet triple and the NewSet cells at offsets the sizes
//! give: five in the first line, eight more in the second. New-set entry 0
//! is not stored: every shape with new nodes names there the node its one
//! write installs, so its cell is derived from the write. A shape whose
//! sets fill `k` set words persists the first `3 + k` words: one line for a
//! read-only descriptor and both queue operations (the enqueue's 1/1/1
//! fills it exactly), two for the list's and the BST's updates.
//!
//! ### Reference counting (`installs`)
//!
//! The paper assumes a garbage collector; we instead count, per Info, the
//! number of places that reference it: one for the owner's `RD_q` plus one
//! per affect/new cell that holds (or is destined to hold) the pointer.
//! Decrements happen when a tag-CAS overwrites an older info value (the CAS
//! winner releases it), when a node holding the info is retired, when the
//! invoker abandons never-installed slots, and when `RD_q` moves on. At
//! zero, the Info is retired through EBR, which prevents info-pointer ABA
//! through address reuse (see DESIGN.md §5).

use crate::arm;
use crate::pool::PoolItem;
use crate::tag::{self, Base};
use nvm::{PWord, Persist, PersistWords};
use reclaim::Guard;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};

/// Maximum AffectSet size (BST delete uses 4: grandparent, parent, leaf, sibling).
pub const MAX_AFFECT: usize = 4;
/// Maximum WriteSet size (every update writes one cell).
pub const MAX_WRITE: usize = 1;
/// Maximum NewSet size (BST insert uses 3).
pub const MAX_NEW: usize = 3;
/// Set words in a descriptor's first line, after the volatile word, `meta`
/// and `presult`: all a one-line descriptor has.
const LINE_SETS: usize = 5;
/// Set words of a two-line descriptor: the first line's five and the
/// second line's eight ([`InfoPair`]).
const PAIR_SETS: usize = LINE_SETS + 8;

/// Response encodings, precomputed into a descriptor's `presult`. `RES_BOT`
/// is recovery's "did not take effect", never a response.
pub const RES_BOT: u64 = 0;
/// Boolean `false` response.
pub const RES_FALSE: u64 = 1;
/// Boolean `true` response.
pub const RES_TRUE: u64 = 2;
/// Unit ("ack") response.
pub const RES_UNIT: u64 = 3;
/// "Empty" response (queue dequeue on an empty queue).
pub const RES_EMPTY: u64 = 4;
/// Values `v` are encoded as `v + RES_VAL_BASE`; callers must keep payloads
/// below `u64::MAX - RES_VAL_BASE`.
pub const RES_VAL_BASE: u64 = 16;

/// `meta` bit: the one write links the fresh node whose cell is new-set
/// entry 0, and decides the operation while that cell holds the tag.
pub(crate) const LINK: u64 = 1 << 40;
/// `meta` bit: the operation took effect; its response is `presult`.
pub(crate) const DONE: u64 = 1 << 41;
/// `meta` bits 42..45: the words of each new node, its info cell the last
/// (the span an `Isb-LP` publication digest covers, [`Info::digest`]).
const NODE_WORDS_SHIFT: u32 = 42;
/// `meta` bits 45..64: the fill generation, one more at every
/// [`Info::fill`] of the descriptor (wrapping). A publication digest covers
/// it, so a recycled descriptor's previous `meta` — same shape, `DONE` set
/// — on media beside the new words does not validate as done.
const GEN_SHIFT: u32 = 45;
/// Bit 63 of every `Isb-LP` publication digest: `CP_q` is never 0 (the
/// glue's fresh line) nor 1 (the checkpoint of arms 0/1) once it holds one.
pub(crate) const SEALED: u64 = 1 << 63;

/// Encode a payload value as a result word.
///
/// Panics (also in release builds) when `v` is within [`RES_VAL_BASE`] of
/// `u64::MAX`: the wrapped sum would collide with the reserved encodings
/// (`RES_EMPTY`, `RES_TRUE`, …) and recovery would decode a wrong response.
#[inline]
pub fn res_val(v: u64) -> u64 {
    assert!(
        v <= u64::MAX - RES_VAL_BASE,
        "payload {v:#x} exceeds the encodable range (collides with reserved result encodings)"
    );
    v + RES_VAL_BASE
}

/// Decode a payload value from a result word.
///
/// Panics (also in release builds) when `res` is one of the reserved
/// encodings below [`RES_VAL_BASE`]: silently decoding `RES_EMPTY`/`RES_TRUE`
/// /… as a payload would hand recovery a wrong response. The twin guard of
/// [`res_val`].
#[inline]
pub fn val_of(res: u64) -> u64 {
    assert!(
        res >= RES_VAL_BASE,
        "result word {res:#x} is a reserved encoding, not a payload value"
    );
    res - RES_VAL_BASE
}

/// A descriptor block's class: the cache lines it spans under every real
/// model. The queue's descriptors are one line, every other kind's two
/// (`Env::lines`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lines {
    /// An [`Info`] alone: five set words, enough for the queue's 1/1/1 and
    /// 1/1/0 and every read-only descriptor.
    One = 1,
    /// An [`InfoPair`]: thirteen set words, enough for every shape.
    Two = 2,
}

impl Lines {
    /// The set words a descriptor of this class holds.
    const fn sets(self) -> usize {
        match self {
            Lines::One => LINE_SETS,
            Lines::Two => PAIR_SETS,
        }
    }

    /// The class of a block of `bytes` payload bytes, if any.
    fn of_block<M: Persist>(bytes: usize) -> Option<Self> {
        [Lines::One, Lines::Two].into_iter().find(|&l| block_bytes::<M>(l) == bytes)
    }
}

/// The bytes of a descriptor block of class `lines`.
const fn block_bytes<M: Persist>(lines: Lines) -> usize {
    match lines {
        Lines::One => size_of::<Info<M>>(),
        Lines::Two => size_of::<InfoPair<M>>(),
    }
}

/// The Info structure: everything a helper (or the owner's recovery code)
/// needs to run the operation to completion, plus whether it took effect.
///
/// The first cache line of a descriptor block, which is that line alone
/// ([`Lines::One`]) or an [`InfoPair`] ([`Lines::Two`]). Word 0 is the
/// volatile bookkeeping; the persistent words follow: `meta`, `presult` and
/// the set words, which pack the affect pairs, then the write triple, then
/// the new-node cells past entry 0 at offsets the counts in `meta` give
/// (`Shape`) — the first five in this line, the rest in the second. New-set
/// entry 0 is not stored: it is the info cell of the node the write
/// installs, `new + (node_words − 1)·WORD` ([`Info::fill`] asserts it). The
/// operation persists the used prefix (`pbarrier(*opInfo, NewSet)`,
/// `Words`) before publishing it, matching the paper's remark that "a
/// single pwb flushes all fields fitting in a cache line": a read-only
/// descriptor and the queue's 1/1/1 and 1/1/0 fit the first line, the
/// list's 2/1/2 and 2/1/0 and the BST's 2/1/3 and 4/1/1 two. A `&Info`
/// covers the first line only: every set word is reached through the raw
/// descriptor pointer, whose provenance is the whole block (`Info::set`).
#[repr(C, align(64))]
pub struct Info<M: Persist> {
    /// Volatile reference count (see module docs). Not persistent state.
    installs: AtomicU32,
    /// Volatile: set by [`help`] before its first tag CAS. While false the
    /// descriptor is provably private — its address was never installed in
    /// a shared cell, so at refcount zero it can re-enter the pool without
    /// the EBR round-trip (read-only fast-path descriptors, which never call
    /// `help`, hit this on every operation).
    shared: AtomicBool,
    /// Volatile: the furthest AffectSet position a tagging attempt failed
    /// at (see [`HelpOutcome::FailedAt`]), recorded before its backtrack.
    failed_at: AtomicU8,
    /// The block's class, a [`Lines`]: written once, when the block is built
    /// (`PoolItem::fresh`), never inferred from `meta`. It names the pool
    /// [`Info::release`] recycles the block into and bounds the set words.
    lines: u8,
    /// Packed `optype | naffect<<8 | nwrite<<16 | nnew<<24 | del_mask<<32`,
    /// the [`LINK`] and [`DONE`] bits, the new nodes' word count in bits
    /// 42..45 and the fill generation above it (there is no response word).
    meta: PWord<M>,
    /// Precomputed response, written before publication; the operation's
    /// response once [`DONE`] is set.
    presult: PWord<M>,
    /// The first line's set words. Every cell and every link value in the
    /// sets is a link word ([`crate::tag`]).
    sets: [PWord<M>; LINE_SETS],
}

/// A two-line descriptor block ([`Lines::Two`]): an [`Info`], then the
/// eight set words of its second line.
#[repr(C, align(64))]
pub struct InfoPair<M: Persist> {
    head: Info<M>,
    tail: [PWord<M>; PAIR_SETS - LINE_SETS],
}

const _: () = assert!(
    block_bytes::<nvm::MappedNvm>(Lines::One) == 64
        && block_bytes::<nvm::MappedNvm>(Lines::Two) == 128,
    "a descriptor class is its cache lines"
);

unsafe impl<M: Persist> Send for Info<M> {}
unsafe impl<M: Persist> Sync for Info<M> {}

impl<M: Persist> Info<M> {
    /// A blank first line of class `lines`.
    fn blank(lines: Lines) -> Self {
        nvm::stats::count_info_allocs(1);
        Info {
            installs: AtomicU32::new(0),
            shared: AtomicBool::new(false),
            failed_at: AtomicU8::new(0),
            lines: lines as u8,
            meta: PWord::new(0),
            presult: PWord::new(RES_BOT),
            sets: Default::default(),
        }
    }
}

impl<M: Persist> PoolItem for Info<M> {
    fn fresh() -> Self {
        Info::blank(Lines::One)
    }

    fn count_reuse() {
        nvm::stats::count_info_reuses(1);
    }
}

impl<M: Persist> PoolItem for InfoPair<M> {
    fn fresh() -> Self {
        InfoPair { head: Info::blank(Lines::Two), tail: Default::default() }
    }

    fn count_reuse() {
        nvm::stats::count_info_reuses(1);
    }
}

impl<M: Persist> Drop for Info<M> {
    fn drop(&mut self) {
        nvm::stats::count_info_frees(1);
    }
}

/// The persisted words of the descriptor at a raw pointer: what its
/// write-backs take ([`PersistWords`]), since a `&Info` covers one line
/// ([`Info::words`]).
pub(crate) struct Words<M: Persist>(*const Info<M>);

// SAFETY: `meta`, `presult` and the used set words, all inside the block
// (a filled descriptor's shape fits its class).
unsafe impl<M: Persist> PersistWords<M> for Words<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        // SAFETY: a live, filled descriptor ([`Info::words`]).
        let i = unsafe { &*self.0 };
        f(&i.meta);
        f(&i.presult);
        for w in 0..i.shape().words() {
            // SAFETY: as above; the filled shape fits the block.
            f(unsafe { Info::set(self.0, w) });
        }
    }

    fn used_range(&self) -> (*const u8, usize) {
        // SAFETY: a live, filled descriptor ([`Info::words`]).
        let words = unsafe { &*self.0 }.shape().words();
        let end = if words <= LINE_SETS {
            std::mem::offset_of!(Info<M>, sets) + words * size_of::<PWord<M>>()
        } else {
            size_of::<Info<M>>() + (words - LINE_SETS) * size_of::<PWord<M>>()
        };
        (self.0 as *const u8, end)
    }
}

/// Where a descriptor's sets sit in its set words, from the counts in its
/// `meta`: affect entry `k` at `2k`, write entry `k` at `2·na + 3k`, new
/// entry `k ≥ 1` at `2·na + 3·nw + k − 1` (entry 0 is derived, not stored).
#[derive(Clone, Copy)]
struct Shape {
    na: usize,
    nw: usize,
    nn: usize,
    del_mask: u8,
    /// Words of each new node, its info cell the last.
    node_words: usize,
}

impl Shape {
    fn of(meta: u64) -> Self {
        let count = |shift: u32| ((meta >> shift) & 0xff) as usize;
        Shape {
            na: count(8),
            nw: count(16),
            nn: count(24),
            del_mask: (meta >> 32) as u8,
            node_words: ((meta >> NODE_WORDS_SHIFT) & 0x7) as usize,
        }
    }

    /// Whether the sets fit a descriptor of `sets` set words: at least one
    /// affect entry, each set within its capacity, new nodes only beside the
    /// write that installs the first (entry 0 is derived from it) and with a
    /// node size, all of it within the set words.
    fn fits(self, sets: usize) -> bool {
        (1..=MAX_AFFECT).contains(&self.na)
            && self.nw <= MAX_WRITE
            && self.nn <= MAX_NEW
            && (self.nn == 0 || self.nw == 1 && self.node_words > 0)
            && self.words() <= sets
    }

    /// Set words the persisted prefix covers (affect entry 0 always).
    fn words(self) -> usize {
        2 * self.na.max(1) + 3 * self.nw + self.nn.saturating_sub(1)
    }

    fn affect(k: usize) -> usize {
        2 * k
    }

    fn write(self, k: usize) -> usize {
        2 * self.na + 3 * k
    }

    /// The set word of new entry `k ≥ 1`.
    fn newset(self, k: usize) -> usize {
        2 * self.na + 3 * self.nw + k - 1
    }
}

/// Parameters for [`Info::fill`].
pub struct InfoFill<'a> {
    /// Operation type tag (diagnostics only; the engine does not interpret it).
    pub optype: u8,
    /// `(info cell, expected value)` per affected node, in tagging order.
    /// Cells, and every link value, are link words ([`crate::tag::Base`]).
    pub affect: &'a [(u64, u64)],
    /// `(cell, old, new)` CAS triples.
    pub write: &'a [(u64, u64, u64)],
    /// Info cells of newly allocated nodes (pre-tagged by the caller).
    /// Entry 0, if any, is the cell of the node the write installs — the
    /// last word of the node at `new` — and is not stored.
    pub newset: &'a [u64],
    /// Words of each new node, its info cell the last (0 without new
    /// nodes): an `Isb-LP` publication digest covers them ([`Info::digest`]).
    pub node_words: u8,
    /// Bit `i` set ⇒ `affect[i]` is tagged **for deletion** (skip at cleanup).
    pub del_mask: u8,
    /// Precomputed response (encoded).
    pub presult: u64,
}

impl<M: Persist> Info<M> {
    /// Bytes between two words of a node.
    const WORD: u64 = size_of::<PWord<M>>() as u64;

    /// Fills the descriptor for one attempt. Only legal while the Info is
    /// unreachable to other threads (never installed / fresh).
    ///
    /// Sets `installs = 1 (RD_q) + |affect| + |newset|`.
    ///
    /// Panics (also in release builds) when the sets do not fit the
    /// descriptor's class ([`MAX_AFFECT`], [`MAX_WRITE`], [`MAX_NEW`] and
    /// its set words: past them lies the next block) or new-set entry 0 is
    /// not the info cell of the node the write installs.
    ///
    /// # Safety
    /// `info` must be a live descriptor drawn from its pool
    /// ([`crate::env::Env::alloc_info`]) that no other thread can currently
    /// reach.
    pub unsafe fn fill(info: *mut Info<M>, f: &InfoFill<'_>) {
        let i = unsafe { &*info };
        let (na, nw, nn) = (f.affect.len(), f.write.len(), f.newset.len());
        let node_words = f.node_words as usize;
        let sets = i.class().sets();
        assert!(
            Shape { na, nw, nn, del_mask: f.del_mask, node_words }.fits(sets) && node_words <= 7,
            "descriptor shape {na}/{nw}/{nn} of {node_words}-word new nodes exceeds its \
             {sets} set words"
        );
        assert!(
            f.newset.first().is_none_or(|&c| {
                c == f.write[0].2.wrapping_add((node_words as u64 - 1) * Self::WORD)
            }),
            "new-set entry 0 is not the info cell of the node the write installs"
        );
        let meta = (f.optype as u64)
            | (na as u64) << 8
            | (nw as u64) << 16
            | (nn as u64) << 24
            | (f.del_mask as u64) << 32
            | (node_words as u64) << NODE_WORDS_SHIFT
            | ((i.meta.peek() >> GEN_SHIFT) + 1) << GEN_SHIFT;
        M::store(&i.meta, meta);
        M::store(&i.presult, f.presult);
        let affect = f.affect.iter().flat_map(|&(cell, exp)| [cell, exp]);
        let write = f.write.iter().flat_map(|&(cell, old, new)| [cell, old, new]);
        let newset = f.newset.iter().skip(1).copied();
        for (w, v) in affect.chain(write).chain(newset).enumerate() {
            // SAFETY: the shape fits the block (asserted above).
            M::store(unsafe { Info::set(info, w) }, v);
        }
        // A freshly filled descriptor is private until `help` runs on it
        // (recycled descriptors may carry a stale true).
        i.shared.store(false, Ordering::Relaxed);
        i.failed_at.store(0, Ordering::Relaxed);
        i.installs.store(1 + na as u32 + nn as u32, Ordering::Release);
    }

    #[inline]
    fn shape(&self) -> Shape {
        Shape::of(M::load(&self.meta))
    }

    /// The persisted words of the descriptor at `info`, for its
    /// write-backs.
    ///
    /// # Safety
    /// `info` must be a live, filled descriptor while the view is used.
    #[inline]
    pub(crate) unsafe fn words(info: *const Self) -> Words<M> {
        Words(info)
    }

    /// The block's class.
    #[inline]
    pub(crate) fn class(&self) -> Lines {
        if self.lines == Lines::One as u8 {
            Lines::One
        } else {
            Lines::Two
        }
    }

    /// Whether the second line's set words continue the first line's
    /// without a gap: under every real model, where a word is 8 bytes (not
    /// the simulator's shadowed words).
    const CONTIGUOUS: bool =
        std::mem::offset_of!(Self, sets) + LINE_SETS * size_of::<PWord<M>>() == size_of::<Self>();

    /// Set word `w`, through the raw descriptor pointer: past the first
    /// line's five, a word of the second.
    ///
    /// # Safety
    /// `info` must be a live descriptor whose block holds set word `w`.
    #[inline]
    unsafe fn set<'a>(info: *const Self, w: usize) -> &'a PWord<M> {
        // SAFETY: the caller's; the pointer keeps `info`'s provenance, the
        // whole block.
        unsafe {
            let sets = std::ptr::addr_of!((*info).sets).cast::<PWord<M>>();
            if Self::CONTIGUOUS || w < LINE_SETS {
                &*sets.add(w)
            } else {
                &*info.add(1).cast::<PWord<M>>().add(w - LINE_SETS)
            }
        }
    }

    /// The info cell of new entry `k`, each word read by `read`: entry 0
    /// derived from the write's `new`, the node it installs, whose last word
    /// the cell is; the others stored.
    ///
    /// # Safety
    /// As [`Info::set`], for a shape with `k < nn` that fits the block.
    #[inline]
    unsafe fn new_cell(info: *const Self, s: Shape, k: usize, read: fn(&PWord<M>) -> u64) -> u64 {
        // SAFETY: the caller's: write entry 0 exists beside new entry 0.
        unsafe {
            if k == 0 {
                read(Info::set(info, s.write(0) + 2))
                    .wrapping_add((s.node_words as u64).wrapping_sub(1) * Self::WORD)
            } else {
                read(Info::set(info, s.newset(k)))
            }
        }
    }

    /// The info cell of new entry `k`, decoded at `b`.
    ///
    /// # Safety
    /// As [`Info::new_cell`]; the cell must still be live (EBR pin or
    /// quiescence).
    #[inline]
    unsafe fn new_cell_at<'a>(info: *const Self, b: Base, s: Shape, k: usize) -> &'a PWord<M> {
        // SAFETY: the caller's.
        unsafe { &*b.at::<PWord<M>>(Info::new_cell(info, s, k, M::load)) }
    }

    /// Whether the operation took effect: its response is `presult`.
    pub(crate) fn done(&self) -> bool {
        M::load(&self.meta) & DONE != 0
    }

    /// The operation's response, once it took effect. After [`help`]
    /// returned `Done` on this thread, `DONE` is durable: every path to
    /// `Done` fences it first.
    pub(crate) fn response(&self) -> Option<u64> {
        self.done().then(|| M::load(&self.presult))
    }

    /// Sets a `meta` bit: [`LINK`] before publication, [`DONE`] by any helper.
    pub(crate) fn mark(&self, bit: u64) {
        M::store(&self.meta, M::load(&self.meta) | bit);
    }

    /// `(cell, expected)` of affect entry `k`, its cell decoded at `b`.
    ///
    /// # Safety
    /// As [`Info::set`]; the stored cell must still be live (EBR pin or
    /// quiescence).
    #[inline]
    unsafe fn affect_at<'a>(info: *const Self, b: Base, k: usize) -> (&'a PWord<M>, u64) {
        // SAFETY: the caller's.
        unsafe {
            let cell = Info::cell_at(info, b, Shape::affect(k));
            (cell, M::load(Info::set(info, Shape::affect(k) + 1)))
        }
    }

    /// The cell set word `w` names, decoded at `b`.
    ///
    /// # Safety
    /// As [`Info::affect_at`].
    #[inline]
    unsafe fn cell_at<'a>(info: *const Self, b: Base, w: usize) -> &'a PWord<M> {
        // SAFETY: the caller's.
        unsafe { &*b.at::<PWord<M>>(M::load(Info::set(info, w))) }
    }

    /// Releases `n` references; at zero the block goes back to the pool of
    /// its class in the descriptor pools `guard`'s collector is tagged with
    /// (`env::Infos`) — this process's, whichever process drew it:
    /// every collector of a heap pins in its one epoch domain — or, under
    /// an untagged collector, through plain EBR as the `Box` of its class
    /// (in-process models only: a mapped block is no `Box`).
    ///
    /// # Safety
    /// The caller must actually own `n` references per the protocol in the
    /// module docs; `info` must be live.
    pub unsafe fn release(info: *mut Info<M>, n: u32, guard: &Guard<'_>) {
        if info.is_null() || n == 0 {
            return;
        }
        if M::MAPPED && RELEASE_SUSPENDED.with(|c| c.get()) {
            // Mapped-backend attach replay: the counts a killed process left
            // behind are not trustworthy mid-recovery; the post-scrub census
            // recomputes every live descriptor's count from scratch. The
            // `M::MAPPED` guard compiles the TLS access out of every other
            // model's hot path.
            return;
        }
        if M::SIMULATED {
            // Crash mode: the adversarial image can roll an info cell back to
            // a value whose reference was already released before the crash,
            // so exactly-once accounting cannot hold across crashes. Nothing
            // is reclaimed during a crash run anyway (disabled collector);
            // teardown frees through the deduplicated grave scan.
            return;
        }
        let i = unsafe { &*info };
        let prev = i.installs.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "info reference-count underflow ({prev} - {n})");
        if prev == n {
            let pools = guard.tag() as *const crate::env::Infos<M>;
            // SAFETY: a tagged collector's tag is the live pools of the
            // environment that owns it (`Env`), which outlive its garbage.
            match unsafe { pools.as_ref() } {
                Some(pools) => unsafe { pools.put(info, guard) },
                // Only a bare collector is untagged: unit tests', and the
                // attach replay's, which releases nothing. An arena block
                // is no `Box`: never free one as such.
                None if M::MAPPED => debug_assert!(false, "a mapped release, untagged"),
                None => unsafe { Info::retire_boxed(info, guard) },
            }
        }
    }

    /// Retires the `Box` of its class at `info` through plain EBR.
    ///
    /// # Safety
    /// As [`reclaim::Guard::retire_box`], `info` a `Box` of its class.
    unsafe fn retire_boxed(info: *mut Info<M>, guard: &Guard<'_>) {
        // SAFETY: the caller's; the class names the `Box`'s type.
        match unsafe { &*info }.class() {
            Lines::One => unsafe { guard.retire_box(info) },
            Lines::Two => unsafe { guard.retire_box(info.cast::<InfoPair<M>>()) },
        }
    }

    /// Frees the `Box` of its class at `p` (drop-time teardown,
    /// [`crate::graph::teardown`]).
    ///
    /// # Safety
    /// `p` must be a live descriptor `Box` of its class, freed exactly once.
    pub(crate) unsafe fn drop_boxed(p: *mut u8) {
        use crate::op::drop_raw;
        // SAFETY: the caller's; the class names the `Box`'s type.
        match unsafe { &*p.cast::<Info<M>>() }.class() {
            Lines::One => unsafe { drop_raw::<Info<M>>(p) },
            Lines::Two => unsafe { drop_raw::<InfoPair<M>>(p) },
        }
    }

    /// Whether [`help`] ran on the descriptor since its fill: its address
    /// may be in shared cells.
    pub(crate) fn shared(&self) -> bool {
        self.shared.load(Ordering::Acquire)
    }

    /// Current reference count (tests/diagnostics).
    pub fn installs(&self) -> u32 {
        self.installs.load(Ordering::Acquire)
    }

    /// One line for a failure report: `meta` (with its done bit),
    /// `presult`, and per affect entry the cell's address, its expected and
    /// its *current* value, the cells decoded at `b`.
    ///
    /// # Safety
    /// `info` must be a live descriptor whose every affect cell is still
    /// live (quiescence).
    pub unsafe fn describe(info: *const Self, b: Base) -> String {
        // SAFETY: the caller's (every read below, the affect entries the
        // class holds).
        let i = unsafe { &*info };
        let mut out =
            format!("meta {:#x} presult {:#x} affect", M::load(&i.meta), M::load(&i.presult));
        for k in 0..i.shape().na.min(i.class().sets() / 2) {
            let (cell, expected) = unsafe { Info::affect_at(info, b, k) };
            out += &format!(" [{cell:p}: expected {expected:#x}, now {:#x}]", M::load(cell));
        }
        out
    }

    /// Whether the descriptor at `info` — a committed block of `bytes`
    /// payload bytes read from an **untrusted** mapped image — is a block
    /// of its class: its class byte names a class of that size. Only then
    /// do reads bounded by the class stay inside the block.
    ///
    /// # Safety
    /// `info` must point to `bytes ≥ 64` readable bytes.
    pub(crate) unsafe fn in_block(info: *const Self, bytes: usize) -> bool {
        // SAFETY: the caller's: the first line is readable.
        Lines::of_block::<M>(bytes).is_some_and(|l| unsafe { &*info }.lines == l as u8)
    }

    /// Attach-time bounds validation of the descriptor at `info`, a
    /// committed block of `bytes` payload bytes read from an **untrusted**
    /// mapped image, before `help` may dereference any of its cells: it must
    /// be a block of its class (`Info::in_block`), its sets must fit that
    /// class (as [`Info::fill`] checks, so no read leaves the block), every
    /// used affect/write/new cell offset must satisfy `valid_cell` (an
    /// in-arena 8-byte-span check — helping reads/CASes one word there), and
    /// every write `new` value must satisfy `valid_install` (callers pass a
    /// whole-node span check: `help` installs the value into a cell the
    /// later census walk dereferences as a node). Returns `false` on any
    /// violation.
    ///
    /// # Safety
    /// `info` must point to `bytes ≥ 64` readable bytes.
    pub unsafe fn validate_bounds(
        info: *const Self,
        bytes: usize,
        valid_cell: impl Fn(u64) -> bool,
        valid_install: impl Fn(u64) -> bool,
    ) -> bool {
        // SAFETY: the caller's.
        if !unsafe { Info::in_block(info, bytes) } {
            return false;
        }
        // SAFETY: a block of its class, so at least one line.
        let i = unsafe { &*info };
        let s = i.shape();
        // SAFETY (every read below): the shape fits the block's class.
        let word = |w: usize| M::load(unsafe { Info::set(info, w) });
        s.fits(i.class().sets())
            && (0..s.na).all(|k| valid_cell(word(Shape::affect(k))))
            && (0..s.nw)
                .all(|k| valid_cell(word(s.write(k))) && valid_install(word(s.write(k) + 2)))
            && (0..s.nn).all(|k| {
                let cell = unsafe { Info::new_cell(info, s, k, M::load) };
                (0..s.node_words as u64).all(|j| valid_cell(cell.wrapping_sub(j * Self::WORD)))
            })
    }

    /// The digest an `Isb-LP` publication of this descriptor at link word
    /// `at` stores in `CP_q` ([`crate::recovery::RecArea::publish_arm`]):
    /// bit 63 set, 31 bits of the digest of `at` and the descriptor's
    /// persisted words — `DONE` masked, a helper sets it after the
    /// publication — and 32 bits of the digest of those words followed by
    /// every word of every new node. Descriptor, new nodes and `RD_q` are
    /// written back in the publish `psync`'s one fence window, so a crash
    /// image may hold any subset of them; the digest is how recovery tells
    /// a complete publication from a torn one ([`Info::validates`]).
    /// Chained multiply-xorshift steps: every word's position and value
    /// move it, non-linearly.
    ///
    /// # Safety
    /// `info` must be a live descriptor, and every new-node cell it names
    /// must lie in a live node of `node_words` words ending at it, its cells
    /// decoded at `b`.
    pub unsafe fn digest(info: *const Self, b: Base, at: u64) -> u64 {
        // SAFETY: the caller's.
        let (h, s) = unsafe { Info::digest_head(info, at) };
        seal(finish(h), unsafe { Info::digest_nodes(info, b, h, s) })
    }

    /// Whether `cp` seals the descriptor's own words as published at `at`:
    /// the half of [`Info::digest`] a torn descriptor fails. Reads nothing
    /// outside the descriptor.
    ///
    /// # Safety
    /// `info` must be a live descriptor, a block of its class.
    pub(crate) unsafe fn sealed_by(info: *const Self, at: u64, cp: u64) -> bool {
        seals_head(unsafe { Info::digest_head(info, at) }.0, cp)
    }

    /// Whether `cp`, the `CP_q` beside an `RD_q` naming this descriptor at
    /// `at`, validates the publication: the descriptor half of
    /// [`Info::digest`] matches and — unless `DONE` is set — so does the half
    /// over the new nodes. A set `DONE` beside a matching descriptor half is
    /// proof enough: `help` stores it only after the publish `psync`
    /// returned, and from then on the new nodes may legitimately change
    /// (cleanup untags them, later operations relink them). So `DONE` is
    /// read again after a node half that does not match: a live helper
    /// (online recovery of a dead peer runs beside live traffic) may have
    /// set it and changed a node between the two reads — the node words are
    /// read with `Acquire`, after the helper's `DONE`. A torn image
    /// validates only on a digest collision: the 31-bit descriptor half,
    /// and the 32-bit node half behind it.
    ///
    /// # Safety
    /// As [`Info::digest`], once the descriptor half matches.
    pub unsafe fn validates(info: *const Self, b: Base, at: u64, cp: u64) -> bool {
        let (h, s) = unsafe { Info::digest_head(info, at) };
        let done = || unsafe { &*info }.meta.peek() & DONE != 0;
        let nodes_match = || {
            #[cfg(test)]
            VALIDATES_RACE.with(|f| f.take().map(|f| f()));
            // SAFETY: the caller's, the descriptor half matching.
            cp as u32 == unsafe { Info::digest_nodes(info, b, h, s) } as u32
        };
        seals_head(h, cp) && (done() || nodes_match() || done())
    }

    /// The digest state after `at` and the descriptor's persisted words,
    /// `DONE` masked, with the shape they claim — the words read bounded by
    /// the block's class, whatever `meta` claims. Uninstrumented reads: the
    /// digest adds no instruction a crash can land on.
    ///
    /// # Safety
    /// As [`Info::sealed_by`].
    unsafe fn digest_head(info: *const Self, at: u64) -> (u64, Shape) {
        // SAFETY: the caller's.
        let i = unsafe { &*info };
        let meta = i.meta.peek();
        let s = Shape::of(meta);
        let mut h = absorb(absorb(DIGEST_SEED, at), meta & !DONE);
        h = absorb(h, i.presult.peek());
        for w in 0..s.words().min(i.class().sets()) {
            // SAFETY: a set word of the block's class.
            h = absorb(h, unsafe { Info::set(info, w) }.peek());
        }
        (h, s)
    }

    /// [`Info::digest_head`]'s state `h` continued over every word of every
    /// new node, finished.
    ///
    /// # Safety
    /// As [`Info::digest`].
    unsafe fn digest_nodes(info: *const Self, b: Base, mut h: u64, s: Shape) -> u64 {
        for k in 0..s.nn {
            // SAFETY: the caller's (the shape is the descriptor's own).
            let cell = unsafe { Info::new_cell(info, s, k, PWord::peek) };
            for j in (0..s.node_words as u64).rev() {
                // SAFETY: word `j` before the cell, inside its node (caller).
                h = absorb(h, unsafe { (*b.at::<PWord<M>>(cell - j * Self::WORD)).peek() });
            }
        }
        finish(h)
    }

    /// Attach-time census fix-up for a descriptor that survived a process
    /// restart in a mapped arena: overwrites the volatile bookkeeping — the
    /// reference count (recomputed from the quiescent structure) and the
    /// shared flag (a surviving descriptor was published, so it must take
    /// the EBR path when it is eventually released). The class byte stays:
    /// attach checked it against the block ([`Info::validate_bounds`]).
    ///
    /// # Safety
    /// Quiescent exclusive access (attach-time recovery only); `count` must
    /// equal the number of places that reference this descriptor (info
    /// cells holding its address plus `RD_q` slots naming it).
    pub unsafe fn reset_after_attach(&self, count: u32) {
        self.installs.store(count, Ordering::Release);
        self.shared.store(true, Ordering::Release);
    }
}

#[cfg(test)]
impl<M: Persist> Info<M> {
    /// A blank descriptor `Box` of class `lines` ([`Info::drop_boxed`]
    /// frees it).
    pub(crate) fn boxed(lines: Lines) -> *mut Self {
        match lines {
            Lines::One => Box::into_raw(Box::new(Info::<M>::fresh())),
            Lines::Two => Box::into_raw(Box::new(InfoPair::<M>::fresh())).cast(),
        }
    }
}

/// Seed of every publication digest ([`Info::digest`]).
const DIGEST_SEED: u64 = 0x5EA1_ED0F_D16E_5700;

/// One step of a publication digest: the state absorbs `w`.
#[inline]
fn absorb(h: u64, w: u64) -> u64 {
    let x = (h.rotate_left(29) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

/// The SplitMix64 finaliser over a digest state.
#[inline]
fn finish(h: u64) -> u64 {
    let z = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `cp`'s descriptor half is the one of digest state `h`
/// ([`Info::digest_head`]).
#[inline]
fn seals_head(h: u64, cp: u64) -> bool {
    cp >> 32 == seal(finish(h), 0) >> 32
}

#[cfg(test)]
thread_local! {
    /// Runs once inside [`Info::validates`], between its first `DONE` read
    /// and the new-node digest: where a concurrent helper may finish.
    pub(crate) static VALIDATES_RACE: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
}

/// The `CP_q` word of a publication: [`SEALED`], 31 bits of the descriptor
/// digest `d`, 32 bits of the full digest `full`.
#[inline]
fn seal(d: u64, full: u64) -> u64 {
    SEALED | (d >> 33) << 32 | (full & 0xFFFF_FFFF)
}

thread_local! {
    /// See [`with_release_suspended`].
    static RELEASE_SUSPENDED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with [`Info::release`] turned into a no-op on this thread.
///
/// Used by the mapped backend's attach-time recovery replay: `help` releases
/// references as a side effect (overwritten installs), but the counts a
/// `SIGKILL`ed process persisted may already be partially decremented, so
/// honouring them could double-release a descriptor into the arena free
/// list. Attach instead suspends the bookkeeping, brings the structure to
/// quiescence, and rebuilds every live descriptor's count with
/// [`Info::reset_after_attach`].
pub fn with_release_suspended<R>(f: impl FnOnce() -> R) -> R {
    RELEASE_SUSPENDED.with(|c| {
        let old = c.replace(true);
        let r = f();
        c.set(old);
        r
    })
}

/// Outcome of [`help`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelpOutcome {
    /// The operation took effect: its `DONE` bit is set, this thread fenced
    /// it, and cleanup ran.
    Done,
    /// Tagging failed: AffectSet positions `< i` were tagged and are
    /// untagged now (backtracked), each cell holding the untagged
    /// descriptor — a reference — and positions `>= i` were never tagged.
    /// `i` is the furthest position any attempt failed at, not necessarily
    /// the caller's: a helper (which starts at position 1) may have tagged
    /// past the position the invoker then fails at, and backtracked them
    /// (the first failure is at the end of the tagged prefix, and no tag CAS
    /// installs anything after it). If `i > 0` the invoker must allocate a
    /// fresh Info for its next attempt (pointer-freshness of info fields).
    FailedAt(usize),
}

/// The idempotent helping procedure (Algorithm 1, `Help`).
///
/// `invoker` selects the tagging start position: the invoker tags from the
/// first AffectSet element; helpers — who discovered the Info through an
/// already-tagged node — start from the second.
///
/// `b` is the base the descriptor's link words are offsets from (the
/// structure's, which its recovery area carries).
///
/// # Safety
/// `info` must point to a filled, live `Info` reachable per the protocol;
/// the caller must hold an EBR pin (`guard`) covering every node in the
/// descriptor.
pub unsafe fn help<M: Persist, const ARM: u8>(
    b: Base,
    info: *mut Info<M>,
    invoker: bool,
    guard: &Guard<'_>,
) -> HelpOutcome {
    let r = unsafe { &*info };
    // From here on the descriptor's address may enter shared cells (tagged
    // or as a backtrack/cleanup placeholder): it must never skip the EBR
    // delay on reuse. Release-ordered so the flag travels with the tag CAS.
    r.shared.store(true, Ordering::Release);
    let untagged_val = b.word(info);
    let tagged_val = tag::tagged(untagged_val);
    let s = r.shape();
    let naffect = s.na;
    let start = if invoker { 0 } else { 1 };
    // A link operation's tag-phase `psync` is merged into its update-phase
    // one (below), so a crash image may hold its `DONE` bit without its
    // write, or its write without its tags, whose cells then read an older
    // value again — `expected`, once recovery helped the tag before it. What
    // proves such an operation (`Isb-LP`'s enqueue, insert and push, whose
    // write links the fresh node of new-set entry 0) took effect is its
    // write in place — while that node's cell holds the tag: every other
    // operation that moves the link tags the linked node first, so until
    // cleanup untags it the link stands. From then on the link may be
    // overwritten, or its holder dequeued, freed and reused, and `DONE` is
    // the proof again: whoever untags fenced it first (`complete`). The
    // descriptor carries the bit, so every recoverer decides by this rule,
    // whatever arm it helps at (DESIGN.md §4).
    let merged = M::load(&r.meta) & LINK != 0;

    // ---- Tagging phase -------------------------------------------------
    let mut k = start;
    while k < naffect {
        let (cell, expected) = unsafe { Info::affect_at(info, b, k) };
        debug_assert!(!tag::is_tagged(expected), "expected info values are untagged");
        let res = cell.cas(expected, tagged_val);
        if !arm::is_tuned(ARM) {
            M::pwb(cell);
        }
        if res != expected && res != tagged_val {
            // A foreign value. Two cases, discriminated by `DONE`
            // (Algorithm 1's completion check):
            //
            // 1. `DONE` set ⇒ the operation ALREADY COMPLETED through a
            //    helper: the helper finished tagging, ran the update, set
            //    `DONE`, and its cleanup released this cell — which a
            //    later operation then re-tagged. Pointer freshness makes the
            //    discrimination sound: cell values never repeat, so a
            //    genuine pre-completion conflict can never be followed by
            //    the cell holding `expected`/our tag again, and the helper's
            //    `DONE` store happens-before the cleanup release we are
            //    reading through. Declaring failure here is the one
            //    mistake an invoker must not make — it would re-initialize
            //    its "never-published" nodes while they are reachable.
            //    Finish through the one epilogue: it fences `DONE` on this
            //    thread before it re-runs the idempotent cleanup (which heals
            //    crash-resurrected partial tags during scrub).
            // 2. `DONE` unset ⇒ the attempt genuinely failed: backtrack.
            //
            // A merged operation asks its write instead while the node it
            // links holds the tag (see `merged`).
            let completed =
                if merged { unsafe { link_took_effect(b, info, s, tagged_val) } } else { r.done() };
            if completed {
                return unsafe { complete::<M, ARM>(b, info, tagged_val, untagged_val, s) };
            }
            // ---- Backtrack phase: untag the prefix, in reverse order ----
            // Recorded first: whoever fails later sees a value this
            // backtrack untagged, so it reads the furthest position too.
            let tagged_upto = r.failed_at.fetch_max(k as u8, Ordering::SeqCst).max(k as u8);
            let mut j = k;
            while j > 0 {
                j -= 1;
                let (c, _) = unsafe { Info::affect_at(info, b, j) };
                let _ = c.cas(tagged_val, untagged_val);
                arm::pwb_arm::<M, ARM>(c);
            }
            M::psync();
            return HelpOutcome::FailedAt(tagged_upto as usize);
        }
        if res == expected {
            // We won the install: release the overwritten info value.
            let old = b.at::<Info<M>>(expected);
            if !old.is_null() {
                unsafe { Info::release(old, 1, guard) };
            }
        }
        k += 1;
    }
    if arm::is_tuned(ARM) {
        // Batched write-backs of all tags before the phase-ending psync.
        for k in 0..naffect {
            let (cell, _) = unsafe { Info::affect_at(info, b, k) };
            arm::pwb_arm::<M, ARM>(cell);
        }
    } else {
        // Hardening beyond the paper's pseudocode: positions this caller did
        // not visit (position 0 for helpers) may carry a tag whose write-back
        // the crashed invoker never completed. Re-flush them so no update is
        // ever durable while a tag it depends on is not (DESIGN.md §4).
        for k in 0..start {
            let (cell, _) = unsafe { Info::affect_at(info, b, k) };
            M::pwb(cell);
        }
    }
    // Link-persist: a link operation's tag-phase psync is merged into the
    // update-phase psync below — the tag lines stay in the coalescing set and
    // are written back together with the link and `DONE`. Sound because the
    // descriptor, its new nodes and RD_q are already durable (publish
    // psync'd before help), so a crash image holding any subset of {tags,
    // link, DONE} re-runs this idempotent help from op_recover; see
    // DESIGN.md §4, §12. Every other update (the dequeue and the delete too)
    // must never be durable before its tags.
    if !merged {
        M::psync();
    }

    // ---- Update phase ---------------------------------------------------
    let mut in_place = true;
    for k in 0..s.nw {
        let w = s.write(k);
        let (cell, old, new) = unsafe {
            (
                Info::cell_at(info, b, w),
                M::load(Info::set(info, w + 1)),
                M::load(Info::set(info, w + 2)),
            )
        };
        let seen = cell.cas(old, new); // idempotent: fails silently on re-execution
        in_place &= seen == old || seen == new;
        arm::pwb_arm::<M, ARM>(cell);
    }
    if merged && !in_place && !unsafe { link_took_effect(b, info, s, tagged_val) } {
        // The tags were won over an `expected` that a crash image restored
        // while another operation's write stands: this attempt can never
        // take effect. Take the tag back, durably, before anyone else acts
        // on it. A write that is gone once the linked node lost the tag is
        // a link a later operation moved on after `DONE`: the insert's,
        // whose deletion-tagged `curr` keeps the tag, so a helper that met a
        // resurrected tag gets this far and completes.
        let (cell, _) = unsafe { Info::affect_at(info, b, 0) };
        let _ = cell.cas(tagged_val, untagged_val);
        arm::pwb_arm::<M, ARM>(cell);
        M::psync();
        return HelpOutcome::FailedAt(0);
    }
    debug_assert_ne!(M::load(&r.presult), RES_BOT, "presult is precomputed before publication");
    unsafe { complete::<M, ARM>(b, info, tagged_val, untagged_val, s) }
}

/// Whether every write of `r` holds its new value (a merged operation's
/// proof of effect, see [`help`]).
///
/// # Safety
/// As [`help`].
unsafe fn writes_in_place<M: Persist>(b: Base, info: *const Info<M>, s: Shape) -> bool {
    (0..s.nw).all(|k| {
        let w = s.write(k);
        // SAFETY: a write entry names a cell of a node the caller's pin keeps
        // live ([`help`]'s contract).
        unsafe { M::load(Info::cell_at(info, b, w)) == M::load(Info::set(info, w + 2)) }
    })
}

/// Whether a merged operation took effect: by its write while the cell of
/// the node it links (new-set entry 0) holds `r`'s tag, by `DONE` from then
/// on (see [`help`]). Cleanup untags that cell only after `DONE` is durable,
/// and any other operation that moves the link must tag it first. Not any
/// new cell: the insert's second one, the copy of `curr`, is untagged after
/// the linked node, so it can hold the tag while the link is long gone.
///
/// # Safety
/// As [`help`].
unsafe fn link_took_effect<M: Persist>(
    b: Base,
    info: *const Info<M>,
    s: Shape,
    tagged_val: u64,
) -> bool {
    // SAFETY: a new-set entry names a cell of a node the descriptor
    // installs, which the caller's pin keeps live ([`help`]'s contract).
    if s.nn > 0 && M::load(unsafe { Info::new_cell_at(info, b, s, 0) }) == tagged_val {
        unsafe { writes_in_place(b, info, s) }
    } else {
        // SAFETY: the caller's.
        unsafe { &*info }.done()
    }
}

/// [`help`]'s one completion epilogue, run by every path that returns
/// `Done` (the update phase and the foreign-value branch alike): mark
/// `DONE` (idempotent), write its line back and fence it on this
/// thread, then the idempotent cleanup — untag every affect/new cell still
/// holding this operation's tag (deletion-tagged positions stay tagged
/// forever, doubling as Harris mark bits). So whoever returns `Done`, and
/// whoever untags a cell of the descriptor, has fenced `DONE` itself: a
/// caller may let the descriptor stand for its durable response
/// ([`Info::response`]), and a recovery replay of a completed descriptor
/// turns a `DONE` it finds in the page cache into a durable one.
///
/// Under the `LP` arm the untag write-backs are elided entirely: they run
/// after the `DONE` psync with no fence of their own, so no arm ever
/// *guarantees* their durability — a crash may resurrect the tag either way,
/// and the same re-sweep (scrub / lazy helping on encounter) heals it. The
/// elision only widens the window, never the set of recovery behaviours
/// (DESIGN.md §12).
///
/// Inlined into both call sites: the update phase, every operation's hot
/// path, makes no extra call.
///
/// # Safety
/// As [`help`].
#[inline(always)]
unsafe fn complete<M: Persist, const ARM: u8>(
    b: Base,
    info: *const Info<M>,
    tagged_val: u64,
    untagged_val: u64,
    s: Shape,
) -> HelpOutcome {
    // SAFETY: the caller's.
    let r = unsafe { &*info };
    r.mark(DONE);
    arm::pwb_arm::<M, ARM>(&r.meta);
    M::psync();

    // ---- Cleanup phase --------------------------------------------------
    for k in 0..s.na {
        if s.del_mask & (1 << k) != 0 {
            continue; // deletion-tagged: stays tagged forever (mark bit)
        }
        // SAFETY: descriptor cells stay live per the help() contract.
        let (cell, _) = unsafe { Info::affect_at(info, b, k) };
        let _ = cell.cas(tagged_val, untagged_val);
        if !arm::is_lp(ARM) {
            arm::pwb_arm::<M, ARM>(cell);
        }
    }
    for k in 0..s.nn {
        // SAFETY: as above.
        let cell = unsafe { Info::new_cell_at(info, b, s, k) };
        let _ = cell.cas(tagged_val, untagged_val);
        if !arm::is_lp(ARM) {
            arm::pwb_arm::<M, ARM>(cell);
        }
    }
    if !arm::is_tuned(ARM) {
        M::psync();
    }
    HelpOutcome::Done
}

/// [`help`] as Op-Recover runs it on the descriptor a crashed process left
/// published. Returns the operation's response, `presult` once `DONE` is
/// set: [`RES_BOT`] means it did not take effect and no longer can.
///
/// A crash image differs from every state a running system passes through
/// in one way `help` alone does not cope with: each cell reverts on its own,
/// so an affect cell can hold an *older* value than the one the descriptor
/// was built over while a later cell still holds the descriptor's tag.
///
/// * The older value may be the tag of the completed operation that
///   `expected` names, its untag (which no arm fences before the cell is
///   tagged again) lost. The gather phase helped every tagged cell before it
///   read `expected`; recovery does the same before `help` judges the cell.
///   Otherwise the attempt fails on a tag that hides exactly the value it
///   expects, recovery restarts the operation, and whoever later finds the
///   descriptor's tag further down — or, for a link operation, the link
///   itself — completes it a second time. Not under the
///   mapped model: a killed process's page cache keeps every store, no cell
///   reverts, and attach dereferences only descriptors it has validated.
/// * When the attempt does fail, its tag may sit *past* the failing
///   position, where `help`'s backtrack (prefix only — all a running system
///   needs) leaves it to be found and helped in vain forever. The abandoned
///   descriptor's tags are all removed here.
///
/// # Safety
/// As [`help`], and every foreign tag in an affect cell must name a live
/// descriptor (crash runs free nothing).
pub unsafe fn help_recovering<M: Persist, const ARM: u8>(
    b: Base,
    info: *mut Info<M>,
    guard: &Guard<'_>,
) -> u64 {
    let r = unsafe { &*info };
    let untagged_val = b.word(info);
    let tagged_val = tag::tagged(untagged_val);
    let naffect = r.shape().na;
    if !M::MAPPED {
        for k in 0..naffect {
            let (cell, _) = unsafe { Info::affect_at(info, b, k) };
            let seen = M::load(cell);
            if tag::is_tagged(seen) && seen != tagged_val {
                let _ = unsafe { help::<M, ARM>(b, b.at(seen), false, guard) };
            }
        }
    }
    let done = unsafe { help::<M, ARM>(b, info, true, guard) } == HelpOutcome::Done;
    let res = if done { M::load(&r.presult) } else { RES_BOT };
    if res == RES_BOT {
        let mut untagged = false;
        for k in (0..naffect).rev() {
            let (cell, _) = unsafe { Info::affect_at(info, b, k) };
            if cell.cas(tagged_val, untagged_val) == tagged_val {
                M::pwb(cell);
                untagged = true;
            }
        }
        if untagged {
            M::psync();
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::CountingNvm;
    use reclaim::Collector;

    type M = CountingNvm;

    fn cellv(v: u64) -> Box<PWord<M>> {
        Box::new(PWord::new(v))
    }

    struct Ctx {
        c: Collector,
    }
    impl Ctx {
        fn new() -> Self {
            nvm::tid::set_tid(0);
            Self { c: Collector::new() }
        }
    }

    fn boxed(lines: Lines) -> *mut Info<M> {
        Info::boxed(lines)
    }

    /// Build a one-write, two-affect info over the given cells.
    #[allow(clippy::too_many_arguments)] // mirrors InfoFill's shape, test-only
    unsafe fn mk_info(
        a0: &PWord<M>,
        a0exp: u64,
        a1: &PWord<M>,
        a1exp: u64,
        w: &PWord<M>,
        old: u64,
        new: u64,
        del_mask: u8,
    ) -> *mut Info<M> {
        let info = boxed(Lines::Two);
        unsafe {
            Info::fill(
                info,
                &InfoFill {
                    optype: 1,
                    affect: &[(a0 as *const _ as u64, a0exp), (a1 as *const _ as u64, a1exp)],
                    write: &[(w as *const _ as u64, old, new)],
                    newset: &[],
                    node_words: 0,
                    del_mask,
                    presult: RES_TRUE,
                },
            )
        };
        info
    }

    #[test]
    fn invoker_completes_clean_run() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        let out = unsafe { help::<M, 0>(Base(0), info, true, &g) };
        assert_eq!(out, HelpOutcome::Done);
        assert_eq!(w.load(), 200, "write applied");
        assert!(unsafe { &*info }.done());
        // Cleanup untagged a0, a1 stays deletion-tagged.
        assert_eq!(a0.load(), tag::untagged(info as u64));
        assert_eq!(a1.load(), tag::tagged(info as u64));
        // installs: 1(RD) + 2(affect) — nothing released yet.
        assert_eq!(unsafe { &*info }.installs(), 3);
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn help_is_idempotent() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        assert_eq!(unsafe { help::<M, 0>(Base(0), info, true, &g) }, HelpOutcome::Done);
        w.store(777); // someone else moved the world on

        // Re-execution (recovery): the tag CAS on a0 fails (the cell now
        // holds untagged(info) ≠ 0), and the completion check sees `DONE`
        // set — the operation already took effect, so help reports Done
        // WITHOUT re-running the write (Algorithm 1's completion check; an
        // invoker that mistook this for failure would re-initialize nodes
        // that are reachable).
        let out = unsafe { help::<M, 0>(Base(0), info, true, &g) };
        assert_eq!(out, HelpOutcome::Done);
        assert_eq!(w.load(), 777, "idempotence: update not re-applied");
        assert!(unsafe { &*info }.done(), "DONE survives");
        unsafe { Info::release(info, 3, &g) };
    }

    /// The completion check discriminates on `DONE`, not the cell value:
    /// a *foreign* value (a later operation's tag over our released cell)
    /// with `DONE` set is completion, with `DONE` unset it is failure. The
    /// completion runs `help`'s one epilogue at every arm: this thread writes
    /// `DONE`'s line back and fences it before the cleanup, though `DONE` was
    /// set (and fenced) by the first run.
    #[test]
    fn foreign_cell_value_is_completion_iff_result_set() {
        // Lines: a0's failed tag CAS (arm 0 only), `meta`, a0's untag
        // (elided under `Isb-LP`; a1 is deletion-tagged). Fences: `DONE`'s,
        // and the cleanup's at arm 0.
        foreign_value_completes::<{ arm::PAPER }>(3, 2);
        foreign_value_completes::<{ arm::TUNED }>(2, 1);
        foreign_value_completes::<{ arm::LP }>(1, 1);
    }

    /// [`foreign_cell_value_is_completion_iff_result_set`] at `ARM`: the
    /// write-backs (`lines`) and `psync`s of the `Done` through the
    /// foreign-value branch.
    fn foreign_value_completes<const ARM: u8>(lines: u64, psyncs: u64) {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        const P: usize = 48; // own tid: its counters are this test's alone
        nvm::tid::set_tid(P);
        let g = ctx.c.pin();
        // Completed op whose a0 was re-tagged by a later operation.
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        assert_eq!(unsafe { help::<M, ARM>(Base(0), info, true, &g) }, HelpOutcome::Done);
        a0.store(0xF0F0); // later op's value in the released cell
        w.store(777);
        let before = nvm::stats::Snapshot::of_tid(P);
        assert_eq!(
            unsafe { help::<M, ARM>(Base(0), info, true, &g) },
            HelpOutcome::Done,
            "{}: foreign value + DONE = the operation completed",
            arm::name(ARM)
        );
        let n = nvm::stats::Snapshot::of_tid(P).since(&before);
        assert_eq!(
            (n.pwb, n.psync),
            (lines, psyncs),
            "{}: the epilogue's lines and fences",
            arm::name(ARM)
        );
        assert_eq!(
            nvm::coalesce::pending(),
            0,
            "{}: nothing left for a later fence",
            arm::name(ARM)
        );
        assert_eq!(w.load(), 777, "update not re-applied");
        unsafe { Info::release(info, 3, &g) };

        // Fresh op whose a0 changed before any tag landed: genuine failure.
        let b0 = cellv(0xBAD0);
        let b1 = cellv(0);
        let w2 = cellv(100);
        let info2 = unsafe { mk_info(&b0, 0, &b1, 0, &w2, 100, 200, 0) };
        assert_eq!(
            unsafe { help::<M, ARM>(Base(0), info2, true, &g) },
            HelpOutcome::FailedAt(0),
            "foreign value + no DONE = genuine failure"
        );
        assert_eq!(w2.load(), 100, "failed attempt applies nothing");
        unsafe { Info::release(info2, 3, &g) };
    }

    #[test]
    fn recovery_reexecution_mid_operation_completes() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        // Simulate a crash after tagging both nodes but before the update:
        a0.store(tag::tagged(info as u64));
        a1.store(tag::tagged(info as u64));
        let out = unsafe { help::<M, 0>(Base(0), info, true, &g) };
        assert_eq!(out, HelpOutcome::Done, "re-tagging treats tagged(info) as success");
        assert_eq!(w.load(), 200);
        // Releases happened for... no prior values (tag CAS saw res == tagged).
        assert_eq!(unsafe { &*info }.installs(), 3);
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn failed_tag_backtracks_prefix() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0xdead0); // does not match expected 0
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        let out = unsafe { help::<M, 0>(Base(0), info, true, &g) };
        assert_eq!(out, HelpOutcome::FailedAt(1));
        assert_eq!(a0.load(), tag::untagged(info as u64), "prefix untagged");
        assert_eq!(a1.load(), 0xdead0, "conflicting cell untouched");
        assert_eq!(w.load(), 100, "update not performed");
        assert!(!unsafe { &*info }.done());
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn helper_starts_at_second_element() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        // Invoker tagged a0, then stalled; a helper picks it up.
        a0.store(tag::tagged(info as u64));
        let out = unsafe { help::<M, 0>(Base(0), info, false, &g) };
        assert_eq!(out, HelpOutcome::Done);
        assert_eq!(w.load(), 200);
        assert_eq!(a0.load(), tag::untagged(info as u64), "helper's cleanup untags position 0");
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn helper_failure_untags_position_zero() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let a0 = cellv(0);
        let a1 = cellv(0xbeef0);
        let w = cellv(100);
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0b10) };
        a0.store(tag::tagged(info as u64)); // invoker got this far, then died
        let out = unsafe { help::<M, 0>(Base(0), info, false, &g) };
        assert_eq!(out, HelpOutcome::FailedAt(1));
        assert_eq!(a0.load(), tag::untagged(info as u64), "helper backtracks the invoker's tag");
        unsafe { Info::release(info, 3, &g) };
    }

    /// A helper, which starts at position 1, may tag past the position the
    /// invoker then fails at, and backtrack: the cells it tagged hold the
    /// untagged descriptor — a reference each — so `FailedAt` names the
    /// furthest failure, and the invoker releases only what nobody tagged.
    /// Before, the BST delete (four affect positions) released positions a
    /// helper had tagged as never installed, and the next tag over one of
    /// them underflowed the count ("info reference-count underflow" in
    /// `bst::tests::concurrent_churn_keeps_invariants`, 8 runs in 800).
    #[test]
    fn failed_at_counts_what_a_helper_tagged() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let (a0, a1, a2, w) = (cellv(0), cellv(0), cellv(0xF0F0), cellv(100));
        let info = boxed(Lines::Two);
        let cell = |c: &PWord<M>| c as *const PWord<M> as u64;
        unsafe {
            Info::fill(
                info,
                &InfoFill {
                    optype: 1,
                    affect: &[(cell(&a0), 0), (cell(&a1), 0), (cell(&a2), 0)],
                    write: &[(cell(&w), 100, 200)],
                    newset: &[],
                    node_words: 0,
                    del_mask: 0,
                    presult: RES_TRUE,
                },
            )
        };
        // The invoker's first tag; then a helper tags position 1, fails at 2
        // and backtracks 1 and 0.
        a0.store(tag::tagged(info as u64));
        assert_eq!(unsafe { help::<M, 0>(Base(0), info, false, &g) }, HelpOutcome::FailedAt(2));
        // The invoker resumes at position 0 and meets the helper's untag.
        let out = unsafe { help::<M, 0>(Base(0), info, true, &g) };
        assert_eq!(out, HelpOutcome::FailedAt(2), "positions 0 and 1 hold references");
        let untagged = tag::untagged(info as u64);
        assert_eq!((a0.load(), a1.load(), a2.load()), (untagged, untagged, 0xF0F0));
        unsafe { Info::release(info, 3 - 2, &g) }; // position 2: never tagged
        assert_eq!(unsafe { &*info }.installs(), 3, "RD_q and the two tagged cells");
        unsafe { Info::release(info, 3, &g) };
    }

    /// The crash image the tuned arms' unfenced untags allow: the first
    /// affect cell reverted to the tag of the completed operation its
    /// expected value names, the second kept this operation's tag. `help`
    /// alone fails on the first cell; recovery heals it first and completes
    /// the operation — once.
    #[test]
    fn recovery_heals_a_resurrected_tag_before_judging_the_cell() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let (x0, a0, a1) = (cellv(0), cellv(0), cellv(0));
        let (wx, w) = (cellv(100), cellv(500));
        let prev = unsafe { mk_info(&x0, 0, &a0, 0, &wx, 100, 200, 0) };
        assert_eq!(unsafe { help::<M, 1>(Base(0), prev, true, &g) }, HelpOutcome::Done);
        let expected = tag::untagged(prev as u64);
        assert_eq!(a0.load(), expected);
        let info = unsafe { mk_info(&a0, expected, &a1, 0, &w, 500, 600, 0) };
        let image = || {
            a0.store(tag::tagged(prev as u64));
            a1.store(tag::tagged(info as u64));
        };

        image();
        assert_eq!(unsafe { help::<M, 1>(Base(0), info, true, &g) }, HelpOutcome::FailedAt(0));
        assert_eq!(a1.load(), tag::tagged(info as u64), "left for a helper to complete");

        image();
        assert_eq!(unsafe { help_recovering::<M, 1>(Base(0), info, &g) }, RES_TRUE);
        assert_eq!((wx.load(), w.load()), (200, 600), "healed without re-applying; applied");
        assert_eq!(a0.load(), tag::untagged(info as u64));
        assert_eq!(a1.load(), tag::untagged(info as u64));
        unsafe {
            Info::release(prev, 2, &g); // a0's reference went with the overwrite
            Info::release(info, 3, &g);
        }
    }

    /// An attempt recovery abandons keeps no tag anywhere: not before the
    /// failing position (`help`'s backtrack) and not after it, where only a
    /// crash image can have put one.
    #[test]
    fn recovery_untags_an_abandoned_attempt_everywhere() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        let (a0, a1, w) = (cellv(0xBAD0), cellv(0), cellv(100));
        let info = unsafe { mk_info(&a0, 0, &a1, 0, &w, 100, 200, 0) };
        a1.store(tag::tagged(info as u64));
        assert_eq!(unsafe { help_recovering::<M, 1>(Base(0), info, &g) }, RES_BOT);
        assert_eq!(a0.load(), 0xBAD0);
        assert_eq!(a1.load(), tag::untagged(info as u64));
        assert_eq!(w.load(), 100, "update not performed");
        unsafe { Info::release(info, 3, &g) };
    }

    #[test]
    fn overwrite_install_releases_previous_info() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        let g = ctx.c.pin();
        // Old info sits untagged in a cell with one remaining reference.
        let old = Box::into_raw(Box::new(Info::<M>::fresh()));
        unsafe {
            Info::fill(
                old,
                &InfoFill {
                    optype: 1,
                    affect: &[(0x8, 0)], // dummy cell address, never dereferenced
                    write: &[],
                    newset: &[],
                    node_words: 0,
                    del_mask: 0,
                    presult: RES_TRUE,
                },
            )
        };
        // Manually model: 2 of its refs were already released; 1 cell ref + 1 RD... take 2.
        unsafe { Info::release(old, 1, &g) }; // now installs = 1: the cell below
        let a0 = cellv(tag::untagged(old as u64));
        let a1 = cellv(0);
        let w = cellv(1);
        let info = unsafe { mk_info(&a0, tag::untagged(old as u64), &a1, 0, &w, 1, 2, 0b10) };
        assert_eq!(unsafe { help::<M, 0>(Base(0), info, true, &g) }, HelpOutcome::Done);
        // The winning tag CAS over `old`'s value released its last reference:
        // old has been retired (freed when the collector drains) — we can't
        // touch it; absence of double-free is checked by the collector drop.
        unsafe { Info::release(info, 3, &g) };
    }

    /// Fills `info` with shape `na / nw / nn` over dummy cells: the write
    /// installs the 3-word node at 0x40, new-set entry 0 its last word.
    fn fill_shape(info: *mut Info<M>, (na, nw, nn): (usize, usize, usize)) {
        let fill = InfoFill {
            optype: 1,
            affect: &[(0x8, 0); MAX_AFFECT + 1][..na],
            write: &[(0x8, 0, 0x40); MAX_WRITE + 1][..nw],
            newset: &[0x50, 0x8, 0x8, 0x8][..nn],
            node_words: 3,
            del_mask: 0,
            presult: RES_TRUE,
        };
        // SAFETY: a fresh descriptor, ours alone.
        unsafe { Info::fill(info, &fill) };
    }

    /// The lines the pre-publication barrier writes back, per descriptor
    /// shape the structures build (`naffect / nwrite / nnew`) in the class
    /// it is drawn from: a read-only descriptor and both queue operations
    /// one line, the list's and the BST's updates two. Each range starts at
    /// the block and ends inside it; the enqueue fills its one line.
    #[test]
    fn each_descriptor_shape_fits_its_line_budget() {
        let _gate = crate::counters::gate_shared();
        for (one, two) in [
            (size_of::<Info<nvm::RealNvm>>(), size_of::<InfoPair<nvm::RealNvm>>()),
            (size_of::<Info<M>>(), size_of::<InfoPair<M>>()),
            (size_of::<Info<nvm::MappedNvm>>(), size_of::<InfoPair<nvm::MappedNvm>>()),
        ] {
            assert_eq!((one, two), (64, 128), "one line, two lines, volatile word included");
        }
        let shapes = [
            ("read-only", (1, 0, 0), Lines::One, 1, 40),
            ("read-only", (1, 0, 0), Lines::Two, 1, 40),
            ("enqueue", (1, 1, 1), Lines::One, 1, 64),
            ("dequeue", (1, 1, 0), Lines::One, 1, 64),
            ("list insert", (2, 1, 2), Lines::Two, 2, 88),
            ("list delete", (2, 1, 0), Lines::Two, 2, 80),
            ("BST insert", (2, 1, 3), Lines::Two, 2, 96),
            ("BST delete", (4, 1, 1), Lines::Two, 2, 112),
        ];
        for (name, shape, lines, want, bytes) in shapes {
            let info = boxed(lines);
            fill_shape(info, shape);
            // SAFETY: the test's own descriptor.
            let (start, len) = unsafe { Info::words(info) }.used_range();
            assert_eq!(start, info as *const u8, "{name}: the range starts at the block");
            assert_eq!(nvm::flush::lines_in_range(start, len), want, "{name}");
            assert_eq!(len, bytes, "{name}: the range's bytes");
            assert!(len <= block_bytes::<M>(lines), "{name}: the range leaves its block");
            // SAFETY: as above, freed once.
            unsafe { Info::<M>::drop_boxed(info.cast()) };
        }
    }

    /// Attach validation reads no word past a one-line block whose `meta`
    /// claims the BST delete's 4/1/1: the block is followed by words that
    /// would pass every check, and none of them reaches `valid_cell`. A
    /// class byte that does not name the block's class fails before any set
    /// word is read.
    #[test]
    fn validation_reads_no_word_past_the_block() {
        let _gate = crate::counters::gate_shared();
        // A one-line descriptor with a line beside it: an `InfoPair`'s
        // block, its class byte rewritten.
        let info = boxed(Lines::Two);
        // SAFETY: the test's own block, one `InfoPair` long.
        unsafe {
            *std::ptr::addr_of_mut!((*info).lines) = Lines::One as u8;
            fill_shape(info, (1, 1, 1));
            (*info).meta.store((*info).meta.peek() & !0xff00 | 4 << 8);
            for w in LINE_SETS..PAIR_SETS {
                Info::set(info, w).store(0x7000 + 8 * w as u64);
            }
        }
        let seen = std::cell::RefCell::new(Vec::new());
        let cell = |a: u64| {
            seen.borrow_mut().push(a);
            true
        };
        for bytes in [64, 128] {
            // SAFETY: `bytes` of the block are readable.
            assert!(!unsafe { Info::validate_bounds(info, bytes, cell, |_| true) }, "{bytes} B");
        }
        assert!(seen.borrow().iter().all(|&a| a < 0x7000), "read past the block: {seen:?}");
        // SAFETY: freed once, as the `InfoPair` it is.
        unsafe { drop(Box::from_raw(info.cast::<InfoPair<M>>())) };
    }

    /// A shape past a one-line descriptor's five set words would write into
    /// the next block: `fill` refuses it in every build.
    #[test]
    #[should_panic(expected = "exceeds its 5 set words")]
    fn fill_refuses_an_over_capacity_shape() {
        let _gate = crate::counters::gate_shared();
        fill_shape(boxed(Lines::One), (2, 1, 2));
    }

    /// New-set entry 0 is derived from the write: a fill that names another
    /// cell there is refused in every build.
    #[test]
    #[should_panic(expected = "new-set entry 0 is not the info cell")]
    fn fill_refuses_a_first_new_cell_the_write_does_not_install() {
        let _gate = crate::counters::gate_shared();
        let fill = InfoFill {
            optype: 1,
            affect: &[(0x8, 0)],
            write: &[(0x8, 0, 0x40)],
            newset: &[0x40],
            node_words: 3,
            del_mask: 0,
            presult: RES_TRUE,
        };
        // SAFETY: a fresh descriptor, ours alone.
        unsafe { Info::fill(boxed(Lines::One), &fill) };
    }

    #[test]
    fn result_value_encoding_roundtrip() {
        let _gate = crate::counters::gate_shared();
        assert_eq!(val_of(res_val(0)), 0);
        assert_eq!(val_of(res_val(12345)), 12345);
        assert!(res_val(0) >= RES_VAL_BASE);
        assert_ne!(res_val(0), RES_BOT);
        assert_ne!(res_val(0), RES_EMPTY);
        // The largest encodable payload maps to u64::MAX without wrapping.
        assert_eq!(val_of(res_val(u64::MAX - RES_VAL_BASE)), u64::MAX - RES_VAL_BASE);
    }

    #[test]
    #[should_panic(expected = "exceeds the encodable range")]
    fn result_value_encoding_rejects_huge_payloads() {
        // Must panic in release builds too: a wrapped encoding would collide
        // with RES_EMPTY/RES_TRUE and recovery would report a wrong response.
        let _ = res_val(u64::MAX - RES_VAL_BASE + 1);
    }

    #[test]
    #[should_panic(expected = "reserved encoding")]
    fn result_value_decoding_rejects_reserved_words() {
        // The decoder guard is unconditional too: silently decoding
        // RES_EMPTY as payload 4-16 would hand recovery a wrong response.
        let _ = val_of(RES_EMPTY);
    }

    #[test]
    fn tuned_help_produces_fewer_syncs() {
        let _gate = crate::counters::gate_shared();
        let ctx = Ctx::new();
        const P: usize = 49; // own tid: its counters are this test's alone
        nvm::tid::set_tid(P);
        let mk = |a0: &PWord<M>, a1: &PWord<M>, w: &PWord<M>| unsafe {
            mk_info(a0, 0, a1, 0, w, 100, 200, 0b10)
        };
        let (a0, a1, w) = (cellv(0), cellv(0), cellv(100));
        let info = mk(&a0, &a1, &w);
        let before = nvm::stats::Snapshot::of_tid(P);
        {
            let g = ctx.c.pin();
            unsafe { help::<M, 0>(Base(0), info, true, &g) };
        }
        let paper = nvm::stats::Snapshot::of_tid(P).since(&before);

        let (b0, b1, v) = (cellv(0), cellv(0), cellv(100));
        let info2 = mk(&b0, &b1, &v);
        let before = nvm::stats::Snapshot::of_tid(P);
        {
            let g = ctx.c.pin();
            unsafe { help::<M, 1>(Base(0), info2, true, &g) };
        }
        let tuned = nvm::stats::Snapshot::of_tid(P).since(&before);
        assert!(tuned.psync < paper.psync, "tuned {tuned:?} vs paper {paper:?}");
        let g = ctx.c.pin();
        unsafe { Info::release(info, 3, &g) };
        unsafe { Info::release(info2, 3, &g) };
    }
}
