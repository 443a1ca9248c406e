//! The ISB descriptor's layout: the [`Info`] block, what [`Info::fill`]
//! stores in it, and the accessors every reader computes the operation's
//! sets back through.
//!
//! A descriptor block is one cache line or two ([`Lines`]; 64 or 128 bytes
//! under every real model): the BST draws two-line descriptors, every other
//! kind one-line ones. Word 0 is the volatile bookkeeping — `installs`
//! (u32), `shared`, `failed_at` and the class byte, which the block keeps
//! for life — then `meta` (the set sizes, the `LINK` / `DONE` bits and the
//! encodings below), and the set words: six in the first line, eight more
//! in the second. A shape whose sets fill `k` set words persists the first
//! `2 + k` words.
//!
//! `fill` stores a word only when the descriptor's other words cannot give
//! it (DESIGN.md §5):
//!
//! * **The response.** A code below [`RES_VAL_BASE`] lives in `meta`; only a
//!   value response (pop, dequeue) takes set word 0 (`Info::result`).
//! * **The write's cell.** When it is affect entry 0's cell minus `k` words
//!   (`k ∈ 1..=3`) `meta` holds `k` — the set core's `pred.next` is
//!   `pred.info − WORD` (`Info::write_at`).
//! * **The write's old value.** When it is affect entry `j`'s cell minus
//!   `k` words `meta` holds `j` and `k` — the set core's `curr` is
//!   `curr.info − 2·WORD`.
//! * **New-set entry 0.** Every shape with new nodes names there the node
//!   its one write installs: `new + (node_words − 1)·WORD`
//!   (`Info::new_cell`).
//!
//! So the set core's insert and push (2/1/2) fill the first line's six
//! set words exactly, its delete five, its pop five after the value
//! response; the queue's shapes fit one line too, and the BST's 2/1/3 and
//! 4/1/1 take seven and nine. No accessor reads a node word: a computed word
//! is a function of stored descriptor words alone, so the publication
//! digest over them ([`Info::digest`]) covers it.

use crate::pool::PoolItem;
use crate::tag::Base;
use nvm::{PWord, Persist, PersistWords};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8};

/// Maximum AffectSet size (BST delete uses 4: grandparent, parent, leaf, sibling).
pub const MAX_AFFECT: usize = 4;
/// Maximum WriteSet size (every update writes one cell).
pub const MAX_WRITE: usize = 1;
/// Maximum NewSet size (BST insert uses 3).
pub const MAX_NEW: usize = 3;
/// Set words in a descriptor's first line, after the volatile word and
/// `meta`: all a one-line descriptor has.
pub(crate) const LINE_SETS: usize = 6;
/// Set words of a two-line descriptor: the first line's six and the
/// second line's eight ([`InfoPair`]).
pub(crate) const PAIR_SETS: usize = LINE_SETS + 8;

/// Response encodings, precomputed into a descriptor at its fill. `RES_BOT`
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
/// below `u64::MAX - RES_VAL_BASE`. Every code below it fits `meta`'s
/// four response bits.
pub const RES_VAL_BASE: u64 = 16;

/// `meta` bit: the one write links the fresh node whose cell is new-set
/// entry 0, and decides the operation while that cell holds the tag.
pub(crate) const LINK: u64 = 1 << 40;
/// `meta` bit: the operation took effect; its response is [`Info::result`].
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
/// model. The BST's descriptors are two lines, every other kind's one
/// (`Env::lines`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lines {
    /// An [`Info`] alone: six set words, enough for every map, list, stack
    /// and queue shape and every read-only descriptor.
    One = 1,
    /// An [`InfoPair`]: fourteen set words, enough for every shape.
    Two = 2,
}

impl Lines {
    /// The set words a descriptor of this class holds.
    pub(crate) const fn sets(self) -> usize {
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
pub(crate) const fn block_bytes<M: Persist>(lines: Lines) -> usize {
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
/// volatile bookkeeping; the persistent words follow: `meta`, then the set
/// words, which pack a value response, the affect pairs, the stored words
/// of the write triple and the new-node cells past entry 0 at offsets
/// `meta` gives (`Shape`) — the first six in this line, the rest in the
/// second. The operation persists the used prefix (`pbarrier(*opInfo,
/// NewSet)`, `Words`) before publishing it, matching the paper's remark that
/// "a single pwb flushes all fields fitting in a cache line". A `&Info`
/// covers the first line only: every set word is reached through the raw
/// descriptor pointer, whose provenance is the whole block (`Info::set`).
#[repr(C, align(64))]
pub struct Info<M: Persist> {
    /// Volatile reference count (see `engine`'s module docs). Not
    /// persistent state.
    pub(crate) installs: AtomicU32,
    /// Volatile: set by `help` before its first tag CAS. While false the
    /// descriptor is provably private — its address was never installed in
    /// a shared cell, so at refcount zero it can re-enter the pool without
    /// the EBR round-trip (read-only fast-path descriptors, which never call
    /// `help`, hit this on every operation).
    pub(crate) shared: AtomicBool,
    /// Volatile: the furthest AffectSet position a tagging attempt failed
    /// at (`HelpOutcome::FailedAt`), recorded before its backtrack.
    pub(crate) failed_at: AtomicU8,
    /// The block's class, a [`Lines`]: written once, when the block is built
    /// (`PoolItem::fresh`), never inferred from `meta`. It names the pool
    /// `Info::release` recycles the block into and bounds the set words.
    pub(crate) lines: u8,
    /// Packed `optype | (na | res<<4)<<8 | (nw | cell_k<<2 | old_j<<4 |
    /// old_k<<6)<<16 | nn<<24 | del_mask<<32` (`Shape`), the [`LINK`] and
    /// [`DONE`] bits, the new nodes' word count in bits 42..45 and the fill
    /// generation above it.
    pub(crate) meta: PWord<M>,
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

// SAFETY: `meta` and the used set words, all inside the block (a filled
// descriptor's shape fits its class).
unsafe impl<M: Persist> PersistWords<M> for Words<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        // SAFETY: a live, filled descriptor ([`Info::words`]).
        let i = unsafe { &*self.0 };
        f(&i.meta);
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

/// What a descriptor's `meta` says about its set words: the set sizes, the
/// deletion mask, the new nodes' word count, and which words are computed
/// rather than stored — the response code (`res`, 0 for a value response in
/// set word 0), the write's cell as affect entry 0's cell minus `cell_k`
/// words, its old value as affect entry `old_j`'s cell minus `old_k` words
/// (a `k` of 0: stored). Stored words in order: the value response, affect
/// entry `k` at `2k` after it, then the write's stored words, then new
/// entries `k ≥ 1` (entry 0 is derived, not stored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Shape {
    pub(crate) na: usize,
    pub(crate) nw: usize,
    pub(crate) nn: usize,
    pub(crate) del_mask: u8,
    /// Words of each new node, its info cell the last.
    pub(crate) node_words: usize,
    res: u64,
    cell_k: usize,
    old_j: usize,
    old_k: usize,
}

impl Shape {
    fn of(meta: u64) -> Self {
        let bits = |shift: u32, width: u32| ((meta >> shift) & ((1 << width) - 1)) as usize;
        Shape {
            na: bits(8, 3),
            res: bits(12, 4) as u64,
            nw: bits(16, 2),
            cell_k: bits(18, 2),
            old_j: bits(20, 2),
            old_k: bits(22, 2),
            nn: bits(24, 2),
            del_mask: (meta >> 32) as u8,
            node_words: bits(NODE_WORDS_SHIFT, 3),
        }
    }

    /// The `meta` bits of everything but the optype, `LINK`, `DONE` and the
    /// generation: the inverse of [`Shape::of`] for a shape that fits.
    fn bits(self) -> u64 {
        (self.na as u64 | self.res << 4) << 8
            | ((self.nw | self.cell_k << 2 | self.old_j << 4 | self.old_k << 6) as u64) << 16
            | (self.nn as u64) << 24
            | (self.del_mask as u64) << 32
            | (self.node_words as u64) << NODE_WORDS_SHIFT
    }

    /// Whether the sets fit a descriptor of `sets` set words: at least one
    /// affect entry, each set within its capacity, new nodes only beside the
    /// write that installs the first (entry 0 is derived from it) and with a
    /// node size, computed write words only beside a write and from an
    /// affect entry it has, all of it within the set words.
    pub(crate) fn fits(self, sets: usize) -> bool {
        (1..=MAX_AFFECT).contains(&self.na)
            && self.nw <= MAX_WRITE
            && self.nn <= MAX_NEW
            && (self.nn == 0 || self.nw == 1 && self.node_words > 0)
            && (self.nw == 1 || self.cell_k == 0 && self.old_k == 0)
            && (self.old_k > 0 || self.old_j == 0)
            && self.old_j < self.na
            && self.words() <= sets
    }

    /// Set words the persisted prefix covers (affect entry 0 always).
    pub(crate) fn words(self) -> usize {
        self.affect(self.na.max(1)) + self.write_words() + self.nn.saturating_sub(1)
    }

    /// Set words before the affect pairs: the value response's.
    fn head(self) -> usize {
        (self.res == 0) as usize
    }

    /// The stored words of the write triple.
    fn write_words(self) -> usize {
        self.nw * (3 - (self.cell_k > 0) as usize - (self.old_k > 0) as usize)
    }

    /// The set word of affect entry `k`'s cell, its expected value next.
    pub(crate) fn affect(self, k: usize) -> usize {
        self.head() + 2 * k
    }

    /// The set word of the write's first stored word.
    fn write(self) -> usize {
        self.affect(self.na)
    }

    /// The set word of the write's `new`, its last stored word.
    fn write_new(self) -> usize {
        self.write() + self.write_words() - 1
    }

    /// The set word of new entry `k ≥ 1`.
    fn newset(self, k: usize) -> usize {
        self.write_new() + k
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

    /// The `k ∈ 1..=3` with `v` = `cell` minus `k` words, or 0.
    fn words_below(cell: u64, v: u64) -> usize {
        (1..=3).find(|&k| cell.wrapping_sub(k as u64 * Self::WORD) == v).unwrap_or(0)
    }

    /// Fills the descriptor for one attempt. Only legal while the Info is
    /// unreachable to other threads (never installed / fresh). Stores only
    /// what no other word gives (module docs).
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
        use std::sync::atomic::Ordering;
        let i = unsafe { &*info };
        let (na, nw, nn) = (f.affect.len(), f.write.len(), f.newset.len());
        let node_words = f.node_words as usize;
        let (cell_k, (old_j, old_k)) = match (f.affect.first(), f.write.first()) {
            (Some(&(cell0, _)), Some(&(cell, old, _))) => (
                Self::words_below(cell0, cell),
                (f.affect.iter().enumerate())
                    .find_map(|(j, &(c, _))| {
                        Some((j, Self::words_below(c, old))).filter(|p| p.1 > 0)
                    })
                    .unwrap_or((0, 0)),
            ),
            _ => (0, (0, 0)),
        };
        let res = if f.presult < RES_VAL_BASE { f.presult } else { 0 };
        let s = Shape { na, nw, nn, del_mask: f.del_mask, node_words, res, cell_k, old_j, old_k };
        let sets = i.class().sets();
        assert!(
            s.fits(sets) && node_words <= 7,
            "descriptor shape {na}/{nw}/{nn} of {node_words}-word new nodes exceeds its \
             {sets} set words"
        );
        assert!(
            f.newset.first().is_none_or(|&c| {
                c == f.write[0].2.wrapping_add((node_words as u64 - 1) * Self::WORD)
            }),
            "new-set entry 0 is not the info cell of the node the write installs"
        );
        let gen = ((i.meta.peek() >> GEN_SHIFT) + 1) << GEN_SHIFT;
        M::store(&i.meta, f.optype as u64 | s.bits() | gen);
        let response = (res == 0).then_some(f.presult);
        let affect = f.affect.iter().flat_map(|&(cell, exp)| [cell, exp]);
        let write = f.write.iter().flat_map(|&(cell, old, new)| {
            [(cell_k == 0).then_some(cell), (old_k == 0).then_some(old), Some(new)]
        });
        let newset = f.newset.iter().skip(1).copied();
        let stored = response.into_iter().chain(affect).chain(write.flatten()).chain(newset);
        for (w, v) in stored.enumerate() {
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
    pub(crate) fn shape(&self) -> Shape {
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
    /// line's six, a word of the second.
    ///
    /// # Safety
    /// `info` must be a live descriptor whose block holds set word `w`.
    #[inline]
    pub(crate) unsafe fn set<'a>(info: *const Self, w: usize) -> &'a PWord<M> {
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

    /// The write's `(cell, old, new)`, each stored word read by `read`: the
    /// cell as affect entry 0's cell minus `cell_k` words, the old value as
    /// affect entry `old_j`'s minus `old_k` words, when `meta` says so.
    ///
    /// # Safety
    /// As [`Info::set`], for a shape with a write that fits the block.
    #[inline]
    pub(crate) unsafe fn write_at(
        info: *const Self,
        s: Shape,
        read: fn(&PWord<M>) -> u64,
    ) -> (u64, u64, u64) {
        // SAFETY: the caller's (every word the shape stores).
        let word = |w: usize| read(unsafe { Info::set(info, w) });
        let below =
            |entry: usize, k: usize| word(s.affect(entry)).wrapping_sub(k as u64 * Self::WORD);
        let cell = if s.cell_k > 0 { below(0, s.cell_k) } else { word(s.write()) };
        let old = match s.old_k {
            0 => word(s.write() + (s.cell_k == 0) as usize),
            k => below(s.old_j, k),
        };
        (cell, old, word(s.write_new()))
    }

    /// The info cell of new entry `k`, each word read by `read`: entry 0
    /// derived from the write's `new`, the node it installs, whose last word
    /// the cell is; the others stored.
    ///
    /// # Safety
    /// As [`Info::set`], for a shape with `k < nn` that fits the block.
    #[inline]
    pub(crate) unsafe fn new_cell(
        info: *const Self,
        s: Shape,
        k: usize,
        read: fn(&PWord<M>) -> u64,
    ) -> u64 {
        // SAFETY: the caller's: the write exists beside new entry 0.
        unsafe {
            if k == 0 {
                read(Info::set(info, s.write_new()))
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
    pub(crate) unsafe fn new_cell_at<'a>(
        info: *const Self,
        b: Base,
        s: Shape,
        k: usize,
    ) -> &'a PWord<M> {
        // SAFETY: the caller's.
        unsafe { &*b.at::<PWord<M>>(Info::new_cell(info, s, k, M::load)) }
    }

    /// Whether the operation took effect: its response is [`Info::result`].
    pub(crate) fn done(&self) -> bool {
        M::load(&self.meta) & DONE != 0
    }

    /// The precomputed response: `meta`'s code, or set word 0 for a value.
    pub(crate) fn result(&self) -> u64 {
        match Shape::of(M::load(&self.meta)).res {
            0 => M::load(&self.sets[0]),
            code => code,
        }
    }

    /// The operation's response, once it took effect. After `help`
    /// returned `Done` on this thread, `DONE` is durable: every path to
    /// `Done` fences it first.
    pub(crate) fn response(&self) -> Option<u64> {
        self.done().then(|| self.result())
    }

    /// Sets a `meta` bit: [`LINK`] before publication, [`DONE`] by any helper.
    pub(crate) fn mark(&self, bit: u64) {
        M::store(&self.meta, M::load(&self.meta) | bit);
    }

    /// `(cell, expected)` of affect entry `k` of shape `s`, its cell decoded
    /// at `b`.
    ///
    /// # Safety
    /// As [`Info::set`]; the stored cell must still be live (EBR pin or
    /// quiescence).
    #[inline]
    pub(crate) unsafe fn affect_at<'a>(
        info: *const Self,
        b: Base,
        s: Shape,
        k: usize,
    ) -> (&'a PWord<M>, u64) {
        // SAFETY: the caller's.
        unsafe {
            let cell = &*b.at::<PWord<M>>(M::load(Info::set(info, s.affect(k))));
            (cell, M::load(Info::set(info, s.affect(k) + 1)))
        }
    }

    /// One line for a failure report: `meta` (with its done bit), the
    /// response, and per affect entry the cell's address, its expected and
    /// its *current* value, the cells decoded at `b`.
    ///
    /// # Safety
    /// `info` must be a live descriptor whose every affect cell is still
    /// live (quiescence).
    pub unsafe fn describe(info: *const Self, b: Base) -> String {
        // SAFETY: the caller's (every read below, the affect entries the
        // class holds).
        let i = unsafe { &*info };
        let s = i.shape();
        let mut out = format!("meta {:#x} response {:#x} affect", M::load(&i.meta), i.result());
        for k in 0..s.na.min((i.class().sets() - s.head()) / 2) {
            let (cell, expected) = unsafe { Info::affect_at(info, b, s, k) };
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
    /// affect/write/new cell offset — stored or computed — must satisfy
    /// `valid_cell` (an in-arena 8-byte-span check — helping reads/CASes one
    /// word there), and so must a computed old value (it names a node's
    /// first word); every write `new` value must satisfy `valid_install`
    /// (callers pass a whole-node span check: `help` installs the value into
    /// a cell the later census walk dereferences as a node). Returns `false`
    /// on any violation.
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
            && (0..s.na).all(|k| valid_cell(word(s.affect(k))))
            && (s.nw == 0 || {
                let (cell, old, new) = unsafe { Info::write_at(info, s, M::load) };
                valid_cell(cell) && (s.old_k == 0 || valid_cell(old)) && valid_install(new)
            })
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
    /// a complete publication from a torn one ([`Info::validates`]). The
    /// computed words need no absorbing: `meta` and the stored words give
    /// them. Chained multiply-xorshift steps: every word's position and value
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
}

#[cfg(test)]
impl<M: Persist> Info<M> {
    /// A blank descriptor `Box` of class `lines` (`Info::drop_boxed`
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
