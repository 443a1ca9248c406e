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
//! An [`Info`] is two cache lines (128 bytes under every real model): `meta`
//! (the set sizes and the `LINK` / `DONE` bits), `presult`, twelve words
//! that pack the AffectSet pairs, the WriteSet triple and the NewSet cells
//! at offsets the sizes give, and the volatile bookkeeping in the last two
//! words. A shape whose sets fill `k` of the twelve words persists
//! `2 + k` words: one line for a read-only descriptor and both queue
//! operations, two for the list's and the BST's updates.
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
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU8, Ordering};

/// Maximum AffectSet size (BST delete uses 4: grandparent, parent, leaf, sibling).
pub const MAX_AFFECT: usize = 4;
/// Maximum WriteSet size (every update writes one cell).
pub const MAX_WRITE: usize = 1;
/// Maximum NewSet size (BST insert uses 3).
pub const MAX_NEW: usize = 3;
/// Words of a descriptor's packed sets: a shape `na / nw / nn` takes
/// `2·na + 3·nw + nn` of them, the BST delete's 4/1/1 all twelve.
const SET_WORDS: usize = 12;

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

/// The Info structure: everything a helper (or the owner's recovery code)
/// needs to run the operation to completion, plus whether it took effect.
///
/// Two cache lines. The persistent words come first: `meta`, `presult` and
/// the three sets packed into `sets` — the affect pairs, then the write
/// triples, then the new-node cells, each at an offset the counts in `meta`
/// give (`Shape`). The operation persists the used prefix
/// (`pbarrier(*opInfo, NewSet)`, [`PersistWords::used_range`]) before
/// publishing it, matching the paper's remark that "a single pwb flushes all
/// fields fitting in a cache line": a read-only descriptor and the queue's
/// 1/1/1 and 1/1/0 fit the first line, the list's 2/1/2 and 2/1/0 and the
/// BST's 2/1/3 and 4/1/1 (which fills all twelve set words) two. The
/// volatile bookkeeping takes the last two words of the second line.
#[repr(C, align(64))]
pub struct Info<M: Persist> {
    /// Packed `optype | naffect<<8 | nwrite<<16 | nnew<<24 | del_mask<<32`,
    /// the [`LINK`] and [`DONE`] bits, the new nodes' word count in bits
    /// 42..45 and the fill generation above it (there is no response word).
    meta: PWord<M>,
    /// Precomputed response, written before publication; the operation's
    /// response once [`DONE`] is set.
    presult: PWord<M>,
    /// AffectSet `(info cell, expected value)` pairs, WriteSet `(cell, old,
    /// new)` triples, NewSet info cells, in that order (`Shape`). Every
    /// cell and every link value here is a link word ([`crate::tag`]).
    sets: [PWord<M>; SET_WORDS],
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
    /// Volatile: handle of the owning [`crate::pool::Pool`] (null ⇒ plain
    /// heap allocation). Written once at pool refill, read at retirement.
    /// In a mapped heap the handle is an address in the owning process:
    /// [`Info::release`] follows it only when it is the releasing
    /// collector's own pool.
    owner: AtomicPtr<()>,
}

unsafe impl<M: Persist> Send for Info<M> {}
unsafe impl<M: Persist> Sync for Info<M> {}

impl<M: Persist> PoolItem for Info<M> {
    fn fresh() -> Self {
        nvm::stats::count_info_allocs(1);
        Info {
            meta: PWord::new(0),
            presult: PWord::new(RES_BOT),
            sets: Default::default(),
            installs: AtomicU32::new(0),
            shared: AtomicBool::new(false),
            failed_at: AtomicU8::new(0),
            owner: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    fn attach(&mut self, pool: *const ()) {
        *self.owner.get_mut() = pool as *mut ();
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

unsafe impl<M: Persist> PersistWords<M> for Info<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.meta);
        f(&self.presult);
        self.sets[..self.shape().words()].iter().for_each(f);
    }

    fn used_range(&self) -> (*const u8, usize) {
        let end = std::mem::offset_of!(Self, sets) + self.shape().words() * size_of::<PWord<M>>();
        (self as *const Self as *const u8, end)
    }
}

/// Where a descriptor's sets sit in its `sets` words, from the counts in
/// its `meta`: affect entry `k` at `2k`, write entry `k` at `2·na + 3k`,
/// new entry `k` at `2·na + 3·nw + k`.
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

    /// Whether the sets fit the descriptor: at least one affect entry, each
    /// set within its capacity, all of them within [`SET_WORDS`], and a
    /// node size for the new nodes there are.
    fn fits(self) -> bool {
        (1..=MAX_AFFECT).contains(&self.na)
            && self.nw <= MAX_WRITE
            && self.nn <= MAX_NEW
            && 2 * self.na + 3 * self.nw + self.nn <= SET_WORDS
            && (self.nn == 0 || self.node_words > 0)
    }

    /// Set words the persisted prefix covers (affect entry 0 always).
    fn words(self) -> usize {
        2 * self.na.max(1) + 3 * self.nw + self.nn
    }

    fn affect(k: usize) -> usize {
        2 * k
    }

    fn write(self, k: usize) -> usize {
        2 * self.na + 3 * k
    }

    fn newset(self, k: usize) -> usize {
        2 * self.na + 3 * self.nw + k
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
    /// descriptor ([`MAX_AFFECT`], [`MAX_WRITE`], [`MAX_NEW`] and the twelve
    /// set words): the words past them are the volatile bookkeeping.
    ///
    /// # Safety
    /// `info` must be a live descriptor drawn from its pool
    /// ([`crate::env::Env::alloc_info`]) that no other thread can currently
    /// reach.
    pub unsafe fn fill(info: *mut Info<M>, f: &InfoFill<'_>) {
        let i = unsafe { &*info };
        let (na, nw, nn) = (f.affect.len(), f.write.len(), f.newset.len());
        let node_words = f.node_words as usize;
        assert!(
            Shape { na, nw, nn, del_mask: f.del_mask, node_words }.fits() && node_words <= 7,
            "descriptor shape {na}/{nw}/{nn} of {node_words}-word new nodes exceeds its \
             {SET_WORDS} set words"
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
        for (word, v) in i.sets.iter().zip(affect.chain(write).chain(f.newset.iter().copied())) {
            M::store(word, v);
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
    /// The stored cell must still be live (EBR pin or quiescence).
    #[inline]
    unsafe fn affect_at(&self, b: Base, k: usize) -> (&PWord<M>, u64) {
        let cell = unsafe { self.cell_at(b, Shape::affect(k)) };
        (cell, M::load(&self.sets[Shape::affect(k) + 1]))
    }

    /// The cell set word `w` names, decoded at `b`.
    ///
    /// # Safety
    /// As [`Info::affect_at`].
    #[inline]
    unsafe fn cell_at(&self, b: Base, w: usize) -> &PWord<M> {
        unsafe { &*b.at::<PWord<M>>(M::load(&self.sets[w])) }
    }

    /// Releases `n` references; retires the Info through `guard` at zero.
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
            let owner = i.owner.load(Ordering::Relaxed) as *const ();
            if M::MAPPED && owner as usize != guard.tag() {
                // Not the pool the guard's collector is tagged with (this
                // process's live pool for this heap, `Env::mapped`): `owner`
                // may be an address in a peer, possibly dead, so leak the
                // block to the next full attach's sweep instead of following
                // it. Bounded: only a peer's death mid-operation or helping
                // hands a descriptor's last reference to another process.
                return;
            }
            if !owner.is_null() && !i.shared.load(Ordering::Acquire) {
                // Never passed through `help` ⇒ never installed in a shared
                // cell ⇒ only this thread can hold the address: back to the
                // pool without the EBR round-trip. Read-only descriptors
                // (70% of a read-heavy mix) take this path every operation.
                unsafe { crate::pool::give_to::<Info<M>>(owner, info, guard) };
            } else {
                // Shared (or unpooled): epoch-delayed, exactly like a free.
                unsafe { crate::pool::retire_to::<Info<M>>(owner, info, guard) };
            }
        }
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
    /// Every affect cell must still be live (quiescence).
    pub unsafe fn describe(&self, b: Base) -> String {
        let mut out =
            format!("meta {:#x} presult {:#x} affect", M::load(&self.meta), M::load(&self.presult));
        for k in 0..self.shape().na.min(MAX_AFFECT) {
            let (cell, expected) = unsafe { self.affect_at(b, k) };
            out += &format!(" [{cell:p}: expected {expected:#x}, now {:#x}]", M::load(cell));
        }
        out
    }

    /// Attach-time bounds validation of a descriptor read from an
    /// **untrusted** mapped image, before `help` may dereference any of its
    /// cells: the sets must fit the descriptor (as [`Info::fill`] checks, so
    /// no read reaches the volatile words), every used affect/write/newset
    /// cell offset must satisfy `valid_cell` (an in-arena 8-byte-span check
    /// — helping reads/CASes one word there), and every write `new` value
    /// must satisfy `valid_install` (callers pass a whole-node span check:
    /// `help` installs the value into a cell the later census walk
    /// dereferences as a node). Returns `false` on any violation.
    pub fn validate_bounds(
        &self,
        valid_cell: impl Fn(u64) -> bool,
        valid_install: impl Fn(u64) -> bool,
    ) -> bool {
        let s = self.shape();
        let word = |w: usize| M::load(&self.sets[w]);
        s.fits()
            && (0..s.na).all(|k| valid_cell(word(Shape::affect(k))))
            && (0..s.nw)
                .all(|k| valid_cell(word(s.write(k))) && valid_install(word(s.write(k) + 2)))
            && (0..s.nn).all(|k| {
                let cell = word(s.newset(k));
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
    /// Every new-node cell this descriptor names must lie in a live node of
    /// `node_words` words ending at it, its cells decoded at `b`.
    pub unsafe fn digest(&self, b: Base, at: u64) -> u64 {
        let (h, s) = self.digest_head(at);
        seal(finish(h), unsafe { self.digest_nodes(b, h, s) })
    }

    /// Whether `cp` seals this descriptor's own words as published at `at`:
    /// the half of [`Info::digest`] a torn descriptor fails. Reads nothing
    /// outside the descriptor.
    pub(crate) fn sealed_by(&self, at: u64, cp: u64) -> bool {
        seals_head(self.digest_head(at).0, cp)
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
    pub unsafe fn validates(&self, b: Base, at: u64, cp: u64) -> bool {
        let (h, s) = self.digest_head(at);
        let done = || self.meta.peek() & DONE != 0;
        let nodes_match = || {
            #[cfg(test)]
            VALIDATES_RACE.with(|f| f.take().map(|f| f()));
            // SAFETY: the caller's, the descriptor half matching.
            cp as u32 == unsafe { self.digest_nodes(b, h, s) } as u32
        };
        seals_head(h, cp) && (done() || nodes_match() || done())
    }

    /// The digest state after `at` and the descriptor's persisted words,
    /// `DONE` masked, with the shape they claim. Uninstrumented reads: the
    /// digest adds no instruction a crash can land on.
    fn digest_head(&self, at: u64) -> (u64, Shape) {
        let meta = self.meta.peek();
        let s = Shape::of(meta);
        let mut h = absorb(absorb(DIGEST_SEED, at), meta & !DONE);
        h = absorb(h, self.presult.peek());
        for w in &self.sets[..s.words().min(SET_WORDS)] {
            h = absorb(h, w.peek());
        }
        (h, s)
    }

    /// [`Info::digest_head`]'s state `h` continued over every word of every
    /// new node, finished.
    ///
    /// # Safety
    /// As [`Info::digest`].
    unsafe fn digest_nodes(&self, b: Base, mut h: u64, s: Shape) -> u64 {
        for k in 0..s.nn {
            let cell = self.sets[s.newset(k)].peek();
            for j in (0..s.node_words as u64).rev() {
                // SAFETY: word `j` before the cell, inside its node (caller).
                h = absorb(h, unsafe { (*b.at::<PWord<M>>(cell - j * Self::WORD)).peek() });
            }
        }
        finish(h)
    }

    /// Attach-time census fix-up for a descriptor that survived a process
    /// restart in a mapped arena: overwrites the volatile bookkeeping — the
    /// reference count (recomputed from the quiescent structure), the owner
    /// pool handle (the dead process's pool is gone), and the shared flag
    /// (a surviving descriptor was published, so it must take the EBR path
    /// when it is eventually released).
    ///
    /// # Safety
    /// Quiescent exclusive access (attach-time recovery only); `count` must
    /// equal the number of places that reference this descriptor (info
    /// cells holding its address plus `RD_q` slots naming it), `owner`
    /// must be the new structure's Info-pool handle (or null).
    pub unsafe fn reset_after_attach(&self, count: u32, owner: *const ()) {
        self.installs.store(count, Ordering::Release);
        self.owner.store(owner as *mut (), Ordering::Release);
        self.shared.store(true, Ordering::Release);
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
        let (cell, expected) = unsafe { r.affect_at(b, k) };
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
                if merged { unsafe { link_took_effect(b, r, s, tagged_val) } } else { r.done() };
            if completed {
                return complete::<M, ARM>(b, r, tagged_val, untagged_val, s);
            }
            // ---- Backtrack phase: untag the prefix, in reverse order ----
            // Recorded first: whoever fails later sees a value this
            // backtrack untagged, so it reads the furthest position too.
            let tagged_upto = r.failed_at.fetch_max(k as u8, Ordering::SeqCst).max(k as u8);
            let mut j = k;
            while j > 0 {
                j -= 1;
                let (c, _) = unsafe { r.affect_at(b, j) };
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
            let (cell, _) = unsafe { r.affect_at(b, k) };
            arm::pwb_arm::<M, ARM>(cell);
        }
    } else {
        // Hardening beyond the paper's pseudocode: positions this caller did
        // not visit (position 0 for helpers) may carry a tag whose write-back
        // the crashed invoker never completed. Re-flush them so no update is
        // ever durable while a tag it depends on is not (DESIGN.md §4).
        for k in 0..start {
            let (cell, _) = unsafe { r.affect_at(b, k) };
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
        let cell = unsafe { r.cell_at(b, w) };
        let old = M::load(&r.sets[w + 1]);
        let new = M::load(&r.sets[w + 2]);
        let seen = cell.cas(old, new); // idempotent: fails silently on re-execution
        in_place &= seen == old || seen == new;
        arm::pwb_arm::<M, ARM>(cell);
    }
    if merged && !in_place && !unsafe { link_took_effect(b, r, s, tagged_val) } {
        // The tags were won over an `expected` that a crash image restored
        // while another operation's write stands: this attempt can never
        // take effect. Take the tag back, durably, before anyone else acts
        // on it. A write that is gone once the linked node lost the tag is
        // a link a later operation moved on after `DONE`: the insert's,
        // whose deletion-tagged `curr` keeps the tag, so a helper that met a
        // resurrected tag gets this far and completes.
        let (cell, _) = unsafe { r.affect_at(b, 0) };
        let _ = cell.cas(tagged_val, untagged_val);
        arm::pwb_arm::<M, ARM>(cell);
        M::psync();
        return HelpOutcome::FailedAt(0);
    }
    debug_assert_ne!(M::load(&r.presult), RES_BOT, "presult is precomputed before publication");
    complete::<M, ARM>(b, r, tagged_val, untagged_val, s)
}

/// Whether every write of `r` holds its new value (a merged operation's
/// proof of effect, see [`help`]).
///
/// # Safety
/// As [`help`].
unsafe fn writes_in_place<M: Persist>(b: Base, r: &Info<M>, s: Shape) -> bool {
    (0..s.nw).all(|k| {
        let w = s.write(k);
        // SAFETY: a write entry names a cell of a node the caller's pin keeps
        // live ([`help`]'s contract).
        let cell = unsafe { r.cell_at(b, w) };
        M::load(cell) == M::load(&r.sets[w + 2])
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
unsafe fn link_took_effect<M: Persist>(b: Base, r: &Info<M>, s: Shape, tagged_val: u64) -> bool {
    // SAFETY: a new-set entry names a cell of a node the descriptor
    // installs, which the caller's pin keeps live ([`help`]'s contract).
    if s.nn > 0 && M::load(unsafe { r.cell_at(b, s.newset(0)) }) == tagged_val {
        unsafe { writes_in_place(b, r, s) }
    } else {
        r.done()
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
#[inline(always)]
fn complete<M: Persist, const ARM: u8>(
    b: Base,
    r: &Info<M>,
    tagged_val: u64,
    untagged_val: u64,
    s: Shape,
) -> HelpOutcome {
    r.mark(DONE);
    arm::pwb_arm::<M, ARM>(&r.meta);
    M::psync();

    // ---- Cleanup phase --------------------------------------------------
    for k in 0..s.na {
        if s.del_mask & (1 << k) != 0 {
            continue; // deletion-tagged: stays tagged forever (mark bit)
        }
        // SAFETY: descriptor cells stay live per the help() contract.
        let (cell, _) = unsafe { r.affect_at(b, k) };
        let _ = cell.cas(tagged_val, untagged_val);
        if !arm::is_lp(ARM) {
            arm::pwb_arm::<M, ARM>(cell);
        }
    }
    for k in 0..s.nn {
        // SAFETY: as above.
        let cell = unsafe { r.cell_at(b, s.newset(k)) };
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
            let (cell, _) = unsafe { r.affect_at(b, k) };
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
            let (cell, _) = unsafe { r.affect_at(b, k) };
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
        let info = Box::into_raw(Box::new(Info::<M>::fresh()));
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
        let info = Box::into_raw(Box::new(Info::<M>::fresh()));
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

    /// Fills `info` with shape `na / nw / nn` over dummy cells.
    fn fill_shape(info: &mut Info<M>, (na, nw, nn): (usize, usize, usize)) {
        let fill = InfoFill {
            optype: 1,
            affect: &[(0x8, 0); MAX_AFFECT + 1][..na],
            write: &[(0x8, 0, 0); MAX_WRITE + 1][..nw],
            newset: &[0x8; MAX_NEW + 1][..nn],
            node_words: 3,
            del_mask: 0,
            presult: RES_TRUE,
        };
        // SAFETY: a fresh descriptor, ours alone.
        unsafe { Info::fill(info, &fill) };
    }

    /// The lines the pre-publication barrier writes back, per descriptor
    /// shape the structures build (`naffect / nwrite / nnew`): a read-only
    /// descriptor and both queue operations one, the list's and the BST's
    /// updates two. Each range ends before the volatile words, which share
    /// the second line.
    #[test]
    fn each_descriptor_shape_fits_its_line_budget() {
        let _gate = crate::counters::gate_shared();
        assert_eq!(size_of::<Info<nvm::RealNvm>>(), 128, "two lines, volatile words included");
        assert_eq!(size_of::<Info<M>>(), 128);
        assert_eq!(size_of::<Info<nvm::MappedNvm>>(), 128);
        let volatile = std::mem::offset_of!(Info<M>, installs);
        let shapes = [
            ("read-only", (1, 0, 0), 1),
            ("enqueue", (1, 1, 1), 1),
            ("dequeue", (1, 1, 0), 1),
            ("list insert", (2, 1, 2), 2),
            ("list delete", (2, 1, 0), 2),
            ("BST insert", (2, 1, 3), 2),
            ("BST delete", (4, 1, 1), 2),
        ];
        for (name, shape, lines) in shapes {
            let mut info = Info::<M>::fresh();
            fill_shape(&mut info, shape);
            let (start, len) = info.used_range();
            assert_eq!(start, &info as *const _ as *const u8, "{name}: the range starts at it");
            assert_eq!(nvm::flush::lines_in_range(start, len), lines, "{name}");
            assert!(len <= volatile, "{name}: the range reaches the volatile words");
        }
    }

    /// A shape past the twelve set words would write into the volatile
    /// words: `fill` refuses it in every build.
    #[test]
    #[should_panic(expected = "exceeds its 12 set words")]
    fn fill_refuses_an_over_capacity_shape() {
        let _gate = crate::counters::gate_shared();
        fill_shape(&mut Info::fresh(), (4, 1, 3));
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
