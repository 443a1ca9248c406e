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
//!      response is the one precomputed at the fill.
//!    * **Cleanup**: untag every affect/new node still in the structure;
//!      deletion-tagged positions (mask bit set) stay tagged forever,
//!      doubling as Harris mark bits.
//!
//! ### Layout
//!
//! The descriptor's words and what `fill` stores of them are
//! [`crate::info`]'s: one cache line for every map, list, stack and queue
//! descriptor, two for the BST's updates. Everything here reads the sets
//! through its accessors.
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
use crate::tag::{self, Base};
use nvm::{PWord, Persist};
use reclaim::Guard;
use std::sync::atomic::Ordering;

pub use crate::info::{
    res_val, val_of, Info, InfoFill, InfoPair, Lines, MAX_AFFECT, MAX_NEW, MAX_WRITE, RES_BOT,
    RES_EMPTY, RES_FALSE, RES_TRUE, RES_UNIT, RES_VAL_BASE,
};
pub(crate) use crate::info::{Shape, DONE, LINK, SEALED};

impl<M: Persist> Info<M> {
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
        let (cell, expected) = unsafe { Info::affect_at(info, b, s, k) };
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
                let (c, _) = unsafe { Info::affect_at(info, b, s, j) };
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
            let (cell, _) = unsafe { Info::affect_at(info, b, s, k) };
            arm::pwb_arm::<M, ARM>(cell);
        }
    } else {
        // Hardening beyond the paper's pseudocode: positions this caller did
        // not visit (position 0 for helpers) may carry a tag whose write-back
        // the crashed invoker never completed. Re-flush them so no update is
        // ever durable while a tag it depends on is not (DESIGN.md §4).
        for k in 0..start {
            let (cell, _) = unsafe { Info::affect_at(info, b, s, k) };
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
    if s.nw > 0 {
        // SAFETY: the write names a cell of a node the caller's pin keeps live.
        let (cell, old, new) = unsafe { Info::write_at(info, s, M::load) };
        let cell = unsafe { &*b.at::<PWord<M>>(cell) };
        let seen = cell.cas(old, new); // idempotent: fails silently on re-execution
        in_place = seen == old || seen == new;
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
        let (cell, _) = unsafe { Info::affect_at(info, b, s, 0) };
        let _ = cell.cas(tagged_val, untagged_val);
        arm::pwb_arm::<M, ARM>(cell);
        M::psync();
        return HelpOutcome::FailedAt(0);
    }
    debug_assert_ne!(r.result(), RES_BOT, "the response is precomputed before publication");
    unsafe { complete::<M, ARM>(b, info, tagged_val, untagged_val, s) }
}

/// Whether every write of `r` holds its new value (a merged operation's
/// proof of effect, see [`help`]).
///
/// # Safety
/// As [`help`].
unsafe fn writes_in_place<M: Persist>(b: Base, info: *const Info<M>, s: Shape) -> bool {
    // SAFETY: the write names a cell of a node the caller's pin keeps live
    // ([`help`]'s contract).
    s.nw == 0
        || unsafe {
            let (cell, _, new) = Info::write_at(info, s, M::load);
            M::load(&*b.at::<PWord<M>>(cell)) == new
        }
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
        let (cell, _) = unsafe { Info::affect_at(info, b, s, k) };
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
/// published. Returns the operation's response, once `DONE` is
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
    let s = r.shape();
    let naffect = s.na;
    if !M::MAPPED {
        for k in 0..naffect {
            let (cell, _) = unsafe { Info::affect_at(info, b, s, k) };
            let seen = M::load(cell);
            if tag::is_tagged(seen) && seen != tagged_val {
                let _ = unsafe { help::<M, ARM>(b, b.at(seen), false, guard) };
            }
        }
    }
    let done = unsafe { help::<M, ARM>(b, info, true, guard) } == HelpOutcome::Done;
    let res = if done { r.result() } else { RES_BOT };
    if res == RES_BOT {
        let mut untagged = false;
        for k in (0..naffect).rev() {
            let (cell, _) = unsafe { Info::affect_at(info, b, s, k) };
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
    use crate::info::{block_bytes, LINE_SETS, PAIR_SETS};
    use crate::pool::PoolItem;
    use nvm::{CountingNvm, PWord, PersistWords};
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

    /// An [`InfoFill`] that owns its sets.
    struct Fill {
        affect: Vec<(u64, u64)>,
        write: Vec<(u64, u64, u64)>,
        newset: Vec<u64>,
        node_words: u8,
        del_mask: u8,
        presult: u64,
    }

    impl Fill {
        fn get(&self) -> InfoFill<'_> {
            InfoFill {
                optype: 1,
                affect: &self.affect,
                write: &self.write,
                newset: &self.newset,
                node_words: self.node_words,
                del_mask: self.del_mask,
                presult: self.presult,
            }
        }
    }

    /// Every shape the structures build, over nodes at made-up link words
    /// that nothing dereferences: `(name, class, fill, set words stored)`.
    /// The set core's nodes are `{key, next, info}`, the queue's `{val, next,
    /// info}` behind the anchor `{ptr, info, tail}`, the BST's `{key, left,
    /// right, info}`; every info cell is its node's last word.
    fn shapes() -> Vec<(&'static str, Lines, Fill, usize)> {
        const W: u64 = size_of::<PWord<M>>() as u64;
        let cell = |node: u64, words: u64| node + (words - 1) * W;
        // Expected info words.
        let (e0, e1, e2, e3) = (0x2000, 0x2040, 0x2080, 0x20c0);
        // Set core: pred, curr, newnd, newcurr, succ.
        let (p, c, nd, nc, succ) = (0x1000, 0x1040, 0x1080, 0x10a0, 0x10c0);
        let affect = vec![(cell(p, 3), e0), (cell(c, 3), e1)];
        let link = |presult| Fill {
            affect: affect.clone(),
            write: vec![(p + W, c, nd)],
            newset: vec![cell(nd, 3), cell(nc, 3)],
            node_words: 3,
            del_mask: 0b10,
            presult,
        };
        let unlink = |presult| Fill {
            affect: affect.clone(),
            write: vec![(p + W, c, succ)],
            newset: vec![],
            node_words: 0,
            del_mask: 0b10,
            presult,
        };
        let read_only = |at, presult| Fill {
            affect: vec![(at, e1)],
            write: vec![],
            newset: vec![],
            node_words: 0,
            del_mask: 0,
            presult,
        };
        // Queue: the anchor, the last node, the new one, the sentinel, the first.
        let (anchor, last, new, sentinel, first) = (0x1200, 0x1240, 0x1260, 0x1280, 0x12a0);
        // BST: grandparent, parent, leaf, sibling; the insert's internal,
        // new leaf and copy of the leaf; the delete's copy of the sibling.
        let (gp, par, leaf, sib) = (0x1400, 0x1440, 0x1480, 0x14c0);
        let (internal, new_leaf, copy, sib_copy) = (0x1500, 0x1540, 0x1580, 0x15c0);
        vec![
            ("set insert", Lines::One, link(RES_TRUE), 6),
            ("push", Lines::One, link(RES_UNIT), 6),
            ("delete", Lines::One, unlink(RES_TRUE), 5),
            ("pop, a value response", Lines::One, unlink(res_val(42)), 6),
            (
                "enqueue",
                Lines::One,
                Fill {
                    affect: vec![(cell(last, 3), e0)],
                    write: vec![(last + W, 0, new)],
                    newset: vec![cell(new, 3)],
                    node_words: 3,
                    del_mask: 0,
                    presult: RES_UNIT,
                },
                4,
            ),
            (
                "dequeue, a value response",
                Lines::One,
                Fill {
                    affect: vec![(anchor + W, e0)],
                    write: vec![(anchor, sentinel, first)],
                    newset: vec![],
                    node_words: 0,
                    del_mask: 0,
                    presult: res_val(7),
                },
                5,
            ),
            (
                "a cell no affect entry yields",
                Lines::One,
                Fill {
                    affect: vec![(cell(c, 3), e1)],
                    write: vec![(0x3000, 0, 1)],
                    newset: vec![],
                    node_words: 0,
                    del_mask: 0,
                    presult: RES_TRUE,
                },
                5,
            ),
            ("read-only find", Lines::One, read_only(cell(c, 3), RES_FALSE), 2),
            ("read-only dequeue", Lines::One, read_only(anchor + W, RES_EMPTY), 2),
            ("read-only, a two-line block", Lines::Two, read_only(cell(leaf, 4), RES_TRUE), 2),
            (
                "BST insert",
                Lines::Two,
                Fill {
                    affect: vec![(cell(par, 4), e1), (cell(leaf, 4), e2)],
                    write: vec![(par + W, leaf, internal)],
                    newset: vec![cell(internal, 4), cell(new_leaf, 4), cell(copy, 4)],
                    node_words: 4,
                    del_mask: 0b10,
                    presult: RES_TRUE,
                },
                7,
            ),
            (
                "BST delete",
                Lines::Two,
                Fill {
                    affect: vec![
                        (cell(gp, 4), e0),
                        (cell(par, 4), e1),
                        (cell(leaf, 4), e2),
                        (cell(sib, 4), e3),
                    ],
                    write: vec![(gp + 2 * W, par, sib_copy)],
                    newset: vec![cell(sib_copy, 4)],
                    node_words: 4,
                    del_mask: 0b1110,
                    presult: RES_TRUE,
                },
                9,
            ),
        ]
    }

    /// Every shape reads back what it was filled with — each affect pair,
    /// the write's `(cell, old, new)`, each new cell and the response —
    /// whether a word was stored or computed from the others.
    #[test]
    fn every_shape_reads_back_what_it_was_filled_with() {
        let _gate = crate::counters::gate_shared();
        for (name, lines, fill, words) in shapes() {
            let info = boxed(lines);
            // SAFETY: the test's own descriptor, freed once; no read below
            // dereferences a cell.
            unsafe {
                Info::fill(info, &fill.get());
                let (i, s) = (&*info, (*info).shape());
                assert_eq!(s.words(), words, "{name}: set words stored");
                assert_eq!(i.result(), fill.presult, "{name}: the response");
                let at = |w| Info::set(info, w).load();
                let affect: Vec<_> =
                    (0..s.na).map(|k| (at(s.affect(k)), at(s.affect(k) + 1))).collect();
                assert_eq!(affect, fill.affect, "{name}: the affect set");
                let write: Vec<_> =
                    (0..s.nw).map(|_| Info::write_at(info, s, PWord::load)).collect();
                assert_eq!(write, fill.write, "{name}: the write");
                let newset: Vec<_> =
                    (0..s.nn).map(|k| Info::new_cell(info, s, k, PWord::load)).collect();
                assert_eq!(newset, fill.newset, "{name}: the new set");
                assert_eq!((s.del_mask, s.node_words), (fill.del_mask, fill.node_words as usize));
                Info::<M>::drop_boxed(info.cast());
            }
        }
    }

    /// The lines the pre-publication barrier writes back, per descriptor
    /// shape the structures build, in the class it is drawn from: every
    /// map, list, stack and queue shape and every read-only descriptor one
    /// line, the BST's updates two. Each range starts at the block and ends
    /// inside it; the insert and the push fill their one line.
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
        for (name, lines, fill, words) in shapes() {
            let info = boxed(lines);
            // SAFETY: the test's own descriptor.
            unsafe { Info::fill(info, &fill.get()) };
            let (start, len) = unsafe { Info::words(info) }.used_range();
            assert_eq!(start, info as *const u8, "{name}: the range starts at the block");
            let want = if words <= LINE_SETS { 1 } else { 2 };
            assert_eq!(nvm::flush::lines_in_range(start, len), want, "{name}");
            assert_eq!(len, 16 + 8 * words, "{name}: the range's bytes");
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
        let enqueue = shapes().into_iter().find(|s| s.0 == "enqueue").unwrap().2;
        unsafe {
            *std::ptr::addr_of_mut!((*info).lines) = Lines::One as u8;
            Info::fill(info, &enqueue.get());
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

    /// A shape past a one-line descriptor's six set words — the BST
    /// insert's seven — would write into the next block: `fill` refuses it
    /// in every build.
    #[test]
    #[should_panic(expected = "exceeds its 6 set words")]
    fn fill_refuses_an_over_capacity_shape() {
        let _gate = crate::counters::gate_shared();
        let insert = shapes().into_iter().find(|s| s.0 == "BST insert").unwrap().2;
        // SAFETY: a fresh descriptor, ours alone.
        unsafe { Info::fill(boxed(Lines::One), &insert.get()) };
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
