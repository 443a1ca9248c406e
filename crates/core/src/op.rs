//! The one copy of the invocation skeleton every tracked operation shares.
//!
//! ISB-tracking is a generic transformation (Algorithms 1–2): an operation
//! is *gather → persist the descriptor → publish `RD_q` → `Help` → answer*,
//! and its recovery is `Op-Recover` over the published descriptor. A
//! structure supplies only its gather phase (the [`InfoFill`] it builds) and
//! its node shape ([`TrackedNode`]); everything around them lives here, as
//! methods over the structure's [`Env`] and over one operation's context
//! (`Update`: the helping phase, the read-only answer and the update
//! attempt), each monomorphised per `(M, ARM)` — `ARM` is the persistency
//! placement, a [`crate::arm`] level. The helping
//! procedure itself is [`crate::engine::help`], the per-process recovery
//! line [`crate::recovery::RecArea`].

use crate::arm;
use crate::engine::{help, HelpOutcome, Info, InfoFill, DONE, LINK};
use crate::env::Env;
use crate::pool::{Pool, PoolItem};
use crate::recovery::{op_recover, Recovered};
use crate::tag;
use nvm::{PWord, Persist, PersistWords};
use reclaim::Guard;

/// A node of a descriptor-tracked structure: a pool item with an info word.
pub trait TrackedNode<M: Persist>: PoolItem {
    /// The node's info word (a tagged descriptor link, see [`crate::tag`]).
    fn info(&self) -> &PWord<M>;
}

/// Declares a kind's node shape — all a structure supplies beyond its gather
/// phase: a `repr(C)` struct of persistent words, one of them `info`, with
/// its [`nvm::PersistWords`], an `init` that rewrites every word (a drawn
/// node is dirty), and the [`PoolItem`] / [`TrackedNode`] / `Drop` impls
/// that count it as a node.
macro_rules! tracked_node {
    ($(#[$doc:meta])* $name:ident { $($word:ident),+ }) => {
        $(#[$doc])*
        #[repr(C)]
        pub struct $name<M: nvm::Persist> {
            $($word: nvm::PWord<M>),+
        }

        // SAFETY: every word, the only fields of a `repr(C)` struct.
        unsafe impl<M: nvm::Persist> nvm::PersistWords<M> for $name<M> {
            fn each_word(&self, f: &mut dyn FnMut(&nvm::PWord<M>)) {
                $(f(&self.$word);)+
            }
        }

        impl<M: nvm::Persist> $name<M> {
            /// Words of the node: a descriptor's new-node entry names the
            /// last, `info` ([`crate::engine::InfoFill::node_words`]).
            pub(crate) const WORDS: u8 = [$(stringify!($word)),+].len() as u8;

            /// Initialize a drawn node, every word.
            #[inline]
            fn init(&self, $($word: u64),+) {
                const {
                    assert!(
                        std::mem::offset_of!(Self, info) + size_of::<nvm::PWord<M>>()
                            == size_of::<Self>(),
                        "a publication digest reads a new node back from its info word, the last"
                    )
                };
                $(self.$word.store($word);)+
            }
        }

        impl<M: nvm::Persist> $crate::pool::PoolItem for $name<M> {
            fn fresh() -> Self {
                nvm::stats::count_node_allocs(1);
                $name { $($word: nvm::PWord::new(0)),+ }
            }

            fn count_reuse() {
                nvm::stats::count_node_reuses(1);
            }
        }

        impl<M: nvm::Persist> $crate::op::TrackedNode<M> for $name<M> {
            fn info(&self) -> &nvm::PWord<M> {
                &self.info
            }
        }

        impl<M: nvm::Persist> Drop for $name<M> {
            fn drop(&mut self) {
                nvm::stats::count_node_frees(1);
            }
        }
    };
}
pub(crate) use tracked_node;

/// Frees the `Box<T>` at `p` (drop-time teardown, see
/// [`crate::graph::teardown`]).
///
/// # Safety
/// `p` must be a live `Box<T>` allocation, freed exactly once.
pub unsafe fn drop_raw<T>(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut T) });
}

impl<M: Persist> Env<M> {
    /// An update's prologue: steps 1–2 of the protocol
    /// ([`crate::recovery::RecArea::begin`]) and the release of the `RD_q`
    /// hold on the previous operation's descriptor.
    #[inline]
    pub fn begin<const ARM: u8>(&self, pid: usize, g: &Guard<'_>) {
        let prev = self.rec.begin::<ARM>(pid);
        // SAFETY: `begin` took `prev` out of `pid`'s `RD_q`, whose owner is
        // the calling thread, so this is the slot's one release.
        unsafe { Info::<M>::release(self.rec.base.at(prev), 1, g) };
    }

    /// Draw a descriptor of the structure's class (`Env::lines`) from the
    /// descriptor pools. A fresh one per attempt (pointer freshness — the
    /// pool's epoch delay keeps a failed descriptor's address out of
    /// circulation while it is visible).
    #[inline]
    pub fn alloc_info(&self) -> *mut Info<M> {
        self.infos.take(self.lines)
    }

    /// Persist a filled descriptor — and whatever new nodes the caller noted
    /// (`arm::pwb_obj_arm`) before it — ahead of its publication (paper
    /// line 106, `pbarrier(newcurr, newnd, *opInfo)`). `Isb-LP` only notes
    /// its lines: the publish `psync` writes them back in one window with
    /// `RD_q`'s, and the digest in `CP_q` tells recovery whether all of
    /// them reached media ([`crate::recovery::RecArea::publish_arm`], which
    /// fences first for a recorded invocation).
    ///
    /// # Safety
    /// `info` must be a live, filled descriptor.
    #[inline]
    pub(crate) unsafe fn persist_descriptor<const ARM: u8>(&self, info: *mut Info<M>) {
        unsafe {
            if arm::is_tuned(ARM) {
                arm::pwb_obj_arm::<M, _, ARM>(&Info::words(info));
                if !arm::is_lp(ARM) {
                    M::pfence(); // order descriptor write-backs before RD_q's
                }
            } else {
                M::pbarrier_obj(&Info::words(info));
            }
        }
    }

    /// Publish `info` in `RD_q`, releasing the hold on the descriptor
    /// `published` names (this operation's previous attempt).
    #[inline]
    pub(crate) fn publish<const ARM: u8>(
        &self,
        pid: usize,
        info: *mut Info<M>,
        published: &mut u64,
        g: &Guard<'_>,
    ) {
        let b = self.rec.base;
        let word = b.word(info);
        // SAFETY: the caller publishes the descriptor it filled, whose new
        // nodes it drew.
        unsafe { self.rec.publish_arm::<ARM>(pid, word) };
        if *published != 0 && *published != word {
            unsafe { Info::<M>::release(b.at(*published), 1, g) };
        }
        *published = word;
    }

    /// Retire a node that left the structure, releasing its info reference.
    /// The node was published, so reuse waits out the epoch delay.
    ///
    /// # Safety
    /// `node` must be a live node of `pool`'s structure, unlinked by the
    /// caller's completed operation and retired exactly once.
    #[inline]
    pub unsafe fn retire<N: TrackedNode<M>>(&self, pool: &Pool<N>, node: *mut N, g: &Guard<'_>) {
        unsafe {
            Info::<M>::release(self.rec.base.at((*node).info().load()), 1, g);
            pool.retire(node, g);
        }
    }

    /// Generic Op-Recover on the recovery area: `Completed` carries the
    /// crashed operation's persisted (encoded) response; `Restart` means the
    /// caller must re-invoke the operation with its original arguments.
    pub fn recover<const ARM: u8>(&self, pid: usize) -> Recovered {
        // SAFETY: a published descriptor stays live while published, and is
        // followed only once persisted (arms 0/1) or validated (`Isb-LP`).
        unsafe { op_recover::<M, ARM>(&self.rec, pid, &self.collector.pin()) }
    }

    /// The *system* half of an invocation, run ahead of the operation:
    /// [`crate::recovery::RecArea::mark_invoked`] (which has the crash-window
    /// argument), then the release of what `Isb-LP`'s glue took out of
    /// `RD_q`. Callers that journal their own intent records around the
    /// structure (write-ahead logs driving a mapped heap) must call this
    /// **before** writing the intent record, unless the record carries
    /// `RD_q` itself ([`crate::recovery::mark_recorded`]). Plain in-process
    /// use never needs it: an operation's own prologue runs the glue too
    /// (under `Isb-LP` it then finds the line fresh and persists nothing).
    pub fn note_invocation<const ARM: u8>(&self, pid: usize) {
        let taken = self.rec.mark_invoked::<ARM>(pid);
        if taken != 0 {
            // SAFETY: the glue durably replaced `taken` in `pid`'s `RD_q`,
            // whose owner is the calling thread: the slot's one release.
            unsafe { Info::<M>::release(self.rec.base.at(taken), 1, &self.collector.pin()) };
        }
    }

    /// The end of an operation whose invocation a durable record carried
    /// ([`crate::recovery::mark_recorded`]), `prior` being the `RD_q` the
    /// record holds: the operation's prologue released nothing, so `RD_q`'s
    /// reference on `prior` is released here — once the operation has
    /// returned, and only if it moved `RD_q`. Released any earlier, a
    /// retried attempt could draw `prior` back from the descriptor pool and
    /// publish it, and an effect would then read as "`RD_q` still equals
    /// `prior`": nothing published. `Isb-LP` only (arms 0/1 record nothing).
    pub fn release_prior<const ARM: u8>(&self, pid: usize, prior: u64) {
        const { assert!(arm::is_lp(ARM), "only Isb-LP invocations are recorded") };
        if prior != 0 && self.rec.published(pid) != prior {
            // SAFETY: `RD_q` of `pid`, whose owner is the calling thread,
            // durably names another descriptor now (the publish that moved
            // it synced): the reference it held on `prior` is released once.
            unsafe { Info::<M>::release(self.rec.base.at(prior), 1, &self.collector.pin()) };
        }
    }
}

/// One tracked operation in flight: the context every update, and every
/// read of a set kind, runs its attempts in. Built by the prologue — the
/// pin that covers the whole operation (the previous descriptor's release,
/// every attempt and every retirement; interior `help` calls re-pin through
/// the collector's nested fast path), [`Env::begin`] or a find's read-only
/// glue, and the `published` word. A structure keeps its gather, its
/// descriptor's sets and the work around an attempt's outcome; the steps in
/// between are these methods, the same for every kind:
///
/// * [`Update::helped`] — the helping phase: complete the first tagged
///   gathered descriptor, then gather again;
/// * [`Update::unchanged`] — an outcome that changes nothing (arms 0/1:
///   the ROpt read-only answer);
/// * [`Update::attempt`] — fill → write back the new nodes → persist the
///   descriptor → publish → `Help`, and on failure the release of the
///   affect references that were never installed (DESIGN.md §5).
pub(crate) struct Update<'a, M: Persist, const ARM: u8> {
    env: &'a Env<M>,
    pid: usize,
    /// The descriptor `RD_q` holds for this operation (0: none), released
    /// when a later attempt replaces it.
    published: u64,
    /// The operation's one pin.
    pub(crate) g: Guard<'a>,
}

impl<'a, M: Persist, const ARM: u8> Update<'a, M, ARM> {
    /// An update's prologue ([`Env::begin`]).
    #[inline(always)]
    pub(crate) fn begin(env: &'a Env<M>, pid: usize) -> Self {
        let g = env.collector.pin();
        env.begin::<ARM>(pid, &g);
        Self { env, pid, published: 0, g }
    }

    /// A `find`'s prologue. In arms 0/1 the previous descriptor stays
    /// published (and held) until the find's own answer replaces it. Under
    /// `Isb-LP` the prologue is no more than [`Update::begin`].
    #[inline(always)]
    pub(crate) fn find(env: &'a Env<M>, pid: usize) -> Self {
        if arm::is_lp(ARM) {
            return Self::begin(env, pid);
        }
        let g = env.collector.pin();
        Self { env, pid, published: env.rec.begin_readonly(pid), g }
    }

    /// The helping phase: `Help` the descriptor of the first tagged word of
    /// `infos`, in gather order, and return `true` — the caller gathers
    /// again; `false` when none is tagged.
    ///
    /// # Safety
    /// Each word was read under this operation's pin from a live info cell
    /// of the structure.
    #[inline(always)]
    pub(crate) unsafe fn helped(&self, infos: &[u64]) -> bool {
        let b = self.env.rec.base;
        match infos.iter().find(|&&x| tag::is_tagged(x)) {
            Some(&x) => {
                // SAFETY: a tagged info word names a live descriptor whose
                // cells this pin keeps live (the caller's contract).
                unsafe { help::<M, ARM>(b, b.at(x), false, &self.g) };
                true
            }
            None => false,
        }
    }

    /// An outcome that changes nothing, answered `response`. Arms 0/1 take
    /// the ROpt read-only path (Algorithm 2, lines 73–77): a descriptor,
    /// marked done, is persisted with its response by one barrier and
    /// published, and `Help` is never called, so its single affect slot
    /// `seen = (info cell, value read)` is never installed. (Below `Isb-LP`
    /// the publish is the plain `RD_q` publish, which is also what a `find`
    /// — `CP_q` left at 0 — needs.) `Isb-LP` answers without a descriptor:
    /// the recovery line stays as the invocation glue left it, which
    /// recovery maps to a restart (DESIGN.md §12).
    #[inline(always)]
    pub(crate) fn unchanged(&mut self, optype: u8, seen: (u64, u64), response: u64) {
        if arm::is_lp(ARM) {
            return;
        }
        let env = self.env;
        let info = env.alloc_info();
        // SAFETY: a fresh descriptor from the pool, private to this thread.
        unsafe {
            Info::fill(
                info,
                &InfoFill {
                    optype,
                    affect: &[seen],
                    write: &[],
                    newset: &[],
                    node_words: 0,
                    del_mask: 0,
                    presult: response,
                },
            );
            (*info).mark(DONE);
            env.persist_descriptor::<ARM>(info);
        }
        env.publish::<ARM>(self.pid, info, &mut self.published, &self.g);
        // SAFETY: `RD_q` holds its own reference; this one is the affect
        // slot `Help` never installs.
        unsafe { Info::release(info, 1, &self.g) };
    }

    /// One attempt of the update: fill `info` from `fill` — its `LINK` bit
    /// set under `Isb-LP` when `link` (the write links the new node of
    /// new-set entry 0 and decides the operation, DESIGN.md §4) — write back
    /// each of the `new` nodes, persist the descriptor, publish it and run
    /// `Help` as its invoker. `Ok` once the operation took effect (`DONE`
    /// durable, cleanup run). `Err(i)` when tagging failed at affect
    /// position `i`: the `na − i` references of the positions never
    /// installed are released here; the new nodes' cells keep theirs (the
    /// caller re-tags the nodes for its next attempt or gives them back),
    /// and `RD_q` keeps its own until the next publish or prologue.
    ///
    /// # Safety
    /// `info` is a fresh descriptor ([`Env::alloc_info`]) no other thread
    /// can reach, the sets of `fill` name cells of nodes live under this
    /// operation's pin, and `new` are those of the new-set entries, drawn by
    /// the caller and reachable by nobody else before the publication.
    #[inline(always)]
    pub(crate) unsafe fn attempt<N: PersistWords<M>>(
        &mut self,
        info: *mut Info<M>,
        fill: &InfoFill<'_>,
        link: bool,
        new: &[*mut N],
    ) -> Result<(), usize> {
        let env = self.env;
        // SAFETY: `info` is fresh and private, the new nodes drawn and
        // unpublished (the caller's contract).
        unsafe {
            Info::fill(info, fill);
            if link && arm::is_lp(ARM) {
                (*info).mark(LINK);
            }
            for &n in new {
                arm::pwb_obj_arm::<M, _, ARM>(&*n);
            }
            env.persist_descriptor::<ARM>(info);
        }
        env.publish::<ARM>(self.pid, info, &mut self.published, &self.g);
        // SAFETY: the filled, published descriptor; this pin covers every
        // node its sets name.
        match unsafe { help::<M, ARM>(env.rec.base, info, true, &self.g) } {
            HelpOutcome::Done => Ok(()),
            HelpOutcome::FailedAt(i) => {
                // SAFETY: installs = 1 (RD_q) + na + nn, and positions < i
                // hold the backtracked (untagged) descriptor, a reference
                // each: the na − i others were never installed.
                unsafe { Info::release(info, (fill.affect.len() - i) as u32, &self.g) };
                Err(i)
            }
        }
    }
}
