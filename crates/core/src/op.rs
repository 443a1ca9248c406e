//! The one copy of the invocation skeleton every tracked operation shares.
//!
//! ISB-tracking is a generic transformation (Algorithms 1–2): an operation
//! is *gather → persist the descriptor → publish `RD_q` → `Help` → answer*,
//! and its recovery is `Op-Recover` over the published descriptor. A
//! structure supplies only its gather phase (the [`InfoFill`] it builds) and
//! its node shape ([`TrackedNode`]); everything around them lives here, as
//! methods over the structure's [`Env`], each monomorphised per `(M, ARM)` —
//! `ARM` is the persistency placement, a [`crate::arm`] level. The helping
//! procedure itself is [`crate::engine::help`], the per-process recovery
//! line [`crate::recovery::RecArea`].

use crate::arm;
use crate::engine::{Info, InfoFill};
use crate::env::Env;
use crate::pool::{Pool, PoolItem};
use crate::recovery::{op_recover, Recovered};
use crate::tag;
use nvm::{PWord, Persist};
use reclaim::Guard;

/// A node of a descriptor-tracked structure: a pool item with an info word.
pub trait TrackedNode<M: Persist>: PoolItem {
    /// The node's info word (a tagged descriptor pointer, see [`crate::tag`]).
    fn info(&self) -> &PWord<M>;
}

/// Address of a persistent word, as descriptors record cells.
#[inline]
pub fn cell_addr<M: Persist>(w: &PWord<M>) -> u64 {
    w as *const PWord<M> as u64
}

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
        unsafe { Info::<M>::release(tag::ptr_of(prev), 1, g) };
    }

    /// A `find`'s prologue. Returns what `published` starts as: in arms 0/1
    /// the previous descriptor stays published (and held) until the find's
    /// own replaces it. Under `Isb-LP` the prologue is no more than
    /// [`Env::begin`].
    #[inline]
    pub fn begin_find<const ARM: u8>(&self, pid: usize, g: &Guard<'_>) -> u64 {
        if arm::is_lp(ARM) {
            self.begin::<ARM>(pid, g);
            return 0;
        }
        self.rec.begin_readonly(pid)
    }

    /// Draw a descriptor: pool hit, or heap in passthrough mode. A fresh one
    /// per attempt (pointer freshness — the pool's epoch delay keeps a
    /// failed descriptor's address out of circulation while it is visible).
    #[inline]
    pub fn alloc_info(&self) -> *mut Info<M> {
        self.infos.take().unwrap_or_else(Info::alloc)
    }

    /// Persist a filled descriptor — and whatever new nodes the caller noted
    /// (`arm::pwb_obj_arm`) before it — ahead of its publication (paper
    /// line 106, `pbarrier(newcurr, newnd, *opInfo)`).
    ///
    /// # Safety
    /// `info` must be a live, filled descriptor.
    #[inline]
    pub unsafe fn persist_descriptor<const ARM: u8>(&self, info: *mut Info<M>) {
        unsafe {
            if arm::is_tuned(ARM) {
                arm::pwb_obj_arm::<M, _, ARM>(&*info);
                M::pfence(); // order descriptor write-backs before RD_q's
            } else {
                M::pbarrier_obj(&*info);
            }
        }
    }

    /// Publish `info` in `RD_q`, releasing the hold on the descriptor
    /// `published` names (this operation's previous attempt).
    #[inline]
    pub fn publish<const ARM: u8>(
        &self,
        pid: usize,
        info: *mut Info<M>,
        published: &mut u64,
        g: &Guard<'_>,
    ) {
        self.rec.publish_arm::<ARM>(pid, info as u64);
        if *published != 0 && *published != info as u64 {
            unsafe { Info::<M>::release(tag::ptr_of(*published), 1, g) };
        }
        *published = info as u64;
    }

    /// Arms 0/1, an outcome that changes nothing: the ROpt read-only path
    /// (Algorithm 2, lines 73–77). The response is stored into the
    /// descriptor before the one barrier that persists it, the descriptor is
    /// published, and `Help` is never called, so the single affect slot
    /// `seen = (info cell, value read)` is never installed. (Below `Isb-LP`
    /// `publish` is the plain `RD_q` publish, which is also what a `find` —
    /// `CP_q` left at 0 — needs.)
    #[inline]
    pub fn answer_tracked<const ARM: u8>(
        &self,
        pid: usize,
        optype: u8,
        seen: (u64, u64),
        response: u64,
        published: &mut u64,
        g: &Guard<'_>,
    ) {
        debug_assert!(!arm::is_lp(ARM), "Isb-LP answers without a descriptor");
        let info = self.alloc_info();
        unsafe {
            Info::fill(
                info,
                &InfoFill {
                    optype,
                    affect: &[seen],
                    write: &[],
                    newset: &[],
                    del_mask: 0,
                    presult: response,
                },
            );
            M::store(&(*info).result, response);
            self.persist_descriptor::<ARM>(info);
        }
        self.publish::<ARM>(pid, info, published, g);
        unsafe { Info::release(info, 1, g) }; // the never-installed affect slot
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
            Info::<M>::release(tag::ptr_of((*node).info().load()), 1, g);
            pool.retire(node, g);
        }
    }

    /// Generic Op-Recover on the recovery area: `Completed` carries the
    /// crashed operation's persisted (encoded) response; `Restart` means the
    /// caller must re-invoke the operation with its original arguments.
    pub fn recover<const ARM: u8>(&self, pid: usize) -> Recovered {
        // SAFETY: a published descriptor is persisted before publication
        // and stays live while published.
        unsafe { op_recover::<M, ARM>(&self.rec, pid, &self.collector.pin()) }
    }

    /// The *system* half of an invocation, run ahead of the operation:
    /// [`crate::recovery::RecArea::mark_invoked`] (which has the crash-window
    /// argument), then the release of what `Isb-LP`'s glue took out of
    /// `RD_q`. Callers that journal their own intent records around the
    /// structure (write-ahead logs driving a mapped heap) must call this
    /// **before** writing the intent record. Plain in-process use never
    /// needs it: an operation's own prologue runs the glue when this call
    /// has not.
    pub fn note_invocation<const ARM: u8>(&self, pid: usize) {
        let taken = self.rec.mark_invoked::<ARM>(pid);
        if taken != 0 {
            // SAFETY: the glue durably replaced `taken` in `pid`'s `RD_q`,
            // whose owner is the calling thread: the slot's one release.
            unsafe { Info::<M>::release(tag::ptr_of(taken), 1, &self.collector.pin()) };
        }
    }
}
