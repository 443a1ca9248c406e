//! Detectably recoverable FIFO queue: ISB-tracking applied to the
//! Michael–Scott queue (paper Section 5 and supplementary B.2; the paper
//! gives no pseudocode, so the construction — documented in DESIGN.md §6 —
//! is ours).
//!
//! Layout: a sentinel-headed singly-linked list. `Head` lives in an *anchor*
//! — a pseudo-node with `(ptr, info)` fields — so it can be tagged exactly
//! like a node. `Tail` is an uncounted hint, only ever advanced to nodes
//! whose linkage is already durable, so it can never point past the
//! persisted frontier after a crash (it may lag; walking `next` heals it).
//!
//! The tail hint lives **in the anchor**, shared by every thread *and every
//! process* attached to the heap — never cached per attachment. This is
//! load-bearing for reclamation: a dequeue heals the hint away from the old
//! sentinel *before* retiring it, so any walk that starts from the hint
//! either began inside an epoch pin that predates the retirement (EBR keeps
//! the node alive) or reads the healed value. A per-process copy of the
//! hint would break that argument — the hint is carried *across* pins, so a
//! peer's dequeue+retire+recycle can leave a private copy pointing at
//! recycled memory, and a walk starting there reads a node mid-reuse (in
//! the worst case the walker's *own* fresh allocation, whose `next == 0`
//! makes `find_last` return it as "last" and the enqueue link it to
//! itself).
//!
//! * **Enqueue(v)**: locate the last node `l` (tail hint + chase);
//!   AffectSet = `{l}` (update), WriteSet = `{⟨l.next, Null, newnd⟩}`,
//!   NewSet = `{newnd}`; response = ack. After `Help` completes, swing
//!   `Tail`. Under `Isb-LP` the link decides it (`engine::LINK`).
//! * **Dequeue()**: read the anchor's info, `s = Head`, `f = s.next`, then
//!   `s.info` (that order: DESIGN.md §6). Empty (`f = Null`): read-only fast
//!   path returning `Empty`, linearized at the `s.next` read (sound because
//!   `next` is monotonic: Null → node, never back). Otherwise AffectSet =
//!   `{anchor}`, WriteSet = `{⟨Head.ptr, s, f⟩}`, response = `f.val`
//!   (precomputed, immutable). `s` is retired; `f` becomes the sentinel.
//!
//! Pointer freshness holds: `Head.ptr` and `next` fields only ever abandon a
//! value when the node holding/named by it is retired, so stale helper
//! CASes fail silently (same argument as the list).

use crate::arm;
use crate::engine::{
    help, res_val, val_of, HelpOutcome, Info, InfoFill, LINK, RES_EMPTY, RES_UNIT, RES_VAL_BASE,
};
use crate::env::Env;
use crate::graph::{self, Graph};
use crate::op::tracked_node;
use crate::optype;
use crate::pool::Pool;
use crate::recovery::{
    install_roots, AttachEnv, AttachError, MappedLayout, Recovered, Rooted, SlotOps,
};
use crate::tag::{self, Base};
use nvm::mapped::MappedNvm;
use nvm::{PWord, Persist};

/// Structure-kind tag of an `RQueue` entry in a [`crate::store::Store`] catalog.
pub const KIND_QUEUE: u64 = 2;

tracked_node! {
    /// A queue node.
    Node { val, next, info }
}

/// The head anchor: a pseudo-node holding the sentinel pointer and an info
/// cell so dequeues can tag "the head position" like any node, plus the
/// shared tail hint (see module docs for why the hint must not be cached
/// per process).
#[repr(C)]
pub(crate) struct Anchor<M: Persist> {
    ptr: PWord<M>,
    info: PWord<M>,
    tail: PWord<M>,
}

impl<M: Persist> Anchor<M> {
    /// The three words, in order.
    fn words(&self) -> &[PWord<M>] {
        // SAFETY: a `repr(C)` struct of three `PWord<M>` fields is laid out
        // as `[PWord<M>; 3]` (equal types, so no padding between them), and
        // the pointer covers the whole struct.
        unsafe { std::slice::from_raw_parts(self as *const Self as *const PWord<M>, 3) }
    }
}

/// The one construction of the queue's initial shape over its `anchor`:
/// while the anchor names no sentinel, a sentinel drawn from `nodes`,
/// installed before the anchor words that name it ([`install_roots`]). The
/// in-process constructor runs it over an owned zeroed anchor,
/// [`crate::recovery::MappedLayout::open`] over the catalog root block; the
/// links are offsets from `b`.
///
/// # Safety
/// Single-threaded creation; a set anchor names a sentinel built by an
/// earlier run over memory `nodes` draws from (the same heap).
pub(crate) unsafe fn sentinel<M: Persist>(b: Base, nodes: &Pool<Node<M>>, anchor: &Anchor<M>) {
    if anchor.ptr.load() == 0 {
        let s0 = nodes.draw(|n| n.init(0, 0, 0));
        // SAFETY: the sentinel was just drawn and initialised.
        unsafe { install_roots(&[s0], anchor.words(), &[b.word(s0), 0, b.word(s0)]) };
    }
    // Images written before the hint moved into the anchor have a zero
    // third word (root blocks are zeroed at creation, granule-rounded, so
    // the slot exists). Seed it from the sentinel — idempotent, and any
    // stale seed is healed by the first walk.
    if anchor.tail.load() == 0 {
        anchor.tail.store(anchor.ptr.load());
        M::pwb(&anchor.tail);
    }
}

/// Detectably recoverable MS-queue (see module docs). Values must be below
/// `u64::MAX - 16` (result-word encoding).
///
/// # Example: the detectable recovery flow
///
/// A dequeue's response is persisted inside its descriptor before the queue
/// is unlocked, so recovery can return it without dequeuing twice:
///
/// ```
/// use isb::queue::RQueue;
/// use nvm::CountingNvm;
///
/// nvm::tid::set_tid(0);
/// let mut q: RQueue<CountingNvm> = RQueue::new();
/// q.enqueue(0, 5);
/// assert_eq!(q.dequeue(0), Some(5));
///
/// // Crash "just after" the completed dequeue: same response, exactly once.
/// assert_eq!(q.recover_dequeue(0), Some(5));
/// assert_eq!(q.snapshot_vals(), vec![], "value was not dequeued twice");
///
/// // A process that never published anything (process 1) ⇒ recovery
/// // re-invokes the operation.
/// q.recover_enqueue(1, 9);
/// assert_eq!(q.snapshot_vals(), vec![9]);
/// ```
pub struct RQueue<M: Persist, const ARM: u8 = 0> {
    head: Rooted<Anchor<M>>,
    node_pool: Pool<Node<M>>,
    pub(crate) env: Env<M>,
}

unsafe impl<M: Persist, const ARM: u8> Send for RQueue<M, ARM> {}
unsafe impl<M: Persist, const ARM: u8> Sync for RQueue<M, ARM> {}

impl<M: Persist, const ARM: u8> Default for RQueue<M, ARM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const ARM: u8> RQueue<M, ARM> {
    /// New empty queue.
    pub fn new() -> Self {
        let anchor = Anchor { ptr: PWord::new(0), info: PWord::new(0), tail: PWord::new(0) };
        // SAFETY: a new anchor of our own.
        unsafe { Self::over(Env::volatile(), Rooted::Owned(Box::new(anchor))) }
    }

    /// The queue over `head`, its sentinel built or loaded by [`sentinel`].
    ///
    /// # Safety
    /// As [`sentinel`], over the memory `env`'s pools draw from.
    unsafe fn over(mut env: Env<M>, head: Rooted<Anchor<M>>) -> Self {
        let node_pool = env.pool::<_, ARM>();
        unsafe { sentinel(env.rec.base, &node_pool, &head) };
        Self { head, node_pool, env }
    }

    /// Draw a node from the structure's pool, initialized.
    #[inline]
    fn alloc_node(&self, val: u64, next: u64, info: u64) -> *mut Node<M> {
        self.node_pool.draw(|n| n.init(val, next, info))
    }

    /// Locate the last node: start at the tail hint and chase `next`.
    /// Returns `(last, last_info)` with the info read before confirming
    /// `last.next == Null` (gather order matters for freshness).
    unsafe fn find_last(&self) -> (*mut Node<M>, u64, u64) {
        let b = self.env.rec.base;
        unsafe {
            let start = self.head.tail.load();
            let mut n = b.at::<Node<M>>(start);
            loop {
                let info = (*n).info.load();
                let next = (*n).next.load();
                if next == 0 {
                    return (n, info, start);
                }
                n = b.at(next);
            }
        }
    }

    /// Enqueues `v` (always succeeds).
    pub fn enqueue(&self, pid: usize, v: u64) {
        assert!(v < u64::MAX - RES_VAL_BASE, "value too large for result encoding");
        // ONE pin covers the whole operation (see set_core::insert).
        let (env, g, b) = (&self.env, self.env.collector.pin(), self.env.rec.base);
        env.begin::<ARM>(pid, &g);
        let newnd = self.alloc_node(v, 0, 0);
        let mut filled: u64 = 0;
        let mut published: u64 = 0;
        loop {
            let (last, last_info, walk_start) = unsafe { self.find_last() };
            if tag::is_tagged(last_info) {
                unsafe { help::<M, ARM>(b, b.at(last_info), false, &g) };
                continue;
            }
            // A fresh descriptor per attempt (pointer freshness).
            let info = env.alloc_info();
            unsafe {
                let t = tag::tagged(b.word(info));
                if filled != t {
                    if filled != 0 {
                        Info::<M>::release(b.at(filled), 1, &g);
                    }
                    (*newnd).info.store(t);
                    filled = t;
                }
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::ENQ,
                        affect: &[(b.word(&(*last).info), last_info)],
                        write: &[(b.word(&(*last).next), 0, b.word(newnd))],
                        newset: &[b.word(&(*newnd).info)],
                        del_mask: 0,
                        presult: RES_UNIT,
                    },
                );
                if arm::is_lp(ARM) {
                    (*info).mark(LINK); // the link decides the enqueue (DESIGN.md §4)
                }
                arm::pwb_obj_arm::<M, _, ARM>(&*newnd);
                env.persist_descriptor::<ARM>(info);
            }
            env.publish::<ARM>(pid, info, &mut published, &g);
            match unsafe { help::<M, ARM>(b, info, true, &g) } {
                HelpOutcome::Done => {
                    // Swing the tail hint; newnd's linkage is durable by now.
                    // Using the walk's starting value also heals a hint left
                    // stale by a crash image (never moves the hint backward:
                    // success implies the hint still equals walk_start, and
                    // newnd is strictly ahead of it).
                    if self.head.tail.cas(walk_start, b.word(newnd)) != walk_start {
                        let _ = self.head.tail.cas(b.word(last), b.word(newnd));
                    }
                    // Arms 0–2 write the hint back, unfenced, as the frozen
                    // reproductions always did. LP does not: nothing that
                    // recovers reads the durable hint — it may lag by
                    // construction, the dequeue-side swing was never written
                    // back, and `heal_tail` (attach) and `find_last`'s chase
                    // (run time) re-derive the end from `Head` and the
                    // durable `next` links (DESIGN.md §6, §12).
                    if !arm::is_lp(ARM) {
                        M::pwb(&self.head.tail);
                    }
                    return;
                }
                HelpOutcome::FailedAt(i) => {
                    unsafe { Info::<M>::release(info, (1 - i) as u32, &g) };
                }
            }
        }
    }

    /// Dequeues; `None` iff the queue was observed empty.
    pub fn dequeue(&self, pid: usize) -> Option<u64> {
        let (env, g, b) = (&self.env, self.env.collector.pin(), self.env.rec.base);
        env.begin::<ARM>(pid, &g);
        let mut published: u64 = 0;
        loop {
            // Gather order: anchor info, sentinel, its next, its info (DESIGN.md §6).
            let h_info = self.head.info.load();
            let s = b.at::<Node<M>>(self.head.ptr.load());
            let f = unsafe { (*s).next.load() };
            let s_info = unsafe { (*s).info.load() };
            if tag::is_tagged(h_info) {
                unsafe { help::<M, ARM>(b, b.at(h_info), false, &g) };
                continue;
            }
            if tag::is_tagged(s_info) {
                unsafe { help::<M, ARM>(b, b.at(s_info), false, &g) };
                continue;
            }
            if f == 0 {
                // Empty (linearized at the `s.next` read): nothing to change.
                // Arms 0/1 take the ROpt read-only path; `Isb-LP` answers
                // without a descriptor (see `set_core`).
                if !arm::is_lp(ARM) {
                    let seen = (b.word(&self.head.info), h_info);
                    env.answer_tracked::<ARM>(
                        pid,
                        optype::DEQ,
                        seen,
                        RES_EMPTY,
                        &mut published,
                        &g,
                    );
                }
                return None;
            }
            // A fresh descriptor per attempt (pointer freshness).
            let info = env.alloc_info();
            let fval = unsafe { (*b.at::<Node<M>>(f)).val.load() };
            unsafe {
                Info::fill(
                    info,
                    &InfoFill {
                        optype: optype::DEQ,
                        affect: &[(b.word(&self.head.info), h_info)],
                        write: &[(b.word(&self.head.ptr), b.word(s), f)],
                        newset: &[],
                        del_mask: 0,
                        presult: res_val(fval),
                    },
                );
                env.persist_descriptor::<ARM>(info);
            }
            env.publish::<ARM>(pid, info, &mut published, &g);
            match unsafe { help::<M, ARM>(b, info, true, &g) } {
                HelpOutcome::Done => {
                    // Never leave the tail hint pointing at the retired sentinel.
                    let _ = self.head.tail.cas(b.word(s), f);
                    unsafe { env.retire(&self.node_pool, s, &g) };
                    return Some(fval);
                }
                HelpOutcome::FailedAt(i) => {
                    unsafe { Info::<M>::release(info, (1 - i) as u32, &g) };
                }
            }
        }
    }

    /// Failure-report line for `pid`'s recovery slot
    /// ([`crate::recovery::RecArea::describe`]).
    ///
    /// # Safety
    /// As [`crate::recovery::RecArea::describe`].
    pub unsafe fn describe_recovery(&self, pid: usize) -> String {
        unsafe { self.env.rec.describe(pid) }
    }

    /// `Enqueue.Recover`.
    pub fn recover_enqueue(&self, pid: usize, v: u64) {
        if self.env.recover::<ARM>(pid) == Recovered::Restart {
            self.enqueue(pid, v);
        }
    }

    /// `Dequeue.Recover`.
    pub fn recover_dequeue(&self, pid: usize) -> Option<u64> {
        match self.env.recover::<ARM>(pid) {
            Recovered::Completed(RES_EMPTY) => None,
            Recovered::Completed(v) => Some(val_of(v)),
            Recovered::Restart => self.dequeue(pid),
        }
    }

    /// Snapshot of queued values, front to back (requires quiescence).
    pub fn snapshot_vals(&mut self) -> Vec<u64> {
        let (mut out, b) = (Vec::new(), self.env.rec.base);
        unsafe {
            let s = b.at::<Node<M>>(self.head.ptr.load());
            let mut n = b.at::<Node<M>>((*s).next.load());
            while !n.is_null() {
                out.push((*n).val.load());
                n = b.at((*n).next.load());
            }
        }
        out
    }

    /// Quiescent tail-hint repair: points the hint at the true last node.
    /// After a crash the image may have rolled the (uncounted) hint back to
    /// a node that was dequeued before the crash; any recovery pass or first
    /// enqueue performs exactly this repair lazily.
    pub fn heal_tail(&mut self) {
        let b = self.env.rec.base;
        unsafe {
            let mut n = self.head.ptr.load();
            loop {
                let next = (*b.at::<Node<M>>(n)).next.load();
                if next == 0 {
                    break;
                }
                n = next;
            }
            self.head.tail.store(n);
            M::pwb(&self.head.tail);
        }
    }

    /// Completes helping obligations left visible by a crash, on the anchor
    /// and along the sentinel chain; call after every process ran its
    /// `recover_*`. See [`graph::scrub_unit`].
    pub fn scrub(&self) {
        graph::scrub::<M, ARM>(self, &self.env.collector).unwrap_or_else(|e| panic!("{e}"));
    }

    /// The *system* half of an invocation — see
    /// [`crate::hashmap::RHashMap::note_invocation`]: write-ahead-logging
    /// callers must run this before writing their intent record.
    pub fn note_invocation(&self, pid: usize) {
        self.env.note_invocation::<ARM>(pid);
    }

    /// After an operation whose invocation a durable record carried — see
    /// [`crate::hashmap::RHashMap::release_prior`].
    pub fn release_prior(&self, pid: usize, prior: u64) {
        self.env.release_prior::<ARM>(pid, prior);
    }

    /// Structural invariants for a quiescent queue.
    pub fn check_invariants(&mut self) {
        let b = self.env.rec.base;
        unsafe {
            let s = b.at::<Node<M>>(self.head.ptr.load());
            assert!(!s.is_null(), "sentinel must exist");
            assert!(!tag::is_tagged((*s).info.load()), "sentinel tagged at quiescence");
            // The tail hint must point to a node on the sentinel chain.
            let t = b.at::<Node<M>>(self.head.tail.load());
            let mut n = s;
            let mut on_chain = false;
            while !n.is_null() {
                on_chain |= n == t;
                n = b.at((*n).next.load());
            }
            assert!(on_chain, "tail hint left the chain");
        }
    }
}

impl<M: Persist, const ARM: u8> Graph<M> for RQueue<M, ARM> {
    fn kind_name(&self) -> &'static str {
        "queue"
    }

    fn base(&self) -> Base {
        self.env.rec.base
    }

    // The anchor's info cell first (no node: address 0), then the sentinel
    // chain to its null end.
    unsafe fn walk(
        &self,
        _unit: usize,
        admit: &dyn Fn(u64) -> bool,
        mut budget: usize,
        visit: &mut dyn FnMut(u64, u64),
    ) -> Result<(), u64> {
        visit(0, self.head.info.load());
        let mut n = self.head.ptr.load();
        if n == 0 {
            return Err(0); // a queue always has its sentinel
        }
        while n != 0 {
            if budget == 0 || !admit(n) {
                return Err(n);
            }
            budget -= 1;
            let p = self.env.rec.base.at::<Node<M>>(n);
            // SAFETY: non-null and admitted.
            let node = unsafe { &*p };
            visit(p as u64, node.info.load());
            n = node.next.load();
        }
        Ok(())
    }
}

impl MappedLayout for RQueue<MappedNvm, { arm::LP }> {
    const KIND: u64 = KIND_QUEUE;
    type Cfg = ();

    fn cfg_word(_cfg: ()) -> u64 {
        0x51 | (arm::LP as u64) << 32
    }

    fn root_bytes(_cfg: ()) -> usize {
        std::mem::size_of::<Anchor<MappedNvm>>()
    }

    unsafe fn open(env: &AttachEnv, _cfg: (), root: *mut u8) -> Result<Self, AttachError> {
        // SAFETY: zeroed-on-creation committed root block of Anchor size
        // (the `(ptr, info, tail)` words of the `repr(C)` anchor),
        // single-threaded attach, sentinel drawn from the heap's arena.
        let head = Rooted::Arena(root.cast::<Anchor<MappedNvm>>());
        Ok(unsafe { Self::over(env.env(), head) })
    }
}

impl SlotOps for RQueue<MappedNvm, { arm::LP }> {
    fn node_bytes(&self) -> usize {
        std::mem::size_of::<Node<MappedNvm>>()
    }

    fn heal(&mut self) {
        self.heal_tail();
    }

    fn each_cached(&mut self, f: &mut dyn FnMut(usize)) {
        self.node_pool.each_idle(|p| f(p as usize));
    }
}

impl<M: Persist, const ARM: u8> Drop for RQueue<M, ARM> {
    fn drop(&mut self) {
        // SAFETY: quiescent teardown of a structure this value owns.
        unsafe { self.env.teardown::<Node<M>>(&*self) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::CountingNvm;
    use std::sync::Arc;

    type Q = RQueue<CountingNvm, 0>;
    type QOpt = RQueue<CountingNvm, 1>;

    /// The queue's no-effect operation (see the list's test of the same
    /// name): an `Isb-LP` dequeue on empty.
    #[test]
    fn coalescing_no_effect_ops_take_no_descriptor() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let infos0 = crate::counters::live_infos();
        {
            let q = RQueue::<CountingNvm, { crate::arm::LP }>::new();
            q.enqueue(0, 7);
            assert_eq!(q.dequeue(0), Some(7));
            assert_eq!(q.env.rec.read(0).0, 1, "an effectful operation publishes");
            let drawn = (crate::counters::live_infos(), crate::counters::info_reuses());
            assert_eq!(q.dequeue(0), None);
            let after = (crate::counters::live_infos(), crate::counters::info_reuses());
            assert_eq!(after, drawn, "dequeue on empty drew a descriptor");
            assert_eq!(q.env.rec.read(0), (0, 0), "the glue's reset is all it wrote");
        }
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    /// LP never writes the tail hint back, so a crash image may hold the
    /// hint of the last clean start — here a node dequeued since. Recovery
    /// must re-derive the end from `Head`, not follow the hint.
    #[test]
    fn lp_stale_tail_hint_is_healed_not_followed() {
        use nvm::{sim, SimNvm};
        let _gate = crate::counters::gate_shared();
        let _session = crate::simtest::session();
        let mut stale = 0;
        for seed in 0..16 {
            sim::reset();
            nvm::tid::set_tid(0);
            let mut q = RQueue::<SimNvm, { crate::arm::LP }>::new();
            for v in 1..=3 {
                q.enqueue(0, v);
            }
            sim::persist_all(); // the durable hint: node 3
            for v in 1..=3 {
                assert_eq!(q.dequeue(0), Some(v));
            }
            q.enqueue(0, 4);
            q.enqueue(0, 5);
            assert_eq!(q.dequeue(0), Some(4)); // retires node 3, the old sentinel
            let end = q.head.tail.load();
            sim::trigger_crash();
            sim::build_crash_image(seed);
            stale += (q.head.tail.load() != end) as u32;
            q.scrub(); // LP: a completed operation's untag may have rolled back
            q.heal_tail();
            assert_eq!(q.head.tail.load(), end, "seed {seed}: hint healed to the last node");
            q.check_invariants();
            q.enqueue(0, 6);
            assert_eq!(q.snapshot_vals(), vec![5, 6], "seed {seed}");
        }
        assert!(stale > 0, "no image rolled the hint back: the test exercises nothing");
    }

    /// A crash image of an `Isb-LP` enqueue may keep its done bit and lose
    /// its tag and its link: one fence window, three lines. When another
    /// process enqueues before the crashed one recovers, its tag and its
    /// link take the cell, and recovery must restart the crashed enqueue,
    /// not answer it complete from its done bit (DESIGN.md §4). Swept over
    /// every instruction of the crashed enqueue and 16 images; when recovery
    /// decided by the response, fuse 61 of seed 4 lost the value.
    #[test]
    fn lp_enqueue_recovers_by_its_link_not_its_result() {
        use nvm::{sim, SimNvm};
        let _gate = crate::counters::gate_shared();
        let _session = crate::simtest::session();
        let mut crashes = 0;
        for seed in 0..16 {
            for fuse in 1.. {
                sim::reset();
                nvm::tid::set_tid(1);
                let mut q = RQueue::<SimNvm, { crate::arm::LP }>::new();
                sim::persist_all();
                q.enqueue(1, 10);
                if !crate::simtest::crashed_at(fuse, seed, || q.enqueue(1, 20)) {
                    break;
                }
                crashes += 1;
                nvm::tid::set_tid(0);
                q.enqueue(0, 30); // another process, before pid 1 recovers
                nvm::tid::set_tid(1);
                q.recover_enqueue(1, 20);
                q.scrub();
                q.heal_tail();
                q.check_invariants();
                let mut vals = q.snapshot_vals();
                vals.sort_unstable();
                assert_eq!(vals, [10, 20, 30], "fuse {fuse} seed {seed}");
            }
        }
        assert!(crashes > 0, "no crash landed: the test exercises nothing");
    }

    /// An `Isb-LP` enqueue whose cleanup has run is decided by its done bit,
    /// not its link: its predecessor, which holds the link, may by then be
    /// dequeued, freed and reused. Pid 1's enqueue of 10 completes, pid 2
    /// dequeues it (the old sentinel, the predecessor, retires), and the old
    /// sentinel's words are overwritten as its reuse would. Recovery of pid
    /// 1 — a process killed before it acknowledged the enqueue — must answer
    /// `Completed`: decided by the link it restarts, and 10 is enqueued
    /// twice (the shared-heap kill matrix of `restart.rs`, 1 run in 5).
    #[test]
    fn lp_enqueue_is_decided_by_its_done_bit_once_cleaned_up() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(1);
        let q = RQueue::<CountingNvm, { crate::arm::LP }>::new();
        let old = q.env.rec.base.at::<Node<CountingNvm>>(q.head.ptr.load());
        q.enqueue(1, 10);
        let g = q.env.collector.pin(); // the retired sentinel stays allocated
        assert_eq!(q.dequeue(2), Some(10));
        // SAFETY: `old` is retired, not freed, while `g` is pinned.
        let (next, info) = unsafe { (&(*old).next, &(*old).info) };
        let words = [next.load(), info.load()];
        next.store(0);
        info.store(0x4000);
        assert_eq!(q.env.recover::<{ crate::arm::LP }>(1), Recovered::Completed(RES_UNIT));
        next.store(words[0]);
        info.store(words[1]);
        drop(g);
        assert_eq!(q.dequeue(2), None, "10 enqueued once");
    }

    /// An `Isb-LP` dequeue carries no link bit: its write, the head move,
    /// does not decide it — the head moves on — so it keeps its tag-phase
    /// `psync`, and an image that holds its head move holds its anchor tag
    /// too. Without that fence an image may keep the head move and lose the
    /// tag and the done bit; another process's dequeue then tags the anchor
    /// over the same expected value, and the crashed dequeue's recovery
    /// meets a foreign value without its done bit, restarts, and its value
    /// is lost. Swept over every instruction of the crashed dequeue and 16
    /// images, with 20 and 30 queued behind an already dequeued 10.
    #[test]
    fn lp_dequeue_is_decided_by_its_tag() {
        use nvm::{sim, SimNvm};
        let _gate = crate::counters::gate_shared();
        let _session = crate::simtest::session();
        let mut crashes = 0;
        for seed in 0..16 {
            for fuse in 1.. {
                sim::reset();
                nvm::tid::set_tid(1);
                let mut q = RQueue::<SimNvm, { crate::arm::LP }>::new();
                for v in [10, 20, 30] {
                    q.enqueue(1, v);
                }
                sim::persist_all();
                assert_eq!(q.dequeue(1), Some(10));
                if !crate::simtest::crashed_at(fuse, seed, || {
                    q.dequeue(1);
                }) {
                    break;
                }
                crashes += 1;
                nvm::tid::set_tid(0);
                let other = q.dequeue(0); // another process, before pid 1 recovers
                nvm::tid::set_tid(1);
                let mine = q.recover_dequeue(1);
                q.scrub();
                q.heal_tail();
                q.check_invariants();
                let mut vals: Vec<u64> = [other, mine].into_iter().flatten().collect();
                vals.extend(q.snapshot_vals());
                vals.sort_unstable();
                assert_eq!(vals, [20, 30], "fuse {fuse} seed {seed}: {other:?} {mine:?}");
            }
        }
        assert!(crashes > 0, "no crash landed: the test exercises nothing");
    }

    #[test]
    fn fifo_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let q = Q::new();
        assert_eq!(q.dequeue(0), None);
        q.enqueue(0, 10);
        q.enqueue(0, 20);
        q.enqueue(0, 30);
        assert_eq!(q.dequeue(0), Some(10));
        assert_eq!(q.dequeue(0), Some(20));
        q.enqueue(0, 40);
        assert_eq!(q.dequeue(0), Some(30));
        assert_eq!(q.dequeue(0), Some(40));
        assert_eq!(q.dequeue(0), None);
    }

    #[test]
    fn snapshot_and_invariants() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut q = QOpt::new();
        for v in 1..=10u64 {
            q.enqueue(0, v);
        }
        assert_eq!(q.dequeue(0), Some(1));
        assert_eq!(q.snapshot_vals(), (2..=10).collect::<Vec<_>>());
        q.check_invariants();
    }

    #[test]
    fn no_leaks_after_drop() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let mut q = Q::new();
            for v in 0..300u64 {
                q.enqueue(0, v);
            }
            for _ in 0..250 {
                q.dequeue(0);
            }
            q.check_invariants();
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn concurrent_enqueue_dequeue_conserves_values() {
        let _gate = crate::counters::gate_shared();
        let q = Arc::new(Q::new());
        let producers = 2u64;
        let consumers = 2usize;
        let per = 500u64;
        use std::sync::atomic::{AtomicU64, Ordering};
        let consumed = Arc::new(AtomicU64::new(0));
        let mut hs = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            hs.push(std::thread::spawn(move || {
                nvm::tid::set_tid(p as usize);
                for i in 0..per {
                    q.enqueue(p as usize, 1 + p * per + i);
                }
            }));
        }
        for c in 0..consumers {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            hs.push(std::thread::spawn(move || {
                let pid = 10 + c;
                nvm::tid::set_tid(pid);
                let mut got = 0u64;
                let mut sum = 0u64;
                while got < per {
                    if let Some(v) = q.dequeue(pid) {
                        got += 1;
                        sum += v;
                    }
                }
                consumed.fetch_add(sum, Ordering::Relaxed);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let expected: u64 = (1..=producers * per).sum();
        assert_eq!(
            consumed.load(Ordering::Relaxed),
            expected,
            "every value delivered exactly once"
        );
        let mut q = Arc::into_inner(q).unwrap();
        assert_eq!(q.snapshot_vals(), vec![]);
        q.check_invariants();
    }

    #[test]
    fn per_producer_fifo_order_is_preserved() {
        let _gate = crate::counters::gate_shared();
        let q = Arc::new(Q::new());
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            nvm::tid::set_tid(1);
            for i in 1..=1000u64 {
                q2.enqueue(1, i);
            }
        });
        nvm::tid::set_tid(0);
        let mut last = 0u64;
        let mut got = 0;
        while got < 1000 {
            if let Some(v) = q.dequeue(0) {
                assert!(v > last, "FIFO violated: {v} after {last}");
                last = v;
                got += 1;
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn recovery_without_crash_behaves_like_invocation() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut q = Q::new();
        // No operation pending for pid 0: recovery re-invokes the enqueue.
        q.recover_enqueue(0, 5);
        assert_eq!(q.snapshot_vals(), vec![5]);
        // Crash "just after" a completed dequeue: its response is recoverable
        // from RD_q -> result, and recovery returns the same value without
        // re-executing the removal (detectability).
        assert_eq!(q.dequeue(0), Some(5));
        assert_eq!(q.recover_dequeue(0), Some(5));
        assert_eq!(q.snapshot_vals(), vec![], "recovery must not double-dequeue");
        // Empty dequeue's response is likewise recoverable.
        assert_eq!(q.dequeue(0), None);
        assert_eq!(q.recover_dequeue(0), None);
    }
}
