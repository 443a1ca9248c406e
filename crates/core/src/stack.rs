//! Recoverable stack: **direct tracking** on a Treiber stack (paper Sections
//! 1 and 5: "the approach can be combined with a technique we call
//! direct-tracking … to get an elimination stack"). The elimination half,
//! the recoverable exchanger, is [`crate::exchanger::RExchanger`], which
//! stands on its own; the stack does not route collisions through it.
//!
//! Direct tracking (no descriptors): the per-process recovery word `RD_q`
//! names a **node** instead of an Info structure, annotated with
//! [`crate::tag::DIRECT`] so shared-recovery-area neighbours
//! ([`crate::store::Store`]) never misread it as a descriptor.
//!
//! * A **push** announces its node in `RD_q` (durably), links it with one
//!   CAS and persists the link before returning. Post-crash detection: the
//!   push took effect iff the node is reachable, or its `popped_by` stamp
//!   is set (pushed, then popped).
//! * A **pop** announces the observed top in `RD_q` (claim announcement,
//!   [`crate::tag::TAG`] set), then **claims** it by CASing its `popped_by`
//!   word from 0 to `pid+1` — the arbitration deciding which popper owns
//!   the removal across a crash — persists the claim, then unlinks
//!   (helping poppers unlink claimed nodes they encounter).
//!
//! The paper assumes garbage collection, under which a node named by some
//! `RD_q` is never reused. We emulate that root: a claimed node is retired
//! only on its claimant's *next* operation (when its `RD_q` has moved on),
//! and the retirement first scans the recovery area — a node still
//! announced by another process parks in a limbo list instead of
//! re-entering the pool, so no crash can observe a recycled announcement.
//! (Mapped mode: limbo blocks stay committed and the next attach sweeps
//! them.)

use crate::counters;
use crate::engine::{res_val, val_of, RES_UNIT};
use crate::env::Env;
use crate::graph::{self, Graph};
use crate::pool::{Pool, PoolItem};
use crate::recovery::{AttachEnv, AttachError, MappedLayout, Recovered, Rooted, SlotOps};
use crate::tag;
use nvm::mapped::MappedNvm;
use nvm::pad::CachePadded;
use nvm::{PWord, Persist, PersistWords, MAX_PROCS};
use reclaim::Guard;
use std::cell::UnsafeCell;
use std::sync::Mutex;

/// Structure-kind tag of an `RStack` entry in a [`crate::store::Store`] catalog.
pub const KIND_STACK: u64 = 5;

/// A stack node.
#[repr(C)]
pub struct Node<M: Persist> {
    val: PWord<M>,
    next: PWord<M>,
    /// 0 = live; `pid+1` = claimed by that popper.
    popped_by: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for Node<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.val);
        f(&self.next);
        f(&self.popped_by);
    }
}

impl<M: Persist> Node<M> {
    fn alloc(val: u64, next: u64) -> *mut Node<M> {
        counters::node_alloc();
        Box::into_raw(Box::new(Node {
            val: PWord::new(val),
            next: PWord::new(next),
            popped_by: PWord::new(0),
        }))
    }

    /// Re-initialize a pool-recycled node (clears the claim stamp).
    fn init(&self, val: u64, next: u64) {
        self.val.store(val);
        self.next.store(next);
        self.popped_by.store(0);
    }
}

impl<M: Persist> PoolItem for Node<M> {
    fn fresh() -> Self {
        counters::node_alloc();
        Node { val: PWord::new(0), next: PWord::new(0), popped_by: PWord::new(0) }
    }

    fn count_reuse() {
        counters::node_reuse();
    }
}

impl<M: Persist> Drop for Node<M> {
    fn drop(&mut self) {
        counters::node_free();
    }
}

/// Reads the claim stamp (`popped_by`) of the direct-tracked node at `node`
/// — the word the recovery decision arbitrates on.
///
/// # Safety
/// `node` must be a whole-node span inside live memory (attach-time callers
/// span-validate it against the mapping first).
pub(crate) unsafe fn direct_stamp<M: Persist>(node: u64) -> u64 {
    unsafe { (*(node as *const Node<M>)).popped_by.peek() }
}

/// Reads the payload value of the direct-tracked node at `node`.
///
/// # Safety
/// As [`direct_stamp`].
pub(crate) unsafe fn direct_val<M: Persist>(node: u64) -> u64 {
    unsafe { (*(node as *const Node<M>)).val.peek() }
}

/// Exclusive bound on a pushed value.
const VALUE_LIMIT: u64 = (1 << 61) - 16;

/// Recoverable stack (see module docs). Values must stay below
/// `2^61 - 16`.
pub struct RStack<M: Persist> {
    top: Rooted<PWord<M>>,
    node_pool: Pool<Node<M>>,
    /// Its recovery words (`RD_q`/`CP_q`) are what direct tracking uses.
    pub(crate) env: Env<M>,
    /// Deferred retirement: the node each process claimed with its *last*
    /// pop, retired on that process's next operation (once `RD_q` no longer
    /// names it). Each slot is touched only by its owning process.
    pending: Vec<CachePadded<UnsafeCell<*mut Node<M>>>>,
    /// Unlinked nodes that could not be recycled because some `RD_q` still
    /// announces them (or because a helper unlinked them on the claimant's
    /// behalf). Freed at drop; in mapped mode the next attach sweeps them.
    limbo: Mutex<Vec<*mut Node<M>>>,
}

unsafe impl<M: Persist> Send for RStack<M> {}
unsafe impl<M: Persist> Sync for RStack<M> {}

impl<M: Persist> Default for RStack<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist> RStack<M> {
    /// New empty stack.
    pub fn new() -> Self {
        Self::over(Rooted::Owned(Box::new(PWord::new(0))), Env::volatile())
    }

    fn over(top: Rooted<PWord<M>>, mut env: Env<M>) -> Self {
        Self {
            top,
            // Direct tracking runs the paper's prologue (`begin::<0>`).
            node_pool: env.pool::<_, { crate::arm::PAPER }>(),
            env,
            pending: (0..MAX_PROCS)
                .map(|_| CachePadded::new(UnsafeCell::new(std::ptr::null_mut())))
                .collect(),
            limbo: Mutex::new(Vec::new()),
        }
    }

    /// Draw a node: pool hit (re-initialized), or heap in passthrough mode.
    #[inline]
    fn alloc_node(&self, val: u64, next: u64) -> *mut Node<M> {
        self.node_pool.draw(|n| n.init(val, next), || Node::alloc(val, next))
    }

    /// Whether any *other* process's `RD_q` still announces `n` (push or
    /// claim announcement). Such a node must not re-enter circulation: its
    /// claim stamp is what that process's recovery will read.
    fn announced_elsewhere(&self, pid: usize, n: *mut Node<M>) -> bool {
        let mut found = false;
        for q in 0..MAX_PROCS {
            if q == pid {
                continue;
            }
            let rd = self.env.rec.published(q);
            if tag::is_direct(rd) && tag::addr_of(rd) == n as u64 {
                found = true;
            }
        }
        found
    }

    /// Retires the node this process's previous pop claimed, now that its
    /// `RD_q` has moved on (deferred retirement — the GC-root emulation of
    /// the module docs).
    fn flush_pending(&self, pid: usize, g: &Guard<'_>) {
        // SAFETY: each pending slot is touched only by its owning process.
        let slot = unsafe { &mut *self.pending[pid].get() };
        let n = *slot;
        if n.is_null() {
            return;
        }
        *slot = std::ptr::null_mut();
        if self.announced_elsewhere(pid, n) {
            self.limbo.lock().unwrap().push(n);
        } else {
            // SAFETY: the node was claimed and unlinked by this process and
            // no RD_q names it any more; retired exactly once (the slot is
            // cleared above).
            unsafe { self.node_pool.retire(n, g) };
        }
    }

    /// Pushes `v`.
    pub fn push(&self, pid: usize, v: u64) {
        assert!(v < VALUE_LIMIT, "value too large");
        let g = self.env.collector.pin();
        self.env.begin::<0>(pid, &g);
        self.flush_pending(pid, &g);
        let node = self.alloc_node(v, 0);
        unsafe {
            M::pwb_obj(&*node);
        }
        // Direct tracking: announce the node durably BEFORE it can become
        // reachable, so a crash after the link CAS finds RD_q naming it.
        self.env.rec.publish(pid, node as u64 | tag::DIRECT);
        loop {
            let t = (*self.top).load();
            unsafe { (*node).next.store(t) };
            M::pwb(unsafe { &(*node).next });
            M::pfence();
            if (*self.top).cas(t, node as u64) == t {
                M::pwb(&self.top);
                M::psync();
                return;
            }
        }
    }

    /// Pops; `None` when empty.
    pub fn pop(&self, pid: usize) -> Option<u64> {
        let g = self.env.collector.pin();
        self.env.begin::<0>(pid, &g);
        self.flush_pending(pid, &g);
        loop {
            let t = (*self.top).load() as *mut Node<M>;
            if t.is_null() {
                // The empty response is not tracked (RD_q stays Null):
                // restarting an empty pop is the weaker guarantee direct
                // tracking gives reads.
                return None;
            }
            let claimed = unsafe { (*t).popped_by.load() };
            if claimed != 0 {
                // Help unlink the claimed node, then retry. The claimant
                // (or the limbo list) owns its memory.
                unsafe {
                    M::pbarrier(&(*t).popped_by);
                    if (*self.top).cas(t as u64, (*t).next.load()) == t as u64 {
                        self.limbo.lock().unwrap().push(t);
                    }
                }
                continue;
            }
            // Announce the claim target durably BEFORE the claim CAS: the
            // stamp is the arbitration recovery reads through RD_q.
            self.env.rec.publish(pid, t as u64 | tag::DIRECT | tag::TAG);
            // Arbitration: claim before unlinking (exactly-once across crash).
            if unsafe { (*t).popped_by.cas(0, pid as u64 + 1) } == 0 {
                unsafe {
                    M::pbarrier(&(*t).popped_by);
                    let v = (*t).val.load();
                    if (*self.top).cas(t as u64, (*t).next.load()) == t as u64 {
                        M::pwb(&self.top);
                        // Deferred retirement: RD_q still names `t` (its
                        // stamp is this pop's durable receipt), so it parks
                        // in the pending slot until our next operation.
                        // SAFETY: slot owned by this process.
                        *self.pending[pid].get() = t;
                    }
                    // else: a helper unlinked it and parked it in limbo.
                    M::psync();
                    return Some(v);
                }
            }
        }
    }

    /// The direct-tracking recovery decision for `pid`'s last announced
    /// operation (see module docs): claims arbitrate on the stamp, push
    /// announcements on reachability-or-stamp.
    fn decide(&self, pid: usize) -> Recovered {
        let (cp, rd) = self.env.rec.read(pid);
        if cp != 1 || !tag::is_direct(rd) || tag::addr_of(rd) == 0 {
            return Recovered::Restart;
        }
        let node = tag::addr_of(rd);
        // SAFETY: announced nodes are kept alive by the RD_q root (deferred
        // retirement / limbo / attach-time census).
        let stamp = unsafe { direct_stamp::<M>(node) };
        if tag::is_tagged(rd) {
            if stamp == pid as u64 + 1 {
                Recovered::Completed(res_val(unsafe { direct_val::<M>(node) }))
            } else {
                Recovered::Restart
            }
        } else if stamp != 0 || graph::reachable(self, node) {
            Recovered::Completed(RES_UNIT)
        } else {
            Recovered::Restart
        }
    }

    /// `Push.Recover`: no-op when the announced node provably entered the
    /// stack (reachable, or already popped), re-invokes otherwise.
    pub fn recover_push(&self, pid: usize, v: u64) {
        match self.decide(pid) {
            Recovered::Completed(_) => {}
            Recovered::Restart => self.push(pid, v),
        }
    }

    /// `Pop.Recover`: returns the claimed node's value when the claim stamp
    /// proves this process's pop took effect, re-invokes otherwise. (An
    /// *empty* pop is not tracked and always restarts — the read-only
    /// caveat of direct tracking.)
    pub fn recover_pop(&self, pid: usize) -> Option<u64> {
        match self.decide(pid) {
            Recovered::Completed(enc) if enc != RES_UNIT => Some(val_of(enc)),
            _ => self.pop(pid),
        }
    }

    /// Quiescent splice of every claimed node out of the chain (the
    /// stack-side scrub: a crash can leave claimed-but-not-unlinked nodes
    /// that normal pops would heal lazily). Spliced nodes park in limbo —
    /// a claimant's recovery may still read their stamp through `RD_q`.
    pub fn scrub(&self) {
        unsafe {
            // Claimed prefix.
            loop {
                let t = (*self.top).load() as *mut Node<M>;
                if t.is_null() || (*t).popped_by.load() == 0 {
                    break;
                }
                (*self.top).store((*t).next.load());
                self.limbo.lock().unwrap().push(t);
            }
            M::pwb(&self.top);
            // Interior claimed nodes.
            let mut prev = (*self.top).load() as *mut Node<M>;
            while !prev.is_null() {
                let n = (*prev).next.load() as *mut Node<M>;
                if n.is_null() {
                    break;
                }
                if (*n).popped_by.load() != 0 {
                    (*prev).next.store((*n).next.load());
                    M::pwb(&(*prev).next);
                    self.limbo.lock().unwrap().push(n);
                } else {
                    prev = n;
                }
            }
            M::psync();
        }
    }

    /// Quiescent snapshot, top first.
    pub fn snapshot_vals(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        unsafe {
            let mut n = (*self.top).load() as *mut Node<M>;
            while !n.is_null() {
                if (*n).popped_by.load() == 0 {
                    out.push((*n).val.load());
                }
                n = (*n).next.load() as *mut Node<M>;
            }
        }
        out
    }
}

impl<M: Persist> Graph<M> for RStack<M> {
    fn kind_name(&self) -> &'static str {
        "stack"
    }

    // The chain from `top` to its null end; direct tracking references no
    // descriptors, so every node is reported with info word 0.
    unsafe fn walk(
        &self,
        _unit: usize,
        admit: &dyn Fn(u64) -> bool,
        mut budget: usize,
        visit: &mut dyn FnMut(u64, u64),
    ) -> Result<(), u64> {
        let mut n = (*self.top).load();
        while n != 0 {
            if budget == 0 || !admit(n) {
                return Err(n);
            }
            budget -= 1;
            visit(n, 0);
            // SAFETY: non-null and admitted.
            n = unsafe { (*(n as *const Node<M>)).next.load() };
        }
        Ok(())
    }
}

impl MappedLayout for RStack<MappedNvm> {
    const KIND: u64 = KIND_STACK;
    type Cfg = ();

    fn cfg_word(_cfg: ()) -> u64 {
        0x53
    }

    fn root_bytes(_cfg: ()) -> usize {
        8 // the top cell
    }

    // No sentinels: the zeroed root block *is* the empty stack.
    unsafe fn open(env: &AttachEnv, _cfg: (), root: *mut u8) -> Result<Self, AttachError> {
        Ok(Self::over(Rooted::Arena(root as *const PWord<MappedNvm>), env.env()))
    }
}

impl SlotOps for RStack<MappedNvm> {
    fn node_bytes(&self) -> usize {
        std::mem::size_of::<Node<MappedNvm>>()
    }

    /// The splice policy: there are no descriptors to help; a crash leaves
    /// claimed-but-not-unlinked nodes instead, which [`RStack::scrub`] takes
    /// out of the chain. The spliced (limbo) blocks stay live through the
    /// census only if some `RD_q` names them — the driver adds those; the
    /// rest are swept by omission.
    fn attach_scrub(&self) -> Result<(), AttachError> {
        self.scrub();
        Ok(())
    }

    fn each_cached(&mut self, f: &mut dyn FnMut(usize)) {
        self.node_pool.each_idle(|p| f(p as usize));
    }
}

impl<M: Persist> Drop for RStack<M> {
    fn drop(&mut self) {
        // Unlinked nodes waiting in pending slots / limbo: disjoint from the
        // chain and from each other, possibly parked as well.
        // SAFETY: exclusive access; each slot belongs to this value.
        let mut unlinked: Vec<usize> = (self.pending.iter())
            .map(|slot| unsafe { *slot.get() } as usize)
            .filter(|&p| p != 0)
            .collect();
        let limbo = self.limbo.get_mut().unwrap_or_else(|e| e.into_inner());
        unlinked.extend(limbo.drain(..).map(|p| p as usize));
        // SAFETY: quiescent teardown of a structure this value owns.
        unsafe { self.env.teardown::<Node<M>>(&*self, unlinked) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::CountingNvm;
    use std::sync::Arc;

    type S = RStack<CountingNvm>;

    #[test]
    fn lifo_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let s = S::new();
        assert_eq!(s.pop(0), None);
        s.push(0, 1);
        s.push(0, 2);
        s.push(0, 3);
        assert_eq!(s.pop(0), Some(3));
        assert_eq!(s.pop(0), Some(2));
        s.push(0, 4);
        assert_eq!(s.pop(0), Some(4));
        assert_eq!(s.pop(0), Some(1));
        assert_eq!(s.pop(0), None);
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        let _gate = crate::counters::gate_shared();
        let s = Arc::new(S::new());
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = Arc::new(AtomicU64::new(0));
        let per = 500u64;
        let mut hs = Vec::new();
        for p in 0..2u64 {
            let s = Arc::clone(&s);
            hs.push(std::thread::spawn(move || {
                nvm::tid::set_tid(p as usize);
                for i in 0..per {
                    s.push(p as usize, 1 + p * per + i);
                }
            }));
        }
        for c in 0..2usize {
            let s = Arc::clone(&s);
            let sum = Arc::clone(&sum);
            hs.push(std::thread::spawn(move || {
                nvm::tid::set_tid(10 + c);
                let mut got = 0;
                let mut acc = 0u64;
                while got < per {
                    if let Some(v) = s.pop(10 + c) {
                        got += 1;
                        acc += v;
                    }
                }
                sum.fetch_add(acc, Ordering::Relaxed);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), (1..=2 * per).sum::<u64>());
        let mut s = Arc::into_inner(s).unwrap();
        assert_eq!(s.snapshot_vals(), vec![]);
    }

    #[test]
    fn snapshot_order_is_lifo() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut s = S::new();
        for v in 1..=5u64 {
            s.push(0, v);
        }
        assert_eq!(s.snapshot_vals(), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn recovery_without_crash_behaves_like_invocation() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut s = S::new();
        // Nothing announced: recovery re-invokes.
        s.recover_push(0, 7);
        assert_eq!(s.snapshot_vals(), vec![7]);
        // Crash "just after" the completed push: the node is reachable, so
        // recovery must NOT push again.
        s.recover_push(0, 7);
        assert_eq!(s.snapshot_vals(), vec![7], "completed push must not re-apply");
        // Crash "just after" a completed pop: the claim stamp names us, so
        // recovery returns the same value without popping twice.
        s.push(0, 9);
        assert_eq!(s.pop(0), Some(9));
        assert_eq!(s.recover_pop(0), Some(9));
        assert_eq!(s.snapshot_vals(), vec![7], "completed pop must not re-apply");
        // A pushed-then-popped announced node: stamp set ⇒ push completed.
        // (pid 1 pushes, pid 0 pops it, pid 1 recovers its push.)
        s.push(1, 11);
        assert_eq!(s.pop(0), Some(11));
        s.recover_push(1, 11);
        assert_eq!(s.snapshot_vals(), vec![7], "popped push must not re-apply");
    }
}
