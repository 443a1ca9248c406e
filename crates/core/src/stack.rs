//! Detectably recoverable stack: ISB-tracking applied to a Treiber stack, on
//! the ordered-set core's node shape (paper Sections 1 and 5 list the stack
//! among the structures the approach covers; the construction is ours).
//!
//! `RStack` is a one-shard [`RHashMap`], as the list is — one bucket: a
//! `−∞` head sentinel, the values in push order, a `+∞` tail sentinel —
//! whose operations land at the bucket's front instead of at a key
//! ([`SetCore::push`] / [`SetCore::pop`]). It runs at the shipped placement
//! `Isb-LP` only, so it shares the list's descriptor engine, Op-Recover,
//! construction, deferred scrub, walk and mapped layout, and has nothing of
//! its own to recover.
//!
//! * **Push(v)**: AffectSet = `{head (update), first (deletion)}`, WriteSet =
//!   `{⟨head.next, first, newnd⟩}`, NewSet = `{newnd(v), newcurr}` where
//!   `newcurr` is a copy of the old first node, which is retired — the list
//!   insert's copy-replacement. Response: ack.
//! * **Pop()**: first node the tail sentinel ⇒ empty, a no-effect operation
//!   (no descriptor, a restart on recovery). Otherwise AffectSet = `{head
//!   (update), first (deletion)}`, WriteSet = `{⟨head.next, first,
//!   first.next⟩}`, response = the first node's value (immutable, computed
//!   before publication); the first node is retired.
//!
//! Pointer freshness (DESIGN.md §4): a node leaves `head.next` only by being
//! retired — a push copy-replaces the first node instead of pushing it down,
//! and a pop retires it — so `head.next` only ever receives a node that was
//! never in it before, and a stale helper CAS on it fails harmlessly.
//!
//! Values ride in the node's key word and must stay below `2^61 − 16`: none
//! meets the `+∞` sentinel or the response encoding. The paper's other
//! stack technique, direct tracking (nodes announced in `RD_q`, claim
//! stamps), is reproduced where the paper measures it: the `DT-Opt` list
//! baseline (`baselines::dt_list`).

use crate::arm::LP;
use crate::engine::val_of;
use crate::graph::Graph;
use crate::hashmap::RHashMap;
use crate::recovery::{AttachEnv, AttachError, MappedLayout, Recovered, SlotOps};
use crate::set_core::SetCore;
use crate::tag;
use nvm::mapped::MappedNvm;
use nvm::Persist;

/// Structure-kind tag of an `RStack` entry in a [`crate::store::Store`] catalog.
pub const KIND_STACK: u64 = 5;

/// Configuration word of a stack entry written in the retired direct-tracked
/// format (the stack's marker `0x53`, arm byte 0): the store refuses it by
/// name ([`AttachError::RetiredFormat`]).
pub(crate) const RETIRED_CFG: u64 = 0x53;

/// Exclusive bound on a pushed value.
const VALUE_LIMIT: u64 = (1 << 61) - 16;

/// Recoverable stack (see module docs). Values must stay below
/// `2^61 - 16`.
pub struct RStack<M: Persist>(pub(crate) RHashMap<M, LP>);

impl<M: Persist> Default for RStack<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist> RStack<M> {
    /// New empty stack.
    pub fn new() -> Self {
        Self(RHashMap::with_shards(1))
    }

    /// The one bucket, its deferred post-attach scrub drained first.
    fn core(&self) -> SetCore<'_, M, LP> {
        self.0.bucket(0)
    }

    /// Pushes `v`.
    pub fn push(&self, pid: usize, v: u64) {
        assert!(v < VALUE_LIMIT, "value too large");
        self.core().push(pid, v);
    }

    /// Pops; `None` when empty.
    pub fn pop(&self, pid: usize) -> Option<u64> {
        self.core().pop(pid)
    }

    /// `Push.Recover` (Op-Recover, re-invoking when it restarts).
    pub fn recover_push(&self, pid: usize, v: u64) {
        if self.0.env.recover::<LP>(pid) == Recovered::Restart {
            self.push(pid, v);
        }
    }

    /// `Pop.Recover`. An empty pop published nothing, so it restarts.
    pub fn recover_pop(&self, pid: usize) -> Option<u64> {
        match self.0.env.recover::<LP>(pid) {
            Recovered::Completed(v) => Some(val_of(v)),
            Recovered::Restart => self.pop(pid),
        }
    }

    /// Failure-report line for `pid`'s recovery slot
    /// ([`crate::recovery::RecArea::describe`]).
    ///
    /// # Safety
    /// As [`crate::recovery::RecArea::describe`].
    pub unsafe fn describe_recovery(&self, pid: usize) -> String {
        unsafe { self.0.describe_recovery(pid) }
    }

    /// Completes helping obligations left visible by a crash; call after
    /// every process ran its `recover_*`. See [`crate::graph::scrub_unit`].
    pub fn scrub(&self) {
        self.0.scrub();
    }

    /// Quiescent snapshot, top first.
    pub fn snapshot_vals(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        self.core().snapshot_keys_into(&mut out);
        out
    }

    /// Structural invariants of a quiescent stack: the chain ends at its
    /// `+∞` sentinel and no node on it is tagged. Panics on violation.
    pub fn check_invariants(&mut self) {
        // `core` drains a deferred post-attach scrub before the raw walk.
        self.core();
        // SAFETY: quiescent exclusive access to a live structure.
        let ended = unsafe {
            self.walk(0, &|_| true, usize::MAX, &mut |n, info| {
                assert!(!tag::is_tagged(info), "node {n:#x} tagged in a quiescent stack");
            })
        };
        ended.unwrap_or_else(|p| panic!("the chain breaks at {p:#x}"));
    }
}

impl<M: Persist> Graph<M> for RStack<M> {
    fn kind_name(&self) -> &'static str {
        "stack"
    }

    fn base(&self) -> tag::Base {
        self.0.base()
    }

    unsafe fn walk(
        &self,
        unit: usize,
        admit: &dyn Fn(u64) -> bool,
        budget: usize,
        visit: &mut dyn FnMut(u64, u64),
    ) -> Result<(), u64> {
        unsafe { self.0.walk(unit, admit, budget, visit) }
    }
}

impl MappedLayout for RStack<MappedNvm> {
    const KIND: u64 = KIND_STACK;
    type Cfg = ();

    fn cfg_word(_cfg: ()) -> u64 {
        0x53 | (LP as u64) << 32
    }

    fn root_bytes(_cfg: ()) -> usize {
        RHashMap::<MappedNvm, LP>::root_bytes(1)
    }

    // The list's layout: the head sentinel's address, sentinels installed first.
    unsafe fn open(env: &AttachEnv, _cfg: (), root: *mut u8) -> Result<Self, AttachError> {
        unsafe { RHashMap::open(env, 1, root) }.map(Self)
    }
}

impl SlotOps for RStack<MappedNvm> {
    fn node_bytes(&self) -> usize {
        self.0.node_bytes()
    }

    fn attach_scrub(&self) -> Result<(), AttachError> {
        self.0.attach_scrub()
    }

    fn each_cached(&mut self, f: &mut dyn FnMut(usize)) {
        self.0.each_cached(f);
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

    /// Pointer freshness (DESIGN.md §4): `head.next` never receives a node it
    /// held before. A pin held across the run keeps every retired node out of
    /// the pool, so a repeated address can only be a node linked back in — as
    /// a push that pushed the old first node down instead of copying it would
    /// do when its own node is popped.
    #[test]
    fn head_next_never_receives_a_node_twice() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let s = S::new();
        let _pin = s.0.env.collector.pin();
        let first = || {
            let mut seen = Vec::new();
            // SAFETY: the stack is live and only this thread runs on it.
            let _ = unsafe { s.walk(0, &|_| true, 2, &mut |n, _| seen.push(n)) };
            seen[1]
        };
        let mut held = vec![first()];
        for v in 1..=8u64 {
            s.push(0, 2 * v);
            held.push(first());
            s.push(0, 2 * v + 1);
            held.push(first());
            assert_eq!(s.pop(0), Some(2 * v + 1));
            held.push(first());
            if v % 4 == 0 {
                // Down to empty and back: the `+∞` sentinel is replaced too.
                while s.pop(0).is_some() {
                    held.push(first());
                }
            }
        }
        let mut sorted = held.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), held.len(), "a node returned to head.next: {held:#x?}");
    }

    #[test]
    fn recovery_without_crash_behaves_like_invocation() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut s = S::new();
        // Nothing announced: recovery re-invokes.
        s.recover_push(0, 7);
        assert_eq!(s.snapshot_vals(), vec![7]);
        // Crash "just after" the completed push: recovery must NOT push
        // again.
        s.recover_push(0, 7);
        assert_eq!(s.snapshot_vals(), vec![7], "completed push must not re-apply");
        // Crash "just after" a completed pop: its descriptor holds the
        // response, so recovery returns it without popping twice.
        s.push(0, 9);
        assert_eq!(s.pop(0), Some(9));
        assert_eq!(s.recover_pop(0), Some(9));
        assert_eq!(s.snapshot_vals(), vec![7], "completed pop must not re-apply");
        // A push whose node was popped since still completed.
        // (pid 1 pushes, pid 0 pops it, pid 1 recovers its push.)
        s.push(1, 11);
        assert_eq!(s.pop(0), Some(11));
        s.recover_push(1, 11);
        assert_eq!(s.snapshot_vals(), vec![7], "popped push must not re-apply");
    }
}
