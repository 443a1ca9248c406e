//! `Capsules` / `Capsules-Opt`: the normalized capsules transformation \[3\]
//! applied to the Harris list.
//!
//! The operation is partitioned into **two capsules** (the normalized-form
//! optimisation): a *generator* capsule (the search, producing the CAS to
//! perform) and an *executor* capsule (the recoverable CAS + wrap-up). At
//! each capsule boundary the continuation state (phase, pred, curr, node,
//! seq) is persisted into a per-process capsule area, and every CAS is a
//! recoverable CAS ([`crate::rcas`]) so that after a crash the process can
//! re-enter its capsule and detect whether its CAS took effect.
//!
//! * `OPT = false` (**`Capsules`** in the figures) additionally applies the
//!   general durability transform of Izraelevitz et al. \[27\]: a `pwb` +
//!   `pfence` after **every** shared-memory access — including every read of
//!   the search loop. This is what makes its throughput collapse.
//! * `OPT = true` (**`Capsules-Opt`**) is the hand-tuned variant: flushes
//!   only at capsule boundaries, around the recoverable CAS, and — like
//!   `DT-Opt` — a pbarrier for every *marked* node traversed (the dependent-
//!   deletion rule), which is why its barrier count grows with contention.

use crate::rcas::{pack, val_part, RCasCtx};
use crate::util::{is_marked, ptr_of, PerProc};
use nvm::{PWord, Persist, PersistWords};
use reclaim::{Collector, Guard};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel keys.
pub const KEY_MIN: u64 = 0;
/// Tail sentinel key.
pub const KEY_MAX: u64 = u64::MAX;

/// A node; `next` is a recoverable-CAS word (stamped, marked).
#[repr(C)]
pub struct Node<M: Persist> {
    key: PWord<M>,
    next: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for Node<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.key);
        f(&self.next);
    }
}

impl<M: Persist> Node<M> {
    fn alloc(key: u64, next: u64) -> *mut Node<M> {
        Box::into_raw(Box::new(Node { key: PWord::new(key), next: PWord::new(next) }))
    }
}

/// Per-process capsule continuation state (one cache line).
struct CapState<M: Persist> {
    phase: PWord<M>,
    pred: PWord<M>,
    curr: PWord<M>,
    node: PWord<M>,
    seq: PWord<M>,
    result: PWord<M>,
}

impl<M: Persist> Default for CapState<M> {
    fn default() -> Self {
        Self {
            phase: PWord::new(0),
            pred: PWord::new(0),
            curr: PWord::new(0),
            node: PWord::new(0),
            seq: PWord::new(0),
            result: PWord::new(0),
        }
    }
}

unsafe impl<M: Persist> PersistWords<M> for CapState<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.phase);
        f(&self.pred);
        f(&self.curr);
        f(&self.node);
        f(&self.seq);
        f(&self.result);
    }
}

/// Capsules-transformed Harris list (see module docs).
pub struct CapsulesList<M: Persist, const OPT: bool> {
    head: *mut Node<M>,
    ctx: RCasCtx<M>,
    caps: PerProc<CapState<M>>,
    seqs: PerProc<AtomicU64>,
    collector: Collector,
}

unsafe impl<M: Persist, const OPT: bool> Send for CapsulesList<M, OPT> {}
unsafe impl<M: Persist, const OPT: bool> Sync for CapsulesList<M, OPT> {}

impl<M: Persist, const OPT: bool> Default for CapsulesList<M, OPT> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const OPT: bool> CapsulesList<M, OPT> {
    /// New empty list.
    pub fn new() -> Self {
        let tail: *mut Node<M> = Node::alloc(KEY_MAX, 0);
        let head = Node::alloc(KEY_MIN, pack(tail as u64, 0, 0));
        Self {
            head,
            ctx: RCasCtx::new(),
            caps: PerProc::new(),
            seqs: PerProc::new(),
            collector: Collector::new(),
        }
    }

    /// Shared read under the durability transform: `pwb; pfence` after every
    /// access in the non-optimised variant.
    #[inline]
    fn rd(&self, w: &PWord<M>) -> u64 {
        let v = w.load();
        if !OPT {
            M::pwb(w);
            M::pfence();
        }
        v
    }

    fn bump_seq(&self, pid: usize) -> u64 {
        self.seqs.get(pid).fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Persist the capsule boundary: continuation state, then fence.
    fn capsule_boundary(&self, pid: usize, phase: u64, pred: u64, curr: u64, node: u64, seq: u64) {
        let c = self.caps.get(pid);
        c.phase.store(phase);
        c.pred.store(pred);
        c.curr.store(curr);
        c.node.store(node);
        c.seq.store(seq);
        M::pwb_obj(c);
        M::psync();
    }

    fn persist_result(&self, pid: usize, r: bool) {
        let c = self.caps.get(pid);
        c.result.store(r as u64);
        M::pwb(&c.result);
        M::psync();
    }

    /// Generator capsule: Harris search. Returns `(pred, curr, pred_next_w)`
    /// where `pred_next_w` is the exact stamped word read from `pred.next`.
    unsafe fn search(
        &self,
        pid: usize,
        key: u64,
        g: &Guard<'_>,
    ) -> (*mut Node<M>, *mut Node<M>, u64) {
        unsafe {
            'retry: loop {
                let mut pred = self.head;
                let mut pred_w = self.rd(&(*pred).next);
                let mut curr = ptr_of(pred_w) as *mut Node<M>;
                loop {
                    let succ_w = self.rd(&(*curr).next);
                    if is_marked(succ_w) {
                        if OPT {
                            // Dependent deletion must be durable first.
                            M::pbarrier(&(*curr).next);
                        }
                        let seq = self.bump_seq(pid);
                        let res = self.ctx.rcas(&(*pred).next, pred_w, ptr_of(succ_w), pid, seq);
                        if res != pred_w {
                            continue 'retry;
                        }
                        g.retire_box(curr);
                        pred_w = self.rd(&(*pred).next);
                        curr = ptr_of(pred_w) as *mut Node<M>;
                        continue;
                    }
                    if self.rd(&(*curr).key) >= key {
                        return (pred, curr, pred_w);
                    }
                    pred = curr;
                    pred_w = succ_w;
                    curr = ptr_of(succ_w) as *mut Node<M>;
                }
            }
        }
    }

    /// Inserts `key`; `false` if present.
    pub fn insert(&self, pid: usize, key: u64) -> bool {
        assert!(key > KEY_MIN && key < KEY_MAX);
        let node = Node::<M>::alloc(key, 0);
        loop {
            let g = self.collector.pin();
            // Capsule 1: generator.
            let (pred, curr, pred_w) = unsafe { self.search(pid, key, &g) };
            unsafe {
                if self.rd(&(*curr).key) == key {
                    drop(Box::from_raw(node));
                    self.persist_result(pid, false);
                    return false;
                }
                let seq = self.bump_seq(pid);
                (*node).next.store(pack(curr as u64, pid, seq));
                M::pwb_obj(&*node);
                M::pfence();
                // Capsule boundary: continuation persisted before the CAS.
                self.capsule_boundary(pid, 2, pred as u64, curr as u64, node as u64, seq);
                // Capsule 2: executor (recoverable CAS) + wrap-up.
                let res = self.ctx.rcas(&(*pred).next, pred_w, node as u64, pid, seq);
                if res == pred_w {
                    if OPT {
                        M::psync();
                    }
                    self.persist_result(pid, true);
                    return true;
                }
            }
        }
    }

    /// Deletes `key`; `false` if absent.
    pub fn delete(&self, pid: usize, key: u64) -> bool {
        assert!(key > KEY_MIN && key < KEY_MAX);
        loop {
            let g = self.collector.pin();
            let (pred, curr, pred_w) = unsafe { self.search(pid, key, &g) };
            unsafe {
                if self.rd(&(*curr).key) != key {
                    self.persist_result(pid, false);
                    return false;
                }
                let succ_w = self.rd(&(*curr).next);
                if is_marked(succ_w) {
                    continue;
                }
                let seq = self.bump_seq(pid);
                self.capsule_boundary(pid, 2, pred as u64, curr as u64, 0, seq);
                // Decisive recoverable CAS: the mark.
                let res = self.ctx.rcas(
                    &(*curr).next,
                    succ_w,
                    val_part(succ_w) | crate::util::MARK,
                    pid,
                    seq,
                );
                if res != succ_w {
                    continue;
                }
                if OPT {
                    M::psync(); // the mark is the linearized effect
                }
                // Cleanup CAS (idempotent unlink), also recoverable.
                let seq2 = self.bump_seq(pid);
                let r2 = self.ctx.rcas(&(*pred).next, pred_w, ptr_of(succ_w), pid, seq2);
                if r2 == pred_w {
                    g.retire_box(curr);
                }
                self.persist_result(pid, true);
                return true;
            }
        }
    }

    /// Membership test.
    pub fn find(&self, pid: usize, key: u64) -> bool {
        assert!(key > KEY_MIN && key < KEY_MAX);
        let g = self.collector.pin();
        let (_, curr, _) = unsafe { self.search(pid, key, &g) };
        let r = unsafe { self.rd(&(*curr).key) == key };
        self.persist_result(pid, r);
        r
    }

    /// Post-crash detection of the executor capsule's CAS.
    pub fn detect_executor(&self, pid: usize) -> Option<bool> {
        let c = self.caps.get(pid);
        if c.phase.load() != 2 {
            return None;
        }
        let pred = c.pred.load() as *const Node<M>;
        let seq = c.seq.load();
        if pred.is_null() {
            return None;
        }
        unsafe { Some(self.ctx.detect(&(*pred).next, pid, seq)) }
    }

    /// Quiescent snapshot of user keys.
    pub fn snapshot_keys(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        unsafe {
            let mut n = ptr_of((*self.head).next.load()) as *mut Node<M>;
            while (*n).key.load() != KEY_MAX {
                if !is_marked((*n).next.load()) {
                    out.push((*n).key.load());
                }
                n = ptr_of((*n).next.load()) as *mut Node<M>;
            }
        }
        out
    }
}

impl<M: Persist, const OPT: bool> Drop for CapsulesList<M, OPT> {
    fn drop(&mut self) {
        unsafe {
            let mut n = self.head;
            loop {
                let next = ptr_of((*n).next.load()) as *mut Node<M>;
                let last = (*n).key.load() == KEY_MAX;
                drop(Box::from_raw(n));
                if last {
                    break;
                }
                n = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::CountingNvm;
    use std::sync::Arc;

    type Gen = CapsulesList<CountingNvm, false>;
    type Opt = CapsulesList<CountingNvm, true>;

    #[test]
    fn sequential_semantics_both_variants() {
        nvm::tid::set_tid(0);
        let g = Gen::new();
        let o = Opt::new();
        for which in 0..2 {
            let (i1, i2, f1, d1, d2, f2) = if which == 0 {
                (
                    g.insert(0, 5),
                    g.insert(0, 5),
                    g.find(0, 5),
                    g.delete(0, 5),
                    g.delete(0, 5),
                    g.find(0, 5),
                )
            } else {
                (
                    o.insert(0, 5),
                    o.insert(0, 5),
                    o.find(0, 5),
                    o.delete(0, 5),
                    o.delete(0, 5),
                    o.find(0, 5),
                )
            };
            assert!(i1);
            assert!(!i2, "duplicate insert");
            assert!(f1);
            assert!(d1);
            assert!(!d2, "double delete");
            assert!(!f2);
        }
    }

    #[test]
    fn matches_btreeset_randomly() {
        use rand::{Rng, SeedableRng};
        nvm::tid::set_tid(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut l = Opt::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..3000 {
            let k = rng.gen_range(1..40u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(l.insert(0, k), model.insert(k)),
                1 => assert_eq!(l.delete(0, k), model.remove(&k)),
                _ => assert_eq!(l.find(0, k), model.contains(&k)),
            }
        }
        assert_eq!(l.snapshot_keys(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn general_transform_flushes_on_reads() {
        const P: usize = 44; // own tid: its counters are this test's alone
        nvm::tid::set_tid(P);
        let g = Gen::new();
        for k in 1..=20u64 {
            g.insert(P, k);
        }
        let before = nvm::stats::Snapshot::of_tid(P);
        g.find(P, 20);
        let d = nvm::stats::Snapshot::of_tid(P).since(&before);
        assert!(d.pwb > 20, "durability transform must flush every read, got {}", d.pwb);
        assert!(d.pfence > 20);
    }

    #[test]
    fn opt_variant_flushes_far_less() {
        const P: usize = 45; // own tid: its counters are this test's alone
        nvm::tid::set_tid(P);
        let o = Opt::new();
        for k in 1..=20u64 {
            o.insert(P, k);
        }
        let before = nvm::stats::Snapshot::of_tid(P);
        o.find(P, 20);
        let d = nvm::stats::Snapshot::of_tid(P).since(&before);
        assert!(d.pwb <= 4, "hand-tuned find should flush O(1) words, got {}", d.pwb);
    }

    #[test]
    fn executor_detection_after_completed_insert() {
        nvm::tid::set_tid(0);
        let o = Opt::new();
        assert!(o.insert(0, 9));
        assert_eq!(o.detect_executor(0), Some(true));
    }

    #[test]
    fn concurrent_churn_stays_sorted() {
        let l = Arc::new(Opt::new());
        let hs: Vec<_> = (0..4)
            .map(|t| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    use rand::{Rng, SeedableRng};
                    nvm::tid::set_tid(t);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t as u64);
                    for _ in 0..1500 {
                        let k = rng.gen_range(1..24u64);
                        match rng.gen_range(0..3) {
                            0 => {
                                l.insert(t, k);
                            }
                            1 => {
                                l.delete(t, k);
                            }
                            _ => {
                                l.find(t, k);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut l = Arc::into_inner(l).unwrap();
        let snap = l.snapshot_keys();
        for w in snap.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
