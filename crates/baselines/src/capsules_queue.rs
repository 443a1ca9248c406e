//! `Capsules-General` / `Capsules-Normal`: the capsules transformation \[3\]
//! applied to the MS-queue (Figure 7 comparators).
//!
//! * `NORMALIZED = false` (**Capsules-General**): one capsule per CAS, and
//!   the general durability transform \[27\] — `pwb; pfence` after every
//!   shared access.
//! * `NORMALIZED = true` (**Capsules-Normal**): the normalized two-capsule
//!   variant with hand-tuned persistency (capsule boundaries + recoverable-
//!   CAS evidence only).

use crate::rcas::{pack, RCasCtx};
use crate::util::{ptr_of, PerProc};
use nvm::{PWord, Persist, PersistWords};
use reclaim::Collector;
use std::sync::atomic::{AtomicU64, Ordering};

/// A queue node with a stamped (recoverable-CAS) next word.
#[repr(C)]
pub struct Node<M: Persist> {
    val: PWord<M>,
    next: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for Node<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.val);
        f(&self.next);
    }
}

impl<M: Persist> Node<M> {
    fn alloc(val: u64) -> *mut Node<M> {
        Box::into_raw(Box::new(Node { val: PWord::new(val), next: PWord::new(0) }))
    }
}

/// Per-process capsule continuation.
struct CapState<M: Persist> {
    phase: PWord<M>,
    a: PWord<M>,
    b: PWord<M>,
    seq: PWord<M>,
    result: PWord<M>,
}

impl<M: Persist> Default for CapState<M> {
    fn default() -> Self {
        Self {
            phase: PWord::new(0),
            a: PWord::new(0),
            b: PWord::new(0),
            seq: PWord::new(0),
            result: PWord::new(0),
        }
    }
}

unsafe impl<M: Persist> PersistWords<M> for CapState<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.phase);
        f(&self.a);
        f(&self.b);
        f(&self.seq);
        f(&self.result);
    }
}

/// Capsules-transformed MS-queue.
pub struct CapsulesQueue<M: Persist, const NORMALIZED: bool> {
    head: PWord<M>,
    tail: PWord<M>,
    ctx: RCasCtx<M>,
    caps: PerProc<CapState<M>>,
    seqs: PerProc<AtomicU64>,
    collector: Collector,
}

unsafe impl<M: Persist, const N: bool> Send for CapsulesQueue<M, N> {}
unsafe impl<M: Persist, const N: bool> Sync for CapsulesQueue<M, N> {}

impl<M: Persist, const N: bool> Default for CapsulesQueue<M, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const NORMALIZED: bool> CapsulesQueue<M, NORMALIZED> {
    /// New empty queue.
    pub fn new() -> Self {
        let s: *mut Node<M> = Node::alloc(0);
        Self {
            head: PWord::new(pack(s as u64, 0, 0)),
            tail: PWord::new(pack(s as u64, 0, 0)),
            ctx: RCasCtx::new(),
            caps: PerProc::new(),
            seqs: PerProc::new(),
            collector: Collector::new(),
        }
    }

    #[inline]
    fn rd(&self, w: &PWord<M>) -> u64 {
        let v = w.load();
        if !NORMALIZED {
            M::pwb(w);
            M::pfence();
        }
        v
    }

    fn bump_seq(&self, pid: usize) -> u64 {
        self.seqs.get(pid).fetch_add(1, Ordering::Relaxed) + 1
    }

    fn boundary(&self, pid: usize, phase: u64, a: u64, b: u64, seq: u64) {
        let c = self.caps.get(pid);
        c.phase.store(phase);
        c.a.store(a);
        c.b.store(b);
        c.seq.store(seq);
        M::pwb_obj(c);
        M::psync();
    }

    fn result(&self, pid: usize, r: u64) {
        let c = self.caps.get(pid);
        c.result.store(r);
        M::pwb(&c.result);
        M::psync();
    }

    /// Enqueue `v`.
    pub fn enqueue(&self, pid: usize, v: u64) {
        let node = Node::<M>::alloc(v);
        unsafe {
            M::pwb_obj(&*node);
            M::pfence();
        }
        let _g = self.collector.pin();
        loop {
            let t_w = self.rd(&self.tail);
            let t = ptr_of(t_w) as *mut Node<M>;
            let tn_w = self.rd(unsafe { &(*t).next });
            if ptr_of(tn_w) != 0 {
                let seq = self.bump_seq(pid);
                let _ = self.ctx.rcas(&self.tail, t_w, ptr_of(tn_w), pid, seq);
                continue;
            }
            let seq = self.bump_seq(pid);
            // Capsule boundary before the decisive CAS (general: one capsule
            // per CAS; normalized: this is the executor capsule).
            self.boundary(pid, 2, t as u64, node as u64, seq);
            if self.ctx.rcas(unsafe { &(*t).next }, tn_w, node as u64, pid, seq) == tn_w {
                if NORMALIZED {
                    M::psync();
                }
                let seq2 = self.bump_seq(pid);
                if !NORMALIZED {
                    self.boundary(pid, 3, t as u64, node as u64, seq2);
                }
                let _ = self.ctx.rcas(&self.tail, t_w, node as u64, pid, seq2);
                self.result(pid, 1);
                return;
            }
        }
    }

    /// Dequeue; `None` when empty.
    pub fn dequeue(&self, pid: usize) -> Option<u64> {
        let g = self.collector.pin();
        loop {
            let h_w = self.rd(&self.head);
            let t_w = self.rd(&self.tail);
            let h = ptr_of(h_w) as *mut Node<M>;
            let next_w = self.rd(unsafe { &(*h).next });
            let next = ptr_of(next_w);
            if ptr_of(h_w) == ptr_of(t_w) {
                if next == 0 {
                    self.result(pid, u64::MAX - 2);
                    return None;
                }
                let seq = self.bump_seq(pid);
                let _ = self.ctx.rcas(&self.tail, t_w, next, pid, seq);
                continue;
            }
            let v = self.rd(unsafe { &(*(next as *mut Node<M>)).val });
            let seq = self.bump_seq(pid);
            self.boundary(pid, 2, h as u64, next, seq);
            if self.ctx.rcas(&self.head, h_w, next, pid, seq) == h_w {
                if NORMALIZED {
                    M::psync();
                }
                unsafe { g.retire_box(h) };
                self.result(pid, v);
                return Some(v);
            }
        }
    }

    /// Post-crash detection of the last decisive CAS.
    pub fn detect(&self, pid: usize) -> Option<bool> {
        let c = self.caps.get(pid);
        if c.phase.load() < 2 {
            return None;
        }
        let seq = c.seq.load();
        Some(
            self.ctx.detect(&self.head, pid, seq) || {
                let a = c.a.load() as *const Node<M>;
                !a.is_null() && unsafe { self.ctx.detect(&(*a).next, pid, seq) }
            },
        )
    }

    /// Quiescent snapshot.
    pub fn snapshot_vals(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        unsafe {
            let s = ptr_of(self.head.load()) as *mut Node<M>;
            let mut n = ptr_of((*s).next.load()) as *mut Node<M>;
            while !n.is_null() {
                out.push((*n).val.load());
                n = ptr_of((*n).next.load()) as *mut Node<M>;
            }
        }
        out
    }
}

impl<M: Persist, const N: bool> Drop for CapsulesQueue<M, N> {
    fn drop(&mut self) {
        unsafe {
            let mut n = ptr_of(self.head.load()) as *mut Node<M>;
            while !n.is_null() {
                let next = ptr_of((*n).next.load()) as *mut Node<M>;
                drop(Box::from_raw(n));
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

    type Gen = CapsulesQueue<CountingNvm, false>;
    type Norm = CapsulesQueue<CountingNvm, true>;

    #[test]
    fn fifo_both_variants() {
        nvm::tid::set_tid(0);
        let g = Gen::new();
        g.enqueue(0, 1);
        g.enqueue(0, 2);
        assert_eq!(g.dequeue(0), Some(1));
        assert_eq!(g.dequeue(0), Some(2));
        assert_eq!(g.dequeue(0), None);
        let n = Norm::new();
        n.enqueue(0, 1);
        n.enqueue(0, 2);
        assert_eq!(n.dequeue(0), Some(1));
        assert_eq!(n.dequeue(0), Some(2));
        assert_eq!(n.dequeue(0), None);
    }

    #[test]
    fn general_variant_flushes_more() {
        const P: usize = 48; // own tid: its counters are this test's alone
        nvm::tid::set_tid(P);
        let g = Gen::new();
        let n = Norm::new();
        g.enqueue(P, 1);
        n.enqueue(P, 1);
        let b = nvm::stats::Snapshot::of_tid(P);
        g.enqueue(P, 2);
        let mid = nvm::stats::Snapshot::of_tid(P);
        n.enqueue(P, 2);
        let e = nvm::stats::Snapshot::of_tid(P);
        let dg = mid.since(&b);
        let dn = e.since(&mid);
        assert!(
            dg.pwb + dg.pfence > dn.pwb + dn.pfence,
            "general {dg:?} must out-flush normalized {dn:?}"
        );
    }

    #[test]
    fn concurrent_conservation_normalized() {
        let q = Arc::new(Norm::new());
        use std::sync::atomic::AtomicU64;
        let sum = Arc::new(AtomicU64::new(0));
        let per = 800u64;
        let mut hs = Vec::new();
        for p in 0..2u64 {
            let q = Arc::clone(&q);
            hs.push(std::thread::spawn(move || {
                nvm::tid::set_tid(p as usize);
                for i in 0..per {
                    q.enqueue(p as usize, 1 + p * per + i);
                }
            }));
        }
        for c in 0..2usize {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            hs.push(std::thread::spawn(move || {
                nvm::tid::set_tid(10 + c);
                let mut got = 0;
                let mut s = 0u64;
                while got < per {
                    if let Some(v) = q.dequeue(10 + c) {
                        got += 1;
                        s += v;
                    }
                }
                sum.fetch_add(s, Ordering::Relaxed);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), (1..=2 * per).sum::<u64>());
    }
}
