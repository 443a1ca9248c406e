//! `Log-Queue`: faithful-shape reimplementation of the detectable log queue
//! of Friedman, Herlihy, Marathe, Petrank \[20\].
//!
//! Per-process persistent **log entries** announce each operation before it
//! executes; queue nodes carry the enqueuer's stamp and a `deq_tid` word
//! that dequeuers claim with a CAS — the arbitration deciding, across a
//! crash, which dequeuer owns the removal. Persistency placement follows
//! the paper: the node is flushed before linking, the link before the tail
//! swing, the `deq_tid` claim before the head swing, and log entries around
//! both.

use crate::util::PerProc;
use nvm::{PWord, Persist, PersistWords};
use reclaim::Collector;

/// A queue node: value, link, enqueuer stamp, dequeuer claim.
#[repr(C)]
pub struct Node<M: Persist> {
    val: PWord<M>,
    next: PWord<M>,
    enq: PWord<M>,
    deq_tid: PWord<M>, // 0 = unclaimed; pid+1 = claimed
}

unsafe impl<M: Persist> PersistWords<M> for Node<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.val);
        f(&self.next);
        f(&self.enq);
        f(&self.deq_tid);
    }
}

impl<M: Persist> Node<M> {
    fn alloc(val: u64, enq: u64) -> *mut Node<M> {
        Box::into_raw(Box::new(Node {
            val: PWord::new(val),
            next: PWord::new(0),
            enq: PWord::new(enq),
            deq_tid: PWord::new(0),
        }))
    }
}

/// One process's log: operation counter, announced op, result.
struct Log<M: Persist> {
    seq: PWord<M>,
    announced: PWord<M>, // node ptr (enq) or op code (deq)
    result: PWord<M>,
}

impl<M: Persist> Default for Log<M> {
    fn default() -> Self {
        Self { seq: PWord::new(0), announced: PWord::new(0), result: PWord::new(u64::MAX) }
    }
}

/// The detectable log queue (see module docs).
pub struct LogQueue<M: Persist> {
    head: PWord<M>,
    tail: PWord<M>,
    logs: PerProc<Log<M>>,
    collector: Collector,
}

unsafe impl<M: Persist> Send for LogQueue<M> {}
unsafe impl<M: Persist> Sync for LogQueue<M> {}

impl<M: Persist> Default for LogQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist> LogQueue<M> {
    /// New empty queue.
    pub fn new() -> Self {
        let s: *mut Node<M> = Node::alloc(0, 0);
        Self {
            head: PWord::new(s as u64),
            tail: PWord::new(s as u64),
            logs: PerProc::new(),
            collector: Collector::new(),
        }
    }

    fn announce(&self, pid: usize, what: u64) -> u64 {
        let l = self.logs.get(pid);
        let seq = l.seq.load() + 1;
        l.seq.store(seq);
        l.announced.store(what);
        l.result.store(u64::MAX);
        M::pwb(&l.seq);
        M::pwb(&l.announced);
        M::psync();
        seq
    }

    fn log_result(&self, pid: usize, r: u64) {
        let l = self.logs.get(pid);
        l.result.store(r);
        M::pwb(&l.result);
        M::psync();
    }

    /// Enqueue `v`.
    pub fn enqueue(&self, pid: usize, v: u64) {
        let node = Node::<M>::alloc(v, ((pid as u64) << 48) | 1);
        self.announce(pid, node as u64);
        unsafe {
            M::pwb_obj(&*node); // node durable before it becomes reachable
            M::pfence();
        }
        let _g = self.collector.pin();
        loop {
            let t = self.tail.load();
            let tn = unsafe { (*(t as *mut Node<M>)).next.load() };
            if tn != 0 {
                // Help: persist the link before advancing the tail past it.
                unsafe { M::pwb(&(*(t as *mut Node<M>)).next) };
                let _ = self.tail.cas(t, tn);
                continue;
            }
            if unsafe { (*(t as *mut Node<M>)).next.cas(0, node as u64) } == 0 {
                unsafe { M::pwb(&(*(t as *mut Node<M>)).next) };
                M::psync();
                let _ = self.tail.cas(t, node as u64);
                self.log_result(pid, 1);
                return;
            }
        }
    }

    /// Dequeue; `None` when empty.
    pub fn dequeue(&self, pid: usize) -> Option<u64> {
        self.announce(pid, u64::MAX - 1);
        let g = self.collector.pin();
        loop {
            let h = self.head.load();
            let t = self.tail.load();
            let next = unsafe { (*(h as *mut Node<M>)).next.load() };
            if h == t {
                if next == 0 {
                    self.log_result(pid, u64::MAX - 2); // empty
                    return None;
                }
                unsafe { M::pwb(&(*(h as *mut Node<M>)).next) };
                let _ = self.tail.cas(t, next);
                continue;
            }
            let nref = unsafe { &*(next as *mut Node<M>) };
            let v = nref.val.load();
            // Arbitration: claim the node before removing it.
            if nref.deq_tid.cas(0, pid as u64 + 1) == 0 {
                // The claim decides the winner across a crash.
                M::pwb(&nref.deq_tid);
                M::psync();
                if self.head.cas(h, next) == h {
                    M::pwb(&self.head);
                    unsafe { g.retire_box(h as *mut Node<M>) };
                }
                self.log_result(pid, v);
                return Some(v);
            } else {
                // Someone claimed it: help move the head past it.
                M::pwb(&nref.deq_tid);
                let _ = self.head.cas(h, next);
            }
        }
    }

    /// Quiescent snapshot.
    pub fn snapshot_vals(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        unsafe {
            let s = self.head.load() as *mut Node<M>;
            let mut n = (*s).next.load() as *mut Node<M>;
            while !n.is_null() {
                if (*n).deq_tid.load() == 0 {
                    out.push((*n).val.load());
                }
                n = (*n).next.load() as *mut Node<M>;
            }
        }
        out
    }
}

impl<M: Persist> Drop for LogQueue<M> {
    fn drop(&mut self) {
        unsafe {
            let mut n = self.head.load() as *mut Node<M>;
            while !n.is_null() {
                let next = (*n).next.load() as *mut Node<M>;
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

    type Q = LogQueue<CountingNvm>;

    #[test]
    fn fifo() {
        nvm::tid::set_tid(0);
        let q = Q::new();
        assert_eq!(q.dequeue(0), None);
        q.enqueue(0, 1);
        q.enqueue(0, 2);
        assert_eq!(q.dequeue(0), Some(1));
        assert_eq!(q.dequeue(0), Some(2));
        assert_eq!(q.dequeue(0), None);
    }

    #[test]
    fn per_op_persistency_cost_is_constant() {
        const P: usize = 47; // own tid: its counters are this test's alone
        nvm::tid::set_tid(P);
        let q = Q::new();
        q.enqueue(P, 1);
        let before = nvm::stats::Snapshot::of_tid(P);
        q.enqueue(P, 2);
        let d = nvm::stats::Snapshot::of_tid(P).since(&before);
        assert!(d.pwb <= 8, "enqueue flushes O(1) words, got {}", d.pwb);
        assert!(d.psync <= 4);
    }

    #[test]
    fn concurrent_conservation() {
        let q = Arc::new(Q::new());
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = Arc::new(AtomicU64::new(0));
        let per = 1000u64;
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
