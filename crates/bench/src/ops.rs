//! The operation vocabulary every crash kit speaks: an [`Op`] of one of the
//! five structure kinds, its [`Resp`], the [`Target`] view that invokes and
//! recovers it on any kind under any persistency model, and the sequential
//! [`SeqModel`] its responses are checked against. The `SimNvm` driver
//! ([`crate::crash`]) and the SIGKILL legs of the `tests` crate both run
//! operations through it.

use isb::bst::RBst;
use isb::engine::{val_of, RES_EMPTY, RES_FALSE, RES_TRUE, RES_UNIT, RES_VAL_BASE};
use isb::hashmap::RHashMap;
use isb::list::RList;
use isb::queue::RQueue;
use isb::stack::RStack;
use nvm::Persist;
use std::collections::{HashSet, VecDeque};

/// An operation of one of the five structure kinds, with its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Set insert (hash map, list, BST).
    Insert(u64),
    /// Set delete.
    Delete(u64),
    /// Set membership.
    Find(u64),
    /// Queue enqueue.
    Enqueue(u64),
    /// Queue dequeue.
    Dequeue,
    /// Stack push.
    Push(u64),
    /// Stack pop.
    Pop,
}

/// An operation's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resp {
    /// Insert / delete / find.
    Bool(bool),
    /// Enqueue / push.
    Unit,
    /// Dequeue / pop; `None` = empty.
    Val(Option<u64>),
}

impl Op {
    /// The response `res` — the encoded word of a `Recovered::Completed` —
    /// stands for; `None` when this operation never answers that word.
    pub fn decode(self, res: u64) -> Option<Resp> {
        match self {
            Op::Insert(_) | Op::Delete(_) | Op::Find(_) => match res {
                RES_TRUE => Some(Resp::Bool(true)),
                RES_FALSE => Some(Resp::Bool(false)),
                _ => None,
            },
            Op::Enqueue(_) | Op::Push(_) => (res == RES_UNIT).then_some(Resp::Unit),
            Op::Dequeue | Op::Pop => match res {
                RES_EMPTY => Some(Resp::Val(None)),
                r if r >= RES_VAL_BASE => Some(Resp::Val(Some(val_of(r)))),
                _ => None,
            },
        }
    }
}

/// A producer/consumer kind's put, given the value, and its take.
pub type PutTake = (fn(u64) -> Op, Op);

/// A structure an [`Op`] can be invoked on and recovered through: the five
/// `Store` kinds, each under every persistency model.
pub trait Target: Send + Sync {
    /// Invokes `op` as process `pid`; panics on an operation of another kind.
    fn invoke(&self, pid: usize, op: Op) -> Resp;

    /// `op`'s `Op.Recover` as process `pid`, re-invoked with the crashed
    /// invocation's arguments (the paper's system model): the kind's
    /// `recover_*`, which answers the crashed operation's response or
    /// re-invokes it.
    fn recover(&self, pid: usize, op: Op) -> Resp;

    /// The put and take of a producer/consumer kind (`Enqueue` / `Dequeue`,
    /// `Push` / `Pop`); `None` for a set kind.
    fn bag(&self) -> Option<PutTake> {
        None
    }

    /// `pid`'s recovery slot and published descriptor, for failure reports.
    ///
    /// # Safety
    /// As `isb::recovery::RecArea::describe`: quiescent, and no published
    /// descriptor freed.
    unsafe fn describe(&self, pid: usize) -> String;

    /// Brings a quiescent structure to rest after every process recovered —
    /// the scrub of helping obligations a crash image left visible, and the
    /// queue's tail-hint heal — checks its invariants, and returns its
    /// contents: a set's keys sorted, a bag's values in its own order.
    fn settle(&mut self) -> Vec<u64>;
}

macro_rules! set_target {
    ($kind:ident) => {
        impl<M: Persist, const ARM: u8> Target for $kind<M, ARM> {
            fn invoke(&self, pid: usize, op: Op) -> Resp {
                Resp::Bool(match op {
                    Op::Insert(k) => self.insert(pid, k),
                    Op::Delete(k) => self.delete(pid, k),
                    Op::Find(k) => self.find(pid, k),
                    _ => panic!("{op:?} is not a set operation"),
                })
            }

            fn recover(&self, pid: usize, op: Op) -> Resp {
                Resp::Bool(match op {
                    Op::Insert(k) => self.recover_insert(pid, k),
                    Op::Delete(k) => self.recover_delete(pid, k),
                    Op::Find(k) => self.recover_find(pid, k),
                    _ => panic!("{op:?} is not a set operation"),
                })
            }

            unsafe fn describe(&self, pid: usize) -> String {
                // SAFETY: `describe_recovery` asks what this method's caller
                // guarantees.
                unsafe { self.describe_recovery(pid) }
            }

            fn settle(&mut self) -> Vec<u64> {
                self.scrub();
                self.check_invariants();
                self.snapshot_keys()
            }
        }
    };
}
set_target!(RHashMap);
set_target!(RList);
set_target!(RBst);

impl<M: Persist, const ARM: u8> Target for RQueue<M, ARM> {
    fn invoke(&self, pid: usize, op: Op) -> Resp {
        match op {
            Op::Enqueue(v) => {
                self.enqueue(pid, v);
                Resp::Unit
            }
            Op::Dequeue => Resp::Val(self.dequeue(pid)),
            _ => panic!("{op:?} is not a queue operation"),
        }
    }

    fn recover(&self, pid: usize, op: Op) -> Resp {
        match op {
            Op::Enqueue(v) => {
                self.recover_enqueue(pid, v);
                Resp::Unit
            }
            Op::Dequeue => Resp::Val(self.recover_dequeue(pid)),
            _ => panic!("{op:?} is not a queue operation"),
        }
    }

    fn bag(&self) -> Option<PutTake> {
        Some((Op::Enqueue, Op::Dequeue))
    }

    unsafe fn describe(&self, pid: usize) -> String {
        // SAFETY: `describe_recovery` asks what this method's caller
        // guarantees.
        unsafe { self.describe_recovery(pid) }
    }

    // The LP arm never writes the tail hint back: the image can roll it to a
    // node dequeued long ago.
    fn settle(&mut self) -> Vec<u64> {
        self.scrub();
        self.heal_tail();
        self.check_invariants();
        self.snapshot_vals()
    }
}

impl<M: Persist> Target for RStack<M> {
    fn invoke(&self, pid: usize, op: Op) -> Resp {
        match op {
            Op::Push(v) => {
                self.push(pid, v);
                Resp::Unit
            }
            Op::Pop => Resp::Val(self.pop(pid)),
            _ => panic!("{op:?} is not a stack operation"),
        }
    }

    fn recover(&self, pid: usize, op: Op) -> Resp {
        match op {
            Op::Push(v) => {
                self.recover_push(pid, v);
                Resp::Unit
            }
            Op::Pop => Resp::Val(self.recover_pop(pid)),
            _ => panic!("{op:?} is not a stack operation"),
        }
    }

    fn bag(&self) -> Option<PutTake> {
        Some((Op::Push, Op::Pop))
    }

    unsafe fn describe(&self, pid: usize) -> String {
        // SAFETY: `describe_recovery` asks what this method's caller
        // guarantees.
        unsafe { self.describe_recovery(pid) }
    }

    fn settle(&mut self) -> Vec<u64> {
        self.scrub();
        self.check_invariants();
        self.snapshot_vals()
    }
}

/// The sequential model of one structure that one process owns.
#[derive(Debug, Default)]
pub struct SeqModel {
    /// Set contents (insert / delete / find).
    pub set: HashSet<u64>,
    /// Queue contents, front first.
    pub fifo: VecDeque<u64>,
    /// Stack contents, top last.
    pub lifo: Vec<u64>,
}

impl SeqModel {
    /// Applies `op`; returns the response of a sequential execution.
    pub fn apply(&mut self, op: Op) -> Resp {
        match op {
            Op::Insert(k) => Resp::Bool(self.set.insert(k)),
            Op::Delete(k) => Resp::Bool(self.set.remove(&k)),
            Op::Find(k) => Resp::Bool(self.set.contains(&k)),
            Op::Enqueue(v) => {
                self.fifo.push_back(v);
                Resp::Unit
            }
            Op::Dequeue => Resp::Val(self.fifo.pop_front()),
            Op::Push(v) => {
                self.lifo.push(v);
                Resp::Unit
            }
            Op::Pop => Resp::Val(self.lifo.pop()),
        }
    }
}
