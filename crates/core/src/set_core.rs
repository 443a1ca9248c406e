//! Head-parameterized core of the detectably recoverable sorted-list set
//! (paper Section 4, Algorithms 3–5, obtained by applying ROpt-ISB).
//!
//! The ISB construction is *head-agnostic*: AffectSet/WriteSet tracking,
//! helping and Op-Recover never mention where the traversal started. This
//! module exploits that by factoring the search and gather phases of the set
//! algorithm out of [`crate::list::RList`] into [`SetCore`], a borrowed view
//! `(head node, environment, node pool)`; the skeleton around them —
//! prologue, publish, help, answer, recover — is [`crate::op`], run over the
//! structure's [`Env`], and the bucket's one traversal is [`walk_bucket`]. [`crate::list::RList`] is the
//! one-bucket instantiation; [`crate::hashmap::RHashMap`] routes keys to a
//! power-of-two array of bucket heads sharing **one** recovery area (one
//! pending operation per process, per the paper's model) and one collector;
//! [`crate::stack::RStack`] is the list whose updates land at the bucket's
//! front ([`SetCore::push`] / [`SetCore::pop`]).
//!
//! The bucket is sorted by strictly increasing `u64` keys with two sentinels
//! (`0 = −∞`, `u64::MAX = +∞`); user keys must lie strictly between. Each
//! node carries an `info` field (tagged pointer, see [`crate::tag`]).
//!
//! * A node tagged **for update** has its `next` field about to change; it
//!   is untagged when the update completes.
//! * A node tagged **for deletion** stays tagged forever (the Harris mark
//!   bit) — this includes the successor that a successful *Insert*
//!   **copy-replaces**: `Insert(k)` links `pred → newnd(k) → newcurr(copy of
//!   curr)` and retires `curr`. The copy guarantees **pointer freshness**: a
//!   node only ever leaves a `next` field by being retired, so no `next` or
//!   `info` field ever holds the same value twice and stale helper CASes
//!   fail harmlessly (DESIGN.md §4).
//!
//! Outcomes that change nothing (`Find`, `Insert` of a present key, `Delete`
//! of an absent key) never call `Help`. In arms 0/1 they take the paper's
//! ROpt fast path ([`Env::answer_tracked`]): a single-element AffectSet and
//! the response computed from immutable fields *before* the descriptor is
//! persisted and published. Under
//! `Isb-LP` they take no descriptor at all and return with the
//! recovery line as the invocation glue left it, which recovery maps to a
//! restart (`recovery` module docs; DESIGN.md §12).
//!
//! ### Deviation from the paper's pseudocode
//! Algorithm 1 reuses the same Info structure after an attempt that failed
//! without installing anything. We allocate a fresh Info for every attempt
//! that follows a *published* one: refilling a descriptor that `RD_q`
//! already points to is not crash-atomic on real hardware (a torn descriptor
//! could be helped during recovery). The single-attempt fast path is
//! unchanged.

use crate::arm;
use crate::counters;
use crate::engine::{
    help, res_val, HelpOutcome, Info, InfoFill, RES_EMPTY, RES_FALSE, RES_TRUE, RES_UNIT,
};
use crate::env::Env;
use crate::op::{cell_addr, TrackedNode};
use crate::optype;
use crate::pool::{Pool, PoolItem};
use crate::tag;
use nvm::{PWord, Persist, PersistWords};
use reclaim::Guard;

/// Sentinel key of a bucket head (−∞).
pub const KEY_MIN: u64 = 0;
/// Sentinel key of a bucket tail (+∞).
pub const KEY_MAX: u64 = u64::MAX;

/// A list node: `key` (immutable once published), `next`, `info`.
#[repr(C)]
pub struct Node<M: Persist> {
    key: PWord<M>,
    next: PWord<M>,
    info: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for Node<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.key);
        f(&self.next);
        f(&self.info);
    }
}

impl<M: Persist> Node<M> {
    fn alloc(key: u64, next: u64, info: u64) -> *mut Node<M> {
        counters::node_alloc();
        Box::into_raw(Box::new(Node {
            key: PWord::new(key),
            next: PWord::new(next),
            info: PWord::new(info),
        }))
    }

    /// Re-initialize a pool-recycled node (all fields — the node is dirty).
    fn init(&self, key: u64, next: u64, info: u64) {
        self.key.store(key);
        self.next.store(next);
        self.info.store(info);
    }
}

impl<M: Persist> PoolItem for Node<M> {
    fn fresh() -> Self {
        counters::node_alloc();
        Node { key: PWord::new(0), next: PWord::new(0), info: PWord::new(0) }
    }

    fn count_reuse() {
        counters::node_reuse();
    }
}

impl<M: Persist> TrackedNode<M> for Node<M> {
    fn info(&self) -> &PWord<M> {
        &self.info
    }
}

impl<M: Persist> Drop for Node<M> {
    fn drop(&mut self) {
        counters::node_free();
    }
}

/// Allocates a fresh empty bucket: a `−∞` head linked to a `+∞` tail.
/// Ownership passes to the caller, which tears it down through
/// [`crate::graph::teardown`].
pub fn new_bucket<M: Persist>() -> *mut Node<M> {
    let tail: *mut Node<M> = Node::alloc(KEY_MAX, 0, 0);
    Node::alloc(KEY_MIN, tail as u64, 0)
}

/// Allocates a fresh empty bucket whose sentinels `[head, tail]` are drawn
/// from `nodes`: the mapped backend routes this through its persistent arena
/// so bucket heads survive the process. The caller makes them durable before
/// the root word that names the head (`recovery::install_roots`). Panics on
/// a passthrough pool — a heap-`Box` sentinel whose address gets persisted
/// into the arena would dangle after a restart, so there is deliberately no
/// fallback.
pub fn new_bucket_in<M: Persist>(nodes: &Pool<Node<M>>) -> [*mut Node<M>; 2] {
    let draw = |key: u64, next: u64| {
        let p = nodes.take().expect("mapped bucket sentinels require an arena-backed pool");
        // SAFETY: a pool object is live and exclusively ours until
        // published; init rewrites every (dirty) field.
        unsafe { (*p).init(key, next, 0) };
        p
    };
    let tail = draw(KEY_MAX, 0);
    [draw(KEY_MIN, tail as u64), tail]
}

/// The bucket traversal ([`crate::graph::Graph::walk`] for the list and for
/// every hash-map shard): from `head` along `next` to the `+∞` sentinel.
///
/// # Safety
/// As [`crate::graph::Graph::walk`].
pub unsafe fn walk_bucket<M: Persist>(
    head: *mut Node<M>,
    admit: &dyn Fn(u64) -> bool,
    mut budget: usize,
    visit: &mut dyn FnMut(u64, u64),
) -> Result<(), u64> {
    let mut n = head as u64;
    loop {
        if n == 0 || budget == 0 || !admit(n) {
            return Err(n);
        }
        budget -= 1;
        // SAFETY: non-null and admitted.
        let node = unsafe { &*(n as *const Node<M>) };
        visit(n, node.info.load());
        if node.key.load() == KEY_MAX {
            return Ok(());
        }
        n = node.next.load();
    }
}

/// Where an update lands in the bucket: before the first node whose key is
/// at least `k` (the ordered set), or before the first node (the stack, whose
/// node keys are its values, in push order).
#[derive(Clone, Copy, PartialEq)]
enum At {
    Key(u64),
    Front,
}

struct SearchRes<M: Persist> {
    pred: *mut Node<M>,
    curr: *mut Node<M>,
    pred_info: u64,
    curr_info: u64,
}

/// A borrowed view of one ordered-set bucket plus the structure-wide
/// environment and node pool — everything the ISB set algorithm needs.
/// `ARM` is the persistency placement, a [`crate::arm`] level.
///
/// `SetCore` is constructed per call by the owning structure; it holds no
/// state of its own and performs no allocation besides the operation's
/// nodes/descriptors.
pub struct SetCore<'a, M: Persist, const ARM: u8> {
    head: *mut Node<M>,
    env: &'a Env<M>,
    nodes: &'a Pool<Node<M>>,
}

impl<'a, M: Persist, const ARM: u8> SetCore<'a, M, ARM> {
    /// A view over the bucket rooted at `head`.
    ///
    /// # Safety
    /// `head` must point to a live bucket created by [`new_bucket`] whose
    /// nodes are only reclaimed through `env`'s collector, `env` must be the
    /// environment every operation on this bucket runs in, and `nodes` the
    /// pool it built for the structure ([`Env::pool`]).
    pub unsafe fn new(head: *mut Node<M>, env: &'a Env<M>, nodes: &'a Pool<Node<M>>) -> Self {
        Self { head, env, nodes }
    }

    /// Draw a node: pool hit (re-initialized), or heap in passthrough mode.
    #[inline]
    fn alloc_node(&self, key: u64, next: u64, info: u64) -> *mut Node<M> {
        self.nodes.draw(|n| n.init(key, next, info), || Node::alloc(key, next, info))
    }

    fn assert_key(key: u64) {
        assert!(key > KEY_MIN && key < KEY_MAX, "key must be in (0, u64::MAX)");
    }

    /// Algorithm 5 `Search`: returns the first node with `node.key >= key`
    /// (at [`At::Front`], the first node after the head) as `curr`, its
    /// predecessor, and their info values — each info value read on first
    /// access to its node (before the node's `next`).
    ///
    /// # Safety
    /// Caller must hold an EBR pin.
    #[inline(always)]
    unsafe fn search(&self, at: At) -> SearchRes<M> {
        unsafe {
            let mut curr = self.head;
            let mut curr_info = (*curr).info.load();
            let mut pred = curr;
            let mut pred_info = curr_info;
            while match at {
                At::Key(key) => (*curr).key.load() < key,
                At::Front => curr == self.head,
            } {
                pred = curr;
                pred_info = curr_info;
                curr = (*curr).next.load() as *mut Node<M>;
                curr_info = (*curr).info.load();
            }
            SearchRes { pred, curr, pred_info, curr_info }
        }
    }

    /// Return never-published new nodes straight to the pool (and release
    /// their info-cell references) — the private-failure fast path. Nothing
    /// to do when no attempt drew them.
    unsafe fn drop_pending(
        &self,
        newnd: *mut Node<M>,
        newcurr: *mut Node<M>,
        filled: u64,
        g: &Guard<'_>,
    ) {
        if newnd.is_null() {
            return;
        }
        unsafe {
            if filled != 0 {
                Info::<M>::release(tag::ptr_of(filled), 2, g);
            }
            self.nodes.give(newnd, g);
            self.nodes.give(newcurr, g);
        }
    }

    /// Inserts `key`; returns `false` iff it was already present.
    /// (Algorithm 3, `Insert`.)
    pub fn insert(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        self.link(pid, At::Key(key), key)
    }

    /// Links a node holding `v` in front of the first node: the stack's
    /// push, the set's insert landing at the front instead of at `v`'s key.
    /// `v` must stay below `u64::MAX - 16` ([`SetCore::pop`] answers it
    /// through the response encoding).
    pub fn push(&self, pid: usize, v: u64) {
        self.link(pid, At::Front, v);
    }

    /// The insert at `at` of a node keyed `key`: copy-replace `curr`, link
    /// `pred → newnd → newcurr`. `false` iff `at` is `key`'s and finds it.
    #[inline(always)]
    fn link(&self, pid: usize, at: At, key: u64) -> bool {
        let (op, presult) = match at {
            At::Key(_) => (optype::INSERT, RES_TRUE),
            At::Front => (optype::PUSH, RES_UNIT),
        };
        // ONE pin covers the whole operation: the previous descriptor's
        // release, every attempt, and all retirements (interior help calls
        // re-pin through the collector's nested fast path).
        let (env, g) = (self.env, self.env.collector.pin());
        env.begin::<ARM>(pid, &g);
        // newnd → newcurr, drawn by the first attempt that has something to
        // insert; newcurr is refreshed per attempt as a copy of curr.
        let mut newcurr: *mut Node<M> = std::ptr::null_mut();
        let mut newnd: *mut Node<M> = std::ptr::null_mut();
        let mut filled: u64 = 0; // tagged-info value currently in the new nodes' cells
        let mut published: u64 = 0;
        loop {
            let s = unsafe { self.search(at) };
            // Helping phase.
            if tag::is_tagged(s.pred_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.pred_info), false, &g) };
                continue;
            }
            if tag::is_tagged(s.curr_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.curr_info), false, &g) };
                continue;
            }
            let curr_key = unsafe { (*s.curr).key.load() };
            if at == At::Key(curr_key) {
                // Key already present: nothing to change.
                if !arm::is_lp(ARM) {
                    let seen = unsafe { (cell_addr(&(*s.curr).info), s.curr_info) };
                    env.answer_tracked::<ARM>(pid, op, seen, RES_FALSE, &mut published, &g);
                }
                unsafe { self.drop_pending(newnd, newcurr, filled, &g) };
                return false;
            }
            if newnd.is_null() {
                newcurr = self.alloc_node(0, 0, 0);
                newnd = self.alloc_node(key, newcurr as u64, 0);
            }
            // A fresh descriptor per attempt (pointer freshness — the pool's
            // epoch delay keeps a failed descriptor's address out of
            // circulation while it is still visible).
            let info = env.alloc_info();
            // Update path: refresh the copy of curr and the new nodes' tags.
            unsafe {
                (*newcurr).key.store(curr_key);
                (*newcurr).next.store((*s.curr).next.load());
                let t = tag::tagged(info as u64);
                if filled != t {
                    if filled != 0 {
                        Info::<M>::release(tag::ptr_of(filled), 2, &g);
                    }
                    (*newnd).info.store(t);
                    (*newcurr).info.store(t);
                    filled = t;
                }
                Info::fill(
                    info,
                    &InfoFill {
                        optype: op,
                        affect: &[
                            (cell_addr(&(*s.pred).info), s.pred_info),
                            (cell_addr(&(*s.curr).info), s.curr_info),
                        ],
                        write: &[(cell_addr(&(*s.pred).next), s.curr as u64, newnd as u64)],
                        newset: &[cell_addr(&(*newnd).info), cell_addr(&(*newcurr).info)],
                        del_mask: 0b10, // curr is deletion-tagged (copy-replaced)
                        presult,
                    },
                );
                arm::pwb_obj_arm::<M, _, ARM>(&*newnd);
                arm::pwb_obj_arm::<M, _, ARM>(&*newcurr);
                env.persist_descriptor::<ARM>(info);
            }
            env.publish::<ARM>(pid, info, &mut published, &g);
            match unsafe { help::<M, ARM>(info, true, &g) } {
                HelpOutcome::Done => {
                    unsafe { env.retire(self.nodes, s.curr, &g) };
                    return true;
                }
                HelpOutcome::FailedAt(i) => {
                    // Abandon: release never-installed affect slots.
                    unsafe { Info::release(info, (2 - i) as u32, &g) };
                }
            }
        }
    }

    /// Deletes `key`; returns `false` iff it was absent. (Algorithm 5.)
    pub fn delete(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        self.unlink(pid, At::Key(key)).is_some()
    }

    /// Unlinks the first node: the stack's pop. Answers its key; `None` on
    /// an empty bucket.
    pub fn pop(&self, pid: usize) -> Option<u64> {
        self.unlink(pid, At::Front)
    }

    /// The delete at `at`: unlinks `curr` and answers its key, or `None`
    /// when `curr` is not `at`'s (a missing key, the `+∞` sentinel).
    #[inline(always)]
    fn unlink(&self, pid: usize, at: At) -> Option<u64> {
        let (env, g) = (self.env, self.env.collector.pin());
        env.begin::<ARM>(pid, &g);
        let mut published: u64 = 0;
        loop {
            let s = unsafe { self.search(at) };
            if tag::is_tagged(s.pred_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.pred_info), false, &g) };
                continue;
            }
            if tag::is_tagged(s.curr_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.curr_info), false, &g) };
                continue;
            }
            let curr_key = unsafe { (*s.curr).key.load() };
            let (op, found) = match at {
                At::Key(key) => (optype::DELETE, curr_key == key),
                At::Front => (optype::POP, curr_key != KEY_MAX),
            };
            if !found {
                // Key not present: nothing to change.
                if !arm::is_lp(ARM) {
                    let seen = unsafe { (cell_addr(&(*s.curr).info), s.curr_info) };
                    let response = if at == At::Front { RES_EMPTY } else { RES_FALSE };
                    env.answer_tracked::<ARM>(pid, op, seen, response, &mut published, &g);
                }
                return None;
            }
            let info = env.alloc_info();
            // succ read after the helping phase; stable once both tags hold.
            let succ = unsafe { (*s.curr).next.load() };
            unsafe {
                Info::fill(
                    info,
                    &InfoFill {
                        optype: op,
                        affect: &[
                            (cell_addr(&(*s.pred).info), s.pred_info),
                            (cell_addr(&(*s.curr).info), s.curr_info),
                        ],
                        write: &[(cell_addr(&(*s.pred).next), s.curr as u64, succ)],
                        newset: &[],
                        del_mask: 0b10, // curr stays deletion-tagged forever
                        presult: if at == At::Front { res_val(curr_key) } else { RES_TRUE },
                    },
                );
                env.persist_descriptor::<ARM>(info);
            }
            env.publish::<ARM>(pid, info, &mut published, &g);
            match unsafe { help::<M, ARM>(info, true, &g) } {
                HelpOutcome::Done => {
                    unsafe { env.retire(self.nodes, s.curr, &g) };
                    return Some(curr_key);
                }
                HelpOutcome::FailedAt(i) => {
                    unsafe { Info::release(info, (2 - i) as u32, &g) };
                }
            }
        }
    }

    /// Whether `key` is present. (Algorithm 3, `Find` — fully read-only, so
    /// it never sets `CP_q := 1` and recovery always restarts it, which is
    /// always safe. Arms 0/1 reproduce the paper's find all the same, which
    /// persists and publishes its response; nothing reads it.)
    pub fn find(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        let (env, g) = (self.env, self.env.collector.pin());
        let mut published = env.begin_find::<ARM>(pid, &g);
        loop {
            let s = unsafe { self.search(At::Key(key)) };
            if tag::is_tagged(s.curr_info) {
                unsafe { help::<M, ARM>(tag::ptr_of(s.curr_info), false, &g) };
                continue;
            }
            let res = unsafe { (*s.curr).key.load() } == key;
            if !arm::is_lp(ARM) {
                let seen = unsafe { (cell_addr(&(*s.curr).info), s.curr_info) };
                let enc = if res { RES_TRUE } else { RES_FALSE };
                env.answer_tracked::<ARM>(pid, optype::FIND, seen, enc, &mut published, &g);
            }
            return res;
        }
    }

    /// Appends this bucket's user keys to `out` in bucket order (requires
    /// exclusive access ⇒ quiescence).
    pub fn snapshot_keys_into(&self, out: &mut Vec<u64>) {
        unsafe {
            let mut n = (*self.head).next.load() as *mut Node<M>;
            while (*n).key.load() != KEY_MAX {
                out.push((*n).key.load());
                n = (*n).next.load() as *mut Node<M>;
            }
        }
    }

    /// Structural invariants of this bucket: strictly sorted keys, intact
    /// sentinels, no reachable node is tagged (quiescent bucket). Panics on
    /// violation.
    pub fn check_invariants(&self) {
        unsafe {
            assert_eq!((*self.head).key.load(), KEY_MIN);
            let mut prev_key = KEY_MIN;
            let mut n = (*self.head).next.load() as *mut Node<M>;
            loop {
                let k = (*n).key.load();
                assert!(k > prev_key, "keys must be strictly increasing: {prev_key} !< {k}");
                assert!(
                    !tag::is_tagged((*n).info.load()),
                    "reachable node (key {k}) is tagged in a quiescent list"
                );
                if k == KEY_MAX {
                    break;
                }
                prev_key = k;
                n = (*n).next.load() as *mut Node<M>;
            }
        }
    }
}
