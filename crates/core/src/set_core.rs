//! Head-parameterized core of the detectably recoverable sorted-list set
//! (paper Section 4, Algorithms 3–5, obtained by applying ROpt-ISB).
//!
//! The ISB construction is *head-agnostic*: AffectSet/WriteSet tracking,
//! helping and Op-Recover never mention where the traversal started. This
//! module is the set algorithm's search and gather phases as [`SetCore`], a
//! borrowed view `(head node, environment, node pool)`; the skeleton around
//! them — prologue, publish, help, answer, recover — is [`crate::op`], run
//! over the structure's [`Env`] and one operation's context (`op::Update`).
//! A bucket is built once, by `buckets`, and walked once, by
//! [`walk_bucket`]. [`crate::hashmap::RHashMap`] routes keys
//! to a power-of-two array of bucket heads sharing **one** recovery area
//! (one pending operation per process, per the paper's model) and one
//! collector; [`crate::list::RList`] is its one-shard instance, and
//! [`crate::stack::RStack`] another one whose updates land at the bucket's
//! front ([`SetCore::push`] / [`SetCore::pop`]).
//!
//! The bucket is sorted by strictly increasing `u64` keys with two sentinels
//! (`0 = −∞`, `u64::MAX = +∞`); user keys must lie strictly between. Each
//! node carries an `info` field (a tagged link, see [`crate::tag`]).
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
//! ROpt fast path (`op::Update::unchanged`): a single-element AffectSet and
//! the response computed from immutable fields *before* the descriptor is
//! persisted and published. Under
//! `Isb-LP` they take no descriptor at all and return with the
//! recovery line as the invocation glue left it, which recovery maps to a
//! restart (`recovery` module docs; DESIGN.md §12).
//!
//! Under `Isb-LP` the insert's descriptor (the push's too) carries the
//! `LINK` bit: its tags, its link `pred.next: curr → newnd` and its done bit
//! share one fence window, and while `newnd`'s cell holds the tag the link
//! decides whether it took effect ([`crate::engine::help`], DESIGN.md §4).
//! The delete keeps its tag fence: its new value, `curr.next`, is not fresh.
//!
//! ### Deviation from the paper's pseudocode
//! Algorithm 1 reuses the same Info structure after an attempt that failed
//! without installing anything. We allocate a fresh Info for every attempt
//! that follows a *published* one: refilling a descriptor that `RD_q`
//! already points to is not crash-atomic on real hardware (a torn descriptor
//! could be helped during recovery). The single-attempt fast path is
//! unchanged.

use crate::arm;
use crate::engine::{res_val, Info, InfoFill, RES_EMPTY, RES_FALSE, RES_TRUE, RES_UNIT};
use crate::env::Env;
use crate::op::{tracked_node, Update};
use crate::optype;
use crate::pool::Pool;
use crate::recovery::install_roots;
use crate::tag::{self, Base};
use nvm::{PWord, Persist};
use reclaim::Guard;

/// Sentinel key of a bucket head (−∞).
pub const KEY_MIN: u64 = 0;
/// Sentinel key of a bucket tail (+∞).
pub const KEY_MAX: u64 = u64::MAX;

tracked_node! {
    /// A list node: `key` (immutable once published), `next`, `info`.
    Node { key, next, info }
}

/// The one construction of a set kind's buckets, one per word of `roots`
/// (the map's shards; the list's and the stack's one bucket): a root word
/// that is still zero gets an empty bucket — a `−∞` head linked to a `+∞`
/// tail, both drawn from `nodes` — installed sentinels first
/// ([`install_roots`]); a root word already set is loaded. Returns every
/// bucket's head. The in-process constructor runs it over owned zero words,
/// [`crate::recovery::MappedLayout::open`] over the catalog root block; the
/// links are offsets from `b`.
///
/// # Safety
/// Single-threaded creation; a set root word names a bucket built by an
/// earlier run over memory `nodes` draws from (the same heap).
pub(crate) unsafe fn buckets<M: Persist>(
    b: Base,
    nodes: &Pool<Node<M>>,
    roots: &[PWord<M>],
) -> Box<[*mut Node<M>]> {
    let mut heads: Vec<u64> = roots.iter().map(PWord::load).collect();
    let mut sentinels = Vec::new();
    for head in heads.iter_mut().filter(|h| **h == 0) {
        let tail = nodes.draw(|n| n.init(KEY_MAX, 0, 0));
        let first = nodes.draw(|n| n.init(KEY_MIN, b.word(tail), 0));
        *head = b.word(first);
        sentinels.extend([first, tail]);
    }
    if !sentinels.is_empty() {
        // SAFETY: the sentinels were just drawn and initialised.
        unsafe { install_roots(&sentinels, roots, &heads) };
    }
    heads.into_iter().map(|h| b.at(h)).collect()
}

/// The bucket traversal ([`crate::graph::Graph::walk`] for the list and for
/// every hash-map shard): from `head` along `next` to the `+∞` sentinel,
/// the links offsets from `b`.
///
/// # Safety
/// As [`crate::graph::Graph::walk`].
pub unsafe fn walk_bucket<M: Persist>(
    b: Base,
    head: *mut Node<M>,
    admit: &dyn Fn(u64) -> bool,
    mut budget: usize,
    visit: &mut dyn FnMut(u64, u64),
) -> Result<(), u64> {
    let mut n = b.word(head);
    loop {
        if n == 0 || budget == 0 || !admit(n) {
            return Err(n);
        }
        budget -= 1;
        let p = b.at::<Node<M>>(n);
        // SAFETY: non-null and admitted.
        let node = unsafe { &*p };
        visit(p as u64, node.info.load());
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
    /// `head` must point to a live bucket created by `buckets` whose
    /// nodes are only reclaimed through `env`'s collector, `env` must be the
    /// environment every operation on this bucket runs in, and `nodes` the
    /// pool it built for the structure ([`Env::pool`]).
    pub unsafe fn new(head: *mut Node<M>, env: &'a Env<M>, nodes: &'a Pool<Node<M>>) -> Self {
        Self { head, env, nodes }
    }

    /// Draw a node from the structure's pool, initialized.
    #[inline]
    fn alloc_node(&self, key: u64, next: u64, info: u64) -> *mut Node<M> {
        self.nodes.draw(|n| n.init(key, next, info))
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
        let b = self.env.rec.base;
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
                curr = b.at((*curr).next.load());
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
                Info::<M>::release(self.env.rec.base.at(filled), 2, g);
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
        let (mut u, b) = (Update::<M, ARM>::begin(self.env, pid), self.env.rec.base);
        // newnd → newcurr, drawn by the first attempt that has something to
        // insert; newcurr is refreshed per attempt as a copy of curr.
        let mut newcurr: *mut Node<M> = std::ptr::null_mut();
        let mut newnd: *mut Node<M> = std::ptr::null_mut();
        let mut filled: u64 = 0; // tagged-info value currently in the new nodes' cells
        loop {
            let s = unsafe { self.search(at) };
            // SAFETY: info words gathered under the operation's pin.
            if unsafe { u.helped(&[s.pred_info, s.curr_info]) } {
                continue;
            }
            let curr_key = unsafe { (*s.curr).key.load() };
            let seen = unsafe { (b.word(&(*s.curr).info), s.curr_info) };
            if at == At::Key(curr_key) {
                // Key already present: nothing to change.
                u.unchanged(op, seen, RES_FALSE);
                unsafe { self.drop_pending(newnd, newcurr, filled, &u.g) };
                return false;
            }
            if newnd.is_null() {
                newcurr = self.alloc_node(0, 0, 0);
                newnd = self.alloc_node(key, b.word(newcurr), 0);
            }
            // A fresh descriptor per attempt (pointer freshness — the pool's
            // epoch delay keeps a failed descriptor's address out of
            // circulation while it is still visible).
            let info = self.env.alloc_info();
            // Update path: refresh the copy of curr and the new nodes' tags.
            // SAFETY: the gathered nodes are live under the pin, the new ones
            // drawn and unpublished, the descriptor fresh.
            let done = unsafe {
                (*newcurr).key.store(curr_key);
                (*newcurr).next.store((*s.curr).next.load());
                let t = tag::tagged(b.word(info));
                if filled != t {
                    if filled != 0 {
                        Info::<M>::release(b.at(filled), 2, &u.g);
                    }
                    (*newnd).info.store(t);
                    (*newcurr).info.store(t);
                    filled = t;
                }
                if arm::is_lp(ARM) {
                    // The link decides the insert (DESIGN.md §4). `curr` may
                    // be the node an earlier insert linked, its cleanup
                    // untag never written back: the untagged value is made
                    // durable before this insert's link can be, so an image
                    // that keeps the link and loses `curr`'s deletion tag
                    // does not show the earlier insert undecided.
                    arm::pwb_arm::<M, ARM>(&(*s.curr).info);
                }
                let fill = InfoFill {
                    optype: op,
                    affect: &[(b.word(&(*s.pred).info), s.pred_info), seen],
                    write: &[(b.word(&(*s.pred).next), b.word(s.curr), b.word(newnd))],
                    newset: &[b.word(&(*newnd).info), b.word(&(*newcurr).info)],
                    node_words: Node::<M>::WORDS,
                    del_mask: 0b10, // curr is deletion-tagged (copy-replaced)
                    presult,
                };
                u.attempt(info, &fill, true, &[newnd, newcurr])
            };
            if done.is_ok() {
                unsafe { self.env.retire(self.nodes, s.curr, &u.g) };
                return true;
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
        let (mut u, b) = (Update::<M, ARM>::begin(self.env, pid), self.env.rec.base);
        loop {
            let s = unsafe { self.search(at) };
            // SAFETY: info words gathered under the operation's pin.
            if unsafe { u.helped(&[s.pred_info, s.curr_info]) } {
                continue;
            }
            let curr_key = unsafe { (*s.curr).key.load() };
            let seen = unsafe { (b.word(&(*s.curr).info), s.curr_info) };
            let (op, found) = match at {
                At::Key(key) => (optype::DELETE, curr_key == key),
                At::Front => (optype::POP, curr_key != KEY_MAX),
            };
            if !found {
                // Key not present: nothing to change.
                u.unchanged(op, seen, if at == At::Front { RES_EMPTY } else { RES_FALSE });
                return None;
            }
            let info = self.env.alloc_info();
            // succ read after the helping phase; stable once both tags hold.
            let succ = unsafe { (*s.curr).next.load() };
            let fill = unsafe {
                InfoFill {
                    optype: op,
                    affect: &[(b.word(&(*s.pred).info), s.pred_info), seen],
                    write: &[(b.word(&(*s.pred).next), b.word(s.curr), succ)],
                    newset: &[],
                    node_words: 0,
                    del_mask: 0b10, // curr stays deletion-tagged forever
                    presult: if at == At::Front { res_val(curr_key) } else { RES_TRUE },
                }
            };
            // SAFETY: a fresh descriptor over nodes the pin keeps live.
            if unsafe { u.attempt::<Node<M>>(info, &fill, false, &[]) }.is_ok() {
                unsafe { self.env.retire(self.nodes, s.curr, &u.g) };
                return Some(curr_key);
            }
        }
    }

    /// Whether `key` is present. (Algorithm 3, `Find` — fully read-only, so
    /// it never sets `CP_q := 1` and recovery always restarts it, which is
    /// always safe. Arms 0/1 reproduce the paper's find all the same, which
    /// persists and publishes its response; nothing reads it.)
    pub fn find(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        let (mut u, b) = (Update::<M, ARM>::find(self.env, pid), self.env.rec.base);
        loop {
            let s = unsafe { self.search(At::Key(key)) };
            // SAFETY: info words gathered under the operation's pin.
            if unsafe { u.helped(&[s.curr_info]) } {
                continue;
            }
            let res = unsafe { (*s.curr).key.load() } == key;
            let seen = unsafe { (b.word(&(*s.curr).info), s.curr_info) };
            u.unchanged(optype::FIND, seen, if res { RES_TRUE } else { RES_FALSE });
            return res;
        }
    }

    /// Appends this bucket's user keys to `out` in bucket order (requires
    /// exclusive access ⇒ quiescence).
    pub fn snapshot_keys_into(&self, out: &mut Vec<u64>) {
        let b = self.env.rec.base;
        unsafe {
            let mut n = b.at::<Node<M>>((*self.head).next.load());
            while (*n).key.load() != KEY_MAX {
                out.push((*n).key.load());
                n = b.at((*n).next.load());
            }
        }
    }

    /// Structural invariants of this bucket: strictly sorted keys, intact
    /// sentinels, no reachable node is tagged (quiescent bucket). Panics on
    /// violation.
    pub fn check_invariants(&self) {
        let b = self.env.rec.base;
        unsafe {
            assert_eq!((*self.head).key.load(), KEY_MIN);
            let mut prev_key = KEY_MIN;
            let mut n = b.at::<Node<M>>((*self.head).next.load());
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
                n = b.at((*n).next.load());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::LP;
    use crate::list::RList;
    use crate::recovery::Recovered;
    use nvm::{sim, CountingNvm, SimNvm};

    /// An `Isb-LP` insert is decided by the cell of the node it links, not
    /// by any new cell: cleanup untags `newnd` before `newcurr`, and a
    /// process killed between the two leaves `newcurr` tagged. Another
    /// process then inserts between `pred` and `newnd` — it tags `newnd`
    /// and moves `pred.next` — and recovery of the killed insert meets a
    /// foreign value at `pred`. Decided while *any* new cell holds the tag,
    /// it asks the link, finds it gone and restarts: the re-invoked insert
    /// answers `false` for an insert that took effect.
    #[test]
    fn lp_insert_is_decided_by_its_linked_cell_not_any_new_cell() {
        let _gate = crate::counters::gate_shared();
        let run = std::thread::spawn(|| {
            nvm::tid::set_tid(1);
            let mut list = RList::<CountingNvm, LP>::new();
            let g = list.env.collector.pin(); // every node retired below stays allocated
            assert!(list.insert(1, 20));
            let (b, tagged) = (list.env.rec.base, tag::tagged(list.env.rec.published(1)));
            // SAFETY: one thread, and nothing is reclaimed under `g`: `newnd`
            // (20) and its successor `newcurr` stay allocated to the end.
            let newcurr = unsafe {
                let newnd = list.bucket(0).search(At::Key(20)).curr;
                &*b.at::<Node<CountingNvm>>((*newnd).next.load())
            };
            newcurr.info.store(tagged); // cleanup cut after `newnd`
            assert!(list.insert(2, 10), "pid 2 inserts between `pred` and `newnd`");
            assert_eq!(list.env.recover::<LP>(1), Recovered::Completed(RES_TRUE));
            assert_ne!(newcurr.info.load(), tagged, "recovery's cleanup untags it");
            drop(g);
            assert_eq!(list.snapshot_keys(), [10, 20]);
        });
        crate::simtest::join_by(vec![run], "the insert of 20 cut before its cleanup");
    }

    /// What another process does to a merged insert's neighbourhood before
    /// the crashed insert recovers.
    #[derive(Clone, Copy, Debug)]
    enum Meddle {
        /// Inserts 15, at the crashed insert's `pred` (10).
        InsertAtPred,
        /// Deletes 20, the crashed insert's key.
        DeleteKey,
    }

    /// A crash image of an `Isb-LP` insert may keep any subset of its two
    /// tags, its link and its done bit: one fence window, four cells. Swept
    /// over every instruction of the crashed insert of 20 and 16 images;
    /// before pid 1 recovers, pid 0 inserts at the same `pred` (10) or
    /// deletes the key. 20's `curr` is the node the insert of 30 linked just
    /// before, whose cleanup was never written back, so the images also
    /// lose 20's deletion tag on it while keeping 20's link. Recovery must
    /// answer `true` (20 was absent), and the set must hold what the two
    /// processes' responses say.
    #[test]
    fn lp_insert_recovers_by_its_link_not_its_result() {
        let _gate = crate::counters::gate_shared();
        let _session = crate::simtest::session();
        let end = std::time::Instant::now() + crate::simtest::DEADLINE;
        let mut crashes = 0;
        for meddle in [Meddle::InsertAtPred, Meddle::DeleteKey] {
            for seed in 0..16 {
                for fuse in 1.. {
                    // An insert that never outruns its fuse crashes forever.
                    let at = format!("{meddle:?} fuse {fuse} seed {seed}");
                    let deadline = crate::simtest::DEADLINE;
                    assert!(
                        std::time::Instant::now() < end,
                        "{at}: not finished within {deadline:?}"
                    );
                    sim::reset();
                    nvm::tid::set_tid(1);
                    let mut list = RList::<SimNvm, LP>::new();
                    sim::persist_all();
                    assert!(list.insert(1, 10) && list.insert(1, 30));
                    if !crate::simtest::crashed_at(fuse, seed, || {
                        list.insert(1, 20);
                    }) {
                        break;
                    }
                    crashes += 1;
                    nvm::tid::set_tid(0);
                    let other = match meddle {
                        Meddle::InsertAtPred => list.insert(0, 15),
                        Meddle::DeleteKey => list.delete(0, 20),
                    };
                    nvm::tid::set_tid(1);
                    let mine = list.recover_insert(1, 20);
                    list.scrub();
                    list.check_invariants();
                    let at = format!("{at}: pid 0 answered {other}");
                    let want: &[u64] = match (meddle, other) {
                        (Meddle::InsertAtPred, true) => &[10, 15, 20, 30],
                        (Meddle::InsertAtPred, false) => panic!("{at}: 15 was absent"),
                        (Meddle::DeleteKey, true) => &[10, 30],
                        (Meddle::DeleteKey, false) => &[10, 20, 30],
                    };
                    assert!(mine, "{at}: the insert of an absent key answered false");
                    assert_eq!(list.snapshot_keys(), want, "{at}");
                }
            }
        }
        assert!(crashes > 0, "no crash landed: the test exercises nothing");
    }
}
