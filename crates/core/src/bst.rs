//! Detectably recoverable external binary search tree: ISB-tracking applied
//! to the lock-free BST of Ellen, Fatourou, Ruppert, van Breugel (paper
//! Section 6).
//!
//! The tree is leaf-oriented: internal nodes hold routing keys, leaves hold
//! the set's keys. Search goes left on `k < node.key`. Two permanent dummy
//! internals (`∞₂` root, `∞₁` below it) guarantee every real leaf has a
//! non-null parent *and* grandparent.
//!
//! ISB mapping (paper Section 6):
//! * **Insert(k)** replaces leaf `l` with a three-node subtree (new internal
//!   with the new leaf and a *copy* of `l`). AffectSet = `{p (update),
//!   l (deletion)}`, WriteSet = `{⟨p.child, l, newInternal⟩}`, NewSet =
//!   `{newInternal, newLeaf, lCopy}`.
//! * **Delete(k)** swings `gp.child` from `p` to a *copy* of `l`'s sibling.
//!   AffectSet = `{gp (update), p, l, sibling (all deletion)}` — tagged in
//!   root-ward-first order, so conflicting operations always collide on a
//!   common ancestor before any leaf. WriteSet = `{⟨gp.child, p, sibCopy⟩}`,
//!   NewSet = `{sibCopy}`.
//! * **Find(k)**, and an insert/delete that finds nothing to change: the
//!   ROpt read-only path on `{l}` in arms 0/1, no descriptor at all under
//!   `Isb-LP` (see [`crate::set_core`]).
//!
//! The copies preserve pointer freshness exactly as in the list: a node
//! leaves a child pointer only by being retired.

use crate::arm;
use crate::engine::{Info, InfoFill, RES_FALSE, RES_TRUE};
use crate::env::Env;
use crate::graph::{self, Graph};
use crate::op::{tracked_node, Update};
use crate::optype;
use crate::pool::Pool;
use crate::recovery::{
    install_roots, root_words, AttachEnv, AttachError, MappedLayout, Rooted, SlotOps,
};
use crate::tag::{self, Base};
use nvm::mapped::MappedNvm;
use nvm::{PWord, Persist};
use reclaim::Guard;

/// Structure-kind tag of an `RBst` entry in a [`crate::store::Store`] catalog.
pub const KIND_BST: u64 = 4;

/// `∞₁`: larger than every user key.
pub const KEY_INF1: u64 = u64::MAX - 1;
/// `∞₂`: larger than `∞₁`.
pub const KEY_INF2: u64 = u64::MAX;

tracked_node! {
    /// A tree node; leaves have null children.
    Node { key, left, right, info }
}

impl<M: Persist> Node<M> {
    fn is_leaf(&self) -> bool {
        self.left.load() == 0
    }
}

/// The one construction of the tree's initial shape over its `root` word:
/// while the word is zero, five dummies drawn from `nodes` — an `∞₂` root
/// over an `∞₁` internal (with a key-0 and an `∞₁` leaf) and an `∞₂` leaf —
/// installed before the word that names them ([`install_roots`]). Routing
/// goes left on `k < node.key`, so every user key lands in the `∞₁`
/// internal's left subtree, with a parent and a grandparent. Returns the
/// root. The in-process constructor runs it over an owned zero word,
/// [`crate::recovery::MappedLayout::open`] over the catalog root block; a
/// creation cut short re-runs it (its abandoned blocks are swept once the
/// heap attaches non-fresh). The links are offsets from `b`.
///
/// # Safety
/// Single-threaded creation; a set `root` names dummies built by an earlier
/// run over memory `nodes` draws from (the same heap).
pub(crate) unsafe fn dummies<M: Persist>(
    b: Base,
    nodes: &Pool<Node<M>>,
    root: &PWord<M>,
) -> *mut Node<M> {
    if root.load() == 0 {
        let draw = |key: u64, left: *mut Node<M>, right: *mut Node<M>| {
            nodes.draw(|n| n.init(key, b.word(left), b.word(right), 0))
        };
        let null = std::ptr::null_mut();
        let (l0, l1) = (draw(0, null, null), draw(KEY_INF1, null, null));
        let inner = draw(KEY_INF1, l0, l1);
        let r2 = draw(KEY_INF2, null, null);
        let top = draw(KEY_INF2, inner, r2);
        // SAFETY: the five dummies were just drawn and initialised.
        unsafe {
            install_roots(&[l0, l1, inner, r2, top], std::slice::from_ref(root), &[b.word(top)])
        };
    }
    b.at(root.load())
}

struct SearchRes<M: Persist> {
    gp: *mut Node<M>,
    p: *mut Node<M>,
    l: *mut Node<M>,
    gp_info: u64,
    p_info: u64,
    l_info: u64,
    /// Child cell of `gp` pointing to `p`.
    gp_cell: *const PWord<M>,
    /// Child cell of `p` pointing to `l`.
    p_cell: *const PWord<M>,
}

/// Detectably recoverable external BST (see module docs).
pub struct RBst<M: Persist, const ARM: u8 = 0> {
    root: *mut Node<M>,
    node_pool: Pool<Node<M>>,
    pub(crate) env: Env<M>,
    /// The root word naming `root` (read once, at construction; held for
    /// the structure's lifetime).
    _roots: Rooted<[PWord<M>]>,
}

unsafe impl<M: Persist, const ARM: u8> Send for RBst<M, ARM> {}
unsafe impl<M: Persist, const ARM: u8> Sync for RBst<M, ARM> {}

impl<M: Persist, const ARM: u8> Default for RBst<M, ARM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const ARM: u8> RBst<M, ARM> {
    /// New empty tree.
    pub fn new() -> Self {
        // SAFETY: a new root block of our own.
        unsafe { Self::over(Env::volatile(), Rooted::zeroed(1)) }
    }

    /// The tree over its one root word, its dummies built or loaded by
    /// [`dummies`].
    ///
    /// # Safety
    /// As [`dummies`], over the memory `env`'s pools draw from.
    unsafe fn over(mut env: Env<M>, roots: Rooted<[PWord<M>]>) -> Self {
        let node_pool = env.pool::<_, ARM>();
        let root = unsafe { dummies(env.rec.base, &node_pool, &roots[0]) };
        Self { root, node_pool, env, _roots: roots }
    }

    /// Draw a node from the structure's pool, initialized.
    #[inline]
    fn alloc_node(&self, key: u64, left: u64, right: u64, info: u64) -> *mut Node<M> {
        self.node_pool.draw(|n| n.init(key, left, right, info))
    }

    fn assert_key(key: u64) {
        assert!(key > 0 && key < KEY_INF1, "key must be in (0, u64::MAX-1)");
    }

    /// Search for `key`: returns grandparent, parent, leaf, their info
    /// values (each read on first access to its node, before its children)
    /// and the two child cells on the path.
    ///
    /// # Safety
    /// Caller must hold an EBR pin.
    unsafe fn search(&self, key: u64) -> SearchRes<M> {
        let b = self.env.rec.base;
        unsafe {
            let mut gp = std::ptr::null_mut();
            let mut gp_info = 0;
            let mut gp_cell: *const PWord<M> = std::ptr::null();
            let mut p = self.root;
            let mut p_info = (*p).info.load();
            let mut p_cell: *const PWord<M> =
                if key < (*p).key.load() { &(*p).left } else { &(*p).right };
            let mut l = b.at::<Node<M>>((*p_cell).load());
            let mut l_info = (*l).info.load();
            while !(*l).is_leaf() {
                gp = p;
                gp_info = p_info;
                gp_cell = p_cell;
                p = l;
                p_info = l_info;
                p_cell = if key < (*p).key.load() { &(*p).left } else { &(*p).right };
                l = b.at((*p_cell).load());
                l_info = (*l).info.load();
            }
            SearchRes { gp, p, l, gp_info, p_info, l_info, gp_cell, p_cell }
        }
    }

    /// Inserts `key`; `false` if present.
    pub fn insert(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        let (mut u, b) = (Update::<M, ARM>::begin(&self.env, pid), self.env.rec.base);
        loop {
            let s = unsafe { self.search(key) };
            // SAFETY: info words gathered under the operation's pin.
            if unsafe { u.helped(&[s.p_info, s.l_info]) } {
                continue;
            }
            let l_key = unsafe { (*s.l).key.load() };
            let seen = unsafe { (b.word(&(*s.l).info), s.l_info) };
            if l_key == key {
                // Key already present: nothing to change.
                u.unchanged(optype::INSERT, seen, RES_FALSE);
                return false;
            }
            // A fresh descriptor per attempt (pointer freshness).
            let info = self.env.alloc_info();
            // Build the replacement subtree: internal(max) / {leaf(k), copy(l)}.
            let t = tag::tagged(b.word(info));
            let new_leaf: *mut Node<M> = self.alloc_node(key, 0, 0, t);
            let l_copy: *mut Node<M> = self.alloc_node(l_key, 0, 0, t);
            let (lc, rc, ik) =
                if key < l_key { (new_leaf, l_copy, l_key) } else { (l_copy, new_leaf, key) };
            let internal: *mut Node<M> = self.alloc_node(ik, b.word(lc), b.word(rc), t);
            let new = [internal, new_leaf, l_copy];
            let fill = unsafe {
                InfoFill {
                    optype: optype::INSERT,
                    affect: &[(b.word(&(*s.p).info), s.p_info), seen],
                    write: &[(b.word(s.p_cell), b.word(s.l), b.word(internal))],
                    newset: &new.map(|n| b.word(&(*n).info)),
                    node_words: Node::<M>::WORDS,
                    del_mask: 0b10, // l is copy-replaced
                    presult: RES_TRUE,
                }
            };
            // SAFETY: a fresh descriptor over nodes the pin keeps live.
            if unsafe { u.attempt(info, &fill, false, &new) }.is_ok() {
                unsafe { self.env.retire(&self.node_pool, s.l, &u.g) };
                return true;
            }
            self.give_back(info, &new, &u.g);
        }
    }

    /// After a failed attempt: the never-published new nodes go straight
    /// back to the pool (the private-failure fast path), and their cells'
    /// references on `info` are released.
    fn give_back(&self, info: *mut Info<M>, new: &[*mut Node<M>], g: &Guard<'_>) {
        // SAFETY: `info` is the failed attempt's descriptor, still held by
        // `RD_q`; each node's cell holds one of its references, and no
        // other thread ever reached the nodes.
        unsafe {
            Info::<M>::release(info, new.len() as u32, g);
            for &n in new {
                self.node_pool.give(n, g);
            }
        }
    }

    /// Deletes `key`; `false` if absent.
    pub fn delete(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        let (mut u, b) = (Update::<M, ARM>::begin(&self.env, pid), self.env.rec.base);
        loop {
            let s = unsafe { self.search(key) };
            // SAFETY: info words gathered under the operation's pin.
            if unsafe { u.helped(&[s.gp_info, s.p_info, s.l_info]) } {
                continue;
            }
            let l_key = unsafe { (*s.l).key.load() };
            let seen = unsafe { (b.word(&(*s.l).info), s.l_info) };
            if l_key != key {
                // Key not present: nothing to change.
                u.unchanged(optype::DELETE, seen, RES_FALSE);
                return false;
            }
            // Sibling of l under p (its info gathered after p's, before its children).
            let (sib, sib_info, sib_key, sib_l, sib_r) = unsafe {
                let sib_cell: &PWord<M> =
                    if std::ptr::eq(s.p_cell, &(*s.p).left) { &(*s.p).right } else { &(*s.p).left };
                let sib = b.at::<Node<M>>(sib_cell.load());
                let si = (*sib).info.load();
                (sib, si, (*sib).key.load(), (*sib).left.load(), (*sib).right.load())
            };
            // SAFETY: info words gathered under the operation's pin.
            if unsafe { u.helped(&[sib_info]) } {
                continue;
            }
            let info = self.env.alloc_info();
            let t = tag::tagged(b.word(info));
            // Copy of the sibling replaces p (freshness); its children are
            // frozen once sib is successfully tagged.
            let sib_copy: *mut Node<M> = self.alloc_node(sib_key, sib_l, sib_r, t);
            let fill = unsafe {
                InfoFill {
                    optype: optype::DELETE,
                    affect: &[
                        (b.word(&(*s.gp).info), s.gp_info),
                        (b.word(&(*s.p).info), s.p_info),
                        seen,
                        (b.word(&(*sib).info), sib_info),
                    ],
                    write: &[(b.word(s.gp_cell), b.word(s.p), b.word(sib_copy))],
                    newset: &[b.word(&(*sib_copy).info)],
                    node_words: Node::<M>::WORDS,
                    del_mask: 0b1110, // p, l, sib all leave the tree
                    presult: RES_TRUE,
                }
            };
            // SAFETY: a fresh descriptor over nodes the pin keeps live.
            if unsafe { u.attempt(info, &fill, false, &[sib_copy]) }.is_ok() {
                unsafe {
                    for gone in [s.p, s.l, sib] {
                        self.env.retire(&self.node_pool, gone, &u.g);
                    }
                }
                return true;
            }
            self.give_back(info, &[sib_copy], &u.g);
        }
    }

    /// Membership test (read-only: never sets `CP_q := 1`, so recovery
    /// always restarts it; see `SetCore::find`).
    pub fn find(&self, pid: usize, key: u64) -> bool {
        Self::assert_key(key);
        let (mut u, b) = (Update::<M, ARM>::find(&self.env, pid), self.env.rec.base);
        loop {
            let s = unsafe { self.search(key) };
            // SAFETY: info words gathered under the operation's pin.
            if unsafe { u.helped(&[s.l_info]) } {
                continue;
            }
            let res = unsafe { (*s.l).key.load() } == key;
            let seen = unsafe { (b.word(&(*s.l).info), s.l_info) };
            u.unchanged(optype::FIND, seen, if res { RES_TRUE } else { RES_FALSE });
            return res;
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

    /// `Insert.Recover`.
    pub fn recover_insert(&self, pid: usize, key: u64) -> bool {
        self.env.recover::<ARM>(pid).as_bool().unwrap_or_else(|| self.insert(pid, key))
    }

    /// `Delete.Recover`.
    pub fn recover_delete(&self, pid: usize, key: u64) -> bool {
        self.env.recover::<ARM>(pid).as_bool().unwrap_or_else(|| self.delete(pid, key))
    }

    /// `Find.Recover` (restart-safe).
    pub fn recover_find(&self, pid: usize, key: u64) -> bool {
        self.env.recover::<ARM>(pid).as_bool().unwrap_or_else(|| self.find(pid, key))
    }

    /// Completes helping obligations left *visible* in the tree by a crash;
    /// call after every process ran its `recover_*`. See
    /// [`graph::scrub_unit`].
    pub fn scrub(&self) {
        graph::scrub::<M, ARM>(self, &self.env.collector).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Quiescent in-order snapshot of the user keys.
    pub fn snapshot_keys(&mut self) -> Vec<u64> {
        unsafe fn walk<M: Persist>(b: Base, n: *mut Node<M>, out: &mut Vec<u64>) {
            unsafe {
                if n.is_null() {
                    return;
                }
                if (*n).is_leaf() {
                    let k = (*n).key.load();
                    if k > 0 && k < KEY_INF1 {
                        out.push(k);
                    }
                    return;
                }
                walk::<M>(b, b.at((*n).left.load()), out);
                walk::<M>(b, b.at((*n).right.load()), out);
            }
        }
        let mut out = Vec::new();
        unsafe { walk(self.env.rec.base, self.root, &mut out) };
        out
    }

    /// Structural invariants for a quiescent tree: leaf-orientation, BST
    /// routing, untagged reachable nodes.
    pub fn check_invariants(&mut self) {
        unsafe fn walk<M: Persist>(b: Base, n: *mut Node<M>, lo: u64, hi: u64) {
            unsafe {
                assert!(!n.is_null(), "null child in external tree");
                let k = (*n).key.load();
                assert!(
                    !tag::is_tagged((*n).info.load()),
                    "reachable node (key {k}) tagged at quiescence"
                );
                if (*n).is_leaf() {
                    assert!(lo <= k && k <= hi, "leaf {k} outside routing range [{lo},{hi}]");
                    return;
                }
                assert!((*n).right.load() != 0, "internal with one child");
                walk::<M>(b, b.at((*n).left.load()), lo, k.saturating_sub(1));
                walk::<M>(b, b.at((*n).right.load()), k, hi);
            }
        }
        unsafe { walk(self.env.rec.base, self.root, 0, u64::MAX) };
    }
}

impl<M: Persist, const ARM: u8> Graph<M> for RBst<M, ARM> {
    fn kind_name(&self) -> &'static str {
        "bst"
    }

    fn base(&self) -> Base {
        self.env.rec.base
    }

    // Iterative DFS: recursion depth is attacker-controlled here (crash
    // images, untrusted mappings), while the walk itself needs no ordering.
    unsafe fn walk(
        &self,
        _unit: usize,
        admit: &dyn Fn(u64) -> bool,
        mut budget: usize,
        visit: &mut dyn FnMut(u64, u64),
    ) -> Result<(), u64> {
        let b = self.env.rec.base;
        let mut stack = vec![b.word(self.root)];
        while let Some(n) = stack.pop() {
            if n == 0 || budget == 0 || !admit(n) {
                return Err(n);
            }
            budget -= 1;
            let p = b.at::<Node<M>>(n);
            // SAFETY: non-null and admitted.
            let node = unsafe { &*p };
            visit(p as u64, node.info.load());
            if !node.is_leaf() {
                stack.extend([node.left.load(), node.right.load()]);
            }
        }
        Ok(())
    }
}

impl MappedLayout for RBst<MappedNvm, { arm::LP }> {
    const KIND: u64 = KIND_BST;
    type Cfg = ();

    fn cfg_word(_cfg: ()) -> u64 {
        0x42 | (arm::LP as u64) << 32
    }

    fn root_bytes(_cfg: ()) -> usize {
        8 // the root node's link
    }

    unsafe fn open(env: &AttachEnv, _cfg: (), root: *mut u8) -> Result<Self, AttachError> {
        // SAFETY: committed 8-byte root block, single-threaded attach,
        // dummies drawn from the heap's arena.
        Ok(unsafe { Self::over(env.env(), root_words(root, 1)) })
    }
}

impl SlotOps for RBst<MappedNvm, { arm::LP }> {
    fn node_bytes(&self) -> usize {
        std::mem::size_of::<Node<MappedNvm>>()
    }

    fn each_cached(&mut self, f: &mut dyn FnMut(usize)) {
        self.node_pool.each_idle(|p| f(p as usize));
    }
}

impl<M: Persist, const ARM: u8> Drop for RBst<M, ARM> {
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

    type T = RBst<CountingNvm, 0>;
    type TOpt = RBst<CountingNvm, 1>;

    #[test]
    fn sequential_set_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let t = T::new();
        assert!(!t.find(0, 5));
        assert!(t.insert(0, 5));
        assert!(t.find(0, 5));
        assert!(!t.insert(0, 5));
        assert!(t.insert(0, 3));
        assert!(t.insert(0, 9));
        assert!(t.delete(0, 5));
        assert!(!t.delete(0, 5));
        assert!(!t.find(0, 5));
        assert!(t.find(0, 3) && t.find(0, 9));
    }

    #[test]
    fn inorder_snapshot_is_sorted() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut t = TOpt::new();
        for k in [50u64, 20, 80, 10, 30, 70, 90, 25, 35] {
            assert!(t.insert(0, k));
        }
        assert_eq!(t.snapshot_keys(), vec![10, 20, 25, 30, 35, 50, 70, 80, 90]);
        t.check_invariants();
    }

    #[test]
    fn mixed_random_ops_match_btreeset() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut t = T::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..3000 {
            let k = rng.gen_range(1..64u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(t.insert(0, k), model.insert(k), "insert {k}"),
                1 => assert_eq!(t.delete(0, k), model.remove(&k), "delete {k}"),
                _ => assert_eq!(t.find(0, k), model.contains(&k), "find {k}"),
            }
        }
        assert_eq!(t.snapshot_keys(), model.iter().copied().collect::<Vec<_>>());
        t.check_invariants();
    }

    #[test]
    fn no_leaks_after_drop() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let mut t = T::new();
            for k in 1..=100u64 {
                t.insert(0, k);
            }
            for k in (1..=100u64).step_by(2) {
                t.delete(0, k);
            }
            t.check_invariants();
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let _gate = crate::counters::gate_shared();
        let t = Arc::new(T::new());
        let hs: Vec<_> = (0..4u64)
            .map(|p| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(p as usize);
                    for i in 0..150u64 {
                        assert!(t.insert(p as usize, 1 + p + i * 4));
                    }
                })
            })
            .collect();
        crate::simtest::join_by(hs, "4 × 150 disjoint inserts");
        let mut t = Arc::into_inner(t).unwrap();
        assert_eq!(t.snapshot_keys().len(), 600);
        t.check_invariants();
    }

    #[test]
    fn concurrent_churn_keeps_invariants() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        let t = Arc::new(T::new());
        let hs: Vec<_> = (0..4)
            .map(|p| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(p);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(p as u64 + 7);
                    for _ in 0..1500 {
                        let k = rng.gen_range(1..32u64);
                        match rng.gen_range(0..3) {
                            0 => {
                                t.insert(p, k);
                            }
                            1 => {
                                t.delete(p, k);
                            }
                            _ => {
                                t.find(p, k);
                            }
                        }
                    }
                })
            })
            .collect();
        crate::simtest::join_by(hs, "churn, pid p seeded p + 7 (seeds 7..=10)");
        let mut t = Arc::into_inner(t).unwrap();
        t.check_invariants();
    }

    #[test]
    fn recovery_without_crash_restarts() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let t = T::new();
        assert!(t.recover_insert(0, 42));
        assert!(t.find(0, 42));
        assert!(t.recover_delete(0, 42));
        assert!(!t.find(0, 42));
    }
}
