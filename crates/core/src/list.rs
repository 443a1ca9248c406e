//! Detectably recoverable sorted linked list (paper Section 4,
//! Algorithms 3–5), obtained by applying ROpt-ISB (Algorithm 2).
//!
//! `RList` is a one-shard [`RHashMap`]: one bucket of the ordered-set core in
//! [`crate::set_core`], behind a shard function that performs no
//! persistency instructions, so its placement is the map's bit for bit
//! (asserted by the `persist_placement` regression test). It dereferences to
//! the map for every operation, recovery, scrub, snapshot and teardown, and
//! adds only its constructor, its catalog facts (kind [`KIND_LIST`],
//! configuration word `0x4C | 3 << 32`, `Isb-LP`) and its name. The algorithm
//! documentation lives in [`crate::set_core`].

use crate::arm::LP;
use crate::graph::Graph;
use crate::hashmap::RHashMap;
use crate::recovery::{AttachEnv, AttachError, MappedLayout, SlotOps};
use crate::tag::Base;
use nvm::mapped::MappedNvm;
use nvm::Persist;

pub use crate::set_core::{Node, KEY_MAX, KEY_MIN};

/// Structure-kind tag of an `RList` entry in a [`crate::store::Store`] catalog.
pub const KIND_LIST: u64 = 3;

/// Detectably recoverable sorted linked list. `ARM` is the persistency
/// placement, a [`crate::arm`] level: `0` the paper's general one ("Isb"),
/// `1` the hand-tuned one ("Isb-Opt"), `3` the coalescing one ("Isb-LP").
///
/// # Example: the detectable recovery flow
///
/// After a crash, `recover_*` answers "did my interrupted operation take
/// effect?" from the per-process recovery data — returning the operation's
/// original response without re-applying it:
///
/// ```
/// use isb::list::RList;
/// use nvm::CountingNvm;
///
/// nvm::tid::set_tid(0); // register this thread as process 0
/// let list: RList<CountingNvm> = RList::new();
/// assert!(list.insert(0, 7));
///
/// // Suppose the crash hit after the insert took effect but before the
/// // caller saw the response. Recovery returns the SAME response...
/// assert!(list.recover_insert(0, 7));
/// // ...and did not apply the insert twice:
/// assert!(list.delete(0, 7));
/// // The completed delete's response is likewise recoverable, exactly once:
/// assert!(list.recover_delete(0, 7));
/// assert!(!list.find(0, 7));
/// ```
pub struct RList<M: Persist, const ARM: u8 = 0>(RHashMap<M, ARM>);

impl<M: Persist, const ARM: u8> Default for RList<M, ARM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const ARM: u8> RList<M, ARM> {
    /// New empty list.
    pub fn new() -> Self {
        Self(RHashMap::with_shards(1))
    }
}

impl<M: Persist, const ARM: u8> std::ops::Deref for RList<M, ARM> {
    type Target = RHashMap<M, ARM>;
    fn deref(&self) -> &RHashMap<M, ARM> {
        &self.0
    }
}

impl<M: Persist, const ARM: u8> std::ops::DerefMut for RList<M, ARM> {
    fn deref_mut(&mut self) -> &mut RHashMap<M, ARM> {
        &mut self.0
    }
}

impl<M: Persist, const ARM: u8> Graph<M> for RList<M, ARM> {
    fn kind_name(&self) -> &'static str {
        "list"
    }

    fn base(&self) -> Base {
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

impl MappedLayout for RList<MappedNvm, LP> {
    const KIND: u64 = KIND_LIST;
    type Cfg = ();

    fn cfg_word(_cfg: ()) -> u64 {
        0x4C | (LP as u64) << 32
    }

    fn root_bytes(_cfg: ()) -> usize {
        RHashMap::<MappedNvm, LP>::root_bytes(1)
    }

    unsafe fn open(env: &AttachEnv, _cfg: (), root: *mut u8) -> Result<Self, AttachError> {
        unsafe { RHashMap::open(env, 1, root) }.map(Self)
    }
}

impl SlotOps for RList<MappedNvm, LP> {
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

    type L = RList<CountingNvm, 0>;
    type LOpt = RList<CountingNvm, 1>;

    /// Under `Isb-LP` an operation that finds nothing to change takes
    /// no descriptor and publishes nothing: the recovery line stays as the
    /// glue reset it, and the previous operation's descriptor, which the
    /// glue took out of `RD_q`, is released (teardown balances).
    #[test]
    fn coalescing_no_effect_ops_take_no_descriptor() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let infos0 = crate::counters::live_infos();
        {
            let list = RList::<CountingNvm, { crate::arm::LP }>::new();
            assert!(list.insert(0, 5));
            assert_eq!(list.env.rec.read(0).0, 1, "an effectful operation publishes");
            for i in 0..4 {
                let drawn = (crate::counters::live_infos(), crate::counters::info_reuses());
                let answer = match i {
                    0 => list.insert(0, 5),
                    1 => !list.find(0, 5),
                    2 => list.find(0, 6),
                    _ => list.delete(0, 6),
                };
                assert!(!answer, "op {i} answers as the set stands");
                let after = (crate::counters::live_infos(), crate::counters::info_reuses());
                assert_eq!(after, drawn, "op {i} drew a descriptor");
                assert_eq!(list.env.rec.read(0), (0, 0), "op {i} left the glue's reset");
            }
            assert!(list.delete(0, 5));
        }
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn sequential_set_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let list = L::new();
        assert!(!list.find(0, 5));
        assert!(list.insert(0, 5));
        assert!(list.find(0, 5));
        assert!(!list.insert(0, 5), "duplicate insert");
        assert!(list.insert(0, 3));
        assert!(list.insert(0, 9));
        assert!(list.delete(0, 5));
        assert!(!list.delete(0, 5), "double delete");
        assert!(!list.find(0, 5));
        assert!(list.find(0, 3) && list.find(0, 9));
    }

    #[test]
    fn snapshot_is_sorted() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut list = L::new();
        for k in [7u64, 3, 11, 1, 5] {
            assert!(list.insert(0, k));
        }
        assert_eq!(list.snapshot_keys(), vec![1, 3, 5, 7, 11]);
        list.check_invariants();
    }

    #[test]
    fn tuned_variant_same_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut list = LOpt::new();
        for k in 1..=50u64 {
            assert!(list.insert(0, k));
        }
        for k in (1..=50u64).step_by(2) {
            assert!(list.delete(0, k));
        }
        for k in 1..=50u64 {
            assert_eq!(list.find(0, k), k % 2 == 0);
        }
        list.check_invariants();
        assert_eq!(list.snapshot_keys().len(), 25);
    }

    #[test]
    fn insert_before_tail_copy_replaces_sentinel() {
        // Ascending inserts always hit curr = the +∞ node, exercising the
        // copy-replacement of the tail sentinel on every operation.
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut list = L::new();
        for k in 1..=100u64 {
            assert!(list.insert(0, k));
        }
        assert_eq!(list.snapshot_keys(), (1..=100).collect::<Vec<_>>());
        list.check_invariants();
    }

    #[test]
    fn mixed_random_ops_match_btreeset() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut list = L::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..3000 {
            let k = rng.gen_range(1..64u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(list.insert(0, k), model.insert(k), "insert {k}"),
                1 => assert_eq!(list.delete(0, k), model.remove(&k), "delete {k}"),
                _ => assert_eq!(list.find(0, k), model.contains(&k), "find {k}"),
            }
        }
        assert_eq!(list.snapshot_keys(), model.iter().copied().collect::<Vec<_>>());
        list.check_invariants();
    }

    #[test]
    fn no_leaks_after_drop() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let mut list = L::new();
            for k in 1..=200u64 {
                list.insert(0, k);
            }
            for k in 1..=200u64 {
                list.delete(0, k);
            }
            for k in 1..=50u64 {
                list.insert(0, k);
                list.find(0, k);
            }
            list.check_invariants();
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn concurrent_disjoint_inserts_all_succeed() {
        let _gate = crate::counters::gate_shared();
        let list = Arc::new(L::new());
        let nthreads = 4u64;
        let per = 200u64;
        let hs: Vec<_> = (0..nthreads)
            .map(|t| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t as usize);
                    for i in 0..per {
                        assert!(list.insert(t as usize, 1 + t + i * nthreads));
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut list = Arc::into_inner(list).unwrap();
        assert_eq!(list.snapshot_keys().len(), (nthreads * per) as usize);
        list.check_invariants();
    }

    #[test]
    fn concurrent_same_key_contention_one_winner() {
        // All threads fight over each key; exactly one insert wins per key.
        let _gate = crate::counters::gate_shared();
        let list = Arc::new(L::new());
        let rounds = 100u64;
        let nthreads = 4;
        use std::sync::atomic::{AtomicU64, Ordering};
        let wins = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..nthreads)
            .map(|t| {
                let list = Arc::clone(&list);
                let wins = Arc::clone(&wins);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t);
                    for r in 0..rounds {
                        if list.insert(t, 1 + r) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::Relaxed), rounds, "exactly one winner per key");
        let mut list = Arc::into_inner(list).unwrap();
        assert_eq!(list.snapshot_keys().len(), rounds as usize);
        list.check_invariants();
    }

    #[test]
    fn concurrent_insert_delete_churn_keeps_invariants() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        let list = Arc::new(L::new());
        let hs: Vec<_> = (0..4)
            .map(|t| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t as u64);
                    for _ in 0..2000 {
                        let k = rng.gen_range(1..32u64);
                        match rng.gen_range(0..3) {
                            0 => {
                                list.insert(t, k);
                            }
                            1 => {
                                list.delete(t, k);
                            }
                            _ => {
                                list.find(t, k);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut list = Arc::into_inner(list).unwrap();
        list.check_invariants();
    }

    #[test]
    fn concurrent_churn_no_leaks() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let list = Arc::new(L::new());
            let hs: Vec<_> = (0..4)
                .map(|t| {
                    let list = Arc::clone(&list);
                    std::thread::spawn(move || {
                        use rand::{Rng, SeedableRng};
                        nvm::tid::set_tid(t);
                        let mut rng = rand::rngs::StdRng::seed_from_u64(100 + t as u64);
                        for _ in 0..1500 {
                            let k = rng.gen_range(1..24u64);
                            if rng.gen_bool(0.5) {
                                list.insert(t, k);
                            } else {
                                list.delete(t, k);
                            }
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            drop(Arc::into_inner(list).unwrap());
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn recovery_without_crash_restarts_cleanly() {
        // recover_* on a fresh process id behaves like a plain invocation.
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let list = L::new();
        assert!(list.recover_insert(0, 10));
        assert!(list.find(0, 10));
        assert!(list.recover_delete(0, 10));
        assert!(!list.find(0, 10));
        assert!(!list.recover_find(0, 10));
    }
}
