//! Sharded, detectably recoverable hash map (set of `u64` keys) built on the
//! head-parameterized ordered-set core (DESIGN.md §8).
//!
//! `RHashMap` keeps a fixed power-of-two array of bucket heads, each an
//! independent sorted-list bucket run by [`crate::set_core::SetCore`]. Keys
//! are routed to a bucket by fibonacci hashing (multiply by 2⁶⁴/φ, take the
//! top bits), which whitens dense integer key ranges across shards. All
//! shards share **one** [`Env`] — one recovery area, since the paper's model
//! allows a single pending operation per process, regardless of which part
//! of the structure it touches, and one collector — and one node pool (free
//! lists are per-process, so cross-shard sharing adds no contention), so
//! `recover_*` needs no shard routing for the *decision*: the published
//! descriptor carries everything `Help` needs, and only a `Restart`
//! re-routes through the shard function (with the original arguments,
//! exactly like the system model's re-invocation).
//!
//! Per-bucket **pointer freshness** (DESIGN.md §4) is unaffected by
//! sharding: the guarantee is per info/next *cell*, and every cell belongs
//! to exactly one bucket; operations on different shards touch disjoint
//! cells and interact only through the shared recovery slots, which keep the
//! single-pending-op discipline per process.

use crate::env::Env;
use crate::graph::{self, Graph};
use crate::pool::Pool;
use crate::recovery::{root_words, AttachEnv, AttachError, MappedLayout, Rooted, SlotOps};
use crate::set_core::{self, Node, SetCore};
use crate::tag::Base;
use nvm::mapped::MappedNvm;
use nvm::{PWord, Persist};
use reclaim::Collector;
use std::sync::atomic::{AtomicBool, Ordering};

/// Default shard count for [`RHashMap::new`].
pub const DEFAULT_SHARDS: usize = 16;

/// Structure-kind tag of an `RHashMap` entry in a [`crate::store::Store`] catalog.
pub const KIND_MAP: u64 = 1;

const KIND_NAME: &str = "hashmap";

/// 2⁶⁴ / φ, the fibonacci-hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Sharded, detectably recoverable hash map. `ARM` selects the persistency
/// placement exactly as for [`crate::list::RList`] (a [`crate::arm`] level).
///
/// # Example: the detectable recovery flow
///
/// ```
/// use isb::hashmap::RHashMap;
/// use nvm::CountingNvm;
///
/// nvm::tid::set_tid(0);
/// let map: RHashMap<CountingNvm> = RHashMap::with_shards(8);
/// assert!(map.insert(0, 42));
/// assert!(map.delete(0, 42));
///
/// // Crash "just after" the completed delete: recovery returns its
/// // persisted response instead of deleting again (detectability)...
/// assert!(map.recover_delete(0, 42));
/// assert!(!map.find(0, 42));
/// // ...while a process that crashed before *publishing* anything
/// // (here: process 1 never ran an operation) simply re-invokes:
/// assert!(map.recover_insert(1, 42));
/// assert!(map.find(0, 42));
/// ```
///
/// With the mapped backend ([`crate::store::Store::hashmap`]) the same flow
/// runs across an actual process restart: the store's open replays
/// Op-Recover for every process id and reports the decisions in its
/// [`crate::recovery::AttachSummary`].
pub struct RHashMap<M: Persist, const ARM: u8 = 0> {
    heads: Box<[*mut Node<M>]>,
    /// Right-shift distance extracting the top `log2(shards)` hash bits.
    shift: u32,
    /// Lazy post-attach scrub: shard `s`'s flag is set when attach deferred
    /// its tag-healing pass ([`SlotOps::attach_scrub`]). The first operation
    /// routed to the shard drains it ([`RHashMap::ensure_scrubbed`]);
    /// snapshot/invariant entry points drain all. Deferral is sound because
    /// helping is part of the normal operation paths — a leftover tag is
    /// healed on first contact either way; the flag only bounds *when* the
    /// eager pass happens.
    pending_scrub: Box<[AtomicBool]>,
    nodes: Pool<Node<M>>,
    pub(crate) env: Env<M>,
    /// The root words naming `heads`, one per shard (read once, at
    /// construction; held for the structure's lifetime).
    _roots: Rooted<[PWord<M>]>,
}

unsafe impl<M: Persist, const ARM: u8> Send for RHashMap<M, ARM> {}
unsafe impl<M: Persist, const ARM: u8> Sync for RHashMap<M, ARM> {}

impl<M: Persist, const ARM: u8> Default for RHashMap<M, ARM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist, const ARM: u8> RHashMap<M, ARM> {
    /// New empty map with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// New empty map with `shards` buckets (must be a power of two).
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards.is_power_of_two(), "shard count must be a power of two, got {shards}");
        // SAFETY: a new root block of our own.
        unsafe { Self::over(Env::volatile(), Rooted::zeroed(shards)) }
    }

    /// The map over `roots`, one word per shard, its buckets built or loaded
    /// by [`set_core::buckets`].
    ///
    /// # Safety
    /// As [`set_core::buckets`], over the memory `env`'s pools draw from.
    unsafe fn over(mut env: Env<M>, roots: Rooted<[PWord<M>]>) -> Self {
        let nodes = env.pool::<_, ARM>();
        let heads = unsafe { set_core::buckets(env.rec.base, &nodes, &roots) };
        // For one shard every key maps to bucket 0; `min(63)` keeps the
        // shift in range and the mask in `shard_of` does the rest.
        let shift = (64 - heads.len().trailing_zeros()).min(63);
        let pending_scrub = heads.iter().map(|_| AtomicBool::new(false)).collect();
        Self { heads, shift, pending_scrub, nodes, env, _roots: roots }
    }

    /// Number of shards (buckets).
    pub fn shards(&self) -> usize {
        self.heads.len()
    }

    /// The map's collector (for diagnostics).
    pub fn collector(&self) -> &Collector {
        &self.env.collector
    }

    /// Fibonacci-hash shard routing: top `log2(shards)` bits of `key · FIB`.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize & (self.heads.len() - 1)
    }

    /// The core view over bucket `shard`, its deferred post-attach scrub
    /// drained first.
    #[inline]
    pub(crate) fn bucket(&self, shard: usize) -> SetCore<'_, M, ARM> {
        self.ensure_scrubbed(shard);
        // SAFETY: every head is a live bucket owned by this map; all buckets
        // share the map's single environment and node pool.
        unsafe { SetCore::new(self.heads[shard], &self.env, &self.nodes) }
    }

    /// Drains a deferred post-attach scrub of `shard`, if one is pending.
    /// One relaxed load on the hot path; the swap runs at most once per
    /// shard per attach. Concurrent operations on the shard are fine — the
    /// eager pass is the same idempotent helping they perform themselves.
    #[inline]
    fn ensure_scrubbed(&self, shard: usize) {
        if self.pending_scrub[shard].load(Ordering::Relaxed)
            && self.pending_scrub[shard].swap(false, Ordering::Acquire)
        {
            graph::scrub_unit::<M, ARM>(self, shard, &self.env.collector)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    /// Inserts `key`; returns `false` iff it was already present.
    /// (Algorithm 3, `Insert`.)
    pub fn insert(&self, pid: usize, key: u64) -> bool {
        self.bucket(self.shard_of(key)).insert(pid, key)
    }

    /// Deletes `key`; returns `false` iff it was absent. (Algorithm 5.)
    pub fn delete(&self, pid: usize, key: u64) -> bool {
        self.bucket(self.shard_of(key)).delete(pid, key)
    }

    /// Whether `key` is present. (Algorithm 3, `Find`.)
    pub fn find(&self, pid: usize, key: u64) -> bool {
        self.bucket(self.shard_of(key)).find(pid, key)
    }

    /// `Insert.Recover` (generic Op-Recover on the shared recovery area,
    /// re-invoking with the original key — and thus the original shard — on
    /// `Restart`).
    pub fn recover_insert(&self, pid: usize, key: u64) -> bool {
        self.env.recover::<ARM>(pid).as_bool().unwrap_or_else(|| self.insert(pid, key))
    }

    /// `Delete.Recover`.
    pub fn recover_delete(&self, pid: usize, key: u64) -> bool {
        self.env.recover::<ARM>(pid).as_bool().unwrap_or_else(|| self.delete(pid, key))
    }

    /// `Find.Recover`: finds never set `CP_q = 1`, so recovery always
    /// restarts them.
    pub fn recover_find(&self, pid: usize, key: u64) -> bool {
        self.env.recover::<ARM>(pid).as_bool().unwrap_or_else(|| self.find(pid, key))
    }

    /// Failure-report line for `pid`'s recovery slot
    /// ([`crate::recovery::RecArea::describe`]).
    ///
    /// # Safety
    /// As [`crate::recovery::RecArea::describe`].
    pub unsafe fn describe_recovery(&self, pid: usize) -> String {
        unsafe { self.env.rec.describe(pid) }
    }

    /// Completes helping obligations left visible by a crash in any shard
    /// (resurrected tags of completed operations under the tuned
    /// placement); call after every process ran its `recover_*`. See
    /// [`graph::scrub_unit`].
    pub fn scrub(&self) {
        for flag in self.pending_scrub.iter() {
            flag.store(false, Ordering::Relaxed);
        }
        graph::scrub::<M, ARM>(self, &self.env.collector).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Sorted snapshot of the user keys across all shards (requires
    /// exclusive access ⇒ quiescence).
    pub fn snapshot_keys(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in 0..self.heads.len() {
            self.bucket(shard).snapshot_keys_into(&mut out);
        }
        out.sort_unstable();
        out
    }

    /// Structural invariants of every shard, plus shard-routing consistency:
    /// each reachable key must live in the bucket the shard function routes
    /// it to. Panics on violation.
    pub fn check_invariants(&mut self) {
        for shard in 0..self.heads.len() {
            self.bucket(shard).check_invariants();
            let mut keys = Vec::new();
            self.bucket(shard).snapshot_keys_into(&mut keys);
            for k in keys {
                assert_eq!(
                    self.shard_of(k),
                    shard,
                    "key {k} reachable in shard {shard} but routes to {}",
                    self.shard_of(k)
                );
            }
        }
    }
}

impl<M: Persist, const ARM: u8> Graph<M> for RHashMap<M, ARM> {
    fn kind_name(&self) -> &'static str {
        KIND_NAME
    }

    fn base(&self) -> Base {
        self.env.rec.base
    }

    // Each bucket is an independent work unit — the buckets partition every
    // node and cell.
    fn work_units(&self) -> usize {
        self.heads.len()
    }

    unsafe fn walk(
        &self,
        unit: usize,
        admit: &dyn Fn(u64) -> bool,
        budget: usize,
        visit: &mut dyn FnMut(u64, u64),
    ) -> Result<(), u64> {
        unsafe { set_core::walk_bucket(self.env.rec.base, self.heads[unit], admit, budget, visit) }
    }
}

impl<const ARM: u8> MappedLayout for RHashMap<MappedNvm, ARM> {
    const KIND: u64 = KIND_MAP;
    type Cfg = usize; // shard count

    fn validate_cfg(shards: usize) -> Result<(), AttachError> {
        if shards.is_power_of_two() {
            Ok(())
        } else {
            Err(AttachError::InvalidCfg {
                kind: KIND_NAME,
                reason: format!("shard count must be a power of two, got {shards}"),
            })
        }
    }

    fn cfg_word(shards: usize) -> u64 {
        shards as u64 | (ARM as u64) << 32
    }

    fn root_bytes(shards: usize) -> usize {
        shards * 8 // one bucket-head link per shard
    }

    unsafe fn open(env: &AttachEnv, shards: usize, root: *mut u8) -> Result<Self, AttachError> {
        // Every caller has checked already: `validate_cfg` before a creation,
        // the store's catalog reader before a re-open.
        debug_assert!(shards.is_power_of_two(), "shard count {shards} not a power of two");
        // SAFETY: `shards`-word committed root block, single-threaded attach,
        // buckets drawn from the heap's arena.
        Ok(unsafe { Self::over(env.env(), root_words(root, shards)) })
    }
}

impl<const ARM: u8> SlotOps for RHashMap<MappedNvm, ARM> {
    fn node_bytes(&self) -> usize {
        std::mem::size_of::<Node<MappedNvm>>()
    }

    /// The deferred policy: mark every shard pending instead of an
    /// O(structure) eager pass during attach. Sound because (a) runtime
    /// operations help any tagged descriptor they encounter — the eager
    /// pass is the same idempotent helping, merely batched — and (b) the
    /// census counts descriptor references through *tagged* cells too, so a
    /// descriptor kept alive only by an unscrubbed tag survives the sweep.
    fn attach_scrub(&self) -> Result<(), AttachError> {
        for flag in self.pending_scrub.iter() {
            flag.store(true, Ordering::Release);
        }
        Ok(())
    }

    fn each_cached(&mut self, f: &mut dyn FnMut(usize)) {
        self.nodes.each_idle(|p| f(p as usize));
    }
}

impl<M: Persist, const ARM: u8> RHashMap<M, ARM> {
    /// The *system* half of an invocation (`CP_q := 0` — in the coalescing
    /// arms the whole `(RD_q, CP_q) := (Null, 0)` reset — persisted). Callers
    /// that journal their own intent records around the map (write-ahead
    /// logs driving a mapped heap) must call this **before** writing the
    /// intent record — see [`crate::recovery::RecArea::mark_invoked`] for the
    /// crash-window argument. Plain in-process use never needs it: an
    /// operation's own prologue runs it when this call has not.
    pub fn note_invocation(&self, pid: usize) {
        self.env.note_invocation::<ARM>(pid);
    }

    /// After an operation whose invocation a durable record carried:
    /// releases `RD_q`'s reference on the record's `prior` if the operation
    /// moved `RD_q` — see [`crate::env::Env::release_prior`].
    pub fn release_prior(&self, pid: usize, prior: u64) {
        self.env.release_prior::<ARM>(pid, prior);
    }
}

impl<M: Persist, const ARM: u8> Drop for RHashMap<M, ARM> {
    fn drop(&mut self) {
        // SAFETY: quiescent teardown of a structure this value owns (the
        // shared collector and recovery area are scanned once, not per
        // shard).
        unsafe { self.env.teardown::<Node<M>>(&*self) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::CountingNvm;
    use std::sync::Arc;

    type H = RHashMap<CountingNvm, 0>;
    type HOpt = RHashMap<CountingNvm, 1>;

    #[test]
    fn sequential_set_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let map = H::new();
        assert!(!map.find(0, 5));
        assert!(map.insert(0, 5));
        assert!(map.find(0, 5));
        assert!(!map.insert(0, 5), "duplicate insert");
        assert!(map.insert(0, 3));
        assert!(map.insert(0, 9));
        assert!(map.delete(0, 5));
        assert!(!map.delete(0, 5), "double delete");
        assert!(!map.find(0, 5));
        assert!(map.find(0, 3) && map.find(0, 9));
    }

    #[test]
    fn shard_routing_is_total_and_stable() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        for shards in [1usize, 2, 8, 64] {
            let map: RHashMap<CountingNvm> = RHashMap::with_shards(shards);
            let mut hit = vec![false; shards];
            for k in 1..=4096u64 {
                let s = map.shard_of(k);
                assert!(s < shards);
                assert_eq!(s, map.shard_of(k), "routing must be deterministic");
                hit[s] = true;
            }
            // Fibonacci hashing must actually spread a dense key range.
            assert!(hit.iter().all(|&h| h), "{shards} shards: some shard never hit");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = RHashMap::<CountingNvm>::with_shards(12);
    }

    #[test]
    fn mixed_random_ops_match_model_across_shard_counts() {
        use rand::{Rng, SeedableRng};
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        for shards in [1usize, 4, 32] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42 + shards as u64);
            let mut map: RHashMap<CountingNvm> = RHashMap::with_shards(shards);
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..3000 {
                let k = rng.gen_range(1..128u64);
                match rng.gen_range(0..3) {
                    0 => assert_eq!(map.insert(0, k), model.insert(k), "insert {k}"),
                    1 => assert_eq!(map.delete(0, k), model.remove(&k), "delete {k}"),
                    _ => assert_eq!(map.find(0, k), model.contains(&k), "find {k}"),
                }
            }
            assert_eq!(map.snapshot_keys(), model.iter().copied().collect::<Vec<_>>());
            map.check_invariants();
        }
    }

    #[test]
    fn tuned_variant_same_semantics() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let mut map = HOpt::with_shards(8);
        for k in 1..=200u64 {
            assert!(map.insert(0, k));
        }
        for k in (1..=200u64).step_by(2) {
            assert!(map.delete(0, k));
        }
        for k in 1..=200u64 {
            assert_eq!(map.find(0, k), k % 2 == 0);
        }
        map.check_invariants();
        assert_eq!(map.snapshot_keys().len(), 100);
    }

    #[test]
    fn no_leaks_after_drop() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let mut map = H::with_shards(8);
            for k in 1..=400u64 {
                map.insert(0, k);
            }
            for k in 1..=400u64 {
                map.delete(0, k);
            }
            for k in 1..=100u64 {
                map.insert(0, k);
                map.find(0, k);
            }
            map.check_invariants();
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn concurrent_disjoint_inserts_all_succeed() {
        let _gate = crate::counters::gate_shared();
        let map = Arc::new(H::with_shards(16));
        let nthreads = 4u64;
        let per = 300u64;
        let hs: Vec<_> = (0..nthreads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t as usize);
                    for i in 0..per {
                        assert!(map.insert(t as usize, 1 + t + i * nthreads));
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut map = Arc::into_inner(map).unwrap();
        assert_eq!(map.snapshot_keys().len(), (nthreads * per) as usize);
        map.check_invariants();
    }

    #[test]
    fn concurrent_churn_no_leaks() {
        let _gate = crate::counters::gate_exclusive();
        nvm::tid::set_tid(0);
        let nodes0 = crate::counters::live_nodes();
        let infos0 = crate::counters::live_infos();
        {
            let map = Arc::new(H::with_shards(4));
            let hs: Vec<_> = (0..4)
                .map(|t| {
                    let map = Arc::clone(&map);
                    std::thread::spawn(move || {
                        use rand::{Rng, SeedableRng};
                        nvm::tid::set_tid(t);
                        let mut rng = rand::rngs::StdRng::seed_from_u64(900 + t as u64);
                        for _ in 0..1500 {
                            let k = rng.gen_range(1..48u64);
                            if rng.gen_bool(0.5) {
                                map.insert(t, k);
                            } else {
                                map.delete(t, k);
                            }
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            drop(Arc::into_inner(map).unwrap());
        }
        assert_eq!(crate::counters::live_nodes(), nodes0, "node leak/double-free");
        assert_eq!(crate::counters::live_infos(), infos0, "info leak/double-free");
    }

    #[test]
    fn recovery_without_crash_restarts_cleanly() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let map = H::with_shards(8);
        assert!(map.recover_insert(0, 10));
        assert!(map.find(0, 10));
        assert!(map.recover_delete(0, 10));
        assert!(!map.find(0, 10));
        assert!(!map.recover_find(0, 10));
    }

    /// The map's scrub policy is the deferred one: a non-fresh attach only
    /// marks every shard pending, and the first operation routed to a shard
    /// drains that shard's flag — and no other.
    #[test]
    fn mapped_attach_defers_the_scrub_to_first_contact() {
        use crate::store::Store;
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path =
            std::env::temp_dir().join(format!("isb_hm_{}_deferred.heap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let pending = |m: &RHashMap<nvm::MappedNvm, 3>| -> Vec<bool> {
            m.pending_scrub.iter().map(|f| f.load(Ordering::Relaxed)).collect()
        };
        {
            let store = Store::open_sized(&path, 1 << 21).unwrap();
            let map = store.hashmap::<3>("m", 8).unwrap();
            assert_eq!(pending(&map), [false; 8], "a fresh map has nothing to scrub");
            (1..=64).for_each(|k| assert!(map.insert(0, k)));
        }
        let store = Store::open_sized(&path, 1 << 21).unwrap();
        let map = store.hashmap::<3>("m", 8).unwrap();
        assert_eq!(pending(&map), [true; 8], "attach defers every shard");
        let shard = map.shard_of(7);
        assert!(map.find(0, 7));
        let mut want = [true; 8];
        want[shard] = false;
        assert_eq!(pending(&map), want, "first contact drains its own shard only");
        drop(store);
        let mut map = Arc::into_inner(map).expect("the last handle");
        map.check_invariants();
        assert_eq!(pending(&map), [false; 8], "quiescent entry points drain the rest");
        drop(map);
        let _ = std::fs::remove_file(&path);
    }
}
