//! Reuse-ABA stress: hammer insert/delete on ONE key so descriptors and
//! nodes recycle as fast as the epoch machinery allows (a volatile
//! structure always recycles: the recycle path is the only allocation path
//! it takes), and assert that no completed operation's tag ever
//! resurrects (a recycled descriptor address confused with a live one would
//! leave a reachable tagged node, double-apply an effect, or corrupt the
//! responses).
//!
//! This is the adversarial counterpart of DESIGN.md §9's argument that
//! epoch-delayed recycling preserves the §5 info-pointer ABA protection: if
//! the pool ever handed an address back while a stale helper could still
//! CAS it, these loops make that collision as likely as possible.

use isb::hashmap::RHashMap;
use isb::list::RList;
use nvm::CountingNvm;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::Arc;

type M = CountingNvm;

/// Single-thread determinism: every retired descriptor re-enters
/// circulation two epoch advances later; 20k rounds on one key force
/// constant reuse of both infos and nodes. Every response is
/// deterministic — any ABA confusion shows up as a wrong response or a
/// tagged node at quiescence.
#[test]
fn single_thread_one_key_churn_reuses_without_aba() {
    let _gate = isb::counters::gate_shared();
    nvm::tid::set_tid(0);
    let reuse0 = (isb::counters::info_reuses(), isb::counters::node_reuses());
    let mut list = RList::<M, 0>::new();
    for round in 0..20_000u64 {
        assert!(list.insert(0, 7), "round {round}: insert must win on an empty set");
        assert!(list.find(0, 7), "round {round}: inserted key must be found");
        assert!(list.delete(0, 7), "round {round}: delete must win");
        assert!(!list.find(0, 7), "round {round}: deleted key must be gone");
    }
    assert!(
        isb::counters::info_reuses() > reuse0.0,
        "pool never recycled an Info — the stress is vacuous"
    );
    assert!(
        isb::counters::node_reuses() > reuse0.1,
        "pool never recycled a node — the stress is vacuous"
    );
    list.check_invariants(); // asserts: no reachable node is tagged
    assert_eq!(list.snapshot_keys(), Vec::<u64>::new());
}

/// Concurrent contention on ONE key, both tunings. Checks:
///
/// * conservation — `#insert-wins − #delete-wins ∈ {0, 1}` and equals the
///   final membership (an ABA double-apply breaks this);
/// * quiescent tag-freeness — `check_invariants` panics on any reachable
///   tagged node (a resurrection of a completed op's tag);
/// * leak/double-free freedom under maximal recycling pressure.
#[test]
fn concurrent_one_key_contention_with_tiny_pool() {
    let _gate = isb::counters::gate_exclusive();
    nvm::tid::set_tid(0);
    let nodes0 = isb::counters::live_nodes();
    let infos0 = isb::counters::live_infos();

    fn run<const ARM: u8>(label: &str) {
        let list = Arc::new(RList::<M, ARM>::new());
        let balance = Arc::new(AtomicI64::new(0)); // insert wins − delete wins
        let hs: Vec<_> = (0..4)
            .map(|t| {
                let list = Arc::clone(&list);
                let balance = Arc::clone(&balance);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t);
                    for i in 0..4000u64 {
                        // Skewed per-thread mix keeps both ops contending.
                        if (i + t as u64).is_multiple_of(2) {
                            if list.insert(t, 42) {
                                balance.fetch_add(1, Relaxed);
                            }
                        } else if list.delete(t, 42) {
                            balance.fetch_sub(1, Relaxed);
                        }
                        if i % 7 == 0 {
                            list.find(t, 42);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut list = Arc::into_inner(list).unwrap();
        let present = list.find(0, 42);
        let balance = balance.load(Relaxed);
        assert_eq!(
            balance, present as i64,
            "{label}: wins don't balance — an effect was lost or applied twice"
        );
        list.check_invariants(); // no resurrection of completed-op tags
    }

    run::<0>("Isb");
    run::<1>("Isb-Opt");

    assert_eq!(isb::counters::live_nodes(), nodes0, "node leak/double-free under reuse");
    assert_eq!(isb::counters::live_infos(), infos0, "info leak/double-free under reuse");
}

/// Same contention shape through the sharded map (all threads collide in
/// one bucket, shared pools): exercises descriptor reuse across the shared
/// recovery area plus the map's teardown under recycling pressure.
#[test]
fn hashmap_one_key_contention_with_tiny_pool() {
    let _gate = isb::counters::gate_shared();
    nvm::tid::set_tid(0);
    let map = Arc::new(RHashMap::<M, 1>::with_shards(8));
    let balance = Arc::new(AtomicI64::new(0));
    let hs: Vec<_> = (0..4)
        .map(|t| {
            let map = Arc::clone(&map);
            let balance = Arc::clone(&balance);
            std::thread::spawn(move || {
                nvm::tid::set_tid(t);
                for i in 0..3000u64 {
                    if (i + t as u64).is_multiple_of(2) {
                        if map.insert(t, 42) {
                            balance.fetch_add(1, Relaxed);
                        }
                    } else if map.delete(t, 42) {
                        balance.fetch_sub(1, Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    let mut map = Arc::into_inner(map).unwrap();
    assert_eq!(balance.load(Relaxed), map.find(0, 42) as i64, "map wins don't balance");
    map.check_invariants();
}
