//! Disjoint-range response stress: each thread owns a private key range of
//! one shared structure and asserts EVERY response against its own
//! sequential model. Any transient wrong answer — the shape of the
//! helper-completed-but-invoker-backtracked engine race this test was built
//! to catch (the tagging phase's Algorithm-1 completion check) — fails
//! loudly with the op index.
//!
//! Ops per thread scale with `ISB_STRESS_OPS` (default keeps CI fast; the
//! race that motivated this test reproduced at ~1 in 40M ops before the
//! fix, so soak runs want `ISB_STRESS_OPS=4000000` repeated).

use isb::hashmap::RHashMap;
use isb::list::RList;
use isb_tests::kv::splitmix;
use std::sync::Arc;

fn ops() -> u64 {
    std::env::var("ISB_STRESS_OPS").ok().and_then(|s| s.parse().ok()).unwrap_or(150_000)
}

fn run_disjoint<S, I, D, F>(s: Arc<S>, threads: usize, insert: I, delete: D, find: F)
where
    S: Send + Sync + 'static,
    I: Fn(&S, usize, u64) -> bool + Send + Sync + Copy + 'static,
    D: Fn(&S, usize, u64) -> bool + Send + Sync + Copy + 'static,
    F: Fn(&S, usize, u64) -> bool + Send + Sync + Copy + 'static,
{
    let per = ops();
    let hs: Vec<_> = (0..threads)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                nvm::tid::set_tid(t + 1);
                let pid = t + 1;
                let lo = 1 + t as u64 * 1000;
                let hi = lo + 999;
                let mut model = std::collections::HashSet::new();
                let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 7);
                for i in 0..per {
                    let r = splitmix(&mut rng);
                    let key = lo + (r >> 16) % (hi - lo + 1);
                    match r % 10 {
                        0..=3 => assert_eq!(
                            insert(&s, pid, key),
                            model.insert(key),
                            "t{t} op {i}: insert({key}) response diverged"
                        ),
                        4..=6 => assert_eq!(
                            delete(&s, pid, key),
                            model.remove(&key),
                            "t{t} op {i}: delete({key}) response diverged"
                        ),
                        _ => assert_eq!(
                            find(&s, pid, key),
                            model.contains(&key),
                            "t{t} op {i}: find({key}) response diverged"
                        ),
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
}

#[test]
fn hashmap_responses_match_disjoint_models() {
    let map: Arc<RHashMap<nvm::CountingNvm, 0>> = Arc::new(RHashMap::with_shards(8));
    run_disjoint(
        map,
        3,
        |m, p, k| m.insert(p, k),
        |m, p, k| m.delete(p, k),
        |m, p, k| m.find(p, k),
    );
}

#[test]
fn tuned_hashmap_responses_match_disjoint_models() {
    let map: Arc<RHashMap<nvm::CountingNvm, 1>> = Arc::new(RHashMap::with_shards(4));
    run_disjoint(
        map,
        3,
        |m, p, k| m.insert(p, k),
        |m, p, k| m.delete(p, k),
        |m, p, k| m.find(p, k),
    );
}

#[test]
fn list_responses_match_disjoint_models() {
    // One bucket: maximal cross-range interference inside a single chain.
    let list: Arc<RList<nvm::CountingNvm, 0>> = Arc::new(RList::new());
    run_disjoint(
        list,
        3,
        |l, p, k| l.insert(p, k),
        |l, p, k| l.delete(p, k),
        |l, p, k| l.find(p, k),
    );
}
