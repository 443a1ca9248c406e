//! Cross-implementation equivalence: every set implementation (ISB list in
//! both tunings, ISB BST, Harris, DT, capsules in both variants) must give
//! identical responses on identical operation sequences — and equal the
//! `BTreeSet` model.

use nvm::CountingNvm;
use rand::{Rng, SeedableRng};

type M = CountingNvm;

enum Op {
    Ins(u64),
    Del(u64),
    Fnd(u64),
}

fn op_stream(seed: u64, n: usize, keys: u64) -> Vec<Op> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(1..=keys);
            match rng.gen_range(0..3) {
                0 => Op::Ins(k),
                1 => Op::Del(k),
                _ => Op::Fnd(k),
            }
        })
        .collect()
}

fn run_all(ops: &[Op]) -> Vec<Vec<bool>> {
    nvm::tid::set_tid(0);
    let isb_list = isb::list::RList::<M, 0>::new();
    let isb_opt = isb::list::RList::<M, 1>::new();
    let isb_bst = isb::bst::RBst::<M, 0>::new();
    let isb_hm = isb::hashmap::RHashMap::<M, 0>::with_shards(8);
    let isb_hm_opt = isb::hashmap::RHashMap::<M, 1>::with_shards(4);
    let harris = baselines::harris::HarrisList::<M>::new();
    let dt = baselines::dt_list::DtList::<M>::new();
    let caps = baselines::capsules_list::CapsulesList::<M, false>::new();
    let caps_opt = baselines::capsules_list::CapsulesList::<M, true>::new();
    let mut model = std::collections::BTreeSet::new();

    let mut results: Vec<Vec<bool>> = vec![Vec::new(); 10];
    for op in ops {
        let rs: [bool; 10] = match *op {
            Op::Ins(k) => [
                isb_list.insert(0, k),
                isb_opt.insert(0, k),
                isb_bst.insert(0, k),
                isb_hm.insert(0, k),
                isb_hm_opt.insert(0, k),
                harris.insert(0, k),
                dt.insert(0, k),
                caps.insert(0, k),
                caps_opt.insert(0, k),
                model.insert(k),
            ],
            Op::Del(k) => [
                isb_list.delete(0, k),
                isb_opt.delete(0, k),
                isb_bst.delete(0, k),
                isb_hm.delete(0, k),
                isb_hm_opt.delete(0, k),
                harris.delete(0, k),
                dt.delete(0, k),
                caps.delete(0, k),
                caps_opt.delete(0, k),
                model.remove(&k),
            ],
            Op::Fnd(k) => [
                isb_list.find(0, k),
                isb_opt.find(0, k),
                isb_bst.find(0, k),
                isb_hm.find(0, k),
                isb_hm_opt.find(0, k),
                harris.find(0, k),
                dt.find(0, k),
                caps.find(0, k),
                caps_opt.find(0, k),
                model.contains(&k),
            ],
        };
        for (i, r) in rs.iter().enumerate() {
            results[i].push(*r);
        }
    }
    results
}

#[test]
fn all_set_implementations_agree() {
    let _gate = isb::counters::gate_shared();
    for seed in [1u64, 7, 42, 1337] {
        let ops = op_stream(seed, 800, 32);
        let results = run_all(&ops);
        let model = results.last().unwrap().clone();
        let names = [
            "Isb",
            "Isb-Opt",
            "Isb-BST",
            "Isb-HM",
            "Isb-HM-Opt",
            "Harris-LL",
            "DT-Opt",
            "Capsules",
            "Capsules-Opt",
        ];
        for (i, name) in names.iter().enumerate() {
            assert_eq!(results[i], model, "{name} diverged from the model (seed {seed})");
        }
    }
}

#[test]
fn persistence_modes_do_not_change_semantics() {
    // The same op stream gives the same answers under every persistency model.
    let _gate = isb::counters::gate_shared();
    nvm::tid::set_tid(0);
    let ops = op_stream(99, 600, 24);
    let real = isb::list::RList::<nvm::RealNvm, 0>::new();
    let none = isb::list::RList::<nvm::NoPersist, 0>::new();
    let count = isb::list::RList::<CountingNvm, 0>::new();
    for op in &ops {
        match *op {
            Op::Ins(k) => {
                let a = real.insert(0, k);
                assert_eq!(a, none.insert(0, k));
                assert_eq!(a, count.insert(0, k));
            }
            Op::Del(k) => {
                let a = real.delete(0, k);
                assert_eq!(a, none.delete(0, k));
                assert_eq!(a, count.delete(0, k));
            }
            Op::Fnd(k) => {
                let a = real.find(0, k);
                assert_eq!(a, none.find(0, k));
                assert_eq!(a, count.find(0, k));
            }
        }
    }
}

#[test]
fn queues_agree_on_random_streams() {
    let _gate = isb::counters::gate_shared();
    nvm::tid::set_tid(0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let isb_q = isb::queue::RQueue::<M, 0>::new();
    let ms = baselines::ms_queue::MsQueue::<M>::new();
    let log = baselines::log_queue::LogQueue::<M>::new();
    let capsg = baselines::capsules_queue::CapsulesQueue::<M, false>::new();
    let capsn = baselines::capsules_queue::CapsulesQueue::<M, true>::new();
    let mut model = std::collections::VecDeque::new();
    for i in 0..1500u64 {
        if rng.gen_bool(0.55) {
            isb_q.enqueue(0, i);
            ms.enqueue(0, i);
            log.enqueue(0, i);
            capsg.enqueue(0, i);
            capsn.enqueue(0, i);
            model.push_back(i);
        } else {
            let want = model.pop_front();
            assert_eq!(isb_q.dequeue(0), want, "isb");
            assert_eq!(ms.dequeue(0), want, "ms");
            assert_eq!(log.dequeue(0), want, "log");
            assert_eq!(capsg.dequeue(0), want, "caps-general");
            assert_eq!(capsn.dequeue(0), want, "caps-normal");
        }
    }
}

#[test]
fn no_leaks_across_collection_cycles() {
    let _gate = isb::counters::gate_exclusive();
    nvm::tid::set_tid(0);
    let nodes0 = isb::counters::live_nodes();
    let infos0 = isb::counters::live_infos();
    {
        let list = isb::list::RList::<M, 0>::new();
        let bst = isb::bst::RBst::<M, 0>::new();
        let q = isb::queue::RQueue::<M, 0>::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for i in 0..4000u64 {
            let k = rng.gen_range(1..64u64);
            match rng.gen_range(0..4) {
                0 => {
                    list.insert(0, k);
                    bst.insert(0, k);
                }
                1 => {
                    list.delete(0, k);
                    bst.delete(0, k);
                }
                2 => {
                    q.enqueue(0, i);
                }
                _ => {
                    q.dequeue(0);
                }
            }
        }
    }
    assert_eq!(isb::counters::live_nodes(), nodes0, "node leak/double-free");
    assert_eq!(isb::counters::live_infos(), infos0, "info leak/double-free");
}

/// The visitors over the one walk agree with each other and with the
/// keyed snapshots: after a seeded random op sequence on each kind, the
/// census visitor's live-node count is the snapshot's length plus that
/// kind's sentinels, the validate visitor admits exactly the census's node
/// set, and the teardown visitor (the structure's `Drop`) frees every live
/// node down to the baseline.
#[test]
fn visitors_over_the_one_walk_agree() {
    use isb::graph::{census_unit, validate_unit, Graph};
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};

    /// Census and validation of every unit of `g`: the live set must count
    /// `want_nodes` and equal the set of pointers validation admitted.
    fn agree(g: &impl Graph<M>, want_nodes: usize) {
        let (mut live, mut refs) = (HashSet::new(), HashMap::new());
        let admitted = RefCell::new(HashSet::new());
        let mut infos = HashSet::new();
        for unit in 0..g.work_units() {
            // SAFETY: a live, quiescent structure of this thread's.
            unsafe {
                census_unit(g, unit, &mut live, &mut refs);
                let admit = |a: u64| admitted.borrow_mut().insert(a as usize);
                validate_unit(g, unit, &admit, usize::MAX, &mut infos).expect("a sound graph");
            }
        }
        assert_eq!(live.len(), want_nodes, "{}: census vs snapshot", g.kind_name());
        assert_eq!(live, admitted.into_inner(), "{}: census vs validate", g.kind_name());
        let referenced: HashSet<u64> = refs.keys().map(|&p| p as u64).collect();
        assert_eq!(referenced, infos, "{}: descriptors counted vs collected", g.kind_name());
    }

    let _gate = isb::counters::gate_exclusive();
    nvm::tid::set_tid(0);
    let nodes0 = isb::counters::live_nodes();
    let ops = op_stream(0xC0FFEE, 1500, 40);
    {
        let mut list = isb::list::RList::<M, 1>::new();
        let mut map = isb::hashmap::RHashMap::<M, 3>::with_shards(8);
        let mut bst = isb::bst::RBst::<M, 0>::new();
        let mut queue = isb::queue::RQueue::<M, 3>::new();
        let mut stack = isb::stack::RStack::<M>::new();
        for op in &ops {
            match *op {
                Op::Ins(k) => {
                    assert_eq!(list.insert(0, k), map.insert(0, k));
                    bst.insert(0, k);
                    queue.enqueue(0, k);
                    stack.push(0, k);
                }
                Op::Del(k) => {
                    assert_eq!(list.delete(0, k), map.delete(0, k));
                    bst.delete(0, k);
                    queue.dequeue(0);
                    stack.pop(0);
                }
                Op::Fnd(k) => assert_eq!(list.find(0, k), bst.find(0, k)),
            }
        }
        let keys = (list.snapshot_keys().len(), map.snapshot_keys().len());
        agree(&list, keys.0 + 2); // −∞ and +∞
        agree(&map, keys.1 + 2 * 8); // per shard
                                     // n keys: n leaves + n internals over 2 dummy internals + 3 dummy leaves.
        let keys = bst.snapshot_keys().len();
        agree(&bst, 2 * keys + 5);
        let vals = (queue.snapshot_vals().len(), stack.snapshot_vals().len());
        agree(&queue, vals.0 + 1); // the sentinel
        agree(&stack, vals.1 + 2); // −∞ and +∞, as the list
        assert!(isb::counters::live_nodes() > nodes0);
    }
    assert_eq!(isb::counters::live_nodes(), nodes0, "teardown frees every node exactly once");
}
