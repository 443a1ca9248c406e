//! Linearizability stress tests: small concurrent histories recorded with a
//! global clock and verified by the WGL checker — for the ISB list, queue,
//! BST and the stack.

use lincheck::specs::{QueueOp, QueueSpec, SetOp, SetSpec, StackOp, StackSpec};
use lincheck::{clock, is_linearizable, OpRec};
use nvm::CountingNvm;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

type M = CountingNvm;

fn record<O: Clone, R: Clone>(
    log: &Mutex<Vec<OpRec<O, R>>>,
    thread: usize,
    op: O,
    f: impl FnOnce() -> R,
) {
    let invoked = clock::now();
    let ret = f();
    let returned = clock::now();
    log.lock().unwrap().push(OpRec { thread, op, ret, invoked, returned });
}

fn set_history<S: Send + Sync + 'static>(
    s: Arc<S>,
    seed: u64,
    key_space: u64,
    ops_per_thread: usize,
    ins: impl Fn(&S, usize, u64) -> bool + Send + Sync + Copy + 'static,
    del: impl Fn(&S, usize, u64) -> bool + Send + Sync + Copy + 'static,
    fnd: impl Fn(&S, usize, u64) -> bool + Send + Sync + Copy + 'static,
) -> Vec<OpRec<SetOp, bool>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let threads = 3;
    let hs: Vec<_> = (0..threads)
        .map(|t| {
            let s = Arc::clone(&s);
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                nvm::tid::set_tid(t);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (t as u64) << 16);
                for _ in 0..ops_per_thread {
                    let k = rng.gen_range(1..=key_space);
                    match rng.gen_range(0..3) {
                        0 => record(&log, t, SetOp::Insert(k), || ins(&s, t, k)),
                        1 => record(&log, t, SetOp::Delete(k), || del(&s, t, k)),
                        _ => record(&log, t, SetOp::Find(k), || fnd(&s, t, k)),
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    Arc::try_unwrap(log).map_err(|_| ()).unwrap().into_inner().unwrap()
}

#[test]
fn isb_list_histories_are_linearizable() {
    for seed in 0..25 {
        let list = Arc::new(isb::list::RList::<M, 0>::new());
        let h = set_history(
            list,
            seed,
            3, // tiny key space → heavy conflicts
            7,
            |s, t, k| s.insert(t, k),
            |s, t, k| s.delete(t, k),
            |s, t, k| s.find(t, k),
        );
        assert!(is_linearizable(&SetSpec, &h), "seed {seed}: history not linearizable: {h:?}");
    }
}

#[test]
fn isb_list_tuned_histories_are_linearizable() {
    for seed in 100..115 {
        let list = Arc::new(isb::list::RList::<M, 1>::new());
        let h = set_history(
            list,
            seed,
            3,
            7,
            |s, t, k| s.insert(t, k),
            |s, t, k| s.delete(t, k),
            |s, t, k| s.find(t, k),
        );
        assert!(is_linearizable(&SetSpec, &h), "seed {seed}: {h:?}");
    }
}

#[test]
fn isb_hashmap_histories_are_linearizable() {
    // Few shards + tiny key space: the keys collide inside buckets, so the
    // shared RecArea sees concurrent publications from every process while
    // helping crosses threads within a bucket.
    for seed in 400..415 {
        let map = Arc::new(isb::hashmap::RHashMap::<M, 0>::with_shards(2));
        let h = set_history(
            map,
            seed,
            3,
            7,
            |s, t, k| s.insert(t, k),
            |s, t, k| s.delete(t, k),
            |s, t, k| s.find(t, k),
        );
        assert!(is_linearizable(&SetSpec, &h), "seed {seed}: {h:?}");
    }
}

#[test]
fn isb_bst_histories_are_linearizable() {
    for seed in 200..220 {
        let bst = Arc::new(isb::bst::RBst::<M, 0>::new());
        let h = set_history(
            bst,
            seed,
            3,
            7,
            |s, t, k| s.insert(t, k),
            |s, t, k| s.delete(t, k),
            |s, t, k| s.find(t, k),
        );
        assert!(is_linearizable(&SetSpec, &h), "seed {seed}: {h:?}");
    }
}

#[test]
fn baseline_lists_histories_are_linearizable() {
    for seed in 300..312 {
        let dt = Arc::new(baselines::dt_list::DtList::<M>::new());
        let h = set_history(
            dt,
            seed,
            3,
            6,
            |s, t, k| s.insert(t, k),
            |s, t, k| s.delete(t, k),
            |s, t, k| s.find(t, k),
        );
        assert!(is_linearizable(&SetSpec, &h), "DT seed {seed}: {h:?}");

        let caps = Arc::new(baselines::capsules_list::CapsulesList::<M, true>::new());
        let h = set_history(
            caps,
            seed,
            3,
            6,
            |s, t, k| s.insert(t, k),
            |s, t, k| s.delete(t, k),
            |s, t, k| s.find(t, k),
        );
        assert!(is_linearizable(&SetSpec, &h), "Capsules seed {seed}: {h:?}");
    }
}

#[test]
fn isb_queue_histories_are_linearizable() {
    for seed in 0..25u64 {
        let q = Arc::new(isb::queue::RQueue::<M, 0>::new());
        let log = Arc::new(Mutex::new(Vec::new()));
        let hs: Vec<_> = (0..3)
            .map(|t| {
                let q = Arc::clone(&q);
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (t as u64) << 8);
                    for i in 0..7u64 {
                        if rng.gen_bool(0.5) {
                            let v = (t as u64 + 1) * 100 + i;
                            record(&log, t, QueueOp::Enq(v), || {
                                q.enqueue(t, v);
                                None
                            });
                        } else {
                            record(&log, t, QueueOp::Deq, || q.dequeue(t));
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let h = Arc::try_unwrap(log).map_err(|_| ()).unwrap().into_inner().unwrap();
        assert!(is_linearizable(&QueueSpec, &h), "seed {seed}: {h:?}");
    }
}

#[test]
fn stack_histories_are_linearizable() {
    for seed in 0..20u64 {
        let s = Arc::new(isb::stack::RStack::<M>::new());
        let log = Arc::new(Mutex::new(Vec::new()));
        let hs: Vec<_> = (0..3)
            .map(|t| {
                let s = Arc::clone(&s);
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (t as u64) << 8);
                    for i in 0..7u64 {
                        if rng.gen_bool(0.5) {
                            let v = (t as u64 + 1) * 100 + i;
                            record(&log, t, StackOp::Push(v), || {
                                s.push(t, v);
                                None
                            });
                        } else {
                            record(&log, t, StackOp::Pop, || s.pop(t));
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let h = Arc::try_unwrap(log).map_err(|_| ()).unwrap().into_inner().unwrap();
        assert!(is_linearizable(&StackSpec, &h), "seed {seed}: {h:?}");
    }
}
