//! Crash-recovery integration tests: seeded system-wide crashes over the
//! NVM simulator, adversarial image reconstruction, per-process recovery,
//! and exactly-once / detectability validation (DESIGN.md §8).

use bench_harness::crash::{publication_sweep, run_scenario, CrashCfg, Publication};
use bench_harness::ops::Op;
use isb::bst::RBst;
use isb::hashmap::RHashMap;
use isb::list::RList;
use isb::queue::RQueue;
use isb::stack::RStack;
use nvm::SimNvm;

#[test]
fn list_survives_many_seeded_crashes() {
    let mut total_pending = 0;
    for seed in 0..40 {
        let rep = run_scenario::<RList<SimNvm, 0>>(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 10,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    // Across 40 seeds, at least some crashes must have landed mid-operation,
    // otherwise the test exercises nothing.
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn list_survives_repeated_recovery_crashes() {
    for seed in 100..115 {
        run_scenario::<RList<SimNvm, 0>>(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 8,
            recovery_crashes: 2, // recovery itself dies twice before completing
            seed,
        });
    }
}

#[test]
fn list_high_contention_crashes() {
    // Tiny key space per process ⇒ many adjacent-node conflicts and helping.
    for seed in 200..220 {
        run_scenario::<RList<SimNvm, 0>>(CrashCfg {
            procs: 4,
            ops_per_proc: 100,
            keys_per_proc: 3,
            recovery_crashes: 1,
            seed,
        });
    }
}

#[test]
fn hashmap_survives_many_seeded_crashes() {
    // Sharded map, untuned placement: 16 shards with 3 × 24 disjoint keys,
    // so the fibonacci shard function scatters each process's working set —
    // and therefore the crash-pending descriptors — across different
    // buckets, all funneling through the one shared RecArea. The generic
    // driver validates exactly-once responses, leak-free teardown and the
    // post-recovery POISON scan per seed.
    let mut total_pending = 0;
    for seed in 0..12 {
        let rep = run_scenario::<RHashMap<SimNvm, 0>>(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 24,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn hashmap_opt_survives_many_seeded_crashes() {
    // Hand-tuned placement over the same scenario family, different seeds.
    let mut total_pending = 0;
    for seed in 700..712 {
        let rep = run_scenario::<RHashMap<SimNvm, 1>>(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 24,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn hashmap_survives_repeated_recovery_crashes() {
    // Multi-crash: recovery itself dies twice per seed, in both placements.
    for seed in 800..806 {
        run_scenario::<RHashMap<SimNvm, 0>>(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 16,
            recovery_crashes: 2,
            seed,
        });
        run_scenario::<RHashMap<SimNvm, 1>>(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 16,
            recovery_crashes: 2,
            seed: seed + 50,
        });
    }
}

#[test]
fn hashmap_high_contention_crashes() {
    // Tiny per-process key space ⇒ adjacent-key conflicts concentrate in few
    // shards, exercising cross-process helping inside a bucket while other
    // buckets stay idle.
    for seed in 900..910 {
        run_scenario::<RHashMap<SimNvm, 0>>(CrashCfg {
            procs: 4,
            ops_per_proc: 100,
            keys_per_proc: 3,
            recovery_crashes: 1,
            seed,
        });
    }
}

#[test]
fn hashmap_lp_survives_many_seeded_crashes() {
    // Link-persist placement. A noted line is an outstanding word until the
    // next fence, and `CP_q := 1` is deferred into `publish_arm` — the image
    // builder may crash an op between `begin` and publish with a durably-zero
    // checkpoint bit, which must read as Restart. Cleanup untag flushes are
    // elided entirely, so the adversary can resurrect tags of completed
    // operations; the scrub / lazy-helping path must heal them without
    // double-applying effects.
    let mut total_pending = 0;
    for seed in 1100..1112 {
        let rep = run_scenario::<RHashMap<SimNvm, 3>>(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 24,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn hashmap_lp_high_contention_crashes() {
    // The arm that ships, in the shape of `hashmap_high_contention_crashes`:
    // adjacent keys in few shards, so a resurrected tag (LP never writes an
    // untag back) is met by a neighbour's operation, not only by scrub.
    let mut total_pending = 0;
    for seed in 1300..1310 {
        let rep = run_scenario::<RHashMap<SimNvm, 3>>(CrashCfg {
            procs: 4,
            ops_per_proc: 100,
            keys_per_proc: 3,
            recovery_crashes: 1,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn hashmap_coalescing_arms_survive_repeated_recovery_crashes() {
    // The coalescing glue `Isb-LP` runs, with recovery itself dying twice.
    for seed in 1200..1206 {
        run_scenario::<RHashMap<SimNvm, 3>>(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 16,
            recovery_crashes: 2,
            seed: seed + 50,
        });
    }
}

#[test]
fn queue_survives_many_seeded_crashes() {
    let mut total = 0;
    for seed in 0..40 {
        let rep = run_scenario::<RQueue<SimNvm, 0>>(CrashCfg {
            procs: 4,
            ops_per_proc: 60,
            keys_per_proc: 16, // prefill
            recovery_crashes: 0,
            seed,
        });
        total += rep.completed;
    }
    assert!(total > 0);
}

#[test]
fn queue_lp_survives_many_seeded_crashes() {
    // LP enqueue skips the tag-phase `psync` (single-affect help): the crash
    // image may roll the tail-link CAS back while the descriptor and RD_q
    // survive, or persist the link while `result` rolls back — both must
    // resolve to exactly-once effects via Op-Recover.
    let mut total = 0;
    for seed in 2100..2120 {
        let rep = run_scenario::<RQueue<SimNvm, 3>>(CrashCfg {
            procs: 4,
            ops_per_proc: 60,
            keys_per_proc: 16, // prefill
            recovery_crashes: 0,
            seed,
        });
        total += rep.completed;
    }
    assert!(total > 0);
}

#[test]
fn queue_lp_survives_repeated_recovery_crashes() {
    // Recovery itself dies twice: a re-invoked LP enqueue is cut between its
    // link and its one `psync`, and the next image may also roll the tail
    // hint (never written back under LP) to a node dequeued long ago.
    let mut total_pending = 0;
    let mut total = 0;
    for seed in 2200..2215 {
        let rep = run_scenario::<RQueue<SimNvm, 3>>(CrashCfg {
            procs: 4,
            ops_per_proc: 60,
            keys_per_proc: 16, // prefill
            recovery_crashes: 2,
            seed,
        });
        total_pending += rep.pending;
        total += rep.completed;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
    assert!(total > 0);
}

#[test]
fn queue_lp_high_contention_crashes() {
    // A three-node prefill: the queue runs empty again and again, so the
    // enqueuers' last node is the dequeuers' sentinel and every operation
    // helps or is helped across the head / tail boundary.
    let mut total_pending = 0;
    let mut total = 0;
    for seed in 2300..2320 {
        let rep = run_scenario::<RQueue<SimNvm, 3>>(CrashCfg {
            procs: 4,
            ops_per_proc: 100,
            keys_per_proc: 3, // prefill
            recovery_crashes: 1,
            seed,
        });
        total_pending += rep.pending;
        total += rep.completed;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
    assert!(total > 0);
}

#[test]
fn stack_survives_many_seeded_crashes() {
    // Every push copy-replaces the first node and every pop unlinks it, so
    // all operations meet at `head.next`: a crash image may keep a push's
    // link and roll back the copy's fields, or keep the descriptor's result
    // and roll back the link — both must resolve exactly once.
    let (mut total_pending, mut total) = (0, 0);
    for seed in 3100..3130 {
        let rep = run_scenario::<RStack<SimNvm>>(CrashCfg {
            procs: 4,
            ops_per_proc: 60,
            keys_per_proc: 16, // prefill
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
        total += rep.completed;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
    assert!(total > 0);
}

#[test]
fn stack_survives_repeated_recovery_crashes() {
    // Recovery itself dies twice: a re-invoked push or pop is cut anywhere
    // between its glue and its last `psync`.
    let mut total_pending = 0;
    for seed in 3200..3215 {
        let rep = run_scenario::<RStack<SimNvm>>(CrashCfg {
            procs: 4,
            ops_per_proc: 60,
            keys_per_proc: 16, // prefill
            recovery_crashes: 2,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn stack_high_contention_crashes() {
    // A three-value prefill: the stack runs empty again and again, so pops
    // meet the `+∞` sentinel and pushes copy-replace it.
    let mut total_pending = 0;
    for seed in 3300..3320 {
        let rep = run_scenario::<RStack<SimNvm>>(CrashCfg {
            procs: 4,
            ops_per_proc: 100,
            keys_per_proc: 3, // prefill
            recovery_crashes: 1,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn bst_survives_many_seeded_crashes() {
    for seed in 0..25 {
        run_scenario::<RBst<SimNvm, 0>>(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 8,
            recovery_crashes: 0,
            seed,
        });
    }
}

#[test]
fn bst_survives_repeated_recovery_crashes() {
    for seed in 500..510 {
        run_scenario::<RBst<SimNvm, 0>>(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 6,
            recovery_crashes: 2,
            seed,
        });
    }
}

#[test]
fn bst_lp_survives_many_seeded_crashes() {
    // The arm a mapped BST opens at, in the shape of the arm-0 leg: cleanup
    // untags never written back, so resurrected tags meet scrub and
    // neighbours alike. The BST's descriptors carry no link bit.
    let mut total_pending = 0;
    for seed in 2500..2525 {
        let rep = run_scenario::<RBst<SimNvm, 3>>(CrashCfg {
            procs: 3,
            ops_per_proc: 80,
            keys_per_proc: 8,
            recovery_crashes: 0,
            seed,
        });
        total_pending += rep.pending;
    }
    assert!(total_pending > 0, "no crash ever landed mid-operation; harness broken");
}

#[test]
fn bst_lp_survives_repeated_recovery_crashes() {
    for seed in 2600..2610 {
        run_scenario::<RBst<SimNvm, 3>>(CrashCfg {
            procs: 3,
            ops_per_proc: 60,
            keys_per_proc: 6,
            recovery_crashes: 2,
            seed,
        });
    }
}

// ---- Validated publication --------------------------------------------
//
// An `Isb-LP` update with no caller record writes its descriptor, its new
// nodes and the recovery line back in the publish `psync`'s one window;
// `CP_q` holds the digest that tells recovery whether all of them reached
// media. Each leg crashes one publish shape at every instruction over 16
// images, lets another process work the same cells, recovers, and judges
// the result by the exactly-once and the linearizability oracles.

/// Images per instruction of each publish shape.
const PUBLISH_SEEDS: u64 = 16;

fn sweep<S: bench_harness::ops::Target + Default>(prefill: &[Op], crashed: Op, other: Op) {
    let shape = Publication { prefill, crashed, other };
    // Every shape runs 60 instructions or more (976 crashes at least).
    let crashes = publication_sweep::<S>(shape, PUBLISH_SEEDS);
    assert!(crashes >= 50 * PUBLISH_SEEDS, "the sweep ran: {crashes}");
}

#[test]
fn validated_publish_queue_enqueue() {
    sweep::<RQueue<SimNvm, 3>>(&[Op::Enqueue(10)], Op::Enqueue(20), Op::Enqueue(30));
}

#[test]
fn validated_publish_queue_dequeue() {
    let prefill = [10, 20, 30].map(Op::Enqueue);
    sweep::<RQueue<SimNvm, 3>>(&prefill, Op::Dequeue, Op::Dequeue);
}

#[test]
fn validated_publish_set_insert() {
    // The other process deletes the node the insert copy-replaces.
    let prefill = [2, 8].map(Op::Insert);
    sweep::<RList<SimNvm, 3>>(&prefill, Op::Insert(5), Op::Delete(8));
}

#[test]
fn validated_publish_set_delete() {
    // The other process inserts behind the node the delete unlinks.
    let prefill = [2, 5, 8].map(Op::Insert);
    sweep::<RList<SimNvm, 3>>(&prefill, Op::Delete(5), Op::Insert(6));
}

#[test]
fn validated_publish_stack_push() {
    sweep::<RStack<SimNvm>>(&[Op::Push(10)], Op::Push(20), Op::Push(30));
}

#[test]
fn validated_publish_stack_pop() {
    let prefill = [10, 20].map(Op::Push);
    sweep::<RStack<SimNvm>>(&prefill, Op::Pop, Op::Pop);
}

#[test]
fn validated_publish_bst_insert() {
    let prefill = [2, 8].map(Op::Insert);
    sweep::<RBst<SimNvm, 3>>(&prefill, Op::Insert(5), Op::Insert(6));
}

#[test]
fn validated_publish_bst_delete() {
    let prefill = [2, 5, 8].map(Op::Insert);
    sweep::<RBst<SimNvm, 3>>(&prefill, Op::Delete(5), Op::Delete(8));
}
