//! True cross-process restart recovery: children hammer a mapped heap
//! through write-ahead journals, the parent `SIGKILL`s them mid-workload,
//! re-attaches the heap **from the parent process** and verifies every
//! journal against the recovery decisions. How a round is built — scratch
//! directory, child spawn and handshake, journal protocol, the
//! acked / recovered / re-invoked / stale checks — is [`isb_tests::sigkill`];
//! this file holds what is specific to a leg:
//!
//! | test | what is killed | what is asserted |
//! |------|----------------|------------------|
//! | `restart_sigkill_recovers_across_processes` | a child with 3 workers on the one map of a `Store`, at `30 + (seed * 37) % 170` ms | every journal resolves; key-range equivalence, `snapshot_keys`, structural invariants |
//! | `restart_sigkill_mid_growth_recovers` | the same child over a 64 KiB initial segment, 1..=56 ms in | the same, and the matrix as a whole outgrew segment 0 |
//! | `store_restart_sigkill_recovers_across_processes` | a child with 2 map workers + 1 queue worker on ONE `Store` heap | every journal resolves against the one shared replay; map equivalence, snapshot and invariants, queue drain in order |
//! | `five_kinds_sigkill_recovers_through_one_driver` | one worker cycling map, queue, list, BST and stack of ONE store | its journal resolves through the store-wide decision; equivalence per structure |
//! | `shared_kill_one_of_n_recovers_online` | one of 3 live processes sharing ONE heap | survivors keep acking DURING recovery; every journal resolves through the survivor-journaled decisions; map equivalence, queue exactly-once + per-producer FIFO |
//! | `shared_kill_of_recoverer_is_superseded` | the victim, then its recoverer mid-lease | the last survivor steals the lease and recovers both; same checks |
//! | `shared_peer_growth_is_readable_without_refresh` | nothing (the child exits) | peer-grown segments are readable with no refresh |
//! | `shared_kv_failover_serves_dead_peers_clients` | one of two `kvserve` processes on one heap | its clients fail over to the survivor exactly-once |
//! | `reattach_is_idempotent` | nothing | a second attach has nothing to sweep |
//! | `a_sigkill_loses_no_unflushed_store` | a child that stored a root block with no write-back or fence | every store is in the re-attached heap |
//!
//! Every structure runs `Isb-LP`, the one placement a mapped structure has,
//! so every leg tests the write order that ships.
//!
//! Seeds: `ISB_RESTART_SEEDS` seeded kill points (default 20 for the first
//! leg, 10 for the store and five-kinds legs); every failure message includes
//! the seed. The mid-growth matrix sizes itself from
//! `ISB_RESTART_GROWTH_SEEDS` (default 12) instead, so smoke runs can shrink
//! the main matrix without starving the growth-window assert; the shared
//! legs read `ISB_SHARED_SEEDS` (10) and `ISB_SHARED_KILL2_SEEDS` (3).

use bench_harness::ops::{Op, Resp, SeqModel, Target};
use isb::arm::LP;
use isb::bst::RBst;
use isb::hashmap::RHashMap;
use isb::list::RList;
use isb::queue::RQueue;
use isb::recovery::Recovered;
use isb::stack::RStack;
use isb::store::Store;
use isb_tests::kv::splitmix;
use isb_tests::sigkill::{Child, Journal, Model, Scratch, SeqModels, Tally};
use nvm::MappedNvm;
use std::collections::HashMap;
use std::fmt::Display;
use std::process::Stdio;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 8;
const HEAP_BYTES: usize = 16 * 1024 * 1024;
const WORKERS: usize = 3; // pids 1..=WORKERS, disjoint key ranges
const KEYS_PER_WORKER: u64 = 1000;

fn key_range(pid: usize) -> (u64, u64) {
    let lo = 1 + (pid as u64 - 1) * KEYS_PER_WORKER;
    (lo, lo + KEYS_PER_WORKER - 1)
}

/// The seed count `var` asks for.
fn seeds(var: &str, default: u64) -> u64 {
    std::env::var(var).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// 40 % inserts, 30 % deletes, 30 % finds.
fn set_op(r: u64, key: u64) -> Op {
    match r % 10 {
        0..=3 => Op::Insert(key),
        4..=6 => Op::Delete(key),
        _ => Op::Find(key),
    }
}

/// Runs `round` over the seeds, prints the leg's totals and checks that the
/// kill timing left any work to verify.
fn matrix(leg: &str, seeds: u64, mut round: impl FnMut(u64) -> Tally) {
    let mut total = Tally::default();
    for seed in 0..seeds {
        total += round(seed);
    }
    println!(
        "{leg}: {seeds} kills, {} acked ops verified, {} in-flight ops detectably resolved",
        total.acked, total.inflight
    );
    assert!(total.acked > 0, "no seed produced any acked work — kill timing broken");
}

/// Spawns the child test `test`, waits until it is ready, lets it run for
/// `run_for` and SIGKILLs it.
fn run_and_kill(scratch: &Scratch, test: &str, params: &[(&str, &dyn Display)], run_for: Duration) {
    let child = scratch.spawn(&mut scratch.child(test, params));
    scratch.wait_file("ready");
    std::thread::sleep(run_for);
    child.sigkill();
}

/// The map every leg runs.
type Map = RHashMap<MappedNvm, LP>;

/// `map` must hold exactly `model`'s keys of `pid`'s range.
fn check_range(who: &str, map: &Map, reader: usize, pid: usize, model: &SeqModel) {
    let (lo, hi) = key_range(pid);
    for k in lo..=hi {
        let want = model.set.contains(&k);
        assert_eq!(map.find(reader, k), want, "{who}: map equivalence diverges at key {k}");
    }
}

/// `queue` must hold exactly `model`'s values, in order.
fn check_drain(who: &str, queue: &RQueue<MappedNvm, LP>, model: &mut SeqModel) {
    while let Some(want) = model.fifo.pop_front() {
        assert_eq!(queue.dequeue(0), Some(want), "{who}: queue contents diverge");
    }
    assert_eq!(queue.dequeue(0), None, "{who}: queue longer than model");
}

// ---------------------------------------------------------------------------
// Map workers on ONE store heap, alone or beside a queue worker, SIGKILL
// ---------------------------------------------------------------------------

const STORE_HEAP_BYTES: usize = 32 * 1024 * 1024;
const QUEUE_PID: usize = WORKERS; // beside a queue, map workers are pids 1..=2

/// A map worker: journaled seeded set operations on `pid`'s key range,
/// until the SIGKILL.
fn map_worker(scratch: &Scratch, map: &Map, pid: usize, seed: u64) {
    nvm::tid::set_tid(pid);
    let mut journal = Journal::append(&scratch.journal(pid));
    let (lo, hi) = key_range(pid);
    let mut rng = seed.wrapping_mul(31).wrapping_add(pid as u64);
    loop {
        let key = lo + splitmix(&mut rng) % (hi - lo + 1);
        let op = set_op(splitmix(&mut rng), key);
        journal.invoke('m', op, || map.note_invocation(pid), || map.invoke(pid, op));
    }
}

/// Child: workers hammer ONE store heap with per-pid journals until the
/// parent kills them: three map workers, or (`with_queue`) two map workers
/// plus one queue worker over one recovery area. A SIGKILL is the one crash
/// the NVM simulator cannot model — the mapped heap's surviving bytes are
/// whatever the kernel saw, so `Isb-LP`'s elided flushes face a real (if
/// friendly: the page cache persists CPU stores without clflush) restart.
#[test]
#[ignore = "child half of the restart harness; spawned by the parent test"]
fn store_restart_child_worker() {
    let Some(scratch) = Scratch::of_child() else { return };
    let scratch = &scratch;
    let seed: u64 = scratch.param("seed");
    let with_queue: bool = scratch.param("with_queue");
    nvm::tid::set_tid(0);
    // The growth leg shrinks the initial segment so the fill outgrows it.
    let store = Store::open_sized(scratch.heap(), scratch.param("heap_bytes")).expect("child open");
    let map = store.hashmap::<LP>("users", SHARDS).expect("users handle");
    let queue = with_queue.then(|| store.queue::<LP>("jobs").expect("jobs handle"));
    // Signal readiness only once the heap is fully created.
    scratch.publish("ready", "ok");

    std::thread::scope(|s| {
        for pid in 1..=WORKERS - with_queue as usize {
            let map = &*map;
            s.spawn(move || map_worker(scratch, map, pid, seed));
        }
        let Some(queue) = &queue else { return };
        s.spawn(move || {
            nvm::tid::set_tid(QUEUE_PID);
            let mut journal = Journal::append(&scratch.journal(QUEUE_PID));
            let mut rng = seed.wrapping_mul(131).wrapping_add(QUEUE_PID as u64);
            loop {
                let op = if splitmix(&mut rng).is_multiple_of(2) {
                    Op::Enqueue(journal.next_seq())
                } else {
                    Op::Dequeue
                };
                let note = || queue.note_invocation(QUEUE_PID);
                journal.invoke('q', op, note, || queue.invoke(QUEUE_PID, op));
            }
        });
    });
}

/// One SIGKILL round of `store_restart_child_worker` (its queue worker
/// `with_queue`) on a heap created at `heap_bytes`. Re-opens the WHOLE
/// store from this process — one shared replay resolves every structure's
/// pending operation — and verifies every journal, the map (key ranges,
/// snapshot, invariants) and the queue's drain. Returns what it verified and
/// the heap's segment count.
fn run_store_round(
    leg: &str,
    seed: u64,
    heap_bytes: usize,
    kill_after: Duration,
    with_queue: bool,
) -> (Tally, usize) {
    let shape = if with_queue { "mq" } else { "m" };
    // Two tests run the single-map matrix — on their own test threads, over
    // the same seeds — so the heap size is what tells their directories apart.
    let scratch = Scratch::create(leg, format!("{shape}_{heap_bytes}"), seed);
    let params =
        [("seed", &seed as _), ("with_queue", &with_queue as _), ("heap_bytes", &heap_bytes as _)];
    run_and_kill(&scratch, "store_restart_child_worker", &params, kill_after);

    nvm::tid::set_tid(0);
    let store = Store::open_sized(scratch.heap(), heap_bytes)
        .unwrap_or_else(|e| panic!("seed {seed}: parent store open failed: {e}"));
    let summary = store.summary();
    let map = store.hashmap::<LP>("users", SHARDS).expect("users handle");
    let queue = with_queue.then(|| store.queue::<LP>("jobs").expect("jobs handle"));

    // Map workers: disjoint parts of one model, each journal replayed
    // sequentially against its own. Queue worker: FIFO model replay.
    let mut tally = Tally::default();
    let mut model = SeqModels::default();
    for pid in 1..=WORKERS {
        let who = format!("seed {seed} {shape} pid {pid}");
        let target: &dyn Target = match &queue {
            Some(queue) if pid == QUEUE_PID => &**queue,
            _ => &*map,
        };
        let mut reinvoke = |_: char, op: Op| target.invoke(pid, op);
        let decision = Some(summary.decision(pid));
        tally += scratch.resolve(&who, pid, decision, &mut model, &mut reinvoke);
        if !with_queue || pid != QUEUE_PID {
            check_range(&who, &map, 0, pid, model.of('m'));
        }
    }
    let who = format!("seed {seed} {shape}");
    // Drain: the recovered queue must match the model exactly, in order.
    if let Some(queue) = &queue {
        check_drain(&who, queue, model.of('q'));
    }
    let segments = summary.heap.segments;
    // With the store closed, the map's handle is its last owner.
    drop((queue, store));
    let mut map = Arc::into_inner(map).expect("the store's last handle");
    let mut want: Vec<u64> = model.of('m').set.iter().copied().collect();
    want.sort_unstable();
    assert_eq!(map.snapshot_keys(), want, "{who}: snapshot diverges from model");
    map.check_invariants();
    (tally, segments)
}

/// The cross-process SIGKILL matrix: three map workers on one store's map,
/// seeded kill points, zero lost acked ops, every in-flight op detectably
/// resolved, full model equivalence.
#[test]
fn restart_sigkill_recovers_across_processes() {
    matrix("restart matrix", seeds("ISB_RESTART_SEEDS", 20), |seed| {
        let kill_after = Duration::from_millis(30 + (seed * 37) % 170);
        run_store_round("restart", seed, HEAP_BYTES, kill_after, false).0
    });
}

/// The growth crash window: the same SIGKILL matrix over a heap whose
/// initial segment (64 KiB) is far smaller than the working set, so every
/// run with meaningful progress extends the file, stamps segment-directory
/// entries and publishes new segments while the workload hammers it — and
/// kill points are drawn tighter around that early growth phase. Zero lost
/// acked ops, every in-flight op detectably resolved, and the matrix as a
/// whole must actually have grown past segment 0 (single seeds may die
/// before the first growth; that window is the point).
#[test]
fn restart_sigkill_mid_growth_recovers() {
    // Deliberately NOT `ISB_RESTART_SEEDS`: the matrix-wide growth assert
    // below needs enough kill points that at least one lands after the
    // first segment growth, so a 1-seed smoke setting must not shrink it.
    let mut max_segments = 0;
    matrix("mid-growth matrix", seeds("ISB_RESTART_GROWTH_SEEDS", 12), |seed| {
        // 1..=56 ms after readiness: clustered on the fill ramp, where the
        // allocation rate (and thus growth) is highest.
        let kill_after = Duration::from_millis(1 + (seed * 5) % 56);
        let heap_bytes = nvm::mapped::MIN_HEAP_BYTES;
        let (tally, segments) = run_store_round("restart", seed, heap_bytes, kill_after, false);
        max_segments = max_segments.max(segments);
        tally
    });
    println!("mid-growth matrix: max {max_segments} segments");
    assert!(
        max_segments > 1,
        "no seed ever outgrew the 64 KiB initial segment — the growth window was not exercised"
    );
}

/// The multi-structure store matrix: SIGKILL a child mutating a map AND a
/// queue in ONE heap at seeded points; zero lost acked ops, every in-flight
/// op detectably resolved per structure, model equivalence for both.
#[test]
fn store_restart_sigkill_recovers_across_processes() {
    matrix("store restart matrix", seeds("ISB_RESTART_SEEDS", 10), |seed| {
        let kill_after = Duration::from_millis(30 + (seed * 41) % 170);
        run_store_round("store_restart", seed, STORE_HEAP_BYTES, kill_after, true).0
    });
}

/// Attach twice in a row without a crash: the second attach must be a
/// no-op scrub — nothing poisoned, nothing swept, contents identical.
#[test]
fn reattach_is_idempotent() {
    nvm::tid::set_tid(0);
    let scratch = Scratch::create("reattach", "once", 0);
    let open = || {
        let store = Store::open_sized(scratch.heap(), HEAP_BYTES).unwrap();
        let map = store.hashmap::<LP>("users", SHARDS).unwrap();
        (store, map)
    };
    {
        let (_store, map) = open();
        for k in 1..=300u64 {
            assert!(map.insert(0, k));
        }
        for k in (1..=300u64).step_by(2) {
            assert!(map.delete(0, k));
        }
    }
    let keys1 = {
        let (store, map) = open();
        assert_eq!(store.summary().heap.poisoned, 0, "clean detach left torn blocks");
        drop(store);
        let mut map = Arc::into_inner(map).unwrap();
        map.check_invariants();
        map.snapshot_keys()
    };
    let (store, map) = open();
    let s = store.summary();
    assert_eq!(s.heap.poisoned, 0);
    assert_eq!(s.swept, 0, "second attach must have nothing left to sweep");
    drop(store);
    let mut map = Arc::into_inner(map).unwrap();
    map.check_invariants();
    assert_eq!(map.snapshot_keys(), keys1, "re-attach changed the contents");
    assert_eq!(keys1, (2..=300).step_by(2).collect::<Vec<u64>>());
}

// ---------------------------------------------------------------------------
// Five-kinds scenario: every structure kind in ONE store, one worker, SIGKILL
// ---------------------------------------------------------------------------

const FIVE_PID: usize = 1;
const FIVE_MAP_KEYS: u64 = 100;
const FIVE_SET_KEYS: u64 = 48;

/// The five structures of the five-kinds store, by journal tag.
struct Five {
    m: Arc<Map>,
    q: Arc<RQueue<MappedNvm, LP>>,
    l: Arc<RList<MappedNvm, LP>>,
    t: Arc<RBst<MappedNvm, LP>>,
    s: Arc<RStack<MappedNvm>>,
}

impl Five {
    fn open(store: &Store) -> Five {
        Five {
            m: store.hashmap::<LP>("m", 4).unwrap(),
            q: store.queue::<LP>("q").unwrap(),
            l: store.list::<LP>("l").unwrap(),
            t: store.bst::<LP>("t").unwrap(),
            s: store.stack("s").unwrap(),
        }
    }

    fn target(&self, st: char) -> &dyn Target {
        match st {
            'm' => &*self.m,
            'q' => &*self.q,
            'l' => &*self.l,
            't' => &*self.t,
            _ => &*self.s,
        }
    }
}

/// Child: a single worker cycles random operations across a map, queue,
/// list, BST and stack hosted by ONE store heap, journaling every op.
#[test]
#[ignore = "child half of the five-kinds restart harness; spawned by the parent test"]
fn five_kinds_child_worker() {
    let Some(scratch) = Scratch::of_child() else { return };
    nvm::tid::set_tid(FIVE_PID);
    let store = Store::open_sized(scratch.heap(), STORE_HEAP_BYTES).expect("child open");
    let five = Five::open(&store);
    scratch.publish("ready", "ok");

    let mut journal = Journal::append(&scratch.journal(FIVE_PID));
    let mut rng = scratch.param::<u64>("seed").wrapping_mul(77).wrapping_add(5);
    loop {
        let (r, seq) = (splitmix(&mut rng), journal.next_seq());
        let pick = (r >> 8) as usize;
        let set = |keys: u64| {
            let key = 1 + (r >> 16) % keys;
            [Op::Insert(key), Op::Delete(key), Op::Find(key)][pick % 3]
        };
        let (st, op) = match r % 5 {
            0 => ('m', set(FIVE_MAP_KEYS)),
            1 => ('q', [Op::Enqueue(seq), Op::Dequeue][pick % 2]),
            2 => ('l', set(FIVE_SET_KEYS)),
            3 => ('t', set(FIVE_SET_KEYS)),
            _ => ('s', [Op::Push(seq), Op::Pop][pick % 2]),
        };
        // One recovery area serves all five: the note goes through the map.
        let note = || five.m.note_invocation(FIVE_PID);
        journal.invoke(st, op, note, || five.target(st).invoke(FIVE_PID, op));
    }
}

fn run_one_five_kinds_seed(seed: u64) -> Tally {
    let scratch = Scratch::create("five_kinds", "store", seed);
    let kill_after = Duration::from_millis(25 + (seed * 53) % 160);
    run_and_kill(&scratch, "five_kinds_child_worker", &[("seed", &seed)], kill_after);

    nvm::tid::set_tid(0);
    let store = Store::open_sized(scratch.heap(), STORE_HEAP_BYTES)
        .unwrap_or_else(|e| panic!("seed {seed}: parent store open failed: {e}"));
    let five = Five::open(&store);

    // Replay the journal against the sequential models and resolve the
    // at-most-one in-flight op through the store-wide decision.
    let who = format!("seed {seed} pid {FIVE_PID}");
    let mut model = SeqModels::default();
    let mut reinvoke = |st: char, op: Op| five.target(st).invoke(FIVE_PID, op);
    let decision = Some(store.summary().decision(FIVE_PID));
    let tally = scratch.resolve(&who, FIVE_PID, decision, &mut model, &mut reinvoke);

    // Full equivalence per structure.
    for k in 1..=FIVE_MAP_KEYS {
        assert_eq!(five.m.find(0, k), model.of('m').set.contains(&k), "{who}: map diverges at {k}");
    }
    for k in 1..=FIVE_SET_KEYS {
        assert_eq!(
            five.l.find(0, k),
            model.of('l').set.contains(&k),
            "{who}: list diverges at {k}"
        );
        assert_eq!(five.t.find(0, k), model.of('t').set.contains(&k), "{who}: bst diverges at {k}");
    }
    check_drain(&who, &five.q, model.of('q'));
    while let Some(want) = model.of('s').lifo.pop() {
        assert_eq!(five.s.pop(0), Some(want), "{who}: stack diverges");
    }
    assert_eq!(five.s.pop(0), None, "{who}: stack longer than model");
    tally
}

/// The acceptance matrix: all FIVE structure kinds in one heap pass a
/// SIGKILL/recover round-trip through the same generic attach driver.
#[test]
fn five_kinds_sigkill_recovers_through_one_driver() {
    matrix("five-kinds matrix", seeds("ISB_RESTART_SEEDS", 10), run_one_five_kinds_seed);
}

// ---------------------------------------------------------------------------
// Kill-one-of-N: N live processes share ONE heap; a SIGKILLed peer is
// recovered ONLINE by a survivor while service continues
// ---------------------------------------------------------------------------

const SHARED_PROCS: usize = 3;
const SHARED_HEAP_BYTES: usize = 32 * 1024 * 1024;
/// Queue values are `(idx + 1) * QVAL_STRIDE + seq`: globally unique and
/// attributable to their producer for the per-producer FIFO check.
const QVAL_STRIDE: u64 = 10_000_000;

/// Child: joins (or creates) the SHARED store heap, spawns a healer thread
/// that recovers dead peers under a lease (holding it `hold_ms` first, so
/// the parent can observe service during recovery — and kill the recoverer
/// mid-lease), and hammers the shared map + queue with a journal until the
/// parent writes the stop file.
#[test]
#[ignore = "child half of the shared-heap kill matrix; spawned by the parent test"]
fn shared_child_worker() {
    let Some(scratch) = Scratch::of_child() else { return };
    let (idx, seed): (usize, u64) = (scratch.param("idx"), scratch.param("seed"));
    let hold = Duration::from_millis(scratch.param("hold_ms"));

    nvm::tid::set_tid(0);
    let store = Store::open_sized(scratch.heap(), SHARED_HEAP_BYTES).expect("child open");
    let slot = store.heap().my_participant().expect("participant slot");
    let band = nvm::mapped::MappedHeap::tid_band(slot);
    // Every thread of this process registers a tid inside its band.
    nvm::tid::set_tid(band.start);
    let map = store.hashmap::<LP>("users", SHARDS).expect("users handle");
    let queue = store.queue::<LP>("jobs").expect("jobs handle");
    scratch.publish(&format!("ready_{idx}"), slot);

    let stop = scratch.file("stop");
    std::thread::scope(|s| {
        s.spawn(|| {
            nvm::tid::set_tid(band.start + 1);
            while !stop.exists() {
                for peer in store.dead_peers() {
                    if store.claim_recovery(peer) {
                        // Lease held: the parent observes this marker, then
                        // asserts survivors (this process included) keep
                        // acking operations before rec_done appears.
                        scratch.publish(&format!("rec_start_{idx}_{peer}"), "");
                        std::thread::sleep(hold);
                        if let Ok(Some(decisions)) = store.recover_peer(peer) {
                            let body: String = decisions
                                .iter()
                                .map(|(pid, d)| match d {
                                    Recovered::Completed(r) => format!("{pid} C {r}\n"),
                                    Recovered::Restart => format!("{pid} R\n"),
                                })
                                .collect();
                            scratch.publish(&format!("rec_done_{idx}_{peer}"), body);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });

        let mut journal = Journal::append(&scratch.journal(idx));
        let (lo, hi) = key_range(idx + 1); // disjoint 1000-key range per child
        let mut rng = seed.wrapping_mul(97).wrapping_add(idx as u64 + 1);
        let t = band.start;
        // Stop is checked BEFORE each op: a graceful exit never leaves an
        // in-flight record, so unacked journal tails only come from SIGKILLs.
        while !stop.exists() {
            let r = splitmix(&mut rng);
            let (st, op, target): (char, Op, &dyn Target) = if r.is_multiple_of(3) {
                let val = (idx as u64 + 1) * QVAL_STRIDE + journal.next_seq();
                ('q', [Op::Enqueue(val), Op::Dequeue][(r >> 8) as usize % 2], &*queue)
            } else {
                let key = lo + splitmix(&mut rng) % (hi - lo + 1);
                ('m', set_op(r >> 16, key), &*map)
            };
            journal.invoke(st, op, || map.note_invocation(t), || target.invoke(t, op));
        }
    });
}

/// Reads the survivor-journaled recovery decision for `tid` out of a
/// `rec_done_<idx>_<slot>` marker.
fn marker_decision(scratch: &Scratch, slot: usize, tid: usize) -> Recovered {
    for idx in 0..SHARED_PROCS {
        let p = scratch.file(&format!("rec_done_{idx}_{slot}"));
        let Ok(body) = std::fs::read_to_string(&p) else { continue };
        for line in body.lines() {
            let mut it = line.split_whitespace();
            let pid: usize = it.next().unwrap().parse().unwrap();
            if pid != tid {
                continue;
            }
            return match it.next().unwrap() {
                "C" => Recovered::Completed(it.next().unwrap().parse().unwrap()),
                _ => Recovered::Restart,
            };
        }
    }
    panic!("no rec_done marker covers slot {slot} tid {tid}");
}

/// The shared queue's accounting across ALL journals. No process owns the
/// queue, so no sequential model can say what a dequeue should have
/// answered; instead every (acked, `Completed`-recovered or re-invoked)
/// enqueue and every dequeued value is recorded here, and checked after the
/// final drain.
#[derive(Default)]
struct QueueLedger {
    /// value -> its index among its producer's enqueues.
    enq_order: HashMap<u64, usize>,
    enq_count: [usize; SHARED_PROCS],
    dequeued: Vec<u64>,
}

/// One child's journal seen through its private key range and the ledger.
struct SharedModel<'a> {
    idx: usize,
    set: SeqModel,
    ledger: &'a mut QueueLedger,
}

impl Model for SharedModel<'_> {
    fn expect(&mut self, _st: char, op: Op, got: Resp) -> Resp {
        match op {
            Op::Enqueue(v) => {
                self.ledger.enq_order.insert(v, self.ledger.enq_count[self.idx]);
                self.ledger.enq_count[self.idx] += 1;
                Resp::Unit
            }
            Op::Dequeue => {
                // Any answer is one some interleaving gives; `check` has the
                // exactly-once and FIFO rules.
                if let Resp::Val(Some(v)) = got {
                    self.ledger.dequeued.push(v);
                }
                got
            }
            _ => self.set.apply(op),
        }
    }
}

impl QueueLedger {
    /// Requires every recorded enqueue to be observed exactly once —
    /// dequeued by some process or still in `drained`, the recovered
    /// queue's contents — and per-producer FIFO order to hold. (An enqueue
    /// that was decided `Restart` though it had taken effect shows as a
    /// duplicate: the re-invocation enqueued its value a second time.)
    fn check(&self, seed: u64, drained: &[u64]) {
        let producer = |v: u64| (v / QVAL_STRIDE) as usize - 1;
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for &v in self.dequeued.iter().chain(drained) {
            assert!(
                self.enq_order.contains_key(&v),
                "seed {seed}: value {v} observed but never (durably) enqueued"
            );
            *seen.entry(v).or_insert(0) += 1;
        }
        for (&v, &c) in &seen {
            assert_eq!(c, 1, "seed {seed}: value {v} observed {c} times (duplicated)");
        }
        for &v in self.enq_order.keys() {
            assert!(
                seen.contains_key(&v),
                "seed {seed}: acked enqueue {v} lost (not dequeued, not in the drain)"
            );
        }
        // Per-producer FIFO: the drain preserves each producer's enqueue
        // order, and everything dequeued precedes everything drained.
        let mut last_drained = [None::<usize>; SHARED_PROCS];
        let mut min_drained = [usize::MAX; SHARED_PROCS];
        for &v in drained {
            let p = producer(v);
            let ord = self.enq_order[&v];
            assert!(
                last_drained[p].is_none_or(|prev| prev < ord),
                "seed {seed}: drain violates producer {p}'s FIFO order at {v}"
            );
            last_drained[p] = Some(ord);
            min_drained[p] = min_drained[p].min(ord);
        }
        for &v in &self.dequeued {
            let p = producer(v);
            assert!(
                self.enq_order[&v] < min_drained[p],
                "seed {seed}: dequeued {v} is newer than a still-queued value of producer {p}"
            );
        }
    }
}

/// One kill-one-of-N round. `second_kill` additionally SIGKILLs the
/// *recoverer* mid-lease, so the last survivor must steal the lease and
/// recover BOTH dead peers. Returns what it verified and whether progress
/// during recovery was observed.
fn run_one_shared_seed(seed: u64, second_kill: bool) -> (Tally, bool) {
    let scratch = Scratch::create("shared", if second_kill { "kill2" } else { "kill1" }, seed);
    let hold_ms: u64 = if second_kill { 400 } else { 250 };
    let mut children: Vec<Option<Child>> = (0..SHARED_PROCS)
        .map(|idx| {
            let params = [("idx", &idx as _), ("seed", &seed as _), ("hold_ms", &hold_ms as _)];
            Some(scratch.spawn(&mut scratch.child("shared_child_worker", &params)))
        })
        .collect();

    // idx -> participant slot, from the ready files.
    let slots: Vec<usize> = (0..SHARED_PROCS)
        .map(|idx| scratch.wait_file(&format!("ready_{idx}")).parse().unwrap())
        .collect();
    let mut distinct = slots.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), SHARED_PROCS, "seed {seed}: participant slots must be distinct");

    std::thread::sleep(Duration::from_millis(30 + (seed * 37) % 170));
    let victim = (seed as usize) % SHARED_PROCS;
    let mut killed: Vec<usize> = vec![victim];
    children[victim].take().unwrap().sigkill();

    let rec_start_for = |slot: usize| -> Option<usize> {
        (0..SHARED_PROCS).find(|idx| scratch.file(&format!("rec_start_{idx}_{slot}")).exists())
    };
    scratch.wait_for("a survivor claiming the victim's recovery lease", || {
        rec_start_for(slots[victim]).is_some()
    });
    let recoverer = rec_start_for(slots[victim]).unwrap();
    assert_ne!(recoverer, victim, "seed {seed}: the victim cannot recover itself");

    if second_kill {
        // Kill the recoverer while it holds the lease; the last survivor
        // must detect it, STEAL the lease, and recover both dead peers.
        children[recoverer].take().unwrap().sigkill();
        killed.push(recoverer);
    }

    // Progress DURING recovery: while some recovery lease is claimed but not
    // finished, every remaining survivor must keep acking operations.
    let live: Vec<usize> = (0..SHARED_PROCS).filter(|i| !killed.contains(i)).collect();
    let all_done = || {
        killed.iter().all(|&k| {
            (0..SHARED_PROCS)
                .any(|idx| scratch.file(&format!("rec_done_{idx}_{}", slots[k])).exists())
        })
    };
    let journal_len = |i: usize| std::fs::metadata(scratch.journal(i)).map_or(0, |m| m.len());
    let sizes: Vec<u64> = live.iter().map(|&i| journal_len(i)).collect();
    let recovery_in_flight = !all_done();
    std::thread::sleep(Duration::from_millis(120));
    if recovery_in_flight {
        for (&i, &before) in live.iter().zip(&sizes) {
            let after = journal_len(i);
            assert!(
                after > before,
                "seed {seed}: survivor {i} stalled during a peer's recovery ({before} journal \
                 bytes then, {after} 120 ms later)"
            );
        }
    }

    scratch.wait_for("all dead peers recovered by survivors", all_done);
    std::fs::write(scratch.file("stop"), b"").unwrap();
    for idx in live {
        let status = children[idx].take().unwrap().wait_exit();
        assert!(status.success(), "seed {seed}: survivor {idx} exited dirty: {status:?}");
    }

    // Final full attach FROM THIS PROCESS (no live participants remain) and
    // journal verification.
    nvm::tid::set_tid(0);
    let store = Store::open_sized(scratch.heap(), SHARED_HEAP_BYTES)
        .unwrap_or_else(|e| panic!("seed {seed}: parent open failed: {e}"));
    assert!(!store.summary().heap.joined, "seed {seed}: parent must be the initial attacher");
    let pslot = store.heap().my_participant().unwrap();
    let t0 = nvm::mapped::MappedHeap::tid_band(pslot).start;
    nvm::tid::set_tid(t0);
    let map = store.hashmap::<LP>("users", SHARDS).expect("users handle");
    let queue = store.queue::<LP>("jobs").expect("jobs handle");

    let mut tally = Tally::default();
    let mut ledger = QueueLedger::default();
    let mut reinvoke = |st: char, op: Op| match st {
        'q' => queue.invoke(t0, op),
        _ => map.invoke(t0, op),
    };
    for (idx, &slot) in slots.iter().enumerate() {
        // Only a SIGKILLed child can have left an in-flight op, and a
        // survivor must have resolved it detectably (the rec_done marker).
        let who = format!("seed {seed} child {idx}");
        let band = nvm::mapped::MappedHeap::tid_band(slot);
        let decision = killed.contains(&idx).then(|| marker_decision(&scratch, slot, band.start));
        let mut model = SharedModel { idx, set: SeqModel::default(), ledger: &mut ledger };
        tally += scratch.resolve(&who, idx, decision, &mut model, &mut reinvoke);
        // Map equivalence over this child's disjoint key range — EXACT, with
        // no in-flight slack: the decision already told us whether the dead
        // peer's op took effect, and a `Restart` was re-invoked above.
        check_range(&who, &map, t0, idx + 1, &model.set);
    }

    // Queue accounting over what the recovered queue still holds.
    let drained: Vec<u64> = std::iter::from_fn(|| queue.dequeue(t0)).collect();
    ledger.check(seed, &drained);
    (tally, recovery_in_flight)
}

/// The kill-one-of-N matrix: [`SHARED_PROCS`] live processes mutate ONE
/// shared heap (map + queue through a `Store`); one is SIGKILLed at seeded
/// points; survivors keep serving (asserted DURING the recovery window),
/// zero acked ops are lost, and the dead pid's in-flight op is detectably
/// resolved by a survivor — all verified against per-process journals.
#[test]
fn shared_kill_one_of_n_recovers_online() {
    let mut progress_seeds = 0u64;
    matrix("shared kill-one-of-3 matrix", seeds("ISB_SHARED_SEEDS", 10), |seed| {
        let (tally, progressed) = run_one_shared_seed(seed, false);
        progress_seeds += progressed as u64;
        tally
    });
    println!("shared kill-one-of-3 matrix: progress during recovery on {progress_seeds} seeds");
    assert!(progress_seeds > 0, "no seed ever observed the recovery window — hold timing broken");
}

/// The recoverer itself is SIGKILLed mid-lease: the last survivor detects
/// the dead recoverer, STEALS the lease (fresh sequence number supersedes
/// it), and recovers BOTH dead peers — service never stops.
#[test]
fn shared_kill_of_recoverer_is_superseded() {
    let leg = "shared second-kill matrix (the victim, then its recoverer)";
    matrix(leg, seeds("ISB_SHARED_KILL2_SEEDS", 3), |seed| run_one_shared_seed(seed, true).0);
}

// ---------------------------------------------------------------------------
// Peer growth: nodes a peer links from segments it grew must be readable in
// every other attached process WITHOUT any explicit segment refresh
// ---------------------------------------------------------------------------

const GROW_HEAP_BYTES: usize = 2 * 1024 * 1024;
const GROW_KEY_BASE: u64 = 1_000_000;
const GROW_KEYS: u64 = 60_000;
const GROW_QVALS: u64 = 512;
const GROW_PROBE_MAGIC: u64 = 0x5EED_F00D_CAFE_D00D;
const GROW_LATE_SHARDS: usize = 256;
const GROW_LATE_KEYS: u64 = 100;

/// Child half: joins the parent's live shared store, inserts enough distinct
/// keys to outgrow the initial segment (linking nodes from peer-grown
/// segments into the shared structures), enqueues a batch, creates a new
/// catalog entry, reports how many segments it grew, and exits cleanly.
#[test]
#[ignore = "child half of the peer-growth test; spawned by the parent test"]
fn shared_growth_child_worker() {
    let Some(scratch) = Scratch::of_child() else { return };
    nvm::tid::set_tid(0);
    let store = Store::open_sized(scratch.heap(), GROW_HEAP_BYTES).expect("child join");
    assert!(store.summary().heap.joined, "parent is live: the child must join");
    let slot = store.heap().my_participant().expect("participant slot");
    let t = nvm::mapped::MappedHeap::tid_band(slot).start;
    nvm::tid::set_tid(t);
    let map = store.hashmap::<LP>("users", SHARDS).expect("users handle");
    let queue = store.queue::<LP>("jobs").expect("jobs handle");
    let before = nvm::stats::snapshot();
    for k in GROW_KEY_BASE..GROW_KEY_BASE + GROW_KEYS {
        assert!(map.insert(t, k));
    }
    for v in 1..=GROW_QVALS {
        queue.enqueue(t, v);
    }
    let grown = nvm::stats::snapshot().since(&before).segments_grown;
    // A structure created after the growth: its root block is too large for
    // the size classes, so it comes off the bump cursor — in a grown segment
    // — and the parent must find it through the catalog.
    let late = store.hashmap::<LP>("late", GROW_LATE_SHARDS).expect("late handle");
    for k in 1..=GROW_LATE_KEYS {
        assert!(late.insert(t, k));
    }
    // Publish the heap offset of a block in a *grown* segment (the bump
    // cursor lives in the newest one): the parent dereferences it cold,
    // before any operation that could refresh its segment table as a side
    // effect.
    let probe = store.heap().alloc(64).expect("probe block");
    unsafe { (probe as *mut u64).write_volatile(GROW_PROBE_MAGIC) };
    store.heap().commit(probe);
    let off = probe as usize - store.heap().base() as usize;
    scratch.publish("grow_done", format!("{grown} {off}"));
}

/// A peer grows the shared heap and links nodes from the new segments; this
/// process — attached since before the growth — must dereference them with
/// no refresh call in between. (Shared attachers map their whole reservation
/// file-backed, and growth extends the file before publishing the segment,
/// so peer-published bytes are readable the moment a pointer to them
/// exists.)
#[test]
fn shared_peer_growth_is_readable_without_refresh() {
    let scratch = Scratch::create("shared_grow", "peer", 0);
    nvm::tid::set_tid(0);
    let store = Store::open_sized(scratch.heap(), GROW_HEAP_BYTES).expect("parent create");
    let pslot = store.heap().my_participant().unwrap();
    let t0 = nvm::mapped::MappedHeap::tid_band(pslot).start;
    nvm::tid::set_tid(t0);
    let map = store.hashmap::<LP>("users", SHARDS).expect("users handle");
    let queue = store.queue::<LP>("jobs").expect("jobs handle");
    // Warm this process's descriptor/node caches: the post-growth reads
    // below must run without an allocator refill (a refill refreshes the
    // volatile segment table as a side effect, which would mask a missing
    // mapping — the raw-pointer walk itself is what's under test).
    for k in 1..=64u64 {
        assert!(map.insert(t0, k));
        assert!(map.find(t0, k));
        queue.enqueue(t0, k);
    }
    for _ in 1..=64u64 {
        queue.dequeue(t0);
    }

    // The child's own assertions are part of this test: let it be heard.
    let mut cmd = scratch.child("shared_growth_child_worker", &[]);
    let status = scratch.spawn(cmd.stdout(Stdio::inherit()).stderr(Stdio::inherit())).wait_exit();
    assert!(status.success(), "growth child exited dirty: {status:?}");
    let done = scratch.wait_file("grow_done");
    let mut parts = done.split_whitespace();
    let grown: u64 = parts.next().unwrap().parse().unwrap();
    let off: usize = parts.next().unwrap().parse().unwrap();
    assert!(grown > 0, "child never grew the heap — raise GROW_KEYS to keep this test honest");
    assert!(
        off > GROW_HEAP_BYTES,
        "probe block not in a grown segment — raise GROW_KEYS to keep this test honest"
    );
    // The distilled hazard first: dereference the peer-published block
    // with this process's segment table untouched since before the growth.
    // SAFETY: the child committed the block before publishing its offset,
    // and shared attachers keep the whole reservation mapped file-backed.
    let v = unsafe { (store.heap().base().add(off) as *const u64).read_volatile() };
    assert_eq!(v, GROW_PROBE_MAGIC, "peer-published block unreadable");
    // The entry the child created after growing: found by name, its root
    // validated and its buckets walked, though this process last looked at
    // the segment directory before any of it existed.
    let late = store.hashmap::<LP>("late", GROW_LATE_SHARDS).expect("peer-created entry opens");
    for k in 1..=GROW_LATE_KEYS + 20 {
        assert_eq!(late.find(t0, k), k <= GROW_LATE_KEYS, "late key {k}");
    }
    // Walk child-linked nodes (they live in segments grown after this
    // process attached) — nothing on this path refreshes anything either.
    for k in (GROW_KEY_BASE..GROW_KEY_BASE + GROW_KEYS).step_by(97) {
        assert!(map.find(t0, k), "child-inserted key {k} unreadable in the parent");
    }
    let mut seen = 0u64;
    while let Some(v) = queue.dequeue(t0) {
        assert!((1..=GROW_QVALS).contains(&v), "foreign queue value {v}");
        seen += 1;
    }
    assert_eq!(seen, GROW_QVALS, "child-enqueued values lost");
}

// ---------------------------------------------------------------------------
// Shared-heap KV service failover: SIGKILL one of two server PROCESSES on
// the same heap; the survivor serves the dead peer's clients while its
// healer recovers them online
// ---------------------------------------------------------------------------

const KV_SHARED_HEAP_BYTES: usize = 32 * 1024 * 1024;

/// Child: one server process ([`isb_tests::kv::serve_child`])
/// publishing its port as `kvport_<idx>`.
#[test]
#[ignore = "child half of the shared-heap KV failover leg; spawned by the parent test"]
fn shared_kv_server_child() {
    let Some(scratch) = Scratch::of_child() else { return };
    let port_file = format!("kvport_{}", scratch.param::<usize>("idx"));
    isb_tests::kv::serve_child(&scratch, KV_SHARED_HEAP_BYTES, &port_file, 2);
}

/// Two KV server processes front one heap. One is SIGKILLed
/// mid-traffic; the survivor keeps serving its own clients throughout, and
/// the dead server's clients reconnect to the survivor and retry their
/// pending requests exactly-once. The survivor's healer resolves the dead
/// peer's in-flight op IDs online — retries that race it are answered with
/// the typed `Recovering` backpressure status, which the client absorbs.
#[test]
fn shared_kv_failover_serves_dead_peers_clients() {
    use isb_tests::kv::{wait_port, MapClient, QueueClient};

    let scratch = Scratch::create("kv_failover", "shared", 0);
    let ctx = "kv-failover";
    // Serialize the two starts: the first create and the joiner exercise
    // different attach paths, and this keeps which-is-which deterministic.
    let child0 = scratch.spawn(&mut scratch.child("shared_kv_server_child", &[("idx", &0)]));
    let addr0 = wait_port(&scratch, "kvport_0");
    let child1 = scratch.spawn(&mut scratch.child("shared_kv_server_child", &[("idx", &1)]));
    let addr1 = wait_port(&scratch, "kvport_1");

    // Survivor-side client on server 0; victim-side clients on server 1.
    let mut m0 = MapClient::new(11, 21, 5000);
    let mut m1 = MapClient::new(12, 22, 6000);
    let mut q1 = QueueClient::new(13, 23);
    m0.connect(addr0, false, ctx);
    m1.connect(addr1, false, ctx);
    q1.connect(addr1, false, ctx);

    for _ in 0..40 {
        assert!(m0.step(ctx), "{ctx}: warmup on server 0");
        assert!(m1.step(ctx), "{ctx}: warmup on server 1");
        assert!(q1.step(ctx), "{ctx}: warmup queue on server 1");
    }

    child1.sigkill();

    // Drive the victim clients into the transport error (their requests
    // stay pending) while the survivor keeps acking its own traffic.
    let t0 = std::time::Instant::now();
    while m1.step(ctx) || q1.step(ctx) {
        assert!(m0.step(ctx), "{ctx}: survivor must serve during peer death");
        assert!(t0.elapsed() < Duration::from_secs(30), "{ctx}: victim clients never failed over");
    }

    // Failover: the dead server's clients retry against the survivor. The
    // `recover` path retries pending ops exactly-once and replays the ack
    // watermark byte-identically — same contract as a restart, but served
    // by a different process while recovery happens online.
    m1.recover(addr0, ctx);
    q1.recover(addr0, ctx);

    for _ in 0..60 {
        assert!(m0.step(ctx), "{ctx}: post-failover server 0 client");
        assert!(m1.step(ctx), "{ctx}: post-failover migrated map client");
        assert!(q1.step(ctx), "{ctx}: post-failover migrated queue client");
    }

    m0.sweep(ctx);
    m1.sweep(ctx);
    q1.drain(ctx);

    std::fs::write(scratch.file("stop"), b"ok").unwrap();
    assert!(child0.wait_exit().success(), "{ctx}: survivor clean shutdown failed");
}

// ---------------------------------------------------------------------------
// A SIGKILL loses no line
// ---------------------------------------------------------------------------

/// Root key of the block the line-durability child stores into.
const UNFLUSHED_KEY: u64 = 0x554E_464C; // "UNFL"
/// Words the child stores: 64 lines of the block.
const UNFLUSHED_WORDS: usize = 512;

/// The value the child stores in word `i`.
fn unflushed(i: usize) -> u64 {
    let mut s = i as u64;
    splitmix(&mut s) | 1
}

/// Child: stores every word of a root block with no write-back and no
/// fence, publishes `stored`, and waits to be killed.
#[test]
#[ignore = "child half of the SIGKILL line-durability leg; spawned by the parent test"]
fn unflushed_store_child() {
    let Some(scratch) = Scratch::of_child() else { return };
    nvm::tid::set_tid(0);
    let heap = nvm::mapped::MappedHeap::open(&scratch.heap(), nvm::mapped::MIN_HEAP_BYTES)
        .expect("child heap");
    let (block, _) = heap.root_alloc(UNFLUSHED_KEY, UNFLUSHED_WORDS * 8).expect("root block");
    let words = block as *const nvm::PWord<MappedNvm>;
    let before = nvm::stats::Snapshot::of_tid(0);
    for i in 0..UNFLUSHED_WORDS {
        // SAFETY: word `i` of the committed root block, mapped while `heap` lives.
        unsafe { &*words.add(i) }.store(unflushed(i));
    }
    let s = nvm::stats::Snapshot::of_tid(0);
    let persisted = (s.pwb + s.pbarrier_lines, s.pbarrier + s.pfence + s.psync);
    let was = (before.pwb + before.pbarrier_lines, before.pbarrier + before.pfence + before.psync);
    assert_eq!(persisted, was, "the stores wrote back or fenced");
    scratch.publish("stored", UNFLUSHED_WORDS);
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// A SIGKILL loses no line: a killed process's stores to the mapped heap
/// are in the page cache, which outlives it, so every one of them is in
/// the file the next attach reads, written back or not. What a process
/// leaves unfenced is lost only with the whole system, and then attach
/// replay runs before any operation. The link-persist insert (DESIGN §4)
/// and the KV service's deferred response write-back (`isb::resptable`)
/// rest on this.
#[test]
fn a_sigkill_loses_no_unflushed_store() {
    let scratch = Scratch::create("restart", "unflushed", 0);
    let child = scratch.spawn(&mut scratch.child("unflushed_store_child", &[]));
    assert_eq!(scratch.wait_file("stored"), UNFLUSHED_WORDS.to_string());
    child.sigkill();
    let heap = nvm::mapped::MappedHeap::open(&scratch.heap(), nvm::mapped::MIN_HEAP_BYTES)
        .expect("re-attach after the kill");
    let block = heap.root_get(UNFLUSHED_KEY).expect("the child's root block") as *const u64;
    for i in 0..UNFLUSHED_WORDS {
        // SAFETY: word `i` of the root block, mapped while `heap` lives.
        let got = unsafe { block.add(i).read_volatile() };
        assert_eq!(got, unflushed(i), "word {i} of the block after the kill");
    }
}
