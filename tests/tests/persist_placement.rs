//! Persist-placement regression test for the `set_core` extraction.
//!
//! Golden per-operation persistency-instruction counts (pwb / pbarrier /
//! pbarrier-lines / pfence / psync under `CountingNvm`), recorded from the
//! pre-extraction `RList` on a deterministic single-thread scenario. The
//! head-parameterized core must reproduce them **bit-for-bit** for both
//! persistency placements — and a one-shard `RHashMap` must match the same
//! table exactly, proving the wrapper layers add no persistency traffic.
//!
//! Every column is exact. Line counts depend on where an object sits
//! relative to a 64-byte boundary — a 24-byte node can straddle two lines, or
//! share one with a neighbour and dedupe in the coalescing set — so this
//! binary installs a global allocator that starts every allocation on its own
//! cache line(s) ([`bench_harness::placement::LineAligned::ALWAYS`]). That is the
//! placement the mapped backend gives every block (64-byte-aligned
//! payloads), and it makes each golden one number instead of a range that
//! follows the process allocator.
//!
//! Counters are read as a per-tid delta ([`Snapshot::of_tid`]): the whole
//! scenario runs on tid 0, and nothing another thread counts can leak in.
//!
//! The table is checked on fresh structures and again on a list that was
//! churned until its descriptors and nodes come from the recycle path —
//! recycling must not change persist placement by a single instruction.

use bench_harness::placement::LineAligned;
use isb::bst::RBst;
use isb::hashmap::RHashMap;
use isb::list::RList;
use isb::queue::RQueue;
use isb::stack::RStack;
use nvm::stats::Snapshot;
use nvm::CountingNvm;

#[global_allocator]
static ALLOC: LineAligned = LineAligned::ALWAYS;

/// `(pwb, pbarrier, pbarrier_lines, pfence, psync, response)`.
type Golden = (u64, u64, u64, u64, u64, bool);

/// Pre-extraction baseline, untuned placement ("Isb").
const GOLDEN_ISB: [(&str, Golden); 6] = [
    ("insert-new", (11, 3, 3, 0, 5, true)),
    ("insert-dup", (2, 3, 3, 0, 2, false)),
    ("find-hit", (1, 2, 2, 0, 1, true)),
    ("find-miss", (1, 2, 2, 0, 1, false)),
    ("delete-hit", (7, 3, 3, 0, 5, true)),
    ("delete-miss", (2, 3, 3, 0, 2, false)),
];

/// Pre-extraction baseline, hand-tuned placement ("Isb-Opt").
const GOLDEN_OPT: [(&str, Golden); 6] = [
    ("insert-new", (13, 1, 1, 2, 3, true)),
    ("insert-dup", (4, 1, 1, 2, 1, false)),
    ("find-hit", (2, 1, 1, 1, 1, true)),
    ("find-miss", (2, 1, 1, 1, 1, false)),
    ("delete-hit", (9, 1, 1, 2, 3, true)),
    ("delete-miss", (4, 1, 1, 2, 1, false)),
];

/// Golden row for the coalescing arm: `(pwb, pwb_elided, pbarrier,
/// pbarrier_lines, pfence, psync, response)`.
///
/// Under `CountingNvm` the `pwb` column counts *pwb-equivalents*: coalesced
/// write-backs are counted at issue (when the line enters the [`nvm::coalesce`]
/// set) and a duplicate line bumps `pwb_elided` instead. Every op that
/// publishes elides the `RD_q` write-back that `publish_arm` dedupes against
/// the same-line `CP_q` flush; an op that finds nothing to change publishes
/// nothing. The one barrier an op counts is the invocation glue's
/// `(RD_q, CP_q) := (Null, 0)` — when its predecessor published: after an op
/// that changed nothing the line reads back fresh and the glue is skipped.
/// No op counts a `pfence`: a publication writes its descriptor, its new
/// nodes and the recovery line back in the publish `psync`'s one window,
/// `CP_q` holding the digest that tells recovery whether all of them
/// reached media (validated publication). A recorded KV request's record
/// rides the same window, checked from the recovery line
/// (`kv_persist_budget.rs`).
type GoldenLp = (u64, u64, u64, u64, u64, u64, bool);

/// Link-persist placement ("Isb-LP", `ARM = 3`) for the ordered-set core.
/// Each row's predecessor is the row above it (the first row's, an insert
/// and delete of another key, [`check_against_lp`]): `insert-dup` and
/// `delete-miss` follow an op that published and pay the glue barrier;
/// both finds and `delete-hit` follow one that did not and pay none. The
/// insert carries the descriptor's link bit: its tag-phase `psync` merges
/// into the update-phase one (3 → 2), so `pred`'s line, tagged and then
/// linked, is written back once in that window (its second note elides),
/// and `curr`'s line joins the publish window instead — 8 lines either way,
/// the descriptor one of them (its 2/1/2 fills its one line).
/// The delete keeps its tag fence.
const GOLDEN_LP: [(&str, GoldenLp); 6] = [
    ("insert-new", (8, 2, 1, 1, 0, 2, true)),
    ("insert-dup", (0, 0, 1, 1, 0, 0, false)),
    ("find-hit", (0, 0, 0, 0, 0, 0, true)),
    ("find-miss", (0, 0, 0, 0, 0, 0, false)),
    ("delete-hit", (6, 1, 0, 0, 0, 3, true)),
    ("delete-miss", (0, 0, 1, 1, 0, 0, false)),
];

/// Queue goldens, one row per scenario step (two enqueues, two successful
/// dequeues, one empty dequeue). Every queue descriptor is one line: the
/// enqueue's 1/1/1 and the dequeue's 1/1/0 (its AffectSet is the anchor
/// alone) fit the descriptor's first line.
const QUEUE_ISB: [(&str, Golden); 5] = [
    ("enqueue-1", (9, 3, 3, 0, 5, true)),
    ("enqueue-2", (9, 3, 3, 0, 5, true)),
    ("dequeue-1", (6, 3, 3, 0, 5, true)),
    ("dequeue-2", (6, 3, 3, 0, 5, true)),
    ("dequeue-empty", (2, 3, 3, 0, 2, false)),
];

const QUEUE_OPT: [(&str, Golden); 5] = [
    ("enqueue-1", (11, 1, 1, 2, 3, true)),
    ("enqueue-2", (11, 1, 1, 2, 3, true)),
    ("dequeue-1", (8, 1, 1, 2, 3, true)),
    ("dequeue-2", (8, 1, 1, 2, 3, true)),
    ("dequeue-empty", (4, 1, 1, 2, 1, false)),
];

/// The LP queue merges the tag-phase `psync` into the update-phase one on
/// enqueue (the descriptor's link bit), dropping a whole round trip: `psync`
/// 3 → 2 — and does not write the tail hint back (no recovery path reads
/// it). An enqueue writes back its new node, its descriptor, the recovery
/// line, the tagged and linked node, and the descriptor's done bit; a
/// dequeue its descriptor, the recovery line, the anchor in the tag window
/// and again with the head move, and the done bit. `enqueue-1` is the first
/// op on a new queue, whose recovery line is fresh: no glue barrier; every
/// later row follows an op that published.
const QUEUE_LP: [(&str, GoldenLp); 5] = [
    ("enqueue-1", (5, 2, 0, 0, 0, 2, true)),
    ("enqueue-2", (5, 2, 1, 1, 0, 2, true)),
    ("dequeue-1", (5, 1, 1, 1, 0, 3, true)),
    ("dequeue-2", (5, 1, 1, 1, 0, 3, true)),
    ("dequeue-empty", (0, 0, 1, 1, 0, 0, false)),
];

/// The stack, placed at `Isb-LP` only. After a push and pop of another
/// value, each row follows an op that published: a push is the set insert
/// at the front (two `psync`s, link bit), a pop-hit its delete, and an
/// empty pop changes nothing.
const STACK_LP: [(&str, GoldenLp); 3] = [
    ("push", (8, 2, 1, 1, 0, 2, true)),
    ("pop-hit", (6, 1, 1, 1, 0, 3, true)),
    ("pop-empty", (0, 0, 1, 1, 0, 0, false)),
];

/// The BST at arms 0 / 1 / 3, over the set scenario (`Isb-LP` after an
/// insert and delete of another key, as the list's). An insert replaces a
/// leaf by a three-node subtree, a delete swings the grandparent's child to
/// a copy of the sibling: 2/1/3 and 4/1/1 descriptors, two lines each.
/// Against the list, an insert writes back one more new node and a delete
/// its sibling copy and two more tagged nodes; a find and an operation that
/// changes nothing cost the same. The BST links nothing, so its `Isb-LP`
/// insert keeps its tag fence (3 `psync`s, the list's 2).
const BST_ISB: [(&str, Golden); 6] = [
    ("insert-new", (13, 3, 4, 0, 5, true)),
    ("insert-dup", (2, 3, 3, 0, 2, false)),
    ("find-hit", (1, 2, 2, 0, 1, true)),
    ("find-miss", (1, 2, 2, 0, 1, false)),
    ("delete-hit", (11, 3, 4, 0, 5, true)),
    ("delete-miss", (2, 3, 3, 0, 2, false)),
];

const BST_OPT: [(&str, Golden); 6] = [
    ("insert-new", (16, 1, 1, 2, 3, true)),
    ("insert-dup", (4, 1, 1, 2, 1, false)),
    ("find-hit", (2, 1, 1, 1, 1, true)),
    ("find-miss", (2, 1, 1, 1, 1, false)),
    ("delete-hit", (14, 1, 1, 2, 3, true)),
    ("delete-miss", (4, 1, 1, 2, 1, false)),
];

const BST_LP: [(&str, GoldenLp); 6] = [
    ("insert-new", (10, 1, 1, 1, 0, 3, true)),
    ("insert-dup", (0, 0, 1, 1, 0, 0, false)),
    ("find-hit", (0, 0, 0, 0, 0, 0, true)),
    ("find-miss", (0, 0, 0, 0, 0, 0, false)),
    ("delete-hit", (10, 1, 0, 0, 0, 3, true)),
    ("delete-miss", (0, 0, 1, 1, 0, 0, false)),
];

struct SetUnderTest<'a> {
    name: &'a str,
    insert: Box<dyn Fn(u64) -> bool + 'a>,
    delete: Box<dyn Fn(u64) -> bool + 'a>,
    find: Box<dyn Fn(u64) -> bool + 'a>,
}

/// One named, ready-to-run operation whose `bool` result is golden-checked.
type OpRow<'a> = (&'static str, Box<dyn Fn() -> bool + 'a>);

fn set_ops<'a>(s: &'a SetUnderTest<'a>) -> [OpRow<'a>; 6] {
    [
        ("insert-new", Box::new(|| (s.insert)(5))),
        ("insert-dup", Box::new(|| (s.insert)(5))),
        ("find-hit", Box::new(|| (s.find)(5))),
        ("find-miss", Box::new(|| (s.find)(6))),
        ("delete-hit", Box::new(|| (s.delete)(5))),
        ("delete-miss", Box::new(|| (s.delete)(5))),
    ]
}

fn queue_ops<M, const ARM: u8>(q: &RQueue<M, ARM>) -> [OpRow<'_>; 5]
where
    M: nvm::Persist,
{
    [
        (
            "enqueue-1",
            Box::new(|| {
                q.enqueue(0, 7);
                true
            }),
        ),
        (
            "enqueue-2",
            Box::new(|| {
                q.enqueue(0, 8);
                true
            }),
        ),
        ("dequeue-1", Box::new(|| q.dequeue(0) == Some(7))),
        ("dequeue-2", Box::new(|| q.dequeue(0) == Some(8))),
        ("dequeue-empty", Box::new(|| q.dequeue(0).is_some())),
    ]
}

/// Runs `op` on tid 0 and returns its response with the counters it moved.
fn counted(op: &dyn Fn() -> bool) -> (bool, Snapshot) {
    let before = Snapshot::of_tid(0);
    let resp = op();
    (resp, Snapshot::of_tid(0).since(&before))
}

fn check_rows(name: &str, ops: &[OpRow<'_>], golden: &[(&str, Golden)]) {
    for ((opname, op), (gname, g)) in ops.iter().zip(golden.iter()) {
        assert_eq!(opname, gname);
        let (resp, d) = counted(op);
        let got = (d.pwb, d.pbarrier, d.pbarrier_lines, d.pfence, d.psync, resp);
        assert_eq!(got, *g, "{name} {opname}: (pwb, pbarrier, lines, pfence, psync, response)");
    }
}

fn check_rows_lp(name: &str, ops: &[OpRow<'_>], golden: &[(&str, GoldenLp)]) {
    for ((opname, op), (gname, g)) in ops.iter().zip(golden.iter()) {
        assert_eq!(opname, gname);
        let (resp, d) = counted(op);
        let got = (d.pwb, d.pwb_elided, d.pbarrier, d.pbarrier_lines, d.pfence, d.psync, resp);
        assert_eq!(
            got, *g,
            "{name} {opname}: (pwb, elided, pbarrier, lines, pfence, psync, response)"
        );
        // Every pwb-equivalent the coalescing arm counts must eventually hit
        // a physical flush path: drained at a fence or evicted on overflow.
        assert!(
            d.lines_coalesced <= d.pwb,
            "{name} {opname}: drained more lines ({}) than pwbs issued ({})",
            d.lines_coalesced,
            d.pwb
        );
    }
}

fn check_against(golden: &[(&str, Golden); 6], s: &SetUnderTest<'_>) {
    // The fixed scenario: every op hits a deterministic algorithm path on a
    // set whose only mutation history is this sequence.
    check_rows(s.name, &set_ops(s), golden);
}

/// As [`check_against`], after an insert and delete of a key the scenario
/// does not use, so the first row follows an op that published, on a new
/// structure as on a warm one.
fn check_against_lp(golden: &[(&str, GoldenLp); 6], s: &SetUnderTest<'_>) {
    assert!((s.insert)(9) && (s.delete)(9));
    check_rows_lp(s.name, &set_ops(s), golden);
}

#[test]
fn set_core_extraction_preserves_persist_placement() {
    nvm::tid::set_tid(0);

    // Fresh structures.
    let list = RList::<CountingNvm, 0>::new();
    check_against(
        &GOLDEN_ISB,
        &SetUnderTest {
            name: "RList<Isb>",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );
    let list = RList::<CountingNvm, 1>::new();
    check_against(
        &GOLDEN_OPT,
        &SetUnderTest {
            name: "RList<Isb-Opt>",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );

    // The recycle path HOT: a list churned until reuse is guaranteed (the
    // reuse counters prove it below). The scenario keys (5, 6) are
    // untouched by the churn key (9), so every op still takes the same
    // algorithm path over the same structure shape.
    let reuse0 = isb::counters::info_reuses();
    let warm = RList::<CountingNvm, 0>::new();
    for _ in 0..300 {
        assert!(warm.insert(0, 9));
        assert!(warm.delete(0, 9));
    }
    assert!(
        isb::counters::info_reuses() > reuse0,
        "warmup never hit the recycle path — the pooled golden run is vacuous"
    );
    check_against(
        &GOLDEN_ISB,
        &SetUnderTest {
            name: "RList<Isb>/pooled-warm",
            insert: Box::new(|k| warm.insert(0, k)),
            delete: Box::new(|k| warm.delete(0, k)),
            find: Box::new(|k| warm.find(0, k)),
        },
    );
    let reuse0 = isb::counters::info_reuses();
    let warm = RList::<CountingNvm, 1>::new();
    for _ in 0..300 {
        assert!(warm.insert(0, 9));
        assert!(warm.delete(0, 9));
    }
    assert!(
        isb::counters::info_reuses() > reuse0,
        "tuned warmup never hit the recycle path — the pooled golden run is vacuous"
    );
    check_against(
        &GOLDEN_OPT,
        &SetUnderTest {
            name: "RList<Isb-Opt>/pooled-warm",
            insert: Box::new(|k| warm.insert(0, k)),
            delete: Box::new(|k| warm.delete(0, k)),
            find: Box::new(|k| warm.find(0, k)),
        },
    );

    // A one-shard map is the same bucket algorithm behind a shard function
    // that performs no persistency instructions: identical placement.
    let map = RHashMap::<CountingNvm, 0>::with_shards(1);
    check_against(
        &GOLDEN_ISB,
        &SetUnderTest {
            name: "RHashMap<Isb>/1",
            insert: Box::new(|k| map.insert(0, k)),
            delete: Box::new(|k| map.delete(0, k)),
            find: Box::new(|k| map.find(0, k)),
        },
    );
    let map = RHashMap::<CountingNvm, 1>::with_shards(1);
    check_against(
        &GOLDEN_OPT,
        &SetUnderTest {
            name: "RHashMap<Isb-Opt>/1",
            insert: Box::new(|k| map.insert(0, k)),
            delete: Box::new(|k| map.delete(0, k)),
            find: Box::new(|k| map.find(0, k)),
        },
    );
    // ---- The coalescing arm --------------------------------------------
    //
    // Same scenario, arm 3 (Isb-LP): a list, a one-shard map, and a
    // recycle-hot list.
    let list = RList::<CountingNvm, 3>::new();
    check_against_lp(
        &GOLDEN_LP,
        &SetUnderTest {
            name: "RList<Isb-LP>",
            insert: Box::new(|k| list.insert(0, k)),
            delete: Box::new(|k| list.delete(0, k)),
            find: Box::new(|k| list.find(0, k)),
        },
    );
    let map = RHashMap::<CountingNvm, 3>::with_shards(1);
    check_against_lp(
        &GOLDEN_LP,
        &SetUnderTest {
            name: "RHashMap<Isb-LP>/1",
            insert: Box::new(|k| map.insert(0, k)),
            delete: Box::new(|k| map.delete(0, k)),
            find: Box::new(|k| map.find(0, k)),
        },
    );
    let reuse0 = isb::counters::info_reuses();
    let warm = RList::<CountingNvm, 3>::new();
    for _ in 0..300 {
        assert!(warm.insert(0, 9));
        assert!(warm.delete(0, 9));
    }
    assert!(
        isb::counters::info_reuses() > reuse0,
        "LP warmup never hit the recycle path — the pooled golden run is vacuous"
    );
    check_against_lp(
        &GOLDEN_LP,
        &SetUnderTest {
            name: "RList<Isb-LP>/pooled-warm",
            insert: Box::new(|k| warm.insert(0, k)),
            delete: Box::new(|k| warm.delete(0, k)),
            find: Box::new(|k| warm.find(0, k)),
        },
    );

    // ---- Queue goldens ------------------------------------------------
    let q = RQueue::<CountingNvm, 0>::new();
    check_rows("RQueue<Isb>", &queue_ops(&q), &QUEUE_ISB);
    let q = RQueue::<CountingNvm, 1>::new();
    check_rows("RQueue<Isb-Opt>", &queue_ops(&q), &QUEUE_OPT);
    let q = RQueue::<CountingNvm, 3>::new();
    check_rows_lp("RQueue<Isb-LP>", &queue_ops(&q), &QUEUE_LP);

    // ---- Stack goldens ------------------------------------------------
    let s = RStack::<CountingNvm>::new();
    s.push(0, 9);
    assert_eq!(s.pop(0), Some(9));
    let ops: [OpRow<'_>; 3] = [
        (
            "push",
            Box::new(|| {
                s.push(0, 7);
                true
            }),
        ),
        ("pop-hit", Box::new(|| s.pop(0) == Some(7))),
        ("pop-empty", Box::new(|| s.pop(0).is_some())),
    ];
    check_rows_lp("RStack<Isb-LP>", &ops, &STACK_LP);

    // ---- BST goldens --------------------------------------------------
    check_bst::<0>(&BST_ISB, "RBst<Isb>");
    check_bst::<1>(&BST_OPT, "RBst<Isb-Opt>");
    check_bst_lp(&BST_LP);
}

fn bst_under_test<'a, const ARM: u8>(
    t: &'a RBst<CountingNvm, ARM>,
    name: &'a str,
) -> SetUnderTest<'a> {
    SetUnderTest {
        name,
        insert: Box::new(|k| t.insert(0, k)),
        delete: Box::new(|k| t.delete(0, k)),
        find: Box::new(|k| t.find(0, k)),
    }
}

/// A tree churned on key 9 until its descriptors and nodes come from the
/// recycle path (the churn leaves the tree's shape as it found it).
fn warm_bst<const ARM: u8>() -> RBst<CountingNvm, ARM> {
    let reuse0 = isb::counters::info_reuses();
    let warm = RBst::<CountingNvm, ARM>::new();
    for _ in 0..300 {
        assert!(warm.insert(0, 9));
        assert!(warm.delete(0, 9));
    }
    assert!(
        isb::counters::info_reuses() > reuse0,
        "BST warmup never hit the recycle path — the pooled golden run is vacuous"
    );
    warm
}

/// The BST rows at arm `ARM` (0 or 1), on a fresh and on a pooled-warm tree.
fn check_bst<const ARM: u8>(golden: &[(&str, Golden); 6], name: &str) {
    let fresh = RBst::<CountingNvm, ARM>::new();
    check_against(golden, &bst_under_test(&fresh, name));
    let warm = warm_bst::<ARM>();
    check_against(golden, &bst_under_test(&warm, &format!("{name}/pooled-warm")));
}

/// The BST rows at `Isb-LP`, on a fresh and on a pooled-warm tree.
fn check_bst_lp(golden: &[(&str, GoldenLp); 6]) {
    let fresh = RBst::<CountingNvm, 3>::new();
    check_against_lp(golden, &bst_under_test(&fresh, "RBst<Isb-LP>"));
    let warm = warm_bst::<3>();
    check_against_lp(golden, &bst_under_test(&warm, "RBst<Isb-LP>/pooled-warm"));
}

/// `Isb-LP` must write back strictly less than `Isb-Opt` on every mutating
/// set operation and every queue step, an operation that changes nothing
/// must cost it its invocation glue and nothing else, and it must clear the
/// ≥20% pwb-equivalent reduction bar on the tuned hash-map and queue hot
/// paths. Asserted on the golden CONSTANTS so the claim is
/// placement-noise-free; the measured runs above tie the constants to
/// reality.
#[test]
fn coalescing_arms_strictly_reduce_pwb_traffic() {
    // Mutating set ops: insert-new, insert-dup, delete-hit, delete-miss.
    for i in [0usize, 1, 4, 5] {
        let (opt, lp) = (GOLDEN_OPT[i].1 .0, GOLDEN_LP[i].1 .0);
        assert!(lp < opt, "{}: lp pwb {lp} !< opt {opt}", GOLDEN_OPT[i].0);
    }
    // No effect, no descriptor: one line and one fence, the glue barrier,
    // after an op that published; nothing at all after one that did not.
    let glue_only = (0, 0, 1, 1, 0, 0);
    for lp in [1usize, 5].map(|i| GOLDEN_LP[i].1).into_iter().chain([QUEUE_LP[4].1, STACK_LP[2].1])
    {
        assert_eq!((lp.0, lp.1, lp.2, lp.3, lp.4, lp.5), glue_only);
    }
    for lp in [2usize, 3].map(|i| GOLDEN_LP[i].1) {
        assert_eq!((lp.0, lp.1, lp.2, lp.3, lp.4, lp.5), (0, 0, 0, 0, 0, 0));
    }
    // Queue, per scenario step.
    for i in 0..5 {
        let (opt, lp) = (QUEUE_OPT[i].1 .0, QUEUE_LP[i].1 .0);
        assert!(lp < opt, "{}: lp pwb {lp} !< opt {opt}", QUEUE_OPT[i].0);
    }
    // LP enqueue, insert and push drop a whole psync (3 -> 2); the delete
    // and the pop keep theirs.
    assert_eq!(QUEUE_OPT[0].1 .4, 3);
    assert_eq!(QUEUE_LP[0].1 .5, 2);
    assert_eq!(GOLDEN_OPT[0].1 .4, 3);
    assert_eq!((GOLDEN_LP[0].1 .5, STACK_LP[0].1 .5), (2, 2));
    assert_eq!((GOLDEN_LP[4].1 .5, STACK_LP[1].1 .5), (3, 3));

    // >= 20% fewer pwb-equivalents on the tuned hash-map mutating hot path...
    let opt_sum: u64 = [0usize, 1, 4, 5].iter().map(|&i| GOLDEN_OPT[i].1 .0).sum();
    let lp_sum: u64 = [0usize, 1, 4, 5].iter().map(|&i| GOLDEN_LP[i].1 .0).sum();
    assert!(
        lp_sum * 5 <= opt_sum * 4,
        "map hot path: LP {lp_sum} pwb-eq vs tuned {opt_sum} — under 20% reduction"
    );
    // ...and across the whole queue scenario.
    let opt_sum: u64 = QUEUE_OPT.iter().map(|r| r.1 .0).sum();
    let lp_sum: u64 = QUEUE_LP.iter().map(|r| r.1 .0).sum();
    assert!(
        lp_sum * 5 <= opt_sum * 4,
        "queue hot path: LP {lp_sum} pwb-eq vs tuned {opt_sum} — under 20% reduction"
    );
}
