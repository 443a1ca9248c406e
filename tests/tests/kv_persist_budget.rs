//! Persist budget of one KV request, end to end: a real [`Server`] and
//! [`KvClient`] over loopback, one request of each kind, and the exact
//! number of cache lines written back and fences issued by the lane that
//! served it.
//!
//! This is the service-path counterpart of `persist_placement.rs`: there the
//! structures' own placement is pinned per operation, here the whole
//! exactly-once sequence around it — the response table's in-flight record
//! and finalize, and the structure operation's prologue, which runs no
//! invocation glue: the client slot's record is the invocation record (its
//! `prior` word holds the lane's `RD_q`, stored before `pending` in the
//! same line). Every kind is measured twice, after a request that
//! published and after one that changed nothing. A sequenced request costs
//! the same after either: nothing of it resets the lane's recovery line.
//! Only a `get` runs the invocation glue: 1 line + 1 fence after a
//! publish (the recovery line reset, `(RD_q, CP_q) := (Null, 0)`), nothing
//! on a line that already reads `(Null, 0)`.
//!
//! A `get` is unsequenced: the server answers it with the map's `find`
//! alone, so it costs the glue and nothing more — 0 / 0 in a stream of
//! reads. Every other request runs the full sequence. The response table
//! is the client's one 64-byte slot: `begin_op` stores `prior` and
//! `pending` and notes the line without a fence, `finish_op` stores `resp`
//! then `last_seq` and pays one write-back and one `psync`. A request that
//! changes nothing (a `put` of a present key, a `del` of an absent one)
//! issues no fence in between, so the note folds into `finish_op`'s
//! write-back: 1 line + 1 fence, and the structure operation costs nothing
//! at all, in any arm. A request that changes something fences its
//! descriptor first, which drains the note: 2 lines + 1 fence, the rest
//! being the `Isb-LP` structure operation (the arm the service ships,
//! `kvserve::server::ARM`) without its glue. Of those, the link-persist
//! elisions are the cleanup write-backs (`put-new` 3 lines, `del-hit` and
//! `deq` 1), on `enq` the merged tag-phase `psync` and the tail hint
//! nobody reads back (4 lines, 1 fence), and on `put-new` the merged
//! tag-phase `psync` (1 fence): the predecessor's line, tagged and linked
//! in one fence window, is written back once, and the line of the node the
//! insert copy-replaces joins its publish window, so `put-new` writes back
//! 11 lines with 4 fences. A `del-hit` keeps its tag fence (its new link is
//! not a fresh node). A queue descriptor is one line,
//! and the dequeue tags the head anchor alone, so `deq` writes back the
//! anchor's line in its tag window and again with the head move, and
//! nothing of the old sentinel.
//!
//! The server runs one lane, so every request is counted on that lane's tid
//! and read as a per-tid delta; the mapped heap hands out 64-byte-aligned
//! blocks, so the counts do not depend on the process allocator. Run under
//! `--features nvm/flush-lint`, the same requests also panic on a
//! stand-alone write-back that repeats a line inside one fence window.

use kvserve::{Config, KvClient, Server};
use nvm::stats::Snapshot;

/// The single lane's tid (`base_tid + 1 + lane`, the band of participant 0).
const LANE_TID: usize = 1;

/// `(lines written back, fences)` the lane has issued so far.
fn persists() -> (u64, u64) {
    let s = Snapshot::of_tid(LANE_TID);
    (s.pwb + s.pbarrier_lines, s.pbarrier + s.pfence + s.psync)
}

#[test]
fn one_kv_request_costs_exactly_its_persist_budget() {
    let dir = std::env::temp_dir().join(format!("isb_kv_budget_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = Config::new(dir.join("kv.heap"));
    cfg.heap_bytes = 8 << 20;
    cfg.workers = 1;
    let server = Server::start(cfg).expect("server start");
    let mut c = KvClient::connect(server.local_addr(), 7).expect("connect");

    // Past the first-use costs: registration, pool warm-up, a recycled
    // descriptor and node of each kind, a queue that stays non-empty.
    for key in 1..=8 {
        assert!(c.put(key).unwrap());
    }
    for key in 5..=8 {
        assert!(c.del(key).unwrap());
    }
    for v in 1..=4 {
        c.enqueue(v).unwrap();
    }
    assert_eq!(c.dequeue().unwrap(), Some(1));

    // Each kind twice: once after a request that published (the `put` of a
    // key not yet present: the recovery line names its descriptor) and once
    // after one that changed nothing (a `get`: the line is fresh). A row's
    // cost then depends on nothing before it but that predecessor.
    let mut rows = Vec::new();
    let mut dirty_key = 1000;
    for after_effect in [true, false] {
        let mut row = |name: &'static str, request: &mut dyn FnMut(&mut KvClient)| {
            if after_effect {
                dirty_key += 1;
                assert!(c.put(dirty_key).unwrap());
            } else {
                assert!(c.get(1).unwrap());
            }
            let before = persists();
            request(&mut c);
            // The lane finishes every persist before it writes the socket.
            let after = persists();
            rows.push((name, after_effect, (after.0 - before.0, after.1 - before.1)));
        };
        let key = 100 + after_effect as u64;
        row("put-new", &mut |c| assert!(c.put(key).unwrap()));
        row("put-dup", &mut |c| assert!(!c.put(key).unwrap()));
        row("del-hit", &mut |c| assert!(c.del(key).unwrap()));
        row("del-miss", &mut |c| assert!(!c.del(key).unwrap()));
        row("get", &mut |c| assert!(c.get(1).unwrap()));
        row("enq", &mut |c| c.enqueue(9).unwrap());
        let head = if after_effect { 2 } else { 3 };
        row("deq", &mut |c| assert_eq!(c.dequeue().unwrap(), Some(head)));
        row("replay", &mut |c| {
            let (again, original) = c.replay_last_acked().unwrap().expect("a request was acked");
            assert_eq!(again, original, "the replay is the stored response");
        });
    }

    // `(kind, after an effect, (lines, fences))`.
    let golden: [(&str, bool, (u64, u64)); 16] = [
        ("put-new", true, (11, 4)),
        ("put-dup", true, (1, 1)),
        ("del-hit", true, (9, 5)),
        ("del-miss", true, (1, 1)),
        ("get", true, (1, 1)),
        ("enq", true, (7, 4)),
        ("deq", true, (7, 5)),
        ("replay", true, (0, 0)),
        ("put-new", false, (11, 4)),
        ("put-dup", false, (1, 1)),
        ("del-hit", false, (9, 5)),
        ("del-miss", false, (1, 1)),
        ("get", false, (0, 0)),
        ("enq", false, (7, 4)),
        ("deq", false, (7, 5)),
        ("replay", false, (0, 0)),
    ];
    assert_eq!(rows, golden, "(lines, fences) per request");
    // The invocation glue is the whole difference, and only a `get` runs
    // it: one line and one fence after an effect, nothing after a request
    // that changed nothing. A sequenced request's record stands in for it.
    for (dirty, fresh) in golden[..8].iter().zip(&golden[8..]) {
        let glue = if dirty.0 == "get" { (1, 1) } else { (0, 0) };
        assert_eq!((dirty.2 .0 - fresh.2 .0, dirty.2 .1 - fresh.2 .1), glue, "{}", dirty.0);
    }

    drop(c);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
