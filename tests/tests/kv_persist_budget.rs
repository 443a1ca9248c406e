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
//! same line), and a `get` marks its invocation recorded too. Every kind is
//! measured twice: after a request that took effect and after one that
//! changed nothing, each by the same client on the same connection.
//!
//! The response table is the client's one 64-byte slot. `begin_op` stores
//! `prior` and `pending` and notes the line without a fence; `finish_op`
//! stores `resp` then `last_seq`. A request that changes nothing (a `put`
//! of a present key, a `del` of an absent one) issues no fence in between,
//! so `finish_op` pays the line's one write-back and one `psync`, and the
//! structure operation costs nothing at all, in any arm: 1 line + 1 fence.
//! A request that takes effect publishes with no fence ahead of it: the
//! publish `psync` writes back the slot's line, the descriptor and the
//! recovery line in one window — the recovery line names the slot's
//! `pending` as a record check, and recovery rolls back a publication
//! whose record did not reach media. Its last attempt's `DONE` bit is
//! durable when the operation returns, so `finish_op` only notes the line
//! again — the descriptor holds the response, and recovery answers from
//! it — and the lane's next request carries that note: its `begin_op`
//! notes the same line, which on the same thread is already pending. So a
//! request after one that took effect costs one line less (its slot's line
//! was counted by its predecessor's note), and a request that takes effect
//! costs one line and no fence of the table's: `put-new` 8 / 2 is
//! 1 + 6 / 2 + 1 / 0.
//! Of the structure's own, the `Isb-LP` operation (the arm the service
//! ships, `kvserve::server::ARM`) without its glue, the link-persist
//! elisions are the cleanup write-backs (`put-new` 3 lines, `del-hit` and
//! `deq` 1), on `enq` the merged tag-phase `psync` and the tail hint nobody
//! reads back (4 lines, 1 fence), and on `put-new` the merged tag-phase
//! `psync` (1 fence): the predecessor's line, tagged and linked in one
//! fence window, is written back once, and the line of the node the insert
//! copy-replaces joins its publish window, so `put-new` writes back 8
//! lines with 2 fences when every node has a line of its own — its
//! descriptor, a 2/1/2 whose response, write cell and old value `meta`
//! gives, one of them, as is the delete's. Nodes are
//! half-line blocks, though, two to a line, and nodes drawn one after the
//! other from a pool are the two halves of one line: the insert's `newnd`
//! and `newcurr` always (one line, not two: 7), and its `pred` and `curr`
//! when they too were drawn as a pair — a bucket's two sentinels, or the
//! `newnd` / `newcurr` of the insert that last linked behind `pred` — so
//! the predecessor's window and the copied node's share a line (6). Every
//! `put-new` row here saves both lines — 7 / 2 after an effect, 8 / 2
//! after nothing, `2nd put-new` 9 / 2 after an effect — but the second
//! client's `put-new` of 200 after nothing, which links between two nodes
//! of different draws and saves one: 9 / 2. A `del-hit` keeps its tag
//! fence (its new link is not a fresh node). A queue descriptor is one line, and the dequeue tags
//! the head anchor alone, so `deq` writes back the anchor's line in its tag
//! window and again with the head move, and nothing of the old sentinel.
//! A `get` is unsequenced and costs nothing: no slot, no glue, and a line
//! a predecessor left noted stays noted.
//!
//! A second client on the same lane is served on its own connection's
//! thread. After the first client's request took effect, its `begin_op`
//! notes the first client's slot too — one line more, written back by its
//! own first fence, since a fence orders only its own thread's write-backs
//! — and no fence more; after a request that changed nothing it costs what
//! the first client's would.
//!
//! The server runs one lane, so every request is counted on that lane's tid
//! and read as a per-tid delta; the mapped heap hands out nodes as 32-byte
//! halves of a line and every other block line-aligned, in an order fixed
//! by the requests, so the counts do not depend on the process allocator. Run under
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

    // Past the first-use costs: registrations, pool warm-up, a recycled
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
    // A second client of the lane, registered.
    let mut second = KvClient::connect(server.local_addr(), 8).expect("connect");
    assert!(second.put(9).unwrap());

    // Each kind twice: once after a request that took effect (the `put` of
    // a key not yet present: the recovery line names its descriptor, and
    // the slot's line is left noted) and once after one that changed
    // nothing (the `put` of a present key: it fenced the slot's line, and
    // the recovery line is as it was). A row's cost then depends on
    // nothing before it but that predecessor.
    let mut rows = Vec::new();
    let mut dirty_key = 1000;
    for after_effect in [true, false] {
        let mut row =
            |name: &'static str, request: &mut dyn FnMut(&mut KvClient, &mut KvClient)| {
                if after_effect {
                    dirty_key += 1;
                    assert!(c.put(dirty_key).unwrap());
                } else {
                    assert!(!c.put(1).unwrap());
                }
                let before = persists();
                request(&mut c, &mut second);
                // The lane finishes every persist before it writes the socket.
                let after = persists();
                rows.push((name, after_effect, (after.0 - before.0, after.1 - before.1)));
            };
        let key = 100 + after_effect as u64;
        row("put-new", &mut |c, _| assert!(c.put(key).unwrap()));
        row("put-dup", &mut |c, _| assert!(!c.put(key).unwrap()));
        row("del-hit", &mut |c, _| assert!(c.del(key).unwrap()));
        row("del-miss", &mut |c, _| assert!(!c.del(key).unwrap()));
        row("get", &mut |c, _| assert!(c.get(1).unwrap()));
        row("enq", &mut |c, _| c.enqueue(9).unwrap());
        let head = if after_effect { 2 } else { 3 };
        row("deq", &mut |c, _| assert_eq!(c.dequeue().unwrap(), Some(head)));
        row("replay", &mut |c, _| {
            let (again, original) = c.replay_last_acked().unwrap().expect("a request was acked");
            assert_eq!(again, original, "the replay is the stored response");
        });
        let key = 200 + after_effect as u64;
        row("2nd put-new", &mut |_, b| assert!(b.put(key).unwrap()));
        row("2nd put-dup", &mut |_, b| assert!(!b.put(key).unwrap()));
    }

    // `(kind, after an effect, (lines, fences))`; "2nd" is the second
    // client, on its own connection.
    let golden: [(&str, bool, (u64, u64)); 20] = [
        ("put-new", true, (7, 2)),
        ("put-dup", true, (0, 1)),
        ("del-hit", true, (7, 3)),
        ("del-miss", true, (0, 1)),
        ("get", true, (0, 0)),
        ("enq", true, (6, 2)),
        ("deq", true, (6, 3)),
        ("replay", true, (0, 0)),
        ("2nd put-new", true, (9, 2)),
        ("2nd put-dup", true, (2, 1)),
        ("put-new", false, (8, 2)),
        ("put-dup", false, (1, 1)),
        ("del-hit", false, (8, 3)),
        ("del-miss", false, (1, 1)),
        ("get", false, (0, 0)),
        ("enq", false, (7, 2)),
        ("deq", false, (7, 3)),
        ("replay", false, (0, 0)),
        ("2nd put-new", false, (9, 2)),
        ("2nd put-dup", false, (1, 1)),
    ];
    assert_eq!(rows, golden, "(lines, fences) per request");
    // The deferred line is the whole difference: a sequenced request after
    // one that took effect finds its slot's line noted on its thread (one
    // line less); the second client notes the first one's on its own (one
    // line more); a `get` and a replay persist nothing either way. The one
    // other difference is where a key lands: the second client's 201 links
    // between two nodes of one draw, one line, and its 200 between two of
    // different draws (one line more after nothing).
    for (dirty, fresh) in golden[..10].iter().zip(&golden[10..]) {
        let handed: i64 = match dirty.0 {
            "get" | "replay" => 0,
            // One line handed over, one saved where 201 lands.
            "2nd put-new" => 0,
            "2nd put-dup" => 1,
            _ => -1,
        };
        let diff = (dirty.2 .0 as i64 - fresh.2 .0 as i64, dirty.2 .1 as i64 - fresh.2 .1 as i64);
        assert_eq!(diff, (handed, 0), "{}", dirty.0);
    }

    drop(second);
    drop(c);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
