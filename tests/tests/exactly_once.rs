//! Exactly-once conformance suite for the network-facing KV service.
//!
//! The contract under test: a client that names every request with an
//! effect with a `(client_id, op_seq)` operation ID may retry it after a
//! server crash and observe **exactly-once** semantics — the retry returns
//! the original response if the crashed attempt completed (byte-identical,
//! nothing re-applied), and applies the operation fresh if it did not. The
//! server proves completion through the durable response table in the
//! mapped heap, resolved by the attach pipeline before the restarted server
//! accepts a single connection. A `get` is unsequenced: a read killed in
//! flight leaves nothing to resolve, and every read is asserted
//! *linearisable* against the model (byte-identity is a property of stored
//! responses, and a read's is never stored).
//!
//! Harness shape (the `restart.rs` pattern, built from the same kit —
//! [`isb_tests::sigkill`]): the parent spawns *this test binary* as a child
//! running only [`kv_server_child`], with
//! `ISB_KV_KILL_POINT`/`ISB_KV_KILL_AFTER` injected so the server SIGKILLs
//! itself at a seeded point on the request path:
//!
//! * `accept`  — right after accepting a connection;
//! * `parse`   — after parsing a request, before any durable intent;
//! * `invoke`  — after the durable intent record, before the apply (a
//!   `get`: before its `find`);
//! * `preack`  — after the apply is finalized, before the ack is written
//!   (a `get`: after its `find`);
//! * `postack` — after the ack reached the socket.
//!
//! Parent-side clients ([`isb_tests::kv`]) drive seeded workloads against
//! std-model shadows (`HashSet` per map client over a private key range,
//! `VecDeque` for the single queue client) and assert **every** response
//! against the model — a duplicate apply surfaces immediately as a
//! `put`/`del` answering the wrong boolean or a dequeue yielding an
//! out-of-order value. After the kill, the parent restarts the server (no
//! kill env: full recovery), then:
//!
//! 1. retries each client's *pending* (unacknowledged) request with its
//!    original sequence number and asserts the response matches the model
//!    applying that operation exactly once;
//! 2. replays each client's acknowledged *watermark* request and asserts
//!    the byte-identical original response (served from the response
//!    table; the retry runs first because a durably-completed pending op
//!    advances the watermark, making anything older correctly `StaleSeq`);
//! 3. continues the seeded workload;
//! 4. closes with full model equivalence — a membership sweep of every map
//!    client's key range and a complete queue drain.
//!
//! Matrix: `ISB_KV_SEEDS` seeds (default 2) x all five kill points — 10
//! seeded SIGKILL rounds per default `cargo test` run — plus one round that
//! kills the server inside a `get`, and the `preack` / `postack` rounds
//! again with one map client and the queue client sharing one lane
//! (`workers = 1`), so that a response whose write-back one connection's
//! thread deferred is handed over by the other's.

use isb_tests::kv::{serve_child, wait_port, MapClient, QueueClient, KEYS_PER_CLIENT};
use isb_tests::sigkill::{Child, Scratch};
use kvserve::{ClientError, Config, KvClient, OpCode, Server};

const MAP_CLIENTS: u64 = 3;
const QUEUE_CLIENT: u64 = 100;
const HEAP_BYTES: usize = 8 << 20;
const PRE_CRASH_ROUNDS: usize = 400;
const POST_CRASH_ROUNDS: usize = 60;

fn seeds() -> u64 {
    std::env::var("ISB_KV_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

fn clients(seed: u64, n: u64) -> Vec<MapClient> {
    (1..=n).map(|i| MapClient::new(seed, i, 1 + (i - 1) * KEYS_PER_CLIENT)).collect()
}

// ---------------------------------------------------------------------------
// Child mode: the server process
// ---------------------------------------------------------------------------

/// The server half. Ignored in normal runs; the parent spawns this test by
/// name (and, for the crash phase, with the kill env that
/// [`kvserve::Server`] reads at start).
#[test]
#[ignore = "child half of the exactly-once harness; spawned by the parent test"]
fn kv_server_child() {
    let Some(scratch) = Scratch::of_child() else { return };
    serve_child(&scratch, HEAP_BYTES, "port", scratch.param("lanes"));
}

// ---------------------------------------------------------------------------
// Parent-side harness
// ---------------------------------------------------------------------------

/// Lanes of the server child when a round does not say.
const LANES: usize = 2;

fn spawn_server(scratch: &Scratch, lanes: usize, kill: Option<(&str, u64)>) -> Child {
    let _ = std::fs::remove_file(scratch.file("port"));
    let mut cmd = scratch.child("kv_server_child", &[("lanes", &lanes)]);
    cmd.env_remove("ISB_KV_KILL_POINT").env_remove("ISB_KV_KILL_AFTER");
    if let Some((point, after)) = kill {
        cmd.env("ISB_KV_KILL_POINT", point).env("ISB_KV_KILL_AFTER", after.to_string());
    }
    scratch.spawn(&mut cmd)
}

/// One full SIGKILL round at `point` with `seed`: `map_clients` map
/// clients and the queue client against a server of `lanes` lanes.
fn run_round(point: &str, seed: u64, lanes: usize, map_clients: u64) {
    let tag = format!("{point}_{lanes}lanes");
    let scratch = Scratch::create("kv_once", &tag, seed);
    let ctx = format!("kill={point} lanes={lanes} seed={seed}");

    // `accept` counts connections (4 clients connect); the other points
    // count requests, so the countdown lands mid-workload.
    let kill_after = if point == "accept" { 1 + seed % 4 } else { 5 + (seed * 13) % 60 };
    let child = spawn_server(&scratch, lanes, Some((point, kill_after)));
    let addr = wait_port(&scratch, "port");

    let mut maps = clients(seed, map_clients);
    let mut queue = QueueClient::new(seed, QUEUE_CLIENT);
    for m in &mut maps {
        m.connect(addr, true, &ctx);
    }
    queue.connect(addr, true, &ctx);

    // Drive until the injected SIGKILL surfaces as a transport error on
    // every connected client (round-robin so the kill can land under any
    // of them).
    let mut live = true;
    for _ in 0..PRE_CRASH_ROUNDS {
        if !live {
            break;
        }
        live = false;
        for m in &mut maps {
            live |= m.step(&ctx);
        }
        live |= queue.step(&ctx);
    }
    assert!(!live, "{ctx}: server survived {PRE_CRASH_ROUNDS} rounds without dying");
    child.wait_exit(); // it killed itself

    // Restart with no kill env: the attach pipeline replays, scrubs, and
    // resolves every in-flight op ID before the port file reappears.
    let child = spawn_server(&scratch, lanes, None);
    let addr = wait_port(&scratch, "port");

    for m in &mut maps {
        m.recover(addr, &ctx);
    }
    queue.recover(addr, &ctx);

    // The session continues: same clients, same sequence counters.
    for _ in 0..POST_CRASH_ROUNDS {
        for m in &mut maps {
            assert!(m.step(&ctx), "{ctx}: post-restart map step failed");
        }
        assert!(queue.step(&ctx), "{ctx}: post-restart queue step failed");
    }

    // Full model equivalence.
    for m in &mut maps {
        m.sweep(&ctx);
    }
    queue.drain(&ctx);

    std::fs::write(scratch.file("stop"), b"ok").unwrap();
    assert!(child.wait_exit().success(), "{ctx}: clean shutdown failed");
}

fn run_matrix(point: &str) {
    for seed in 0..seeds() {
        run_round(point, seed, LANES, MAP_CLIENTS);
    }
}

#[test]
fn exactly_once_kill_accept() {
    run_matrix("accept");
}

#[test]
fn exactly_once_kill_parse() {
    run_matrix("parse");
}

#[test]
fn exactly_once_kill_invoke() {
    run_matrix("invoke");
}

#[test]
fn exactly_once_kill_preack() {
    run_matrix("preack");
}

#[test]
fn exactly_once_kill_postack() {
    run_matrix("postack");
}

/// One map client and the queue client share one lane: each request runs
/// on its own connection's thread, so a request that took effect and left
/// its slot's write-back to the lane's next fence is followed, as often as
/// not, by the other client's request on another thread, whose `begin_op`
/// writes that slot back itself. Killed between a response and its ack,
/// and after the ack.
#[test]
fn exactly_once_kill_one_shared_lane() {
    for point in ["preack", "postack"] {
        for seed in 0..seeds() {
            run_round(point, seed, 1, 1);
        }
    }
}

/// A `get` in flight at the kill: the server dies at `invoke` inside a read
/// (the client's `put` is the point's first hit, its `get` the second). The
/// read leaves the client nothing to retry — no pending request, the `put`
/// still its acknowledged watermark — and after the restart the same read,
/// issued afresh, answers what the model holds.
#[test]
fn exactly_once_kill_get_in_flight() {
    const KEY: u64 = 7;
    let scratch = Scratch::create("kv_once", "get", 0);
    let ctx = "kill=invoke in a get";
    let child = spawn_server(&scratch, LANES, Some(("invoke", 2)));
    let mut m = MapClient::new(0, 1, 1);
    m.connect(wait_port(&scratch, "port"), false, ctx);
    let c = m.conn.as_mut().unwrap();
    assert!(c.put(KEY).unwrap());
    m.model.insert(KEY);
    let read = c.get(KEY);
    assert!(matches!(read, Err(ClientError::Io(_))), "{ctx}: answered {read:?}");
    assert!(c.pending().is_none(), "{ctx}: a read left a request to retry");
    assert_eq!(c.last_acked().map(|(req, _)| (req.op, req.op_seq)), Some((OpCode::Put, 1)));
    child.wait_exit();

    let child = spawn_server(&scratch, LANES, None);
    let addr = wait_port(&scratch, "port");
    m.recover(addr, ctx);
    assert!(m.conn.as_mut().unwrap().get(KEY).unwrap(), "{ctx}: the re-issued read");
    for _ in 0..POST_CRASH_ROUNDS {
        assert!(m.step(ctx), "{ctx}: post-restart step failed");
    }
    m.sweep(ctx);
    std::fs::write(scratch.file("stop"), b"ok").unwrap();
    assert!(child.wait_exit().success(), "{ctx}: clean shutdown failed");
}

/// No-crash control: the same workload and final equivalence checks against
/// a server that is never killed, plus a graceful stop/restart in the
/// middle — isolates harness bugs from recovery bugs.
#[test]
fn exactly_once_no_crash_control() {
    let scratch = Scratch::create("kv_once", "control", 7);
    let ctx = "control";

    let child = spawn_server(&scratch, LANES, None);
    let addr = wait_port(&scratch, "port");
    let mut maps = clients(7, MAP_CLIENTS);
    let mut queue = QueueClient::new(7, QUEUE_CLIENT);
    for m in &mut maps {
        m.connect(addr, false, ctx);
    }
    queue.connect(addr, false, ctx);
    for _ in 0..120 {
        for m in &mut maps {
            assert!(m.step(ctx));
        }
        assert!(queue.step(ctx));
    }

    // Graceful stop + restart: recovery with nothing in flight.
    std::fs::write(scratch.file("stop"), b"ok").unwrap();
    assert!(child.wait_exit().success());
    let _ = std::fs::remove_file(scratch.file("stop"));
    let child = spawn_server(&scratch, LANES, None);
    let addr = wait_port(&scratch, "port");
    for m in &mut maps {
        m.recover(addr, ctx);
        m.sweep(ctx);
    }
    queue.recover(addr, ctx);
    queue.drain(ctx);

    std::fs::write(scratch.file("stop"), b"ok").unwrap();
    assert!(child.wait_exit().success());
}

// ---------------------------------------------------------------------------
// Thread model: requests run on their connection's thread under a tid lane
// ---------------------------------------------------------------------------

/// An in-process server over a fresh heap (no kill env reaches it: the kill
/// points are read from the environment of the *child* processes only).
fn start_in_process(tag: &str, lanes: usize) -> (Server, Scratch) {
    let scratch = Scratch::create("kv_once", tag, 0);
    let mut cfg = Config::new(scratch.heap());
    cfg.heap_bytes = HEAP_BYTES;
    cfg.shards = 4;
    cfg.workers = lanes;
    (Server::start(cfg).expect("in-process server start"), scratch)
}

/// Four connections share ONE `client_id` and race the same
/// `(op_seq, op)`: they route to one lane, whose lock must serialize them —
/// one applies, the others replay its response.
#[test]
fn same_client_racing_connections_apply_once() {
    const RACERS: usize = 4;
    const ROUNDS: u64 = 64;
    const CLIENT: u64 = 7;
    const KEY: u64 = 4242;
    let (server, _scratch) = start_in_process("race", 2);
    let addr = server.local_addr();
    let barrier = std::sync::Barrier::new(RACERS);

    let replies: Vec<Vec<_>> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..RACERS)
            .map(|_| {
                s.spawn(|| {
                    let mut c = KvClient::connect(addr, CLIENT).expect("connect");
                    (1..=ROUNDS)
                        .map(|seq| {
                            // Every racer is at `op_seq == seq` here; odd
                            // rounds put the key, even rounds delete it.
                            let op = if seq % 2 == 1 { OpCode::Put } else { OpCode::Del };
                            barrier.wait();
                            c.call(op, KEY).expect("racing call");
                            let (req, resp) = c.last_acked().expect("acked");
                            assert_eq!(req.op_seq, seq);
                            kvserve::proto::encode_response(&resp)
                        })
                        .collect()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().expect("racer")).collect()
    });

    // Byte-identical replies, and each one says "applied for the first
    // time": a second apply of the same put/del would have answered (and
    // stored) `false`.
    let want_true = |seq: u64| {
        kvserve::proto::encode_response(&kvserve::Response {
            status: kvserve::Status::Ok,
            op_seq: seq,
            value: isb::engine::RES_TRUE,
        })
    };
    for seq in 1..=ROUNDS {
        for r in &replies {
            assert_eq!(r[seq as usize - 1], want_true(seq), "round {seq}: reply differs");
        }
    }
    // The last round deleted the key; the map must hold it exactly once
    // after one more put.
    let mut c = KvClient::connect(addr, CLIENT + 1).expect("connect");
    assert!(!c.get(KEY).unwrap(), "key survived its delete");
    assert!(c.put(KEY).unwrap());
    assert!(c.del(KEY).unwrap(), "key must be present once");
    assert!(!c.del(KEY).unwrap(), "key was present twice");

    server.stop();
}

/// One lane, four concurrent clients: every request of every client funnels
/// through the same mutex and tid. All complete (a lost wake-up or a lane
/// held across a socket write would trip the client's request deadline) and
/// every response matches the std model.
#[test]
fn single_lane_serves_concurrent_clients() {
    let (server, _scratch) = start_in_process("onelane", 1);
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for i in 1..=4u64 {
            s.spawn(move || {
                let ctx = format!("one-lane client {i}");
                let mut m = MapClient::new(3, i, 1 + (i - 1) * KEYS_PER_CLIENT);
                m.connect(addr, false, &ctx);
                for _ in 0..300 {
                    assert!(m.step(&ctx), "{ctx}: step failed");
                }
                m.sweep(&ctx);
            });
        }
    });
    server.stop();
}

/// A long-lived server with reconnecting clients must not keep one
/// `JoinHandle` per connection it has ever served.
#[test]
fn finished_connection_threads_are_reaped() {
    let (server, _scratch) = start_in_process("reap", 1);
    let addr = server.local_addr();
    let mut peak = 0;
    for i in 1..=200u64 {
        // A full round trip, so the connection was accepted before it closes.
        let mut c = KvClient::connect(addr, 1000 + i).expect("connect");
        assert!(c.put(i).unwrap());
        drop(c);
        peak = peak.max(server.conn_handles());
    }
    // A connection thread exits as soon as it reads the close, but that is
    // asynchronous to the next accept: allow a lag far below one-per-connect.
    assert!(peak <= 64, "server retained {peak} connection handles over 200 connects");
    server.stop();
}
