//! Shared harness for the KV service conformance suites
//! (`tests/exactly_once.rs` and the shared-heap failover leg of
//! `tests/restart.rs`): the server child's body, and journaling clients
//! paired with std-model shadows.
//!
//! Every acknowledged response is checked against the model at the moment
//! it arrives, so a duplicate apply trips an assert at the earliest point
//! it is observable — a re-applied `put`/`del` flips its boolean, a
//! re-applied enqueue duplicates a globally unique value in the drain.
//!
//! Reads are held to linearisability, not to byte-identity: a `get` is
//! unsequenced, never stored and never replayed. Each map client owns its
//! key range and reads only with none of its own writes pending, so the
//! model's answer is the only one a linearisable read can give — whether
//! the read was answered the first time or re-issued after a crash.

use crate::sigkill::Scratch;
use kvserve::{ClientError, KvClient};
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::time::Duration;

/// Keys per map client: small enough that duplicate inserts and absent
/// deletes occur constantly (their `false` answers must match the model).
pub const KEYS_PER_CLIENT: u64 = 48;

/// splitmix64 — deterministic, dependency-free.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The body of a server child test: one [`kvserve::Server`] process over
/// its scratch directory's heap — servers started beside a live one open
/// the SAME heap, each inside its own participant tid band, each running
/// the peer-recovery healer. Publishes the bound port as `port_file` once
/// the server is accepting (which, on restart, doubles as the "attach
/// recovery finished" handshake) and serves until the parent writes `stop`.
/// `lanes` is the server's [`kvserve::Config::workers`].
pub fn serve_child(scratch: &Scratch, heap_bytes: usize, port_file: &str, lanes: usize) {
    let mut cfg = kvserve::Config::new(scratch.heap());
    cfg.heap_bytes = heap_bytes;
    cfg.shards = 4;
    cfg.workers = lanes;
    let server = kvserve::Server::start(cfg).expect("child server start");
    scratch.publish(port_file, server.local_addr().port());
    while !scratch.file("stop").exists() {
        std::thread::sleep(Duration::from_millis(20));
    }
    server.stop();
}

/// Waits until a [`serve_child`] publishes `port_file`; returns its address.
pub fn wait_port(scratch: &Scratch, port_file: &str) -> SocketAddr {
    let port: u16 = scratch.wait_file(port_file).trim().parse().expect("port file");
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// One map client with a private key range and a `HashSet` shadow.
pub struct MapClient {
    /// Wire identity (nonzero, unique per client in a run).
    pub id: u64,
    /// First key of the private `KEYS_PER_CLIENT`-wide range.
    pub base: u64,
    /// The live session, absent before connect or when a crash window
    /// swallowed the connection.
    pub conn: Option<KvClient>,
    /// The std-model shadow of this client's key range.
    pub model: HashSet<u64>,
    rng: u64,
}

impl MapClient {
    /// A client with identity `id` over the key range starting at `base`.
    pub fn new(seed: u64, id: u64, base: u64) -> MapClient {
        MapClient {
            id,
            base,
            conn: None,
            model: HashSet::new(),
            rng: seed.wrapping_mul(0xA5A5).wrapping_add(id),
        }
    }

    /// Connects. With `tolerant` (the crash phase) a refused or dying
    /// connection leaves the client offline instead of failing the test —
    /// the `accept` kill window can swallow the handshake.
    pub fn connect(&mut self, addr: SocketAddr, tolerant: bool, ctx: &str) {
        match KvClient::connect(addr, self.id) {
            Ok(c) => self.conn = Some(c),
            Err(_) if tolerant => self.conn = None,
            Err(e) => panic!("{ctx}: client {} connect failed: {e}", self.id),
        }
    }

    /// Runs one seeded op. Returns `false` once the server has crashed
    /// under this client (transport error; the request stays pending).
    pub fn step(&mut self, ctx: &str) -> bool {
        let Some(c) = self.conn.as_mut() else { return false };
        if c.pending().is_some() {
            // A transport error left a request in flight; only `recover`
            // may resolve it.
            return false;
        }
        let key = self.base + splitmix(&mut self.rng) % KEYS_PER_CLIENT;
        let (op, r) = match splitmix(&mut self.rng) % 10 {
            0..=3 => ("put", c.put(key).map(|fresh| (fresh, self.model.insert(key)))),
            4..=6 => ("del", c.del(key).map(|hit| (hit, self.model.remove(&key)))),
            _ => ("get", c.get(key).map(|found| (found, self.model.contains(&key)))),
        };
        match r {
            Ok((got, want)) => {
                assert_eq!(got, want, "{ctx}: client {} {op} {key} diverged from model", self.id);
                true
            }
            Err(ClientError::Io(_)) => {
                // The model is untouched on a transport error: a write is
                // still pending and is accounted for by `retry_pending`; a
                // read leaves nothing behind.
                let read = op == "get";
                assert_eq!(c.pending().is_none(), read, "{ctx}: client {} {op} {key}", self.id);
                false
            }
            Err(e) => panic!("{ctx}: client {} unexpected rejection: {e}", self.id),
        }
    }

    /// Post-crash recovery against `addr` (the restarted server, or a
    /// shared-heap survivor): exactly-once retry of the pending request
    /// (model applied once), then byte-identical replay of the watermark
    /// request. The retry must come first — if the crashed attempt
    /// completed durably, it advanced the dedup watermark, and the
    /// single-slot table correctly answers `StaleSeq` for anything older.
    pub fn recover(&mut self, addr: SocketAddr, ctx: &str) {
        if self.conn.is_none() {
            self.connect(addr, false, ctx);
        }
        let c = self.conn.as_mut().unwrap();
        c.reconnect(addr).expect("reconnect");
        if let Some(req) = c.pending() {
            let value = c
                .retry_pending()
                .unwrap_or_else(|e| panic!("{ctx}: retry failed: {e}"))
                .expect("pending request was recorded");
            // Whether the crashed attempt applied or the retry did, the
            // operation lands exactly once: the response must equal the
            // model applying it at this point in the sequence.
            let key = req.arg;
            let want = match req.op {
                kvserve::OpCode::Put => self.model.insert(key),
                kvserve::OpCode::Del => self.model.remove(&key),
                other => panic!("map client left {other:?} pending"),
            };
            assert_eq!(
                kvserve::client::as_bool(value),
                want,
                "{ctx}: client {} retried {:?} {key} not exactly-once",
                self.id,
                req.op
            );
        }
        // Replay the acknowledged watermark request — always a write: the
        // server must answer from its durable response table,
        // byte-identical, re-applying nothing (a re-applied put/del would
        // flip its boolean).
        if let Some((replayed, original)) =
            c.replay_last_acked().unwrap_or_else(|e| panic!("{ctx}: replay failed: {e}"))
        {
            assert_eq!(
                replayed, original,
                "{ctx}: client {} replayed ack not byte-identical",
                self.id
            );
        }
    }

    /// Final equivalence: membership sweep of the whole private key range.
    pub fn sweep(&mut self, ctx: &str) {
        let c = self.conn.as_mut().unwrap();
        for key in self.base..self.base + KEYS_PER_CLIENT {
            let got = c.get(key).unwrap_or_else(|e| panic!("{ctx}: sweep get failed: {e}"));
            assert_eq!(
                got,
                self.model.contains(&key),
                "{ctx}: client {} final sweep diverged at key {key}",
                self.id
            );
        }
    }
}

/// The queue client with a `VecDeque` shadow. FIFO order is a per-producer
/// guarantee, so exactly one queue client runs per harness.
pub struct QueueClient {
    /// Wire identity.
    pub id: u64,
    /// The live session.
    pub conn: Option<KvClient>,
    /// The std-model shadow.
    pub model: VecDeque<u64>,
    next_val: u64,
    rng: u64,
}

impl QueueClient {
    /// A queue client with identity `id`; enqueued values count up from 1.
    pub fn new(seed: u64, id: u64) -> QueueClient {
        QueueClient {
            id,
            conn: None,
            model: VecDeque::new(),
            next_val: 1,
            rng: seed.wrapping_mul(0x5A5A).wrapping_add(id),
        }
    }

    /// See [`MapClient::connect`].
    pub fn connect(&mut self, addr: SocketAddr, tolerant: bool, ctx: &str) {
        match KvClient::connect(addr, self.id) {
            Ok(c) => self.conn = Some(c),
            Err(_) if tolerant => self.conn = None,
            Err(e) => panic!("{ctx}: queue client connect failed: {e}"),
        }
    }

    /// See [`MapClient::step`].
    pub fn step(&mut self, ctx: &str) -> bool {
        let Some(c) = self.conn.as_mut() else { return false };
        if c.pending().is_some() {
            return false;
        }
        if splitmix(&mut self.rng) % 3 < 2 {
            let v = self.next_val;
            match c.enqueue(v) {
                Ok(()) => {
                    self.model.push_back(v);
                    self.next_val += 1;
                    true
                }
                Err(ClientError::Io(_)) => false,
                Err(e) => panic!("{ctx}: queue enqueue rejected: {e}"),
            }
        } else {
            match c.dequeue() {
                Ok(got) => {
                    assert_eq!(got, self.model.pop_front(), "{ctx}: dequeue out of FIFO order");
                    true
                }
                Err(ClientError::Io(_)) => false,
                Err(e) => panic!("{ctx}: queue dequeue rejected: {e}"),
            }
        }
    }

    /// See [`MapClient::recover`].
    pub fn recover(&mut self, addr: SocketAddr, ctx: &str) {
        if self.conn.is_none() {
            self.connect(addr, false, ctx);
        }
        let c = self.conn.as_mut().unwrap();
        c.reconnect(addr).expect("reconnect");
        if let Some(req) = c.pending() {
            let value = c
                .retry_pending()
                .unwrap_or_else(|e| panic!("{ctx}: queue retry failed: {e}"))
                .expect("pending request was recorded");
            match req.op {
                kvserve::OpCode::Enq => {
                    // Exactly one enqueue of this value lands; the drain
                    // below would see a duplicate or a gap otherwise.
                    self.model.push_back(req.arg);
                    self.next_val = req.arg + 1;
                }
                kvserve::OpCode::Deq => {
                    let got = kvserve::client::as_dequeued(value);
                    assert_eq!(got, self.model.pop_front(), "{ctx}: retried dequeue diverged");
                }
                other => panic!("queue client issued {other:?}"),
            }
        }
        if let Some((replayed, original)) =
            c.replay_last_acked().unwrap_or_else(|e| panic!("{ctx}: replay failed: {e}"))
        {
            assert_eq!(replayed, original, "{ctx}: queue replayed ack not byte-identical");
        }
    }

    /// Final equivalence: drain the queue to empty against the shadow —
    /// catches both duplicated and lost enqueues anywhere in the run.
    pub fn drain(&mut self, ctx: &str) {
        let c = self.conn.as_mut().unwrap();
        loop {
            let got = c.dequeue().unwrap_or_else(|e| panic!("{ctx}: drain dequeue failed: {e}"));
            let want = self.model.pop_front();
            assert_eq!(got, want, "{ctx}: queue drain diverged");
            if got.is_none() {
                return;
            }
        }
    }
}
