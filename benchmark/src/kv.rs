//! `kv_update` and `kv_lookup`: one client, one worker, loopback TCP.
//!
//! Both walk the full exactly-once request path of `kvserve` (dedup lookup →
//! `note_invocation` → intent → structure op → response → ack). `kv_update`
//! makes every request a structure write or queue op; `kv_lookup` makes none
//! — reads on skewed keys plus replays answered from the response table — so
//! a write-path gain that costs reads or replays shows on the second.
//!
//! The seeded op stream ([`KvStream`]) and its sequential model
//! ([`KvModel`]) are shared with `isbtrace`, which drives the same stream
//! through an inline replica of the server's request handler.

use crate::keyset::KeySet;
use crate::report::Tally;
use crate::rng::{distinct_keys, SplitMix, Zipf};
use crate::run::{Env, Workload};
use crate::stats::SliceStat;
use isb::hashmap::RHashMap;
use isb::queue::RQueue;
use isb::store::Store;
use kvserve::{Config, KvClient, Server};
use nvm::MappedNvm;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys are drawn from `1..=KEY_SPACE`.
pub const KEY_SPACE: u64 = 16_384;
/// Distinct keys inserted by set-up.
pub const PREFILL: u64 = 8_192;
/// Queue items enqueued by set-up.
pub const QUEUE_PREFILL: u64 = 64;
/// Hash-map shards.
pub const SHARDS: usize = 256;
/// The single client's identity.
pub const CLIENT_ID: u64 = 1;
/// Heap size on creation (the kvserve default).
pub const HEAP_BYTES: usize = 32 << 20;

/// Which request mix a stream draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 7/16 put, 7/16 del, 1/16 enq, 1/16 deq on uniform keys.
    Update,
    /// 15/16 get on Zipf(0.99) keys, 1/16 replay of the last acked request.
    Lookup,
}

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Insert a key.
    Put(u64),
    /// Delete a key.
    Del(u64),
    /// Membership query.
    Get(u64),
    /// Enqueue a value.
    Enq(u64),
    /// Dequeue.
    Deq,
    /// Re-send the last acknowledged request (must be a dedup hit).
    Replay,
}

/// What a request answers, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// put / del / get.
    Bool(bool),
    /// enq.
    Unit,
    /// deq.
    Deq(Option<u64>),
    /// A replay whose answer was byte-identical to the original.
    SameAsOriginal,
}

/// The seeded request stream: set-up requests first, then the mix.
#[derive(Debug)]
pub struct KvStream {
    rng: SplitMix,
    mix: Mix,
    zipf: Option<Zipf>,
    next_val: u64,
}

impl KvStream {
    /// The stream of `mix` for `seed`.
    pub fn new(seed: u64, mix: Mix) -> Self {
        let zipf = (mix == Mix::Lookup).then(|| Zipf::new(KEY_SPACE, 0.99));
        KvStream { rng: SplitMix::new(seed, 2), mix, zipf, next_val: 1 }
    }

    /// The set-up requests for `seed`: [`PREFILL`] distinct puts, then
    /// [`QUEUE_PREFILL`] enqueues. Identical for both mixes, so both
    /// workloads run on the same heap image.
    pub fn prefill(&mut self, seed: u64) -> Vec<KvOp> {
        let keys = distinct_keys(&mut SplitMix::new(seed, 1), KEY_SPACE, PREFILL);
        let mut ops: Vec<KvOp> = keys.into_iter().map(KvOp::Put).collect();
        for _ in 0..QUEUE_PREFILL {
            ops.push(KvOp::Enq(self.next_val));
            self.next_val += 1;
        }
        ops
    }

    /// The next request of the mix.
    #[inline]
    pub fn next_op(&mut self) -> KvOp {
        let r = self.rng.next_u64();
        match self.mix {
            Mix::Update => {
                let key = 1 + (r >> 8) % KEY_SPACE;
                match r % 16 {
                    0..=6 => KvOp::Put(key),
                    7..=13 => KvOp::Del(key),
                    14 => {
                        self.next_val += 1;
                        KvOp::Enq(self.next_val - 1)
                    }
                    _ => KvOp::Deq,
                }
            }
            Mix::Lookup => {
                if r.is_multiple_of(16) {
                    return KvOp::Replay;
                }
                let rank = self.zipf.as_ref().expect("lookup mix").sample(&mut self.rng);
                // Scatter the hot ranks over the key space (odd multiplier:
                // a bijection mod 2^14).
                KvOp::Get(1 + (rank * 6_311) % KEY_SPACE)
            }
        }
    }
}

/// Sequential model of the service: a key set and a FIFO.
#[derive(Debug)]
pub struct KvModel {
    keys: KeySet,
    queue: VecDeque<u64>,
}

impl Default for KvModel {
    fn default() -> Self {
        KvModel { keys: KeySet::new(KEY_SPACE), queue: VecDeque::new() }
    }
}

impl KvModel {
    /// Applies `op` and returns the answer the service must give.
    #[inline]
    pub fn apply(&mut self, op: KvOp) -> Reply {
        match op {
            KvOp::Put(k) => Reply::Bool(self.keys.insert(k)),
            KvOp::Del(k) => Reply::Bool(self.keys.remove(k)),
            KvOp::Get(k) => Reply::Bool(self.keys.contains(k)),
            KvOp::Enq(v) => {
                self.queue.push_back(v);
                Reply::Unit
            }
            KvOp::Deq => Reply::Deq(self.queue.pop_front()),
            KvOp::Replay => Reply::SameAsOriginal,
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.keys.contains(key)
    }

    /// Keys plus queued items currently live.
    pub fn items(&self) -> u64 {
        self.keys.live() + self.queue.len() as u64
    }

    /// The queue's contents, front first.
    pub fn queued(&self) -> impl Iterator<Item = u64> + '_ {
        self.queue.iter().copied()
    }
}

/// Heap file of a KV workload under `dir`.
pub fn heap_path(dir: &Path) -> PathBuf {
    dir.join("kv.heap")
}

/// The server configuration both KV workloads use.
pub fn config(dir: &Path) -> Config {
    let mut cfg = Config::new(heap_path(dir));
    cfg.heap_bytes = HEAP_BYTES;
    cfg.shards = SHARDS;
    cfg.workers = 1;
    cfg
}

/// `kv_update` (`LOOKUP = false`) or `kv_lookup` (`LOOKUP = true`): a
/// running in-process server, its one client, the stream and the model.
pub struct Kv<const LOOKUP: bool> {
    server: Option<Server>,
    client: KvClient,
    stream: KvStream,
    model: KvModel,
    tally: Tally,
    lat_ns: Vec<u64>,
    dir: PathBuf,
}

/// Sends `op` through the client and decodes the answer. Typed errors come
/// back as `None` (counted as failures by the caller).
#[inline]
fn issue(client: &mut KvClient, op: KvOp) -> Option<Reply> {
    Some(match op {
        KvOp::Put(k) => Reply::Bool(client.put(k).ok()?),
        KvOp::Del(k) => Reply::Bool(client.del(k).ok()?),
        KvOp::Get(k) => Reply::Bool(client.get(k).ok()?),
        KvOp::Enq(v) => {
            client.enqueue(v).ok()?;
            Reply::Unit
        }
        KvOp::Deq => Reply::Deq(client.dequeue().ok()?),
        KvOp::Replay => {
            let (again, original) = client.replay_last_acked().ok()??;
            if again != original {
                return None;
            }
            Reply::SameAsOriginal
        }
    })
}

/// The store of a stopped service, with its map and its queue.
pub type Handles =
    (Store, Arc<RHashMap<MappedNvm, { crate::ARM }>>, Arc<RQueue<MappedNvm, { crate::ARM }>>);

/// Opens the stopped service's heap and looks both handles up.
pub fn open_store(dir: &Path) -> Result<Handles, String> {
    let store = Store::open_sized(heap_path(dir), HEAP_BYTES).map_err(|e| e.to_string())?;
    let map = store.hashmap(kvserve::server::MAP_NAME, SHARDS).map_err(|e| e.to_string())?;
    let queue = store.queue(kvserve::server::QUEUE_NAME).map_err(|e| e.to_string())?;
    Ok((store, map, queue))
}

impl<const LOOKUP: bool> Kv<LOOKUP> {
    /// One request: issue, compare with the model, count.
    #[inline]
    fn step(&mut self, op: KvOp) {
        let got = issue(&mut self.client, op);
        self.tally.check(got == Some(self.model.apply(op)));
    }

    /// The workload's client, for requests outside the stream (`isbtrace`
    /// times replays with it; a replay changes neither service nor model).
    pub fn client(&mut self) -> &mut KvClient {
        &mut self.client
    }

    /// Stops the server: joins its threads and unmaps the heap.
    fn close(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

impl<const LOOKUP: bool> Workload for Kv<LOOKUP> {
    fn pin_plan(allowed: &[usize]) -> Vec<usize> {
        // Client, connection thread and worker all on one CPU: apart they
        // measure the hypervisor's cross-vCPU wake-up (~25 us each), not us.
        vec![*allowed.last().expect("at least one CPU")]
    }

    fn setup(env: &Env) -> Result<Self, String> {
        let _ = std::fs::remove_file(heap_path(&env.dir));
        let server = Server::start(config(&env.dir)).map_err(|e| format!("server start: {e}"))?;
        let client = KvClient::connect(server.local_addr(), CLIENT_ID)
            .map_err(|e| format!("client connect: {e}"))?;
        let mix = if LOOKUP { Mix::Lookup } else { Mix::Update };
        let mut kv = Kv {
            server: Some(server),
            client,
            stream: KvStream::new(env.seed, mix),
            model: KvModel::default(),
            tally: Tally::default(),
            lat_ns: Vec::with_capacity(1 << 16),
            dir: env.dir.clone(),
        };
        for op in kv.stream.prefill(env.seed) {
            kv.step(op);
        }
        if kv.tally.failed != 0 {
            return Err(format!("prefill: {} requests answered wrongly", kv.tally.failed));
        }
        Ok(kv)
    }

    fn run_ops(&mut self, n: u64) {
        for _ in 0..n {
            let op = self.stream.next_op();
            self.step(op);
        }
    }

    fn run_slice(&mut self, dur: Duration) -> SliceStat {
        let start = Instant::now();
        let mut ops = 0u64;
        loop {
            let op = self.stream.next_op();
            let t0 = Instant::now();
            let got = issue(&mut self.client, op);
            let t1 = Instant::now();
            self.lat_ns.push((t1 - t0).as_nanos() as u64);
            self.tally.check(got == Some(self.model.apply(op)));
            ops += 1;
            if t1 - start >= dur {
                return SliceStat::reduce(ops, (t1 - start).as_secs_f64(), &mut self.lat_ns);
            }
        }
    }

    fn footprint(&self) -> (u64, u64) {
        let store = self.server.as_ref().expect("running").store();
        (store.heap().bump_granules() as u64 * 64, self.model.items())
    }

    /// Stops the service and re-opens its heap: every key of the key space
    /// against the model, then the queue drained front to back.
    fn finish(&mut self) -> Result<(), String> {
        self.close();
        nvm::tid::set_tid(0);
        let (_store, map, queue) = open_store(&self.dir)?;
        for key in 1..=KEY_SPACE {
            self.tally.check(map.find(0, key) == self.model.contains(key));
        }
        for want in self.model.queued() {
            self.tally.check(queue.dequeue(0) == Some(want));
        }
        self.tally.check(queue.dequeue(0).is_none());
        Ok(())
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}

impl<const LOOKUP: bool> Drop for Kv<LOOKUP> {
    fn drop(&mut self) {
        self.close();
        let _ = std::fs::remove_file(heap_path(&self.dir));
    }
}
