//! The KV server: tid lanes over a recoverable [`Store`].
//!
//! # Exactly-once request path
//!
//! Connections are accepted on a listener thread; each connection gets one
//! thread that parses frames and runs every request itself — the paper's
//! one process `q` per operation, with no second thread in between. The
//! server holds N **lanes**, each a mutex bound to one registered process
//! slot (tid). A request locks lane `hash(client_id) % N`, adopts the
//! lane's tid, runs the whole exactly-once sequence inline, releases the
//! lane, and only then writes the socket. Routing is deterministic, so all
//! requests of one client serialize through one lane, which is what makes
//! the dedup check and the apply a single-threaded sequence per client; the
//! same lock gives the lane's tid-keyed state (recovery slot, allocator
//! thread cache, EBR slot) and the client's response-table slot one owner at
//! a time. The in-flight request is tracked by the paper's per-process
//! recovery slot *and* by the client's own 64-byte slot in the
//! [`ResponseTable`] — the one durable record a request writes: its
//! `pending` word names the op-ID being applied and the tid applying it,
//! and the slot's watermark store retires it.
//!
//! Order per request with an effect (see `isb::resptable` for the
//! crash-window argument): failover check (the client's slot is in flight
//! under a dead peer's tid → `Recovering`) → dedup check → the invocation
//! record: the lane's `RD_q` stored as the slot's `prior`, then `pending`,
//! the line noted but not fenced (the structure's first fence drains it),
//! and with it the line of the slot whose write-back the lane's previous
//! request deferred → structure op, whose prologue runs no invocation glue:
//! the record stands in for it → response finalize (`resp`, then
//! `last_seq`, on the same line) → `RD_q`'s reference on `prior` released
//! if the op moved `RD_q` → socket acknowledgement. The finalize fences
//! only when the request changed nothing: then one write-back, one
//! `psync`. A request whose last attempt took effect acks on the `psync`
//! that made its descriptor's `DONE` bit durable — the descriptor holds
//! the response, and recovery answers from it — and leaves the slot's line
//! noted for the lane's next fence. The response table's client slot is
//! then one line and one fence for a request that changes nothing (a `put`
//! of a present key, a `del` of an absent one, a `deq` on empty), whose
//! structure operation costs nothing at all, and two lines and no fence of
//! its own for one that does — one line when the lane's previous request
//! deferred the same slot on the same thread, whose line the note finds
//! pending; one more when that slot is another client's, or was deferred
//! on another connection's thread, which this request's own fence must
//! write back. Nothing of the request resets the lane's recovery line.
//!
//! A `get` takes none of that path. It is unsequenced (`op_seq = 0`, see
//! [`crate::proto`]) and answered under its lane by the map's `find` before
//! registration: no response-table call, no in-flight record. Recovery owes
//! a read nothing — killed in flight, it resolves to nothing and the
//! client's re-issue reads afresh — so a read records nothing either, and
//! its `find` runs no invocation glue: the `get` marks its invocation
//! recorded ([`isb::recovery::mark_recorded`]) as a sequenced request's
//! record does, so it costs 0 lines and 0 fences, and the lane's `RD_q`
//! keeps naming the descriptor a deferred response is read from. A `get`
//! that carries a number is answered the same way: the number is echoed,
//! never recorded.
//!
//! [`parse_request`] refuses, before any of this, every identifier and
//! argument a later layer would assert on (reserved client ids, sentinel
//! keys, unencodable values, sequence numbers beyond the packed word, an
//! unnumbered write), so a hostile frame costs its sender a typed error and
//! never a lane.
//!
//! # Restart
//!
//! [`Server::start`] opens the store with the standard attach pipeline
//! (replay → scrub → census → sweep); `Store` resolves every in-flight
//! op-ID to Completed-with-response or Restart against the replay decisions
//! before the constructor returns, and only then does the server bind and
//! accept. Every server confines its lanes to its process's participant
//! tid band and runs a healer thread that calls [`Store::heal_peers`], so
//! any number of server processes (up to
//! [`nvm::mapped::PART_SLOTS`]) can front one heap, and a SIGKILLed peer
//! server's in-flight requests
//! resolve online while this process keeps serving; until that happens,
//! sequenced requests from the dead peer's clients are answered
//! [`Status::Recovering`] rather than risking a double apply (their
//! unsequenced `get`s are answered: whichever side of the pending write
//! they read is a legal linearisation point for it).
//!
//! # Crash injection
//!
//! For the SIGKILL conformance suite the server self-kills (real `SIGKILL`
//! via [`nvm::die_sigkill`]) at a seeded request-path stage, configured by
//! environment: `ISB_KV_KILL_POINT` ∈ `accept|parse|invoke|preack|postack`
//! and `ISB_KV_KILL_AFTER=<n>` (the n-th hit of that point dies).

use crate::proto::{
    encode_response, parse_request, read_frame, Frame, OpCode, Request, Response, Status,
};
use isb::engine::{res_val, RES_FALSE, RES_TRUE, RES_UNIT};
use isb::hashmap::RHashMap;
use isb::queue::RQueue;
use isb::recovery::AttachError;
use isb::resptable::ResponseTable;
use isb::store::Store;
use nvm::mapped::{MappedHeap, MappedNvm};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Structure tuning arm the service opens its structures with: `Isb-LP`,
/// the one arm the system ships. A heap whose `kv` / `jobs` entries were
/// created under another arm is refused with
/// [`AttachError::CfgMismatch`] before the listener is bound.
pub const ARM: u8 = isb::arm::LP;
/// Catalog name of the service's hash map.
pub const MAP_NAME: &str = "kv";
/// Catalog name of the service's queue.
pub const QUEUE_NAME: &str = "jobs";
/// Most tid lanes one server runs: its participant's tid band less the tid
/// its attach and healer use.
pub const MAX_LANES: usize = nvm::mapped::PART_TIDS - 1;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Heap file path.
    pub path: PathBuf,
    /// Heap size on creation.
    pub heap_bytes: usize,
    /// Hash-map shard count (power of two).
    pub shards: usize,
    /// Tid lanes: how many requests of different clients may run at once,
    /// `1..=`[`MAX_LANES`] (the process's 8-tid participant band holds the
    /// attach/healer tid and the lanes); [`Server::start`] refuses any
    /// other count with [`ServeError::Lanes`].
    pub workers: usize,
    /// Bind address (port 0 picks a free port).
    pub addr: SocketAddr,
}

impl Config {
    /// A loopback config with small defaults.
    pub fn new(path: impl Into<PathBuf>) -> Config {
        Config {
            path: path.into(),
            heap_bytes: 32 << 20,
            shards: 8,
            workers: 2,
            addr: "127.0.0.1:0".parse().expect("loopback"),
        }
    }
}

/// Typed server failures.
#[derive(Debug)]
pub enum ServeError {
    /// Store attach failed.
    Attach(AttachError),
    /// Socket-level failure.
    Io(io::Error),
    /// [`Config::workers`] outside `1..=`[`MAX_LANES`].
    Lanes(usize),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Attach(e) => write!(f, "attach: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Lanes(n) => write!(f, "{n} lanes asked, a server runs 1..={MAX_LANES}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AttachError> for ServeError {
    fn from(e: AttachError) -> Self {
        ServeError::Attach(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Seeded crash-injection stage (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// After accepting a connection.
    Accept,
    /// After parsing a request frame, before dispatch.
    Parse,
    /// After the durable in-flight record, before the structure op (a
    /// `get`: before its `find`).
    Invoke,
    /// After the response is recoverable — finalized, or deferred behind
    /// its done descriptor — before the socket write (a `get`: after its
    /// `find`).
    PreAck,
    /// After the acknowledgement reached the socket.
    PostAck,
}

struct KillSpec {
    point: KillPoint,
    after: AtomicU64,
}

impl KillSpec {
    fn from_env() -> Option<KillSpec> {
        let point = match std::env::var("ISB_KV_KILL_POINT").ok()?.as_str() {
            "accept" => KillPoint::Accept,
            "parse" => KillPoint::Parse,
            "invoke" => KillPoint::Invoke,
            "preack" => KillPoint::PreAck,
            "postack" => KillPoint::PostAck,
            _ => return None,
        };
        let after = std::env::var("ISB_KV_KILL_AFTER")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(1)
            .max(1);
        Some(KillSpec { point, after: AtomicU64::new(after) })
    }

    fn hit(&self, p: KillPoint) {
        if self.point == p && self.after.fetch_sub(1, Ordering::Relaxed) == 1 {
            nvm::die_sigkill();
        }
    }
}

fn maybe_kill(spec: &Option<KillSpec>, p: KillPoint) {
    if let Some(s) = spec {
        s.hit(p);
    }
}

/// State shared by the acceptor and every connection thread.
struct Shared {
    map: Arc<RHashMap<MappedNvm, ARM>>,
    queue: Arc<RQueue<MappedNvm, ARM>>,
    resptab: ResponseTable,
    /// This process's participant tid band: its first tid is the attach /
    /// healer tid, and lane `i` owns tid `own_band.start + 1 + i`.
    own_band: Range<usize>,
    /// Lane `i`'s mutex: holding it is what makes the holder that tid's only
    /// user.
    lanes: Vec<Mutex<()>>,
    stop: AtomicBool,
    /// The listener error that ended the acceptor, until someone asks.
    listener_error: Mutex<Option<io::Error>>,
    kill: Option<KillSpec>,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::stop`] for a graceful shutdown (tests that SIGKILL the process
/// never get that far, by design).
pub struct Server {
    addr: SocketAddr,
    /// Declared (so dropped) before `store`: the structure handles go first.
    shared: Arc<Shared>,
    store: Arc<Store>,
    acceptor: Option<JoinHandle<()>>,
    healer: Option<JoinHandle<()>>,
}

impl Server {
    /// Opens (recovering, or joining a heap live peers serve) the store,
    /// binds, and starts serving. The calling thread's tid is (re)bound to
    /// the participant band's first tid — that tid doubles as the healer's,
    /// so don't run structure ops on the calling thread while the server
    /// lives.
    pub fn start(cfg: Config) -> Result<Server, ServeError> {
        if !(1..=MAX_LANES).contains(&cfg.workers) {
            return Err(ServeError::Lanes(cfg.workers));
        }
        nvm::tid::set_tid(0);
        let store = Arc::new(Store::open_sized(&cfg.path, cfg.heap_bytes)?);
        // Lane tids: the participant's 8-tid band (first tid = attach +
        // healer).
        let slot = store.heap().my_participant().expect("registered participant");
        let own_band = MappedHeap::tid_band(slot);
        nvm::tid::set_tid(own_band.start);
        let map = store.hashmap::<ARM>(MAP_NAME, cfg.shards)?;
        let queue = store.queue::<ARM>(QUEUE_NAME)?;

        let listener = TcpListener::bind(cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            map,
            queue,
            resptab: store.response_table(),
            own_band,
            lanes: (0..cfg.workers).map(|_| Mutex::new(())).collect(),
            stop: AtomicBool::new(false),
            listener_error: Mutex::new(None),
            kill: KillSpec::from_env(),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kv-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn acceptor")
        };
        let healer = {
            let store = Arc::clone(&store);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kv-healer".into())
                .spawn(move || {
                    nvm::tid::set_tid(shared.own_band.start);
                    while !shared.stop.load(Ordering::Acquire) {
                        // Dead peers resolve under a recovery lease;
                        // losing the lease race to another survivor is
                        // fine (they finish the job).
                        let _ = store.heal_peers();
                        std::thread::sleep(Duration::from_millis(10));
                    }
                })
                .expect("spawn healer")
        };
        Ok(Server { addr, store, acceptor: Some(acceptor), healer: Some(healer), shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying store (e.g. for snapshots in tests).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Connection threads the server still holds a handle for (finished
    /// ones are reaped on the next accept).
    pub fn conn_handles(&self) -> usize {
        self.shared.conns.lock().expect("conn thread list poisoned").len()
    }

    /// Whether the server still accepts connections: `false` once
    /// [`Server::stop`] began — or once the listener failed for good, which
    /// stops the server the same way ([`Server::listener_error`] has why).
    pub fn is_serving(&self) -> bool {
        !self.shared.stop.load(Ordering::Acquire)
    }

    /// Takes the listener error that ended the acceptor, if one did.
    pub fn listener_error(&self) -> Option<io::Error> {
        self.shared.listener_error.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Graceful shutdown: stop accepting, drain connections, join all, then
    /// write back every response whose write-back a lane deferred.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(h) = self.healer.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for c in conns {
            let _ = c.join();
        }
        self.shared.resptab.flush_deferred();
    }
}

/// What the acceptor does with one `accept` result.
enum AcceptStep {
    /// A client: give it a connection thread.
    Serve(TcpStream),
    /// Nothing to serve, and nothing wrong with the listener: back off, retry.
    Retry,
    /// The listener is unusable.
    Fatal(io::Error),
}

/// The acceptor's one decision. A failed `accept` is usually about the
/// *connection* (the client reset during the handshake), the call (a
/// signal; nothing queued on the non-blocking listener) or a resource that
/// comes back (descriptors, buffers) — none of which may end a server that
/// holds the heap.
fn accept_step(accepted: io::Result<(TcpStream, SocketAddr)>) -> AcceptStep {
    use io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted, WouldBlock};
    // Linux errno values: ENOMEM, ENFILE, EMFILE, ENOBUFS.
    const EXHAUSTED: [i32; 4] = [12, 23, 24, 105];
    match accepted {
        Ok((stream, _)) => AcceptStep::Serve(stream),
        Err(e)
            if matches!(
                e.kind(),
                Interrupted | ConnectionAborted | ConnectionReset | WouldBlock
            ) || e.raw_os_error().is_some_and(|code| EXHAUSTED.contains(&code)) =>
        {
            AcceptStep::Retry
        }
        Err(e) => AcceptStep::Fatal(e),
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::Acquire) {
        match accept_step(listener.accept()) {
            AcceptStep::Serve(stream) => {
                maybe_kill(&shared.kill, KillPoint::Accept);
                let sh = Arc::clone(&shared);
                // A failed spawn drops the stream: the client's journal
                // retries on a new connection.
                let Ok(h) = std::thread::Builder::new()
                    .name("kv-conn".into())
                    .spawn(move || conn_loop(stream, sh))
                else {
                    continue;
                };
                // Reap on accept, or a long-lived server with reconnecting
                // clients grows this list without bound.
                let mut conns = shared.conns.lock().unwrap();
                conns.retain(|c| !c.is_finished());
                conns.push(h);
            }
            AcceptStep::Retry => std::thread::sleep(Duration::from_millis(5)),
            AcceptStep::Fatal(e) => {
                *shared.listener_error.lock().unwrap_or_else(|e| e.into_inner()) = Some(e);
                shared.stop.store(true, Ordering::Release);
            }
        }
    }
}

fn conn_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let stop_fn = || shared.stop.load(Ordering::Acquire);
    loop {
        let frame = match read_frame(&mut stream, &stop_fn) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean close or stop
            Err(_) => return,   // torn frame / transport error
        };
        let payload = match frame {
            Frame::Payload(p) => p,
            Frame::Bad(status) => {
                // The stream is unsynchronized: answer typed, then close.
                let _ = stream.write_all(&encode_response(&Response::err(status, 0)));
                return;
            }
        };
        let resp = match parse_request(&payload) {
            Err(status) => Response::err(status, 0),
            Ok(req) => {
                maybe_kill(&shared.kill, KillPoint::Parse);
                let Some(resp) = on_lane(&shared, &req) else { return };
                resp
            }
        };
        if stream.write_all(&encode_response(&resp)).is_err() {
            return;
        }
        let _ = stream.flush();
        maybe_kill(&shared.kill, KillPoint::PostAck);
        if resp.status.is_fatal() {
            return;
        }
    }
}

/// Runs `req` under its client's lane and that lane's tid; `None` when the
/// lane is poisoned — a request panicked mid-sequence on this tid, and its
/// recovery state is only safe to reuse after a restart.
fn on_lane(shared: &Shared, req: &Request) -> Option<Response> {
    let lane = route(req.client_id, shared.lanes.len());
    let _guard = shared.lanes[lane].lock().ok()?;
    let tid = shared.own_band.start + 1 + lane;
    nvm::tid::set_tid(tid);
    if !shared.resptab.holds_only_deferred(tid) {
        // A deferred slot's line this thread noted that is not this lane's
        // to carry: another connection's request on the lane has since
        // handed it over, or another lane deferred it and hands it over
        // itself. A write-back without a fence only adds durability, and
        // it leaves this thread's set to this request.
        <MappedNvm as nvm::Persist>::coal_drain();
    }
    let resp = handle(shared, tid, req);
    // `begin_op` leaves the client slot's line noted and unfenced; the
    // operation's first fence or `finish_op`'s `psync` drains it, unless
    // `finish_op` deferred it behind the done descriptor `RD_q` names. It
    // also marks the invocation recorded, and only the structure
    // operation's prologue consumes that.
    debug_assert!(
        shared.resptab.holds_only_deferred(tid) && shared.resptab.deferred_is_recoverable(tid),
        "lane released with a line pending that no deferred response explains"
    );
    debug_assert!(!isb::recovery::recorded_pending(), "lane released with an unconsumed record");
    Some(resp)
}

/// Client → lane routing. Deterministic, so one client's requests always
/// serialize through the same lane (across connections too).
fn route(client_id: u64, n: usize) -> usize {
    (client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % n
}

/// One request, applied exactly once (see module docs for the ordering). An
/// unsequenced `get` is answered as the map stands, before any of it.
fn handle(ctx: &Shared, pid: usize, req: &Request) -> Response {
    if req.op == OpCode::Get {
        // Unsequenced: no slot, no in-flight record. Killed before its
        // answer, it resolves to nothing at all, and the client's re-issue
        // is a fresh read — a legal linearisation. Marked recorded, its
        // `find` runs no glue: `RD_q` keeps naming the descriptor a
        // deferred response is recovered from.
        maybe_kill(&ctx.kill, KillPoint::Invoke);
        isb::recovery::mark_recorded(pid);
        let value = apply(ctx, pid, req);
        maybe_kill(&ctx.kill, KillPoint::PreAck);
        nvm::stats::count_kv_requests(1);
        return Response { status: Status::Ok, op_seq: req.op_seq, value };
    }
    let Some(client_idx) = ctx.resptab.register(req.client_id) else {
        return Response::err(Status::TableFull, req.op_seq);
    };
    if ctx.resptab.foreign_inflight(req.client_id, ctx.own_band.clone()) {
        // The client's previous request died with a peer process whose
        // recovery hasn't resolved it; applying now could double-apply.
        // The healer's last store to the slot is the one that ends the
        // in-flight state, so past this check the pair below is resolved.
        return Response::err(Status::Recovering, req.op_seq);
    }
    let (last_seq, stored) = ctx.resptab.lookup(req.client_id).expect("registered above");
    if req.op_seq == last_seq && last_seq != 0 {
        // Retry of the acknowledged operation: replay the original
        // response from the durable table; nothing is re-applied.
        nvm::stats::count_kv_dedup_hits(1);
        return Response { status: Status::Ok, op_seq: req.op_seq, value: stored };
    }
    if req.op_seq <= last_seq {
        return Response::err(Status::StaleSeq, req.op_seq);
    }
    if req.op_seq != last_seq + 1 {
        return Response::err(Status::SeqGap, req.op_seq);
    }
    // The in-flight record is the invocation record too: it holds the
    // lane's `RD_q` as `prior`, which pins a later Completed replay
    // decision to *this* op-ID (see `isb::resptable`).
    ctx.resptab.begin_op(pid, req.client_id, req.op_seq, req.op as u64, req.arg);
    maybe_kill(&ctx.kill, KillPoint::Invoke);
    let value = apply(ctx, pid, req);
    ctx.resptab.finish_op(pid, client_idx, req.op_seq, value);
    let prior = ctx.resptab.prior(client_idx);
    match req.op {
        OpCode::Put | OpCode::Del => ctx.map.release_prior(pid, prior),
        OpCode::Enq | OpCode::Deq => ctx.queue.release_prior(pid, prior),
        OpCode::Get => unreachable!("a get is answered unsequenced"),
    }
    maybe_kill(&ctx.kill, KillPoint::PreAck);
    nvm::stats::count_kv_requests(1);
    Response { status: Status::Ok, op_seq: req.op_seq, value }
}

/// The structure operation `req` names, and its encoded result word.
fn apply(ctx: &Shared, pid: usize, req: &Request) -> u64 {
    let truth = |b: bool| if b { RES_TRUE } else { RES_FALSE };
    match req.op {
        OpCode::Put => truth(ctx.map.insert(pid, req.arg)),
        OpCode::Del => truth(ctx.map.delete(pid, req.arg)),
        OpCode::Get => truth(ctx.map.find(pid, req.arg)),
        OpCode::Enq => {
            ctx.queue.enqueue(pid, req.arg);
            RES_UNIT
        }
        OpCode::Deq => match ctx.queue.dequeue(pid) {
            Some(v) => res_val(v),
            None => isb::engine::RES_EMPTY,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, KvClient};

    #[test]
    fn accept_errors_end_the_acceptor_only_when_the_listener_is_gone() {
        use io::ErrorKind::*;
        for kind in [ConnectionAborted, ConnectionReset, Interrupted, WouldBlock] {
            assert!(matches!(accept_step(Err(kind.into())), AcceptStep::Retry), "{kind:?}");
        }
        for errno in [12, 23, 24, 105] {
            let e = io::Error::from_raw_os_error(errno);
            assert!(matches!(accept_step(Err(e)), AcceptStep::Retry), "errno {errno}");
        }
        assert!(matches!(accept_step(Err(InvalidInput.into())), AcceptStep::Fatal(_)));
        let ebadf = io::Error::from_raw_os_error(9);
        assert!(matches!(accept_step(Err(ebadf)), AcceptStep::Fatal(_)));
    }

    /// The upgrade path: earlier builds stamped `kv` / `jobs` with the
    /// retired `Isb-Coal` arm (byte 2 of the entry's configuration word),
    /// and a store could place the paper's `Isb` (0) and `Isb-Opt` (1).
    /// This build refuses such a heap with a typed, readable error before it
    /// binds (the address is taken: a bind would answer `Io`) and before it
    /// writes anything of its own. The heap is made under this build's arm
    /// and the `kv` entry's arm byte patched in the file; patched back, the
    /// heap opens and holds what it held. (Not byte-identical: the attach
    /// that must precede reading the catalog advances the attach epoch and
    /// rebuilds the allocator's free stacks, as every open does.)
    #[test]
    fn a_heap_of_the_previous_arm_is_refused_typed_and_intact() {
        use std::os::unix::fs::FileExt;
        let dir = std::env::temp_dir().join(format!("isb_kv_upgrade_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = Config::new(dir.join("kv.heap"));
        cfg.heap_bytes = 8 << 20;
        let open = || {
            nvm::tid::set_tid(0);
            let store = Store::open_sized(&cfg.path, cfg.heap_bytes).expect("the heap opens");
            let map = store.hashmap::<ARM>(MAP_NAME, cfg.shards).expect("kv");
            let queue = store.queue::<ARM>(QUEUE_NAME).expect("jobs");
            (map, queue, store)
        };
        // Catalog slot 0 is `kv`, created first; its arm is byte 4 of entry
        // word 1, the configuration word.
        let (catalog_at, arm_at) = {
            let (map, queue, store) = open();
            assert!(map.insert(0, 42));
            queue.enqueue(0, 7);
            let heap = store.heap();
            let catalog = heap.root_get(isb::recovery::rootkeys::CATALOG).expect("catalog");
            let at = (catalog as usize - heap.base() as usize) as u64;
            (at, at + 8 + 4)
        };
        let file = std::fs::OpenOptions::new().read(true).write(true).open(&cfg.path).unwrap();
        let catalog = || {
            let mut block =
                vec![0u8; nvm::mapped::CATALOG_SLOTS * nvm::mapped::CATALOG_ENTRY_BYTES];
            file.read_exact_at(&mut block, catalog_at).unwrap();
            block
        };
        let mut arm = [0u8];
        file.read_exact_at(&mut arm, arm_at).unwrap();
        assert_eq!(arm, [ARM], "slot 0 is the kv entry");
        for (stamp, was) in [(0, "Isb"), (1, "Isb-Opt"), (2, "Isb-Coal")] {
            file.write_all_at(&[stamp], arm_at).unwrap();
            let (bytes, stamped) = (std::fs::metadata(&cfg.path).unwrap().len(), catalog());
            let taken = TcpListener::bind("127.0.0.1:0").expect("bind");
            let refused =
                Server::start(Config { addr: taken.local_addr().unwrap(), ..cfg.clone() })
                    .err()
                    .expect("served another arm's heap");
            let ServeError::Attach(AttachError::CfgMismatch { name, .. }) = &refused else {
                panic!("arm {stamp}: expected CfgMismatch, got {refused}");
            };
            assert_eq!(name, MAP_NAME);
            assert_eq!(
                refused.to_string(),
                format!(
                    "attach: entry \"kv\" was created with arm {was} (8 shards), \
                     this build opens it with Isb-LP"
                )
            );
            let grown = std::fs::metadata(&cfg.path).unwrap().len();
            assert_eq!(grown, bytes, "arm {stamp}: the refusal grew the heap");
            assert!(catalog() == stamped, "arm {stamp}: the refusal wrote the catalog");
            file.write_all_at(&[ARM], arm_at).unwrap();
            let (map, queue, store) = open();
            assert_eq!(
                store.entries().len(),
                2,
                "arm {stamp}: the refusal appended to the catalog"
            );
            assert!(map.find(0, 42) && !map.find(0, 43), "arm {stamp}");
            // The queue's one value goes back in, for the next arm's open.
            assert_eq!((queue.dequeue(0), queue.dequeue(0)), (Some(7), None), "arm {stamp}");
            queue.enqueue(0, 7);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A lane count the participant band cannot hold is refused typed,
    /// before the heap file is created.
    #[test]
    fn a_lane_count_outside_the_band_is_refused() {
        let path = std::env::temp_dir().join(format!("isb_kv_lanes_{}", std::process::id()));
        for n in [0, MAX_LANES + 1, 63] {
            let mut cfg = Config::new(&path);
            cfg.workers = n;
            match Server::start(cfg) {
                Err(e @ ServeError::Lanes(m)) => {
                    assert_eq!(m, n);
                    assert_eq!(e.to_string(), format!("{n} lanes asked, a server runs 1..=7"));
                }
                other => panic!("{n} lanes: expected Lanes, got {:?}", other.err()),
            }
            assert!(!path.exists(), "{n} lanes: the refusal created the heap");
        }
    }

    /// The release check of [`on_lane`]: a lane is released with no line
    /// pending on the thread that ran the request but the one of a slot
    /// whose write-back `finish_op` deferred, and only while the lane's
    /// `RD_q` names a done descriptor other than that slot's `prior`. It
    /// catches a `finish_op` that stops draining the client slot's line
    /// `begin_op` noted after a request that changed nothing, and a `get`
    /// whose glue moves `RD_q` away from a deferred response (its barrier
    /// drains the line). Every request kind runs on this thread, which
    /// checks the set itself so the check bites in release builds too;
    /// then a second client of the lane runs on a thread of its own, whose
    /// hand-over leaves this thread's note to be written back on its next
    /// request.
    #[test]
    fn a_lane_is_released_with_no_line_pending() {
        let dir = std::env::temp_dir().join(format!("isb_kv_lane_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = Config::new(dir.join("kv.heap"));
        cfg.heap_bytes = 8 << 20;
        cfg.workers = 1;
        let server = Server::start(cfg).expect("server start");
        let sh = &server.shared;
        let tid = sh.own_band.start + 1;
        let run = |client_id, op, op_seq, arg| {
            let req = Request { op, client_id, op_seq, arg };
            let resp = on_lane(sh, &req).expect("lane not poisoned");
            assert_eq!(resp.status, Status::Ok, "{op:?}");
            assert!(sh.resptab.holds_only_deferred(tid), "{op:?}: a line pending unexplained");
            assert!(sh.resptab.deferred_is_recoverable(tid), "{op:?}: deferred behind no answer");
            nvm::coalesce::pending()
        };
        // `(op, op_seq, arg, lines left pending)`: every kind, the `get`s
        // unsequenced; a request with an effect defers its slot's line.
        let requests = [
            (OpCode::Put, 1, 42, 1),
            (OpCode::Put, 2, 42, 0),
            (OpCode::Get, 0, 42, 0),
            (OpCode::Put, 3, 43, 1),
            (OpCode::Get, 0, 43, 1),
            (OpCode::Del, 4, 42, 1),
            (OpCode::Del, 5, 42, 0),
            (OpCode::Enq, 6, 7, 1),
            (OpCode::Deq, 7, 0, 1),
            (OpCode::Deq, 8, 0, 0),
            (OpCode::Put, 9, 44, 1),
        ];
        for (op, op_seq, arg, pending) in requests {
            assert_eq!(run(7, op, op_seq, arg), pending, "{op:?} {op_seq}: lines left pending");
        }
        let other = std::thread::scope(|t| t.spawn(|| run(8, OpCode::Put, 1, 45)).join().unwrap());
        assert_eq!(other, 1, "the second client's put defers its own slot");
        assert_eq!(nvm::coalesce::pending(), 1, "this thread still holds the handed-over line");
        assert_eq!(run(7, OpCode::Get, 0, 44), 0, "a stale note is written back at the lane");
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A server holds back a client's sequenced requests while
    /// the client's slot is in flight under a peer's tid (`Recovering`),
    /// but answers its `get`s from the map as it stands. The peer's write —
    /// its record names a tid of a band no participant owns, so no healer
    /// resolves it under the test — is pending across two `get`s of its key,
    /// one before its effect and one after: each is a legal linearisation,
    /// and once the write is finalized its retry is a dedup hit that agrees
    /// with the later `get`.
    #[test]
    fn a_get_is_answered_while_a_peers_write_is_recovering() {
        const CLIENT: u64 = 7;
        const KEY: u64 = 42;
        let dir = std::env::temp_dir().join(format!("isb_kv_peer_get_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = Config::new(dir.join("kv.heap"));
        cfg.heap_bytes = 8 << 20;
        cfg.workers = 1;
        let server = Server::start(cfg).expect("server start");
        let sh = &server.shared;
        let mut c = KvClient::connect(server.local_addr(), CLIENT).expect("connect");
        assert!(c.put(KEY - 1).unwrap(), "op_seq 1, acknowledged");
        let recovering = || {
            let mut probe = KvClient::connect(server.local_addr(), CLIENT).expect("connect");
            probe.recovering_retries = 0;
            matches!(probe.put(KEY), Err(ClientError::Rejected(Status::Recovering)))
        };

        // The peer's `put KEY`, op_seq 2: recorded in flight under its tid.
        let peer = sh.own_band.end + 1;
        sh.resptab.begin_op(peer, CLIENT, 2, OpCode::Put as u64, KEY);
        assert!(recovering(), "the client's writes wait for the peer's recovery");
        assert!(!c.get(KEY).unwrap(), "read before the write's effect");
        // Its effect lands (on a spare tid of this band: the tid the record
        // names only decides who may resolve it).
        nvm::tid::set_tid(sh.own_band.start + 2);
        assert!(sh.map.insert(sh.own_band.start + 2, KEY));
        assert!(recovering(), "still in flight");
        assert!(c.get(KEY).unwrap(), "read after the write's effect");
        assert!(c.pending().is_none() && c.last_acked().unwrap().0.op_seq == 1);

        // Resolved as the healer would: Completed, with the effect's answer.
        let idx = sh.resptab.register(CLIENT).expect("registered");
        sh.resptab.finish_op(peer, idx, 2, RES_TRUE);
        assert_eq!(nvm::coalesce::pending(), 0);
        assert!(!recovering());
        assert!(c.put(KEY).unwrap(), "the retry replays the peer's answer");
        assert!(c.del(KEY).unwrap() && !c.get(KEY).unwrap(), "applied once");
        drop(c);
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_client_that_leaves_without_a_byte_costs_the_next_one_nothing() {
        let dir = std::env::temp_dir().join(format!("isb_kv_accept_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = Config::new(dir.join("kv.heap"));
        cfg.heap_bytes = 8 << 20;
        let server = Server::start(cfg).expect("server start");
        drop(TcpStream::connect(server.local_addr()).expect("first client connects"));
        let mut second = KvClient::connect(server.local_addr(), 7).expect("second client connects");
        assert!(second.put(42).expect("served"));
        assert!(server.is_serving() && server.listener_error().is_none());
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
