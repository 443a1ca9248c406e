//! Protocol fuzzing for the KV service wire format (satellite of the
//! exactly-once conformance suite).
//!
//! Two layers:
//!
//! * **Parser properties** — `parse_request`/`read_frame` over arbitrary
//!   byte soup: typed errors only, never a panic, never a read past the
//!   validated length, and encode/parse round-trips are lossless.
//! * **Live-socket fuzz** — a shared in-process [`kvserve::Server`] is fed
//!   adversarial streams (garbage bytes, torn length prefixes, truncated
//!   payloads, oversized prefixes, unknown opcodes, wrong versions, reserved
//!   client IDs, sentinel keys, unencodable values, out-of-range sequence
//!   numbers). Every case asserts the *wedge-freedom* invariant: after
//!   the hostile connection, a well-formed request on a fresh connection
//!   still succeeds, so one bad client can never take the service down —
//!   and for well-framed hostile fields, not even its own lane: the same
//!   client's next valid `op_seq` is accepted on the same connection.

use kvserve::proto::{
    encode_request, parse_request, read_frame, Frame, OpCode, Request, Status, MAX_FRAME, REQ_BYTES,
};
use kvserve::{Config, Server};
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Parser properties (no server)
// ---------------------------------------------------------------------------

/// Every request `parse_request` accepts: ids, keys and values strictly
/// inside their reserved bounds, `op_seq` within the packed word's 56 bits
/// and 0 only on a `get`.
fn arb_request() -> impl Strategy<Value = Request> {
    let arg = 1..u64::MAX - isb::engine::RES_VAL_BASE;
    (1..=5u8, 1..u64::MAX, 0..=isb::resptable::MAX_OP_SEQ, arg).prop_map(
        |(op, client_id, op_seq, arg)| {
            let op = OpCode::from_u8(op).unwrap();
            let op_seq = if op == OpCode::Get { op_seq } else { op_seq.max(1) };
            Request { op, client_id, op_seq, arg }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary payload bytes: `parse_request` answers a typed status or a
    /// request — it never panics, and success implies a perfectly
    /// well-formed frame (re-encoding reproduces the input).
    #[test]
    fn parse_request_total(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        match parse_request(&bytes) {
            Ok(req) => {
                let frame = encode_request(&req);
                // Strip the length prefix: parse_request sees payloads.
                prop_assert_eq!(&frame[4..], &bytes[..]);
            }
            Err(s) => prop_assert!(s != Status::Ok, "error path must carry an error status"),
        }
    }

    /// Encode → parse round-trip is lossless for every valid request.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let frame = encode_request(&req);
        prop_assert_eq!(frame.len(), 4 + REQ_BYTES);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, REQ_BYTES);
        prop_assert_eq!(parse_request(&frame[4..]), Ok(req));
    }

    /// `read_frame` over arbitrary byte streams: every outcome is a typed
    /// frame, a clean end-of-stream, or an I/O error — never a panic, and
    /// `Oversized`/`BadLength` surface without consuming unbounded memory.
    #[test]
    fn read_frame_total(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let mut cur = Cursor::new(bytes);
        for _ in 0..32 {
            match read_frame(&mut cur, &|| false) {
                Ok(Some(Frame::Payload(p))) => prop_assert!(p.len() <= MAX_FRAME && !p.is_empty()),
                Ok(Some(Frame::Bad(s))) => {
                    prop_assert!(matches!(s, Status::BadLength | Status::Oversized));
                    break; // framing is lost; a server closes here
                }
                Ok(None) | Err(_) => break,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Live-socket fuzz
// ---------------------------------------------------------------------------

/// One shared server for every socket case (leaked for the binary's
/// lifetime; each case talks over its own connections).
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("isb_proto_fuzz_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = Config::new(dir.join("kv.heap"));
        cfg.heap_bytes = 8 << 20;
        cfg.shards = 4;
        cfg.workers = 2;
        let server = Server::start(cfg).expect("fuzz server start");
        let addr = server.local_addr();
        // The server lives as long as the binary and is never stopped: its
        // mapping outlives the name, so nothing is left behind.
        std::fs::remove_dir_all(&dir).expect("remove the fuzz heap's directory");
        std::mem::forget(server);
        addr
    })
}

fn fuzz_conn() -> TcpStream {
    let s = TcpStream::connect(server_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Reads whatever the server answers until it closes or pauses; only used
/// to make sure replies to hostile input are themselves well-framed.
fn drain_replies(s: &mut TcpStream) -> Vec<Frame> {
    let mut out = Vec::new();
    s.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
    loop {
        match read_frame(s, &|| false) {
            Ok(Some(f)) => out.push(f),
            Ok(None) | Err(_) => return out,
        }
    }
}

/// The wedge-freedom probe: a fresh connection with a well-formed request
/// must still get `Status::Ok`. Distinct client IDs per probe keep the
/// sequence discipline trivial.
fn assert_alive() {
    static NEXT_PROBE: AtomicU64 = AtomicU64::new(1 << 32);
    let id = NEXT_PROBE.fetch_add(1, Ordering::Relaxed);
    let mut c = kvserve::KvClient::connect(server_addr(), id).expect("probe connect");
    assert!(c.put(id).expect("probe put"), "fresh key must insert");
}

/// Hostile *fields* in a well-formed frame, each of which used to trip an
/// assertion behind the parser (and poison the client's lane): sentinel
/// keys, an enqueue the result encoding cannot hold, the reserved client
/// id, a sequence number wider than the response table's packed word — and
/// one a layer behind it would misread: a write without a number, which
/// only a `get` may go without.
fn hostile_fields(pick: u8, client_id: u64, op_seq: u64) -> (Request, Status) {
    let key_op = [OpCode::Put, OpCode::Del, OpCode::Get][(pick / 8 % 3) as usize];
    match pick % 8 {
        5 | 6 => {
            let op = [OpCode::Put, OpCode::Del, OpCode::Enq, OpCode::Deq][(pick / 8 % 4) as usize];
            (Request { op, client_id, op_seq: 0, arg: 5 }, Status::BadArg)
        }
        0 => (Request { op: key_op, client_id, op_seq, arg: 0 }, Status::BadArg),
        1 => (Request { op: key_op, client_id, op_seq, arg: u64::MAX }, Status::BadArg),
        2 => {
            let arg = u64::MAX - (pick / 8) as u64 % 17;
            (Request { op: OpCode::Enq, client_id, op_seq, arg }, Status::BadArg)
        }
        3 => (Request { op: key_op, client_id: u64::MAX, op_seq, arg: 5 }, Status::BadClientId),
        4 => (Request { op: key_op, client_id: 0, op_seq, arg: 5 }, Status::BadClientId),
        _ => {
            let op_seq = op_seq | (1 + pick as u64 / 8) << 56;
            (Request { op: OpCode::Deq, client_id, op_seq, arg: 0 }, Status::BadArg)
        }
    }
}

/// Builds a hostile byte stream from a strategy-chosen shape.
fn hostile_stream(kind: u8, blob: &[u8], len32: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    match kind % 6 {
        // Raw garbage: whatever the strategy produced, verbatim.
        0 => bytes.extend_from_slice(blob),
        // Torn length prefix: fewer than 4 bytes, then EOF.
        1 => bytes.extend_from_slice(&len32.to_le_bytes()[..(blob.len() % 4)]),
        // Truncated payload: honest prefix, missing tail.
        2 => {
            let claim = (blob.len() as u32).saturating_add(1 + len32 % 64);
            bytes.extend_from_slice(&claim.min(MAX_FRAME as u32).to_le_bytes());
            bytes.extend_from_slice(blob);
        }
        // Oversized prefix: the server must answer `Oversized` and close
        // without ever allocating the claimed length.
        3 => {
            let claim = (MAX_FRAME as u32 + 1).saturating_add(len32);
            bytes.extend_from_slice(&claim.to_le_bytes());
            bytes.extend_from_slice(blob);
        }
        // Well-framed garbage payload (wrong size / version / opcode).
        4 => {
            bytes.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            bytes.extend_from_slice(blob);
        }
        // Valid framing, hostile fields: version/opcode/client_id from the
        // blob, so `BadVersion`/`UnknownOp`/`BadClientId` all get hit.
        _ => {
            let mut payload = [0u8; REQ_BYTES];
            for (i, b) in blob.iter().take(REQ_BYTES).enumerate() {
                payload[i] = *b;
            }
            bytes.extend_from_slice(&(REQ_BYTES as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Hostile streams against the live server: replies (if any) are
    /// well-framed typed errors, the connection ends cleanly, and the
    /// server keeps serving well-formed clients afterwards.
    #[test]
    fn live_server_survives_garbage(
        kind in any::<u8>(),
        blob in prop::collection::vec(any::<u8>(), 0..80),
        len32 in any::<u32>(),
    ) {
        let bytes = hostile_stream(kind, &blob, len32);
        let mut s = fuzz_conn();
        // The server may close mid-write on fatal frames; that is a valid
        // outcome, not a failure.
        let _ = s.write_all(&bytes);
        let _ = s.flush();
        let _ = s.shutdown(std::net::Shutdown::Write);
        for f in drain_replies(&mut s) {
            match f {
                Frame::Payload(p) => {
                    // A hostile blob can (rarely) form a valid request, so
                    // `Ok` is legitimate — the invariant is well-formedness.
                    kvserve::proto::parse_response(&p)
                        .expect("server reply must be well-formed");
                }
                Frame::Bad(s) => prop_assert!(false, "malformed server reply: {s:?}"),
            }
        }
        assert_alive();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// One client, one connection, hence one lane: between every pair of
    /// valid requests it sends frames whose fields no structure accepts.
    /// Each is refused typed before anything durable happens, so the lane
    /// survives, the connection stays open, and the sequence number the
    /// refusal did not consume is accepted next.
    #[test]
    fn hostile_fields_cost_a_typed_error_not_the_lane(
        picks in prop::collection::vec(any::<u8>(), 1..6),
    ) {
        // Four ids for the whole sweep (it must not fill the response
        // table), each with the last sequence number the server acked.
        static ACKED: Mutex<[u64; 4]> = Mutex::new([0; 4]);
        let who = picks[0] as usize % 4;
        let mut acked = ACKED.lock().unwrap_or_else(|e| e.into_inner());
        let client_id = (1 << 40) + who as u64;
        let mut s = fuzz_conn();
        let mut call = |req: &Request| {
            s.write_all(&encode_request(req)).unwrap();
            let Some(Frame::Payload(p)) = read_frame(&mut s, &|| false).expect("reply") else {
                panic!("connection closed on a non-fatal status");
            };
            kvserve::proto::parse_response(&p).expect("well-formed reply")
        };
        for pick in picks {
            let op_seq = acked[who] + 1;
            let (hostile, want) = hostile_fields(pick, client_id, op_seq);
            prop_assert_eq!(call(&hostile).status, want, "{:?}", hostile);
            let valid = Request { op: OpCode::Put, client_id, op_seq, arg: 1 + pick as u64 };
            let resp = call(&valid);
            prop_assert_eq!((resp.status, resp.op_seq), (Status::Ok, op_seq), "after {:?}", hostile);
            acked[who] = op_seq;
        }
    }
}

/// Deterministic spot checks for each typed rejection (the proptest sweep
/// above covers the space; these pin the exact status per shape).
#[test]
fn typed_rejections_pinned() {
    let cases: &[(&[u8], Status)] = &[
        // Oversized length prefix.
        (&[0xff, 0xff, 0xff, 0xff], Status::Oversized),
        // Zero-length frame.
        (&[0, 0, 0, 0], Status::BadLength),
        // Well-framed but wrong payload size.
        (&[2, 0, 0, 0, 1, 1], Status::BadLength),
    ];
    for (bytes, want) in cases {
        let mut s = fuzz_conn();
        s.write_all(bytes).unwrap();
        s.flush().unwrap();
        let reply = read_frame(&mut s, &|| false).expect("reply").expect("frame");
        let Frame::Payload(p) = reply else { panic!("reply not a payload frame") };
        let resp = kvserve::proto::parse_response(&p).expect("well-formed reply");
        assert_eq!(resp.status, *want, "input {bytes:?}");
        // Fatal statuses close the stream.
        let mut rest = Vec::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty(), "no trailing bytes after fatal reply");
    }

    // Field-level rejections on well-framed requests (BadVersion is fatal,
    // the rest are not; each must come back as its exact typed status).
    let reqs: &[([u8; REQ_BYTES], Status)] = &[
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 7; // bad version
            (p, Status::BadVersion)
        },
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 1;
            p[1] = 200; // unknown opcode
            p[2] = 1; // nonzero client id
            (p, Status::UnknownOp)
        },
        {
            let mut p = [0u8; REQ_BYTES];
            p[0] = 1;
            p[1] = 3; // GET with client_id 0
            (p, Status::BadClientId)
        },
        {
            let put = Request { op: OpCode::Put, client_id: 1, op_seq: 0, arg: 5 };
            (encode_request(&put)[4..].try_into().unwrap(), Status::BadArg)
        },
    ];
    for (payload, want) in reqs {
        let mut s = fuzz_conn();
        s.write_all(&(REQ_BYTES as u32).to_le_bytes()).unwrap();
        s.write_all(payload).unwrap();
        s.flush().unwrap();
        let reply = read_frame(&mut s, &|| false).expect("reply").expect("frame");
        let Frame::Payload(p) = reply else { panic!("reply not a payload frame") };
        let resp = kvserve::proto::parse_response(&p).expect("well-formed reply");
        assert_eq!(resp.status, *want);
    }
    assert_alive();
}
