//! Inline replica of the KV server's request handler.
//!
//! `kvserve::server::handle` is private, so the KV layers are timed on a
//! replica of it built from the same public calls in the same order
//! (`proto::parse_request` → `ResponseTable::{register, foreign_inflight,
//! lookup}` → `note_invocation` → `begin_op` → map/queue op → `finish_op` →
//! `proto::encode_response`), all on one thread. What the real loopback
//! path costs beyond this is the transport: two socket hops and two thread
//! hand-offs. `trace.replica_pwb_delta` reports whether the replica still
//! issues the persist instructions the real server does — it is the alarm
//! for this file drifting from `server.rs`.

use crate::span::{Layer, Tracer};
use isb::engine::{res_val, RES_EMPTY, RES_FALSE, RES_TRUE, RES_UNIT};
use isb::hashmap::RHashMap;
use isb::queue::RQueue;
use isb::resptable::ResponseTable;
use isb::store::Store;
use isb_benchmark::kv::{self, KvOp, Reply};
use isb_benchmark::ARM;
use kvserve::client::{as_bool, as_dequeued};
use kvserve::proto::{encode_request, encode_response, parse_request, parse_response};
use kvserve::{OpCode, Request, Response, Status};
use nvm::MappedNvm;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// The worker's process id and the band of ids this process owns, as in a
/// one-worker exclusive-heap server.
const PID: usize = 1;
const OWN_BAND: Range<usize> = 0..2;

/// The server side: the store's handles, used from one thread.
pub struct Replica {
    _store: Store,
    map: Arc<RHashMap<MappedNvm, ARM>>,
    queue: Arc<RQueue<MappedNvm, ARM>>,
    resptab: ResponseTable,
}

impl Replica {
    /// Opens (or creates) the KV heap under `dir` as `Server::start` does.
    pub fn open(dir: &Path) -> Result<Replica, String> {
        nvm::tid::set_tid(0);
        let store =
            Store::open_sized(kv::heap_path(dir), kv::HEAP_BYTES).map_err(|e| e.to_string())?;
        let map =
            store.hashmap(kvserve::server::MAP_NAME, kv::SHARDS).map_err(|e| e.to_string())?;
        let queue = store.queue(kvserve::server::QUEUE_NAME).map_err(|e| e.to_string())?;
        let resptab = store.response_table();
        nvm::tid::set_tid(PID);
        Ok(Replica { _store: store, map, queue, resptab })
    }

    /// One request frame in, one response frame out — the root span.
    #[inline]
    pub fn serve(&self, tr: &mut Tracer, frame: &[u8]) -> [u8; 22] {
        tr.enter();
        let resp = match tr.leaf(Layer::ProtoParse, || parse_request(&frame[4..])) {
            Ok(req) => self.handle(tr, &req),
            Err(status) => Response::err(status, 0),
        };
        let out = tr.leaf(Layer::ProtoEncode, || encode_response(&resp));
        tr.exit();
        out
    }

    /// `server::handle`, call for call.
    #[inline]
    fn handle(&self, tr: &mut Tracer, req: &Request) -> Response {
        let Some(client_idx) =
            tr.leaf(Layer::ResptableRegister, || self.resptab.register(req.client_id))
        else {
            return Response::err(Status::TableFull, req.op_seq);
        };
        if tr.leaf(Layer::ResptableForeign, || {
            self.resptab.foreign_inflight(req.client_id, OWN_BAND)
        }) {
            return Response::err(Status::Recovering, req.op_seq);
        }
        let (last_seq, stored) = tr
            .leaf(Layer::ResptableLookup, || self.resptab.lookup(req.client_id))
            .expect("registered above");
        if req.op_seq == last_seq && last_seq != 0 {
            return Response { status: Status::Ok, op_seq: req.op_seq, value: stored };
        }
        if req.op_seq <= last_seq {
            return Response::err(Status::StaleSeq, req.op_seq);
        }
        if req.op_seq != last_seq + 1 {
            return Response::err(Status::SeqGap, req.op_seq);
        }
        tr.leaf(Layer::RecoveryNoteInvocation, || match req.op {
            OpCode::Put | OpCode::Del | OpCode::Get => self.map.note_invocation(PID),
            OpCode::Enq | OpCode::Deq => self.queue.note_invocation(PID),
        });
        tr.leaf(Layer::ResptableBegin, || {
            self.resptab.begin_op(PID, req.client_id, req.op_seq, req.op as u64, req.arg)
        });
        let truth = |b: bool| if b { RES_TRUE } else { RES_FALSE };
        let value = match req.op {
            OpCode::Put => truth(tr.leaf(Layer::HashmapInsert, || self.map.insert(PID, req.arg))),
            OpCode::Del => truth(tr.leaf(Layer::HashmapDelete, || self.map.delete(PID, req.arg))),
            OpCode::Get => truth(tr.leaf(Layer::HashmapFind, || self.map.find(PID, req.arg))),
            OpCode::Enq => {
                tr.leaf(Layer::QueueEnq, || self.queue.enqueue(PID, req.arg));
                RES_UNIT
            }
            OpCode::Deq => match tr.leaf(Layer::QueueDeq, || self.queue.dequeue(PID)) {
                Some(v) => res_val(v),
                None => RES_EMPTY,
            },
        };
        tr.leaf(Layer::ResptableFinish, || {
            self.resptab.finish_op(PID, client_idx, req.op_seq, value)
        });
        Response { status: Status::Ok, op_seq: req.op_seq, value }
    }
}

/// The client side, inline: sequence numbers and the last acknowledged
/// request/response pair, as `KvClient` keeps them.
#[derive(Default)]
pub struct InlineClient {
    acked_seq: u64,
    last_acked: Option<(Request, Response)>,
}

impl InlineClient {
    /// Sends `op` through the replica and decodes the answer; `None` on a
    /// typed error or a replay that differs from the original.
    #[inline]
    pub fn issue(&mut self, server: &Replica, tr: &mut Tracer, op: KvOp) -> Option<Reply> {
        let (opcode, arg) = match op {
            KvOp::Put(k) => (OpCode::Put, k),
            KvOp::Del(k) => (OpCode::Del, k),
            KvOp::Get(k) => (OpCode::Get, k),
            KvOp::Enq(v) => (OpCode::Enq, v),
            KvOp::Deq => (OpCode::Deq, 0),
            KvOp::Replay => {
                let (req, original) = self.last_acked?;
                let again = self.roundtrip(server, tr, &req)?;
                return (again == original).then_some(Reply::SameAsOriginal);
            }
        };
        let req = Request { op: opcode, client_id: kv::CLIENT_ID, op_seq: self.acked_seq + 1, arg };
        let resp = self.roundtrip(server, tr, &req)?;
        if resp.status != Status::Ok {
            return None;
        }
        self.acked_seq = req.op_seq;
        self.last_acked = Some((req, resp));
        Some(match op {
            KvOp::Put(_) | KvOp::Del(_) | KvOp::Get(_) => Reply::Bool(as_bool(resp.value)),
            KvOp::Enq(_) => Reply::Unit,
            _ => Reply::Deq(as_dequeued(resp.value)),
        })
    }

    #[inline]
    fn roundtrip(&self, server: &Replica, tr: &mut Tracer, req: &Request) -> Option<Response> {
        let out = server.serve(tr, &encode_request(req));
        parse_response(&out[4..]).ok()
    }
}
