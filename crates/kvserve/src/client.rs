//! The journaling client: op-seq tracking, reconnect, and retry.
//!
//! Every request with an effect carries this client's `(client_id, op_seq)`.
//! The client keeps the last **unacknowledged** one (there is at most one —
//! the protocol is one-in-flight per client) and the last acknowledged
//! request/response pair. A `get` is none of these: it goes out as
//! `op_seq = 0`, touches neither the sequence counter, the pending request
//! nor the acknowledged pair, and a `get` lost to a crash is simply issued
//! again — it changed nothing, so answering it afresh is a legal
//! linearisation. After a server crash the caller reconnects and:
//!
//! * [`KvClient::replay_last_acked`] re-sends the already-acknowledged
//!   request — the server must answer from its durable response table,
//!   byte-identical to the original acknowledgement, without re-applying;
//! * [`KvClient::retry_pending`] re-sends the in-flight request with its
//!   original sequence number — the server either replays the original
//!   response (the crashed attempt completed) or applies it fresh (it
//!   didn't); in both cases exactly once.
//!
//! [`Status::Recovering`] answers (failover to a survivor racing the
//! peer-recovery healer) are retried internally with a short backoff; if
//! the retries exhaust, the request **stays pending** — the dead peer's
//! healer may yet finalize it, so its sequence number cannot be reused —
//! and the caller re-issues it via [`KvClient::retry_pending`]. Every
//! request is bounded by [`KvClient::request_timeout`]; a wedged server
//! (accepts but never answers) fails typed with [`ClientError::TimedOut`]
//! rather than hanging.

use crate::proto::{
    encode_request, parse_response, read_frame, Frame, OpCode, Request, Response, Status,
};
use isb::engine::{val_of, RES_EMPTY, RES_TRUE, RES_UNIT, RES_VAL_BASE};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Typed client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connection died — reconnect and retry).
    Io(io::Error),
    /// The server answered a typed protocol error.
    Rejected(Status),
    /// The server's response frame was malformed.
    BadResponse(Status),
    /// No response within [`KvClient::request_timeout`] (wedged server).
    /// Like [`ClientError::Io`], the request may or may not have been
    /// applied: it stays pending — reconnect and [`KvClient::retry_pending`].
    TimedOut,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Rejected(s) => write!(f, "rejected: {s:?}"),
            ClientError::BadResponse(s) => write!(f, "bad response frame: {s:?}"),
            ClientError::TimedOut => write!(f, "no response within the request deadline"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected client session. See module docs.
pub struct KvClient {
    addr: SocketAddr,
    client_id: u64,
    next_seq: u64,
    stream: Option<TcpStream>,
    pending: Option<Request>,
    last_acked: Option<(Request, Response)>,
    /// Cap on consecutive [`Status::Recovering`] retries (~2 ms apart).
    pub recovering_retries: u32,
    /// Overall per-request deadline (send → response, including internal
    /// [`Status::Recovering`] backoff). A server that accepts but never
    /// answers fails typed ([`ClientError::TimedOut`]) instead of hanging.
    pub request_timeout: Duration,
}

impl KvClient {
    /// Connects to `addr` as `client_id` (nonzero).
    pub fn connect(addr: SocketAddr, client_id: u64) -> io::Result<KvClient> {
        assert_ne!(client_id, 0, "client IDs are nonzero");
        let mut c = KvClient {
            addr,
            client_id,
            next_seq: 1,
            stream: None,
            pending: None,
            last_acked: None,
            recovering_retries: 2000,
            request_timeout: Duration::from_secs(10),
        };
        c.reconnect(addr)?;
        Ok(c)
    }

    /// (Re)establishes the connection — to the same server after a
    /// restart, or to a survivor after failover.
    pub fn reconnect(&mut self, addr: SocketAddr) -> io::Result<()> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        // Short socket timeout: `read_frame` retries `WouldBlock`, so this
        // is the poll interval at which the overall request deadline is
        // checked, not a per-request limit.
        s.set_read_timeout(Some(Duration::from_millis(100)))?;
        self.addr = addr;
        self.stream = Some(s);
        Ok(())
    }

    /// This client's identity.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// The in-flight (sent, unacknowledged) request, if any.
    pub fn pending(&self) -> Option<Request> {
        self.pending
    }

    /// The last acknowledged request and its response.
    pub fn last_acked(&self) -> Option<(Request, Response)> {
        self.last_acked
    }

    fn roundtrip_once(
        &mut self,
        req: &Request,
        deadline: Instant,
    ) -> Result<Response, ClientError> {
        let stream = self.stream.as_mut().ok_or_else(|| {
            ClientError::Io(io::Error::new(io::ErrorKind::NotConnected, "not connected"))
        })?;
        stream.write_all(&encode_request(req))?;
        stream.flush()?;
        // The socket's short read timeout makes `read_frame` poll this
        // closure; past the deadline it returns `Ok(None)` and the wait
        // surfaces as a typed timeout instead of hanging forever on a
        // wedged (accepting but unresponsive) server.
        let expired = || Instant::now() >= deadline;
        let frame = read_frame(stream, &expired)?;
        let payload = match frame {
            Some(Frame::Payload(p)) => p,
            Some(Frame::Bad(s)) => return Err(ClientError::BadResponse(s)),
            None if expired() => return Err(ClientError::TimedOut),
            None => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                )))
            }
        };
        parse_response(&payload).map_err(ClientError::BadResponse)
    }

    /// Sends `req` and waits for its response, absorbing
    /// [`Status::Recovering`] backpressure, all under one
    /// [`KvClient::request_timeout`] deadline. Transport errors and
    /// timeouts bubble up with the request still recorded as pending.
    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let deadline = Instant::now() + self.request_timeout;
        let mut spins = self.recovering_retries;
        loop {
            let resp = self.roundtrip_once(req, deadline)?;
            if resp.status == Status::Recovering && spins > 0 && Instant::now() < deadline {
                spins -= 1;
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            return Ok(resp);
        }
    }

    fn finish(&mut self, req: Request, resp: Response) -> Result<u64, ClientError> {
        if resp.status != Status::Ok {
            // Refusal statuses are answered before the server applies
            // anything, so the seq was not consumed and pending can be
            // released. `Recovering` proves no such thing: the dead peer's
            // healer may yet finalize this very op-seq as Completed, and
            // reusing the seq for a different operation would dedup-hit
            // the old response and silently drop the new one — keep it
            // pending; the caller retries with the original seq.
            if resp.status != Status::Recovering {
                self.pending = None;
            }
            return Err(ClientError::Rejected(resp.status));
        }
        self.pending = None;
        self.last_acked = Some((req, resp));
        self.next_seq = req.op_seq + 1;
        Ok(resp.value)
    }

    /// Issues a fresh operation. At most one may be in flight: call
    /// [`KvClient::retry_pending`] first after a transport error. A `get`
    /// goes out unsequenced and leaves the session's sequence state as it
    /// was.
    pub fn call(&mut self, op: OpCode, arg: u64) -> Result<u64, ClientError> {
        assert!(self.pending.is_none(), "retry the pending request first");
        if op == OpCode::Get {
            let req = Request { op, client_id: self.client_id, op_seq: 0, arg };
            let resp = self.roundtrip(&req)?;
            return match resp.status {
                Status::Ok => Ok(resp.value),
                status => Err(ClientError::Rejected(status)),
            };
        }
        let req = Request { op, client_id: self.client_id, op_seq: self.next_seq, arg };
        self.pending = Some(req);
        let resp = self.roundtrip(&req)?;
        self.finish(req, resp)
    }

    /// Re-sends the pending request with its **original** sequence number.
    /// Returns `Ok(None)` when nothing was pending.
    pub fn retry_pending(&mut self) -> Result<Option<u64>, ClientError> {
        let Some(req) = self.pending else { return Ok(None) };
        let resp = self.roundtrip(&req)?;
        self.finish(req, resp).map(Some)
    }

    /// Re-sends the last **acknowledged** request and returns the server's
    /// answer alongside the originally received response — the
    /// exactly-once conformance check asserts they are identical (the
    /// server replays its durable copy; nothing is re-applied).
    pub fn replay_last_acked(&mut self) -> Result<Option<(Response, Response)>, ClientError> {
        let Some((req, orig)) = self.last_acked else { return Ok(None) };
        let resp = self.roundtrip(&req)?;
        Ok(Some((resp, orig)))
    }

    /// `PUT key` → whether the key was newly inserted.
    pub fn put(&mut self, key: u64) -> Result<bool, ClientError> {
        Ok(self.call(OpCode::Put, key)? == RES_TRUE)
    }

    /// `DEL key` → whether the key was present.
    pub fn del(&mut self, key: u64) -> Result<bool, ClientError> {
        Ok(self.call(OpCode::Del, key)? == RES_TRUE)
    }

    /// `GET key` → membership.
    pub fn get(&mut self, key: u64) -> Result<bool, ClientError> {
        Ok(self.call(OpCode::Get, key)? == RES_TRUE)
    }

    /// `ENQ v`.
    pub fn enqueue(&mut self, v: u64) -> Result<(), ClientError> {
        let r = self.call(OpCode::Enq, v)?;
        debug_assert_eq!(r, RES_UNIT);
        Ok(())
    }

    /// `DEQ` → the dequeued value, or `None` on an empty queue.
    pub fn dequeue(&mut self) -> Result<Option<u64>, ClientError> {
        let r = self.call(OpCode::Deq, 0)?;
        Ok(if r == RES_EMPTY {
            None
        } else {
            debug_assert!(r >= RES_VAL_BASE);
            Some(val_of(r))
        })
    }
}

/// Decodes an encoded result word as the boolean ops see it.
pub fn as_bool(value: u64) -> bool {
    value == RES_TRUE
}

/// Decodes an encoded result word as dequeue sees it.
pub fn as_dequeued(value: u64) -> Option<u64> {
    if value == RES_EMPTY {
        None
    } else {
        Some(val_of(value))
    }
}
