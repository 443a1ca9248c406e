//! Network-facing KV service with **client-visible exactly-once**.
//!
//! Fronts the recoverable multi-structure [`isb::store::Store`] over TCP
//! with a length-prefixed binary protocol ([`proto`]). Clients name every
//! request with a `(client_id, op_seq)` operation ID; the server maps those
//! onto the durable response table in the mapped heap
//! ([`isb::resptable::ResponseTable`]), so a retried request returns the
//! *original* response and never double-applies — across server SIGKILL,
//! restart, and failover to a surviving peer process on the same heap.
//!
//! The crate is three layers:
//!
//! * [`proto`] — frames, opcodes, typed error statuses;
//! * [`server`] — one thread per connection running the exactly-once
//!   request path under a tid lane, seeded SIGKILL crash injection for the
//!   conformance suite;
//! * [`client`] — a journaling client that tracks sequence numbers and
//!   replays unacknowledged requests after reconnect.
//!
//! The conformance suite (`tests/tests/exactly_once.rs`) is the contract's
//! proof: SIGKILL the server at seeded points on the request path, restart,
//! replay client retries, and assert original responses, zero duplicate
//! applies, and full model equivalence.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{ClientError, KvClient};
pub use proto::{OpCode, Request, Response, Status};
pub use server::{Config, KillPoint, ServeError, Server, MAX_LANES};
