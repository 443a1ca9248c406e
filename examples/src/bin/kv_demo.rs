//! `kv_demo` — the network-facing KV service end to end, in one process.
//!
//! Starts a [`kvserve::Server`] on a loopback port over a temp heap, then
//! drives it with the journaling [`kvserve::KvClient`]:
//!
//! 1. a batch of `PUT`/`GET`/`DEL` calls plus queue traffic;
//! 2. the **exactly-once replay** check: the last acknowledged request is
//!    re-sent verbatim and the server answers it from the durable response
//!    table — byte-identical response, nothing re-applied (a second `PUT`
//!    of the same key would have returned `false`);
//! 3. a graceful stop, a **server restart over the same heap** (full attach
//!    recovery), and a re-read proving the data and the dedup watermark
//!    both survived.
//!
//! ```text
//! cargo run --release -p isb-examples --bin kv_demo
//! ```

use isb_examples::scaled;
use kvserve::{Config, KvClient, Server};
use std::net::SocketAddr;
use std::path::PathBuf;

fn tmp_heap() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isb-kv-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join("kv.heap")
}

fn connect(addr: SocketAddr, id: u64) -> KvClient {
    KvClient::connect(addr, id).expect("connect")
}

fn main() {
    let heap = tmp_heap();
    let n = scaled(500);

    let server = Server::start(Config::new(&heap)).expect("server start");
    let addr = server.local_addr();
    println!("serving on {addr}");

    let mut c = connect(addr, 42);
    let mut inserted = 0u64;
    for k in 1..=n {
        if c.put(k).expect("put") {
            inserted += 1;
        }
    }
    assert_eq!(inserted, n, "all keys fresh");
    assert!(c.get(n / 2 + 1).expect("get"), "inserted key found");
    assert!(c.del(1).expect("del"), "delete hits");
    assert!(!c.get(1).expect("get"), "deleted key gone");
    // At least two items, so one survives the pre-restart dequeue below.
    let queued = n / 10 + 2;
    for v in 0..queued {
        c.enqueue(v).expect("enq");
    }
    assert_eq!(c.dequeue().expect("deq"), Some(0), "FIFO head");
    println!("applied {} map ops and {} queue ops", n + 3, queued + 1);

    // Exactly-once replay: the retry is answered from the response table.
    let (replayed, original) =
        c.replay_last_acked().expect("replay").expect("an acked request exists");
    assert_eq!(replayed, original, "byte-identical replayed acknowledgement");
    println!("replayed last ack: byte-identical, not re-applied");

    server.stop();

    // Restart over the same heap: full attach recovery, then the session
    // resumes — same client id, same sequence numbers, data intact.
    let server = Server::start(Config::new(&heap)).expect("server restart");
    let addr = server.local_addr();
    let mut c2 = connect(addr, 42);
    // The old session's watermark survived: a fresh client object starts at
    // seq 1, which the table rejects as already-acknowledged territory.
    assert!(c2.put(9999).is_err(), "stale sequence rejected after restart");
    let mut c3 = connect(addr, 7); // a different client works immediately
    assert!(c3.get(n / 2 + 1).expect("get"), "data survived restart");
    assert_eq!(c3.dequeue().expect("deq"), Some(1), "queue order survived");
    println!("restart over the same heap: data + dedup watermark survived");
    server.stop();

    let _ = std::fs::remove_dir_all(heap.parent().expect("the demo's temp dir"));
    println!("kv service demo OK");
}
