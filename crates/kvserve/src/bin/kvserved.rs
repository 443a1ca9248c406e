//! `kvserved` — the KV service daemon.
//!
//! ```text
//! kvserved --path HEAP [--addr 127.0.0.1:0] [--shards 8] [--workers LANES=2]
//!          [--heap-bytes N] [--port-file F] [--stop-file F]
//! ```
//!
//! `--workers N` sets the number of tid lanes: how many requests of
//! different clients may run at once (each runs on its connection's thread),
//! 1 to 7 — a server's lanes and its healer share its participant's 8-tid
//! band; any other count ends it with exit code 1 before it opens the heap.
//!
//! Opens (recovering) the store heap at `--path` — or joins it, when other
//! `kvserved` processes serve it already: up to 8 servers front one heap,
//! and each recovers a SIGKILLed peer's in-flight requests online — binds,
//! prints the bound
//! address, and serves until killed — or until `--stop-file` appears, which
//! triggers a graceful shutdown (used by harnesses that need the process to
//! exit without SIGKILL so no in-flight state is left behind); a listener
//! that fails for good ends it too, with exit code 1 and the error. With
//! `--port-file` the bound port is published atomically (write + rename)
//! once the server is accepting, which doubles as the "recovery finished"
//! handshake for restart harnesses.

use kvserve::{Config, Server};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: kvserved --path HEAP [--addr A] [--shards N] [--workers LANES] \
         [--heap-bytes N] [--port-file F] [--stop-file F]\n\
         --workers: tid lanes, i.e. requests of different clients that may run at once (1..=7)\n\
         a second kvserved on the same --path joins the heap (up to 8 servers per heap)"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut shards = 8usize;
    let mut workers = 2usize;
    let mut heap_bytes = 32usize << 20;
    let mut port_file: Option<std::path::PathBuf> = None;
    let mut stop_file: Option<std::path::PathBuf> = None;
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--path" => path = Some(val()),
            "--addr" => addr = val(),
            "--shards" => shards = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = val().parse().unwrap_or_else(|_| usage()),
            "--heap-bytes" => heap_bytes = val().parse().unwrap_or_else(|_| usage()),
            "--port-file" => port_file = Some(val().into()),
            "--stop-file" => stop_file = Some(val().into()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let mut cfg = Config::new(path);
    cfg.addr = addr.parse().unwrap_or_else(|_| usage());
    cfg.shards = shards;
    cfg.workers = workers;
    cfg.heap_bytes = heap_bytes;

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kvserved: {e}");
            std::process::exit(1);
        }
    };
    println!("kvserved listening on {}", server.local_addr());
    if let Some(pf) = &port_file {
        let tmp = pf.with_extension("tmp");
        std::fs::write(&tmp, format!("{}\n", server.local_addr().port()))
            .and_then(|()| std::fs::rename(&tmp, pf))
            .expect("publish port file");
    }
    loop {
        if !server.is_serving() {
            let why = server.listener_error().map_or("stopped".into(), |e| e.to_string());
            server.stop();
            eprintln!("kvserved: listener failed: {why}");
            std::process::exit(1);
        }
        if let Some(sf) = &stop_file {
            if sf.exists() {
                server.stop();
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
