//! `restart_kv` — true cross-process restart recovery on the mapped
//! backend, with a **two-structure store**: one heap file hosting a KV map
//! *and* a job queue.
//!
//! The binary re-executes itself as a **child process** that opens the
//! store, inserts keys into the `"kv"` map and enqueues job ids into the
//! `"jobs"` queue while journaling acks, and then dies abruptly
//! (`std::process::abort`, no destructors, no flushes) with one operation
//! deliberately left un-acked. The parent re-opens the same heap file
//! **from its own address space**: one `Store::open` replays recovery for
//! every structure in the catalog, the attach-time report resolves the
//! in-flight operation detectably, no acked work is lost, and the
//! recovered store keeps serving.
//!
//! ```text
//! cargo run --release -p isb-examples --bin restart_kv
//! ```

use isb::arm::LP;
use isb::recovery::Recovered;
use isb::store::Store;
use std::path::{Path, PathBuf};

const SHARDS: usize = 16;
const HEAP_BYTES: usize = 32 * 1024 * 1024;

fn scale(n: u64) -> u64 {
    let div: u64 = std::env::var("ISB_EXAMPLE_SCALE_DIV")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    (n / div).max(8)
}

fn heap_path(dir: &Path) -> PathBuf {
    dir.join("kv.heap")
}

/// Child: insert keys 1..=crash_at (enqueuing a job per 10 keys), journal
/// each ack, then die mid-flight — key `crash_at + 1` is inserted but never
/// acked.
fn child(dir: &Path, total: u64) {
    nvm::tid::set_tid(0);
    let store = Store::open_sized(heap_path(dir), HEAP_BYTES).expect("child open");
    let map = store.hashmap::<LP>("kv", SHARDS).expect("kv handle");
    let jobs = store.queue::<LP>("jobs").expect("jobs handle");
    let crash_at = total / 2;
    let mut acked = Vec::new();
    for k in 1..=crash_at {
        map.note_invocation(0);
        assert!(map.insert(0, k));
        if k % 10 == 0 {
            jobs.note_invocation(0);
            jobs.enqueue(0, k);
        }
        acked.push(k.to_string());
    }
    std::fs::write(dir.join("acked"), acked.join("\n")).unwrap();
    // One more insert, never acked: the op the parent must resolve.
    map.note_invocation(0);
    assert!(map.insert(0, crash_at + 1));
    // Crash: no Drop runs, no flush happens, the process just dies.
    std::process::abort();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("child") {
        child(Path::new(&args[2]), args[3].parse().unwrap());
        return;
    }

    let total = scale(2000);
    let crash_at = total / 2;
    let dir = std::env::temp_dir().join(format!("isb_restart_kv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    println!("phase 1: child process fills the two-structure store, then crashes hard");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["child", dir.to_str().unwrap(), &total.to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn child");
    assert!(!status.success(), "the child is supposed to die abruptly");
    println!("  child died (status: {status}) with one operation in flight");

    println!("phase 2: parent re-opens {} and recovers ALL structures", heap_path(&dir).display());
    nvm::tid::set_tid(0);
    let store = Store::open_sized(heap_path(&dir), HEAP_BYTES).expect("parent open");
    let summary = store.summary();
    println!(
        "  attach epoch {}, {} cataloged structures, torn blocks poisoned: {}, \
         leaked blocks swept: {}",
        summary.heap.attach_epoch,
        store.entries().len(),
        summary.heap.poisoned,
        summary.swept
    );
    let map = store.hashmap::<LP>("kv", SHARDS).expect("kv handle");
    let jobs = store.queue::<LP>("jobs").expect("jobs handle");

    // Every acked key must be present, and every acked job still queued.
    let acked: Vec<u64> = std::fs::read_to_string(dir.join("acked"))
        .unwrap()
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    for &k in &acked {
        assert!(map.find(0, k), "acked key {k} lost");
    }
    let mut jobs_seen = 0u64;
    for k in &acked {
        if k % 10 == 0 {
            assert_eq!(jobs.dequeue(0), Some(*k), "acked job {k} lost or out of order");
            jobs_seen += 1;
        }
    }
    assert_eq!(jobs.dequeue(0), None, "spurious extra job");
    println!(
        "  no acked work lost ({} acked inserts + {jobs_seen} queued jobs verified)",
        acked.len()
    );

    // The in-flight insert of `crash_at + 1` is detectably resolved by the
    // store-wide replay (one shared recovery area spans both structures).
    match summary.decision(0) {
        Recovered::Completed(res) => {
            println!(
                "  in-flight insert({}) recovered as Completed(res={res}): it took effect",
                crash_at + 1
            );
            assert!(map.find(0, crash_at + 1));
        }
        Recovered::Restart => {
            println!("  in-flight insert({}) recovered as Restart: re-invoking", crash_at + 1);
            assert!(map.insert(0, crash_at + 1));
        }
    }

    println!("phase 3: the recovered store keeps serving");
    for k in crash_at + 2..=total {
        assert!(map.insert(0, k));
        if k % 10 == 0 {
            jobs.enqueue(0, k);
        }
    }
    for k in 1..=total {
        assert!(map.find(0, k), "key {k} missing from the final store");
    }
    println!("  final store holds {total} keys plus the new job backlog");

    drop((map, jobs, store));
    let _ = std::fs::remove_dir_all(&dir);
    println!("restart_kv: cross-process multi-structure recovery complete");
}
