//! Quickstart: a detectably recoverable sorted set shared by a few threads.
//!
//! ```text
//! cargo run -p isb-examples --bin quickstart
//! ```

use isb::list::RList;
use nvm::RealNvm;
use std::sync::Arc;

fn main() {
    // Every thread registers a process id (used for the per-process
    // recovery data RD_q/CP_q, statistics and reclamation slots).
    nvm::tid::set_tid(0);

    // `RealNvm` = shared-cache model with real write-back/fence persistency
    // (exactly how the paper simulates NVRAM). Swap in `nvm::NoPersist` for
    // the private-cache model or `nvm::CountingNvm` to only count flushes.
    let set: Arc<RList<RealNvm>> = Arc::new(RList::new());

    // Single-threaded use: insert / find / delete, each detectably
    // recoverable — after a crash, `recover_insert(pid, k)` would return
    // this operation's response without re-executing its effect.
    assert!(set.insert(0, 42));
    assert!(set.find(0, 42));
    assert!(!set.insert(0, 42), "duplicate insert reports false");

    // Concurrent use: each thread is its own "process".
    let per_thread = isb_examples::scaled(1000);
    let handles: Vec<_> = (1..=3u64)
        .map(|t| {
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                nvm::tid::set_tid(t as usize);
                for i in 0..per_thread {
                    let k = 100 + t + 3 * i;
                    assert!(set.insert(t as usize, k));
                    assert!(set.find(t as usize, k));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = nvm::stats::snapshot();
    let mut set = Arc::into_inner(set).unwrap();
    set.check_invariants();
    println!("set holds {} keys", set.snapshot_keys().len());
    println!(
        "persistency instructions so far: {} barriers, {} flushes, {} syncs",
        stats.pbarrier, stats.pwb, stats.psync
    );
}
