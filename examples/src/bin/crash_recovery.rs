//! Crash-recovery demo: runs a workload on the NVM crash simulator, pulls
//! the plug mid-flight, reconstructs an adversarial NVM image, recovers
//! every process, and shows that each interrupted operation either proves
//! it took effect (returning its response) or is re-invoked — exactly once,
//! never twice.
//!
//! ```text
//! cargo run -p isb-examples --bin crash_recovery [seed]
//! ```

use bench_harness::crash::{run_scenario, CrashCfg};
use isb::list::RList;
use isb::queue::RQueue;
use nvm::SimNvm;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);

    println!("=== detectably recoverable list under a system-wide crash ===");
    let rep = run_scenario::<RList<SimNvm, 0>>(CrashCfg {
        procs: 3,
        ops_per_proc: 100,
        keys_per_proc: 10,
        recovery_crashes: 1, // the recovery itself crashes once, too
        seed,
    });
    println!(
        "seed {seed}: {} operations completed before the crash, \
         {} processes died mid-operation, {} NVM words rolled back — \
         all responses replayed exactly-once against the model.",
        rep.completed, rep.pending, rep.rolled_back
    );

    println!();
    println!("=== detectably recoverable queue under a system-wide crash ===");
    let rep = run_scenario::<RQueue<SimNvm, 0>>(CrashCfg {
        procs: 4,
        ops_per_proc: 80,
        keys_per_proc: 32,
        recovery_crashes: 0,
        seed,
    });
    println!(
        "seed {seed}: {} operations completed, {} words rolled back — \
         no acknowledged value lost, none delivered twice.",
        rep.completed, rep.rolled_back
    );
    println!();
    println!("(run with different seeds to explore different crash points)");
}
