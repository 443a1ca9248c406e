//! # `isb` — ISB-tracking: detectably recoverable lock-free data structures
//!
//! Rust reproduction of Attiya, Ben-Baruch, Fatourou, Hendler, Kosmas,
//! *"Tracking in Order to Recover: Detectable Recovery of Lock-Free Data
//! Structures"* (SPAA 2020).
//!
//! **Detectable recovery** means: after a system-wide crash, every process
//! can determine whether its interrupted operation took effect and, if so,
//! obtain its response — without full-fledged logging. ISB-tracking piggy-
//! backs this on the *Info-structure-based helping* already present in many
//! lock-free designs: each update installs a descriptor ([`engine::Info`])
//! in the nodes it affects (tagging = soft-locking them), a per-process
//! persistent pointer `RD_q` names the descriptor of the attempt in flight,
//! and the descriptor's precomputed response with its done bit — persisted
//! before the operation unlocks anything — carries it across the crash.
//!
//! ## Structures
//! * [`hashmap::RHashMap`] — sharded, detectably recoverable hash map: a
//!   power-of-two array of buckets of the head-parameterized ordered-set
//!   core in [`set_core`], sharing one environment (DESIGN.md §8).
//! * [`list::RList`] — detectably recoverable sorted linked list (paper §4):
//!   the one-shard hash map, which it dereferences to.
//! * [`queue::RQueue`] — ISB-tracked MS-queue (paper §5 / supplementary B.2).
//! * [`bst::RBst`] — detectably recoverable external BST (paper §6).
//! * [`exchanger::RExchanger`] — detectably recoverable exchanger (paper §6).
//! * [`stack::RStack`] — ISB-tracked stack (paper §1/§5): a one-shard hash
//!   map at `Isb-LP`, pushing and popping at its bucket's front.
//! * [`store::Store`] — one mapped heap hosting many named structures
//!   (catalog + shared recovery area + union census/sweep, DESIGN.md §11).
//!
//! ## Model parameters: `M` and `ARM`
//!
//! Every structure is generic over two parameters that are monomorphised
//! away:
//!
//! * `M:` [`nvm::Persist`] — the persistency model. [`nvm::RealNvm`]
//!   executes and counts real flushes, [`nvm::CountingNvm`] only counts,
//!   [`nvm::NoPersist`] is the private-cache model, [`nvm::SimNvm`] is the
//!   adversarial crash simulator, and [`nvm::MappedNvm`] pairs real flushes
//!   with a file-backed heap ([`nvm::mapped`]) so the structure survives an
//!   actual process death: [`store::Store`] hosts **every** kind as a
//!   *named* catalog entry of one heap, reopened through the generic
//!   [`recovery::MappedLayout`] driver (remap, Op-Recover replay per
//!   process, scrub, census + leak sweep).
//! * `ARM: u8` — the persistency *placement*, a level of the cumulative
//!   ladder in [`arm`]: `0` ([`arm::PAPER`], "Isb") is the paper's general
//!   ROpt-ISB placement; `1` ([`arm::TUNED`], "Isb-Opt") defers the
//!   durability of `CP_q := 1` and batches tag write-backs, saving one
//!   `psync` per operation; `3` ([`arm::LP`], "Isb-LP") adds per-operation
//!   cache-line flush coalescing, persists only what recovery reads, adds
//!   the link-persist elisions and is the arm the KV service ships (level
//!   `2`, the coalescing without the elisions, is retired). See [`arm`] for
//!   what each level adds and [`recovery`]'s module docs for the
//!   recovery-line protocol per arm.
//!
//! ## One environment, one skeleton, one walk
//!
//! ISB-tracking is a generic transformation, and the code is shaped like
//! it. What the paper keeps per *process* — `RD_q` / `CP_q`, the descriptor
//! they name, the memory it lives in — a structure holds as one
//! [`env::Env`]: recovery area, collector, descriptor pools and backing heap,
//! built in one place ([`env::Env::volatile`], or
//! [`recovery::AttachEnv::env`] inside a heap). [`engine::help`] is the one
//! helping procedure, [`op`] the one copy of the invocation skeleton around
//! it (prologue, descriptor persist, publish, read-only answer, retire,
//! Op-Recover), run over that environment, and a structure supplies only
//! its gather phase, its node shape (`op::tracked_node!`) and one function
//! that builds its initial shape — run by its in-process constructor over
//! owned root words and by its mapped `open` over the catalog root block.
//! Likewise each structure writes one traversal of its graph
//! ([`graph::Graph::walk`]); attach-time validation and census, the scrub
//! and drop-time teardown are visitors over it in [`graph`]. Every kind is tracked the one way: there is no
//! second recovery protocol.
//!
//! ## Memory: pools and recycling
//!
//! Descriptors and nodes — a constructor's sentinels included — are drawn
//! from per-thread, epoch-recycled pools ([`pool`]), the only source of
//! either: retirement routes through the EBR collector, so an address
//! re-enters circulation only after two global epoch advances — the same
//! delay that makes deallocation safe, preserving the info-pointer ABA
//! argument (DESIGN.md §5/§9). Never-published objects skip the EBR
//! round-trip. Under the mapped backend the same pools draw from the
//! persistent arena instead of the process heap.
//!
//! ## Quick start
//! ```
//! use isb::list::RList;
//! use nvm::CountingNvm;
//!
//! nvm::tid::set_tid(0); // register this thread as process 0
//! let list: RList<CountingNvm> = RList::new();
//! assert!(list.insert(0, 42));
//! assert!(list.find(0, 42));
//! assert!(!list.insert(0, 42)); // duplicate
//! assert!(list.delete(0, 42));
//! assert!(!list.find(0, 42));
//! ```

#![warn(missing_docs)]

pub mod arm;
pub mod bst;
pub mod counters;
pub mod engine;
pub mod env;
pub mod exchanger;
pub mod graph;
pub mod hashmap;
pub mod list;
pub mod op;
pub mod pool;
pub mod queue;
pub mod recarea;
pub mod recovery;
pub mod resptable;
pub mod set_core;
pub mod stack;
pub mod store;
pub mod tag;

/// Shared by this crate's crash-simulator and concurrent unit tests.
#[cfg(test)]
pub(crate) mod simtest {
    use nvm::sim;
    use std::sync::{Mutex, MutexGuard};
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// How long a test's workers, or a crash sweep, may run: far past what
    /// any of them takes, so one livelocked by a broken descriptor or
    /// allocator fails its test naming its seed instead of spinning the
    /// test binary for minutes.
    pub const DEADLINE: Duration = Duration::from_secs(30);

    /// Joins `workers`, failing naming `what` (the test and its seeds) when
    /// they have not all finished within [`DEADLINE`]; a stuck worker is
    /// left running. A worker's panic is re-raised.
    pub fn join_by<T>(workers: Vec<JoinHandle<T>>, what: &str) -> Vec<T> {
        let end = Instant::now() + DEADLINE;
        while !workers.iter().all(JoinHandle::is_finished) {
            assert!(Instant::now() < end, "{what}: not finished within {DEADLINE:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        let joined = workers.into_iter().map(JoinHandle::join);
        joined.map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e))).collect()
    }

    /// One simulator session at a time: the word registry is process-global
    /// and [`sim::begin_session`] panics on overlap, so tests queue here.
    /// (The session is the first field so that it ends before the turn does.)
    pub fn session() -> (sim::SimSession, MutexGuard<'static, ()>) {
        static TURN: Mutex<()> = Mutex::new(());
        let turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
        sim::quiet_crash_panics();
        (sim::begin_session(), turn)
    }

    /// Runs `f` until it dies at its `fuse`-th instrumented operation and
    /// leaves the `seed` crash image behind. `false` once `f` outruns the
    /// fuse, i.e. every instruction of `f` has been crashed at.
    pub fn crashed_at(fuse: u64, seed: u64, f: impl FnOnce()) -> bool {
        sim::crash_after(fuse);
        let crashed = sim::run_crashable(f).is_err();
        if crashed {
            sim::build_crash_image(seed);
        }
        crashed
    }
}

/// Operation type tags stored in Info descriptors (diagnostics only).
pub mod optype {
    /// List/BST insert.
    pub const INSERT: u8 = 1;
    /// List/BST delete.
    pub const DELETE: u8 = 2;
    /// List/BST find.
    pub const FIND: u8 = 3;
    /// Queue enqueue.
    pub const ENQ: u8 = 4;
    /// Queue dequeue.
    pub const DEQ: u8 = 5;
    /// Stack push.
    pub const PUSH: u8 = 6;
    /// Stack pop.
    pub const POP: u8 = 7;
}
