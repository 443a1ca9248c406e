//! Crash-recovery harness over [`nvm::SimNvm`].
//!
//! A crash scenario (paper Section 2 model):
//!
//! 1. Build the structure on the simulator with reclamation **disabled**
//!    (crashes must not free memory) and persist the initial state.
//! 2. Worker threads (= processes) run operations; each records its
//!    invocation *before* starting (the paper assumes the system re-invokes
//!    `Op.Recover` with the same arguments, i.e., the system knows them).
//! 3. At a random moment the harness triggers a **system-wide crash**: every
//!    worker dies at its next instrumented memory access.
//! 4. [`nvm::sim::build_crash_image`] reconstructs an adversarial NVM image
//!    (per word: guaranteed-persisted or latest volatile value, seeded).
//! 5. Fresh threads with the same process ids run each pending operation's
//!    recovery function — possibly crashing *again* (`recovery_crashes`),
//!    modelling repeated failures during recovery.
//! 6. Validation: structural invariants, plus **exactly-once** semantics —
//!    each process uses a disjoint key/value space, so its completed +
//!    recovered responses must replay exactly against a sequential model
//!    and the final structure must match the models' union.
//!
//! Scenarios are fully seeded; every failure report includes the seed.
//!
//! Set-shaped structures (list, BST, and anything added later) share one
//! generic driver, [`run_set_scenario`], parameterised by the
//! [`RecoverableSet`] view; recovery decisions stay inside each structure's
//! `recover_*` methods (which wrap `isb::recovery::op_recover`) — the
//! harness only re-invokes them, exactly like the paper's system model.

use isb::bst::RBst;
use isb::graph::Graph;
use isb::hashmap::RHashMap;
use isb::list::RList;
use isb::queue::RQueue;
use nvm::sim;
use nvm::SimNvm;
use std::sync::{Arc, Mutex};

/// Serialises crash scenarios within a process (the simulator registry is
/// global) and enforces the reset discipline.
static SESSION: Mutex<()> = Mutex::new(());

/// Tunables for one crash scenario.
#[derive(Debug, Clone, Copy)]
pub struct CrashCfg {
    /// Worker processes.
    pub procs: usize,
    /// Operations each worker tries to complete (it may crash earlier).
    pub ops_per_proc: usize,
    /// Keys (list) / values (queue) per process — disjoint across processes.
    pub keys_per_proc: u64,
    /// Additional crashes injected *during recovery* (each recovery round
    /// may die again and be re-recovered).
    pub recovery_crashes: usize,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for CrashCfg {
    fn default() -> Self {
        Self { procs: 3, ops_per_proc: 60, keys_per_proc: 12, recovery_crashes: 0, seed: 1 }
    }
}

/// Outcome statistics of a scenario (for reporting/assertions).
#[derive(Debug, Default, Clone, Copy)]
pub struct CrashReport {
    /// Operations completed before the crash (across all workers).
    pub completed: usize,
    /// Workers that died mid-operation.
    pub pending: usize,
    /// Of the pending operations, how many recoveries returned a response
    /// that proves the op took effect before the crash (result recovered).
    pub recovered_completed: usize,
    /// Words rolled back by the image builder.
    pub rolled_back: usize,
}

// ---------------------------------------------------------------------------
// Small deterministic RNG (the harness must not depend on thread timing for
// its *logical* choices; only the crash moment is timing-dependent).
// ---------------------------------------------------------------------------
#[derive(Clone)]
struct Rng(u64);
impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// Set scenarios (list, BST)
// ---------------------------------------------------------------------------

/// Uniform crash-scenario view of a detectably recoverable set.
///
/// The harness only needs the set API, the matching `recover_*` entry points
/// (re-invoked with the same arguments after a crash, per the paper's system
/// model), and quiescent snapshot/invariant hooks for validation.
pub trait RecoverableSet: Send + Sync + 'static {
    /// Structure name used in failure reports.
    const NAME: &'static str;

    /// Fresh instance whose collector is disabled (a crash must not free
    /// memory — recovery may still inspect retired nodes).
    fn build_for_crash() -> Self;

    /// Insert `k`; false if present.
    fn insert(&self, pid: usize, k: u64) -> bool;
    /// Delete `k`; false if absent.
    fn delete(&self, pid: usize, k: u64) -> bool;
    /// Membership test.
    fn find(&self, pid: usize, k: u64) -> bool;

    /// `Insert.Recover` with the crashed invocation's arguments.
    fn recover_insert(&self, pid: usize, k: u64) -> bool;
    /// `Delete.Recover`.
    fn recover_delete(&self, pid: usize, k: u64) -> bool;
    /// `Find.Recover`.
    fn recover_find(&self, pid: usize, k: u64) -> bool;

    /// Sorted user keys (requires quiescence).
    fn snapshot(&mut self) -> Vec<u64>;
    /// Panics on structural-invariant violations (requires quiescence).
    fn check_invariants(&mut self);

    /// `pid`'s recovery slot and published descriptor, for failure reports
    /// (requires quiescence).
    fn describe_recovery(&self, pid: usize) -> String;

    /// Post-recovery scrub, run once after every process finished its
    /// `recover_*` rounds: completes helping obligations the crash left
    /// visible (the tuned placement defers cleanup-`psync`s, so the image
    /// can resurrect tags of *completed* operations — harmless at runtime,
    /// where lazy helping heals them, but the harness validates a quiescent
    /// structure immediately). Default: nothing to scrub.
    fn scrub(&self) {}
}

macro_rules! impl_recoverable_set {
    // Optional trailing method name: forwards the trait's `scrub` to the
    // structure's own eager-helping scrub (not every structure exposes one).
    ($ty:ty, $name:literal $(, $scrub:ident)?) => {
        impl RecoverableSet for $ty {
            const NAME: &'static str = $name;
            fn build_for_crash() -> Self {
                Self::new()
            }
            $(
                fn scrub(&self) {
                    <$ty>::$scrub(self)
                }
            )?
            fn insert(&self, pid: usize, k: u64) -> bool {
                <$ty>::insert(self, pid, k)
            }
            fn delete(&self, pid: usize, k: u64) -> bool {
                <$ty>::delete(self, pid, k)
            }
            fn find(&self, pid: usize, k: u64) -> bool {
                <$ty>::find(self, pid, k)
            }
            fn recover_insert(&self, pid: usize, k: u64) -> bool {
                <$ty>::recover_insert(self, pid, k)
            }
            fn recover_delete(&self, pid: usize, k: u64) -> bool {
                <$ty>::recover_delete(self, pid, k)
            }
            fn recover_find(&self, pid: usize, k: u64) -> bool {
                <$ty>::recover_find(self, pid, k)
            }
            fn snapshot(&mut self) -> Vec<u64> {
                self.snapshot_keys()
            }
            fn check_invariants(&mut self) {
                <$ty>::check_invariants(self)
            }
            fn describe_recovery(&self, pid: usize) -> String {
                // SAFETY: called between rounds, with every worker joined;
                // crash runs free nothing (disabled collector).
                unsafe { <$ty>::describe_recovery(self, pid) }
            }
        }
    };
}

impl_recoverable_set!(RList<SimNvm, 0>, "RList", scrub);
// The BST scrubs too: a failed attempt whose earlier affect cells rolled
// back past their expected values leaves its later tags for (eager) helping.
impl_recoverable_set!(RBst<SimNvm, 0>, "RBst", scrub);
// The sharded map in both persistency placements; `new` builds the
// default 16 shards, so seeded crashes land in different buckets while
// all pending descriptors live in the one shared recovery area.
impl_recoverable_set!(RHashMap<SimNvm, 0>, "RHashMap", scrub);
impl_recoverable_set!(RHashMap<SimNvm, 1>, "RHashMap-Opt", scrub);
// `Isb-LP` against the same per-word adversary: `SimNvm` keeps its default
// `pwb_coal = pwb` (a noted line is simply an outstanding word until the next
// fence — exactly the crash-visibility window coalescing introduces), while
// the write-backs the arm *elides* (deferred `CP_q := 1`, the cleanup untag
// flushes, the merged enqueue `psync`) genuinely never happen, so the image
// builder is free to roll those words back and recovery must cope.
impl_recoverable_set!(RHashMap<SimNvm, 3>, "RHashMap-LP", scrub);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetOp {
    Insert(u64),
    Delete(u64),
    Find(u64),
}

fn set_apply_model(model: &mut std::collections::BTreeSet<u64>, op: SetOp) -> bool {
    match op {
        SetOp::Insert(k) => model.insert(k),
        SetOp::Delete(k) => model.remove(&k),
        SetOp::Find(k) => model.contains(&k),
    }
}

/// Runs one seeded crash scenario against any [`RecoverableSet`]; panics
/// (with the seed) on any detectability or consistency violation. Returns
/// statistics.
pub fn run_set_scenario<S: RecoverableSet>(cfg: CrashCfg) -> CrashReport {
    let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    // Exclusive process-wide simulator session: a concurrent one (e.g. a
    // test bypassing this harness) now panics cleanly instead of corrupting
    // build_crash_image (nvm::sim registry contract).
    let _sim = sim::begin_session();
    sim::quiet_crash_panics();
    sim::reset();
    let mut report = CrashReport::default();
    {
        nvm::tid::set_tid(nvm::MAX_PROCS - 1); // harness thread identity
        let set = Arc::new(S::build_for_crash());
        // Prefill: every process's even keys start present.
        for p in 0..cfg.procs {
            for i in 0..cfg.keys_per_proc {
                if i % 2 == 0 {
                    set.insert(p, key_of(p, i, cfg.keys_per_proc));
                }
            }
        }
        sim::persist_all();

        // Worker phase. The plug is pulled *cooperatively*: the worker that
        // completes the seeded target-th operation arms the crash itself.
        // The target is below 90% of the workload, so ≥10% of the operations
        // are still outstanding when the crash lands — some worker always
        // dies mid-operation, regardless of scheduling (a harness-side spin
        // loop can miss the window entirely on an oversubscribed machine).
        let mut rng = Rng::new(cfg.seed ^ 0xC0FFEE);
        let target = 1 + rng.below((cfg.procs * cfg.ops_per_proc) as u64 * 9 / 10);
        let logs: Vec<_> =
            (0..cfg.procs).map(|_| Arc::new(Mutex::new(WorkerLog::default()))).collect();
        let progress = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for (p, log) in logs.iter().enumerate() {
            let set = Arc::clone(&set);
            let log = Arc::clone(log);
            let progress = Arc::clone(&progress);
            let mut rng = Rng::new(cfg.seed ^ (p as u64 + 1) << 8);
            let kpp = cfg.keys_per_proc;
            let ops = cfg.ops_per_proc;
            handles.push(std::thread::spawn(move || {
                nvm::tid::set_tid(p);
                for _ in 0..ops {
                    let k = key_of(p, rng.below(kpp), kpp);
                    let op = match rng.below(3) {
                        0 => SetOp::Insert(k),
                        1 => SetOp::Delete(k),
                        _ => SetOp::Find(k),
                    };
                    log.lock().unwrap().invoke(op);
                    let r = sim::run_crashable(|| match op {
                        SetOp::Insert(k) => set.insert(p, k),
                        SetOp::Delete(k) => set.delete(p, k),
                        SetOp::Find(k) => set.find(p, k),
                    });
                    match r {
                        Ok(resp) => {
                            log.lock().unwrap().complete(resp);
                            let done =
                                progress.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                            if done == target {
                                sim::trigger_crash();
                            }
                        }
                        Err(_) => return, // died mid-operation; op stays pending
                    }
                }
            }));
        }
        watchdog_crash(&progress, target);
        for h in handles {
            h.join().unwrap();
        }

        // Crash image (+ optional repeated crashes during recovery).
        let img = sim::build_crash_image(cfg.seed ^ 0xD1CE);
        report.rolled_back = img.rolled_back;
        report.pending = logs.iter().filter(|l| l.lock().unwrap().pending.is_some()).count();

        // What each round's recovery found in a pending process's slot: on
        // a failed model check, the decision it took can be read off this.
        let mut found: Vec<Vec<String>> = vec![Vec::new(); cfg.procs];
        for round in 0..=cfg.recovery_crashes {
            let crash_again = round < cfg.recovery_crashes;
            let mut rhandles = Vec::new();
            for (p, log) in logs.iter().enumerate() {
                if log.lock().unwrap().pending.is_some() {
                    found[p].push(set.describe_recovery(p));
                }
                let set = Arc::clone(&set);
                let log = Arc::clone(log);
                rhandles.push(std::thread::spawn(move || {
                    nvm::tid::set_tid(p);
                    let pending = log.lock().unwrap().pending;
                    if let Some(op) = pending {
                        let r = sim::run_crashable(|| match op {
                            SetOp::Insert(k) => set.recover_insert(p, k),
                            SetOp::Delete(k) => set.recover_delete(p, k),
                            SetOp::Find(k) => set.recover_find(p, k),
                        });
                        if let Ok(resp) = r {
                            log.lock().unwrap().complete(resp);
                        } // else: still pending; next round recovers again
                    }
                }));
            }
            if crash_again {
                busy_wait_us(rng.below(200));
                sim::trigger_crash();
            }
            for h in rhandles {
                h.join().unwrap();
            }
            if crash_again {
                sim::build_crash_image(cfg.seed ^ (0xBEEF + round as u64));
            }
        }

        // ---- Validation --------------------------------------------------
        let mut set = Arc::into_inner(set).expect("all workers joined");
        set.scrub();
        set.check_invariants();
        let snapshot = set.snapshot();
        let slots: Vec<String> = (0..cfg.procs).map(|p| set.describe_recovery(p)).collect();
        for w in snapshot.windows(2) {
            assert!(w[0] < w[1], "seed {}: {} snapshot unsorted", cfg.seed, S::NAME);
        }
        // POISON scan: a reachable key whose persisted side was never covered
        // by a completed persist reads as `sim::POISON` after the adversarial
        // image — publishing a reachable pointer to unpersisted state is a
        // missing-flush bug (DESIGN.md §3), never legitimate key material.
        assert!(
            !snapshot.contains(&sim::POISON),
            "seed {}: {} snapshot contains POISON (reachable unpersisted node)",
            cfg.seed,
            S::NAME
        );
        let mut expected = std::collections::BTreeSet::new();
        for (p, log) in logs.iter().enumerate() {
            let log = log.lock().unwrap();
            report.completed += log.entries.len();
            // Replay this process's ops against its private model: with
            // disjoint key spaces, its history is sequential, so every
            // response must match exactly (exactly-once effects).
            let mut model = std::collections::BTreeSet::new();
            for i in 0..cfg.keys_per_proc {
                if i % 2 == 0 {
                    model.insert(key_of(p, i, cfg.keys_per_proc));
                }
            }
            for (idx, &(op, resp)) in log.entries.iter().enumerate() {
                let want = set_apply_model(&mut model, op);
                assert_eq!(
                    resp,
                    want,
                    "seed {}: {} proc {p} op #{idx} {op:?} returned {resp} but model says {want} \
                     (an effect was lost or applied twice across the crash); log: {:?}; \
                     snapshot: {snapshot:?}; slot found by each recovery round: {:?}; slot now: {}",
                    cfg.seed,
                    S::NAME,
                    log.entries,
                    found[p],
                    slots[p],
                );
            }
            if let Some(op) = log.pending {
                // Never-recovered pending op (only when recovery itself kept
                // crashing): the op may or may not have taken effect — accept
                // either model state.
                let mut alt = model.clone();
                set_apply_model(&mut alt, op);
                let part: Vec<u64> = snapshot
                    .iter()
                    .copied()
                    .filter(|k| owner_of(*k, cfg.keys_per_proc) == p)
                    .collect();
                let m: Vec<u64> = model.iter().copied().collect();
                let a: Vec<u64> = alt.iter().copied().collect();
                assert!(
                    part == m || part == a,
                    "seed {}: {} proc {p} final keys {part:?} match neither {m:?} nor {a:?}; \
                     slot found by each recovery round: {:?}; slot now: {}",
                    cfg.seed,
                    S::NAME,
                    found[p],
                    slots[p],
                );
                expected.extend(part);
            } else {
                expected.extend(model.iter().copied());
            }
        }
        assert_eq!(
            snapshot,
            expected.iter().copied().collect::<Vec<u64>>(),
            "seed {}: final {} diverges from the replayed models; slots found by each recovery \
             round: {found:?}; slots now: {slots:?}",
            cfg.seed,
            S::NAME
        );
    }
    sim::reset();
    report
}

/// Runs one seeded list crash scenario (see [`run_set_scenario`]).
pub fn run_list_scenario(cfg: CrashCfg) -> CrashReport {
    run_set_scenario::<RList<SimNvm, 0>>(cfg)
}

/// Runs one seeded BST crash scenario (see [`run_set_scenario`]).
pub fn run_bst_scenario(cfg: CrashCfg) -> CrashReport {
    run_set_scenario::<RBst<SimNvm, 0>>(cfg)
}

/// Runs one seeded sharded-hash-map crash scenario, untuned placement
/// (see [`run_set_scenario`]).
pub fn run_hashmap_scenario(cfg: CrashCfg) -> CrashReport {
    run_set_scenario::<RHashMap<SimNvm, 0>>(cfg)
}

/// Runs one seeded sharded-hash-map crash scenario, hand-tuned placement.
pub fn run_hashmap_opt_scenario(cfg: CrashCfg) -> CrashReport {
    run_set_scenario::<RHashMap<SimNvm, 1>>(cfg)
}

/// Runs one seeded sharded-hash-map crash scenario, link-persist placement.
pub fn run_hashmap_lp_scenario(cfg: CrashCfg) -> CrashReport {
    run_set_scenario::<RHashMap<SimNvm, 3>>(cfg)
}

// ---------------------------------------------------------------------------
// Queue scenario
// ---------------------------------------------------------------------------

/// Runs one seeded queue crash scenario, paper placement
/// (see [`run_queue_scenario_arm`]).
pub fn run_queue_scenario(cfg: CrashCfg) -> CrashReport {
    run_queue_scenario_arm::<0>(cfg)
}

/// Runs one seeded queue crash scenario, link-persist placement — the arm
/// whose enqueue merges the tag-phase `psync` into the update-phase one, so
/// the adversarial image may roll the tag CAS back independently of the
/// descriptor state it points at.
pub fn run_queue_lp_scenario(cfg: CrashCfg) -> CrashReport {
    run_queue_scenario_arm::<3>(cfg)
}

/// Runs one seeded queue crash scenario; panics on violations (duplicate or
/// lost values across the crash). Producers/consumers use disjoint pid and
/// value spaces.
pub fn run_queue_scenario_arm<const ARM: u8>(cfg: CrashCfg) -> CrashReport {
    type SimQueue<const ARM: u8> = RQueue<SimNvm, ARM>;
    let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    // Exclusive process-wide simulator session: a concurrent one (e.g. a
    // test bypassing this harness) now panics cleanly instead of corrupting
    // build_crash_image (nvm::sim registry contract).
    let _sim = sim::begin_session();
    sim::quiet_crash_panics();
    sim::reset();
    let mut report = CrashReport::default();
    {
        nvm::tid::set_tid(nvm::MAX_PROCS - 1);
        let q = Arc::new(SimQueue::<ARM>::new());
        let prefill = cfg.keys_per_proc;
        for i in 0..prefill {
            q.enqueue(nvm::MAX_PROCS - 1, 1_000_000_000 + i);
        }
        sim::persist_all();

        let producers = cfg.procs.div_ceil(2).max(1);
        let consumers = (cfg.procs - producers).max(1);
        // Logs: per producer the values acked-enqueued (+ pending value);
        // per consumer the values acked-dequeued (+ whether pending).
        let plogs: Vec<_> =
            (0..producers).map(|_| Arc::new(Mutex::new(ProdLog::default()))).collect();
        let clogs: Vec<_> =
            (0..consumers).map(|_| Arc::new(Mutex::new(ConsLog::default()))).collect();
        // Cooperative crash trigger, as in the set scenario: the worker that
        // completes the seeded target-th operation (< 90% of the workload)
        // arms the crash, so it always lands with operations outstanding.
        let total_ops = ((producers + consumers) * cfg.ops_per_proc) as u64;
        let mut rng = Rng::new(cfg.seed ^ 0xFEED);
        let target = 1 + rng.below(total_ops * 9 / 10);
        let progress = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for (p, log) in plogs.iter().enumerate() {
            let q = Arc::clone(&q);
            let log = Arc::clone(log);
            let progress = Arc::clone(&progress);
            let ops = cfg.ops_per_proc;
            handles.push(std::thread::spawn(move || {
                nvm::tid::set_tid(p);
                for i in 0..ops as u64 {
                    let v = (p as u64 + 1) * 1_000_000 + i;
                    log.lock().unwrap().pending = Some(v);
                    match sim::run_crashable(|| q.enqueue(p, v)) {
                        Ok(()) => {
                            let mut l = log.lock().unwrap();
                            l.pending = None;
                            l.acked.push(v);
                            if progress.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
                                == target
                            {
                                sim::trigger_crash();
                            }
                        }
                        Err(_) => return,
                    }
                }
            }));
        }
        for (c, log) in clogs.iter().enumerate() {
            let q = Arc::clone(&q);
            let log = Arc::clone(log);
            let progress = Arc::clone(&progress);
            let pid = producers + c;
            let ops = cfg.ops_per_proc;
            handles.push(std::thread::spawn(move || {
                nvm::tid::set_tid(pid);
                for _ in 0..ops {
                    log.lock().unwrap().pending = true;
                    match sim::run_crashable(|| q.dequeue(pid)) {
                        Ok(r) => {
                            let mut l = log.lock().unwrap();
                            l.pending = false;
                            if let Some(v) = r {
                                l.got.push(v);
                            }
                            if progress.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
                                == target
                            {
                                sim::trigger_crash();
                            }
                        }
                        Err(_) => return,
                    }
                }
            }));
        }
        watchdog_crash(&progress, target);
        for h in handles {
            h.join().unwrap();
        }
        let img = sim::build_crash_image(cfg.seed ^ 0xD1CE);
        report.rolled_back = img.rolled_back;
        // Pids (producers first, then consumers) whose operation is pending.
        let pending_pids = || -> Vec<usize> {
            plogs
                .iter()
                .map(|l| l.lock().unwrap().pending.is_some())
                .chain(clogs.iter().map(|l| l.lock().unwrap().pending))
                .enumerate()
                .filter_map(|(pid, pending)| pending.then_some(pid))
                .collect()
        };
        report.pending = pending_pids().len();

        // Recovery rounds, as in the set scenario: every round but the last
        // dies again at a seeded moment and is recovered again from a fresh
        // adversarial image. `found` keeps what each round read in a pending
        // process's slot, for the failure reports below.
        let mut found: Vec<(usize, String)> = Vec::new();
        for round in 0..=cfg.recovery_crashes {
            let crash_again = round < cfg.recovery_crashes;
            // SAFETY: every worker is joined; crash runs free nothing.
            found.extend(
                pending_pids().into_iter().map(|pid| (pid, unsafe { q.describe_recovery(pid) })),
            );
            let mut rhandles = Vec::new();
            for (p, log) in plogs.iter().enumerate() {
                let q = Arc::clone(&q);
                let log = Arc::clone(log);
                rhandles.push(std::thread::spawn(move || {
                    nvm::tid::set_tid(p);
                    let pend = log.lock().unwrap().pending;
                    if let Some(v) = pend {
                        // Err: died again; the next round recovers it.
                        if sim::run_crashable(|| q.recover_enqueue(p, v)).is_ok() {
                            let mut l = log.lock().unwrap();
                            l.pending = None;
                            l.acked.push(v);
                        }
                    }
                }));
            }
            for (c, log) in clogs.iter().enumerate() {
                let q = Arc::clone(&q);
                let log = Arc::clone(log);
                let pid = producers + c;
                rhandles.push(std::thread::spawn(move || {
                    nvm::tid::set_tid(pid);
                    let pend = log.lock().unwrap().pending;
                    if pend {
                        if let Ok(r) = sim::run_crashable(|| q.recover_dequeue(pid)) {
                            let mut l = log.lock().unwrap();
                            l.pending = false;
                            if let Some(v) = r {
                                l.got.push(v);
                            }
                        }
                    }
                }));
            }
            if crash_again {
                busy_wait_us(rng.below(200));
                sim::trigger_crash();
            }
            for h in rhandles {
                h.join().unwrap();
            }
            if crash_again {
                sim::build_crash_image(cfg.seed ^ (0xBEEF + round as u64));
            }
        }
        assert_eq!(pending_pids(), [], "seed {}: the last round has no crash armed", cfg.seed);

        // ---- Validation --------------------------------------------------
        let mut q = Arc::into_inner(q).expect("all workers joined");
        // A node linked twice closes the chain into a cycle, and the
        // quiescent walks below would never return: diagnose it here, against
        // the number of nodes the scenario can have allocated at all.
        let max_nodes = 1 + prefill as usize + producers * cfg.ops_per_proc;
        // SAFETY: quiescent; crash runs free nothing, so every link is live.
        if let Err(p) = unsafe { Graph::walk(&q, 0, &|_| true, max_nodes, &mut |_, _| {}) } {
            panic!(
                "seed {}: sentinel chain does not end within {max_nodes} nodes (stopped at \
                 {p:#x}): a node was linked twice; pending (pid, slot) found by recovery: \
                 {found:?}",
                cfg.seed
            );
        }
        // Post-recovery scrub, as in the set driver: the LP arm elides the
        // cleanup untag flushes entirely, so the adversarial image can
        // resurrect tags of *completed* operations — at runtime lazy helping
        // heals them, but the harness validates a quiescent queue now.
        q.scrub();
        q.heal_tail();
        q.check_invariants();
        let remaining = q.snapshot_vals();
        let mut seen = std::collections::HashMap::new();
        for &v in remaining.iter() {
            *seen.entry(v).or_insert(0u32) += 1;
        }
        for log in &clogs {
            let l = log.lock().unwrap();
            report.completed += l.got.len();
            for &v in &l.got {
                *seen.entry(v).or_insert(0) += 1;
            }
        }
        // Every value must exist at most once anywhere (no duplication), and
        // every acked-enqueued value exactly once (no loss).
        for (&v, &n) in &seen {
            assert!(
                n <= 1,
                "seed {}: value {v} appears {n} times (duplicated across crash); \
                 pending (pid, slot) found by recovery: {found:?}",
                cfg.seed
            );
        }
        for i in 0..prefill {
            let v = 1_000_000_000 + i;
            assert_eq!(
                seen.get(&v),
                Some(&1),
                "seed {}: prefilled {v} lost; pending (pid, slot) found by recovery: {found:?}",
                cfg.seed
            );
        }
        for log in &plogs {
            let l = log.lock().unwrap();
            report.completed += l.acked.len();
            for &v in &l.acked {
                assert_eq!(
                    seen.get(&v),
                    Some(&1),
                    "seed {}: acked value {v} lost or duplicated; \
                     pending (pid, slot) found by recovery: {found:?}",
                    cfg.seed
                );
            }
        }
    }
    sim::reset();
    report
}

// ---------------------------------------------------------------------------

#[derive(Default)]
struct WorkerLog {
    entries: Vec<(SetOp, bool)>,
    pending: Option<SetOp>,
}

impl WorkerLog {
    fn invoke(&mut self, op: SetOp) {
        debug_assert!(self.pending.is_none());
        self.pending = Some(op);
    }
    fn complete(&mut self, resp: bool) {
        let op = self.pending.take().expect("completion without invocation");
        self.entries.push((op, resp));
    }
}

#[derive(Default)]
struct ProdLog {
    acked: Vec<u64>,
    pending: Option<u64>,
}

#[derive(Default)]
struct ConsLog {
    got: Vec<u64>,
    pending: bool,
}

fn key_of(pid: usize, i: u64, keys_per_proc: u64) -> u64 {
    1 + pid as u64 * keys_per_proc + i
}

fn owner_of(key: u64, keys_per_proc: u64) -> usize {
    ((key - 1) / keys_per_proc) as usize
}

fn busy_wait_us(us: u64) {
    let start = std::time::Instant::now();
    while (start.elapsed().as_micros() as u64) < us {
        std::hint::spin_loop();
    }
}

/// Livelock backstop for the cooperative crash trigger: if the workers never
/// reach `target` completions (a progress bug in the structure under test),
/// arm the crash after a generous deadline so the scenario terminates with a
/// diagnosable state instead of hanging `join()` behind the global session
/// lock. `trigger_crash` is idempotent, so racing the cooperative trigger is
/// harmless.
fn watchdog_crash(progress: &std::sync::atomic::AtomicU64, target: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while progress.load(std::sync::atomic::Ordering::Relaxed) < target && !sim::crash_armed() {
        if std::time::Instant::now() >= deadline {
            eprintln!("crash harness watchdog: workers stalled below target; arming crash");
            sim::trigger_crash();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
