//! Crash-recovery harness over [`nvm::SimNvm`]: one driver,
//! [`run_scenario`], for every structure kind.
//!
//! A crash scenario (paper Section 2 model):
//!
//! 1. Build the structure on the simulator (reclamation is disabled there:
//!    a crash must not free memory) and persist the prefilled state.
//! 2. Worker threads (= processes) draw seeded [`Op`]s and log each one
//!    *before* invoking it (the paper assumes the system re-invokes
//!    `Op.Recover` with the same arguments, i.e., the system knows them).
//! 3. The worker that completes the seeded target-th operation crashes its
//!    next one at a seeded instruction (`fused_worker`) — a
//!    **system-wide crash**: every worker dies at its next instrumented
//!    memory access.
//! 4. [`nvm::sim::build_crash_image`] reconstructs an adversarial NVM image
//!    (per word: guaranteed-persisted or latest volatile value, seeded).
//! 5. Fresh threads with the same process ids run each pending operation's
//!    recovery, [`Target::recover`] — possibly crashing *again*
//!    (`recovery_crashes`), modelling repeated failures during recovery.
//! 6. Validation: the settled structure's invariants, then exactly-once
//!    semantics by one of two oracles. Set kinds: [`check_sets`] replays
//!    every process's history against a sequential model (the processes'
//!    key spaces are disjoint). Producer/consumer kinds (queue, stack):
//!    [`check_ledger`], no value lost and none duplicated.
//!
//! The oracle and the operations a process draws are the only per-kind
//! differences; [`Target::bag`] tells them apart. Recovery decisions stay
//! inside each structure's `recover_*` methods (which wrap
//! `isb::recovery::op_recover`) — the harness only re-invokes them, exactly
//! like the paper's system model. Scenarios are fully seeded; every failure
//! report includes the seed.

use crate::ops::{Op, PutTake, Resp, SeqModel, Target};
use isb::graph::Graph;
use nvm::sim;
use nvm::SimNvm;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serialises crash scenarios within a process (the simulator registry is
/// global) and enforces the reset discipline.
static SESSION: Mutex<()> = Mutex::new(());

/// The pid the harness itself runs the prefill as.
const HARNESS: usize = nvm::MAX_PROCS - 1;

/// First prefilled value of a producer/consumer scenario (puts are
/// `(pid + 1) * 1_000_000 + i`, below it).
const PREFILLED: u64 = 1_000_000_000;

/// Tunables for one crash scenario.
#[derive(Debug, Clone, Copy)]
pub struct CrashCfg {
    /// Worker processes (a producer/consumer scenario runs at least one of
    /// each).
    pub procs: usize,
    /// Operations each worker tries to complete (it may crash earlier).
    pub ops_per_proc: usize,
    /// Set kinds: keys per process — disjoint across processes, the even
    /// ones prefilled. Queue / stack: the prefilled values.
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
    /// Operations completed, before the crash or by recovery.
    pub completed: usize,
    /// Workers that died mid-operation.
    pub pending: usize,
    /// Words rolled back by the image builder.
    pub rolled_back: usize,
}

/// One process's history in a scenario: its completed operations with their
/// responses, in order, and the operation a crash left it in.
#[derive(Debug, Default, Clone)]
pub struct History {
    /// Completed operations, before the crash or by recovery.
    pub done: Vec<(Op, Resp)>,
    /// The operation in flight.
    pub pending: Option<Op>,
}

impl History {
    fn complete(&mut self, resp: Resp) {
        let op = self.pending.take().expect("completion without invocation");
        self.done.push((op, resp));
    }
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

/// Runs one seeded crash scenario against the structure `S` (built with
/// `Default`); panics, with the seed, on any detectability or consistency
/// violation. Returns statistics.
pub fn run_scenario<S: Target + Graph<SimNvm> + Default + 'static>(cfg: CrashCfg) -> CrashReport {
    let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    // Exclusive process-wide simulator session: a concurrent one (e.g. a
    // test bypassing this harness) panics cleanly instead of corrupting
    // build_crash_image (nvm::sim registry contract).
    let _sim = sim::begin_session();
    sim::quiet_crash_panics();
    sim::reset();
    let report = scenario::<S>(cfg);
    sim::reset();
    report
}

/// Names the scenario a panic unwinds through: a structure's own check (a
/// scrub that does not quiesce, say) does not know the seed.
struct SeedOnPanic(u64, &'static str);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("crash scenario failed: seed {}: {}", self.0, self.1);
        }
    }
}

fn scenario<S: Target + Graph<SimNvm> + Default + 'static>(cfg: CrashCfg) -> CrashReport {
    let _seed = SeedOnPanic(cfg.seed, std::any::type_name::<S>());
    nvm::tid::set_tid(HARNESS);
    let s = Arc::new(S::default());
    let bag = s.bag();
    let kpp = cfg.keys_per_proc;
    // Set kinds: every process's even keys start present, inserted by their
    // owner. Queue / stack: the prefilled values, put by the harness.
    let initial: Vec<u64> = match bag {
        None => (0..cfg.procs as u64 * kpp)
            .filter(|j| (j % kpp).is_multiple_of(2))
            .map(|j| 1 + j)
            .collect(),
        Some(_) => (0..kpp).map(|i| PREFILLED + i).collect(),
    };
    for &v in &initial {
        match bag {
            None => s.invoke(((v - 1) / kpp) as usize, Op::Insert(v)),
            Some((put, _)) => s.invoke(HARNESS, put(v)),
        };
    }
    sim::persist_all();

    // A producer/consumer scenario runs the first half of the processes as
    // producers, the rest as consumers.
    let producers = cfg.procs.div_ceil(2).max(1);
    let procs = if bag.is_some() { producers + (cfg.procs - producers).max(1) } else { cfg.procs };
    // Cooperative crash trigger: the worker that completes the seeded
    // target-th operation (< 90% of the workload, so some worker is always
    // mid-operation) crashes its next one at a seeded instruction.
    let mut rng = Rng::new(cfg.seed ^ 0xFEED);
    let target = 1 + rng.below((procs * cfg.ops_per_proc) as u64 * 9 / 10);
    let fuse = 1 + rng.below(FUSE_SPAN);
    let progress = Arc::new(AtomicU64::new(0));
    let logs: Vec<Arc<Mutex<History>>> = (0..procs).map(|_| Arc::default()).collect();
    let mut handles = Vec::new();
    for (p, log) in logs.iter().enumerate() {
        let (s, log, progress) = (Arc::clone(&s), Arc::clone(log), Arc::clone(&progress));
        let mut rng = Rng::new(cfg.seed ^ (p as u64 + 1) << 8);
        let mut draw = move |i: u64| match bag {
            None => {
                let k = 1 + p as u64 * kpp + rng.below(kpp);
                [Op::Insert(k), Op::Delete(k), Op::Find(k)][rng.below(3) as usize]
            }
            Some((put, _)) if p < producers => put((p as u64 + 1) * 1_000_000 + i),
            Some((_, take)) => take,
        };
        handles.push(std::thread::spawn(move || {
            nvm::tid::set_tid(p);
            fused_worker(cfg.ops_per_proc, &progress, target, fuse, |i| {
                let op = draw(i);
                log.lock().unwrap().pending = Some(op);
                let Ok(resp) = sim::run_crashable(|| s.invoke(p, op)) else { return false };
                log.lock().unwrap().complete(resp);
                true
            });
        }));
    }
    watchdog_crash(&progress, target, cfg.seed);
    for h in handles {
        h.join().unwrap();
    }
    let img = sim::build_crash_image(cfg.seed ^ 0xD1CE);
    let pending = logs.iter().filter(|l| l.lock().unwrap().pending.is_some()).count();

    // Recovery rounds: every round but the last dies again at a seeded
    // moment and is recovered again from a fresh adversarial image. `found`
    // keeps what each round read in a pending process's slot, for the
    // failure reports below.
    let mut found: Vec<(usize, String)> = Vec::new();
    for round in 0..=cfg.recovery_crashes {
        let crash_again = round < cfg.recovery_crashes;
        let mut rhandles = Vec::new();
        for (p, log) in logs.iter().enumerate() {
            let Some(op) = log.lock().unwrap().pending else { continue };
            // SAFETY: every worker and recoverer is joined; crash runs free
            // nothing (disabled collector).
            found.push((p, unsafe { s.describe(p) }));
            let (s, log) = (Arc::clone(&s), Arc::clone(log));
            rhandles.push(std::thread::spawn(move || {
                nvm::tid::set_tid(p);
                // Err: died again; the next round recovers it.
                if let Ok(resp) = sim::run_crashable(|| s.recover(p, op)) {
                    log.lock().unwrap().complete(resp);
                }
            }));
        }
        if crash_again {
            busy_wait_us(rng.below(200));
            sim::trigger_crash();
        } else if !finish_by(&rhandles, RECOVERY_DEADLINE) {
            // A recovery that livelocks (in `help`, say) would hang the
            // joins below: crash it and fail with what recovery found.
            sim::trigger_crash();
            rhandles.into_iter().for_each(|h| h.join().unwrap());
            panic!(
                "seed {}: recovery round {round} did not finish within {RECOVERY_DEADLINE:?}; \
                 pending (pid, slot) found by recovery: {found:?}",
                cfg.seed
            );
        }
        for h in rhandles {
            h.join().unwrap();
        }
        if crash_again {
            sim::build_crash_image(cfg.seed ^ (0xBEEF + round as u64));
        }
    }

    // ---- Validation ------------------------------------------------------
    let name = std::any::type_name::<S>();
    let fail = |what: String| -> ! {
        panic!("seed {}: {name} {what}; pending (pid, slot) found by recovery: {found:?}", cfg.seed)
    };
    let mut s = Arc::into_inner(s).expect("all workers joined");
    let histories: Vec<History> = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
    // A node linked twice closes a chain into a cycle, and the quiescent
    // walks below would never return: diagnose it here, against the number
    // of nodes the scenario can have allocated at all (sentinels, two nodes
    // per operation: the stack's push and the list's insert copy one).
    let max_nodes = 8 + 2 * (initial.len() + procs * cfg.ops_per_proc);
    for unit in 0..s.work_units() {
        // SAFETY: quiescent; crash runs free nothing, so every link is live.
        if let Err(p) = unsafe { s.walk(unit, &|_| true, max_nodes, &mut |_, _| {}) } {
            fail(format!("chain of unit {unit} does not end within {max_nodes} nodes (at {p:#x})"));
        }
    }
    let contents = s.settle();
    // A reachable word never covered by a completed persist reads as POISON
    // after the adversarial image: publishing a reachable pointer to
    // unpersisted state is a missing-flush bug (DESIGN.md §3).
    if contents.contains(&sim::POISON) {
        fail("contents hold POISON (reachable unpersisted node)".into());
    }
    let verdict = match bag {
        None => check_sets(&initial, &histories, &contents),
        Some(_) => check_ledger(&initial, &histories, &contents),
    };
    verdict.unwrap_or_else(|e| fail(e));
    CrashReport {
        completed: histories.iter().map(|h| h.done.len()).sum(),
        pending,
        rolled_back: img.rolled_back,
    }
}

/// The set oracle. The processes' key spaces are disjoint, so their
/// histories commute: every completed operation must answer what one
/// sequential model started at `initial` answers, and `contents` (sorted,
/// without duplicates) must be that model's — except at the key of an
/// operation still pending, which may or may not have taken effect.
pub fn check_sets(initial: &[u64], histories: &[History], contents: &[u64]) -> Result<(), String> {
    if let Some(w) = contents.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!("contents unsorted or duplicated at {}: {contents:?}", w[1]));
    }
    let mut model = SeqModel { set: initial.iter().copied().collect(), ..SeqModel::default() };
    for (p, h) in histories.iter().enumerate() {
        for (i, &(op, resp)) in h.done.iter().enumerate() {
            let want = model.apply(op);
            if resp != want {
                return Err(format!(
                    "proc {p} op #{i} {op:?} returned {resp:?} but the model says {want:?} (an \
                     effect was lost or applied twice across the crash); history: {:?}",
                    h.done
                ));
            }
        }
    }
    let mut alt = SeqModel { set: model.set.clone(), ..SeqModel::default() };
    for op in histories.iter().filter_map(|h| h.pending) {
        alt.apply(op);
    }
    let got: HashSet<u64> = contents.iter().copied().collect();
    match got.symmetric_difference(&model.set).find(|k| got.contains(k) != alt.set.contains(k)) {
        Some(k) => Err(format!(
            "key {k} is {} against the replayed model; contents: {contents:?}",
            if got.contains(k) { "present" } else { "absent" }
        )),
        None => Ok(()),
    }
}

/// The producer/consumer ledger. Every value is seen — left in `contents`
/// or answered by a take — at most once; every prefilled (`initial`) or
/// acknowledged put value exactly once — but for one value per take still
/// pending, which may have taken it; a put still pending may or may not have
/// taken effect; a value nobody put is never seen; and every completed
/// operation answered as its kind does.
pub fn check_ledger(
    initial: &[u64],
    histories: &[History],
    contents: &[u64],
) -> Result<(), String> {
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut acked = initial.to_vec();
    let mut put = HashSet::new();
    for &v in contents {
        *seen.entry(v).or_default() += 1;
    }
    for (p, h) in histories.iter().enumerate() {
        for (i, &(op, resp)) in h.done.iter().enumerate() {
            match (op, resp) {
                (Op::Enqueue(v) | Op::Push(v), Resp::Unit) => acked.push(v),
                (Op::Dequeue | Op::Pop, Resp::Val(v)) => {
                    v.into_iter().for_each(|v| *seen.entry(v).or_default() += 1)
                }
                _ => return Err(format!("proc {p} op #{i} {op:?} answered {resp:?}")),
            }
        }
        if let Some(Op::Enqueue(v) | Op::Push(v)) = h.pending {
            put.insert(v);
        }
    }
    put.extend(&acked);
    if let Some((v, n)) = seen.iter().find(|&(_, &n)| n > 1) {
        return Err(format!("value {v} appears {n} times (duplicated across the crash)"));
    }
    let takes = histories.iter().filter(|h| matches!(h.pending, Some(Op::Dequeue | Op::Pop)));
    let lost: Vec<u64> = acked.iter().copied().filter(|v| !seen.contains_key(v)).collect();
    if lost.len() > takes.count() {
        return Err(format!("acked values {lost:?} lost"));
    }
    match seen.keys().find(|v| !put.contains(v)) {
        Some(v) => Err(format!("value {v} was never put")),
        None => Ok(()),
    }
}

/// Upper bound on the fuse [`fused_worker`] lights: about the instrumented
/// operations of one operation, so the crash lands at any of them — after
/// the operation took effect too — or, when the operation outruns the fuse,
/// right after it.
const FUSE_SPAN: u64 = 64;

/// One worker of [`run_scenario`]: runs `op(0..ops)` — each `false` once
/// the crash killed it — and, if it completes the scenario's `target`-th
/// operation, crashes its next one at instrumented operation `fuse`. A crash
/// landing only where workers are parked (on the simulator's registry lock,
/// mostly while filling a descriptor) would almost never hit an operation
/// between its effect and its return.
fn fused_worker(
    ops: usize,
    progress: &AtomicU64,
    target: u64,
    fuse: u64,
    mut op: impl FnMut(u64) -> bool,
) {
    let mut lit = false;
    for i in 0..ops as u64 {
        if lit {
            sim::crash_after(fuse);
        }
        if !op(i) {
            return;
        }
        if lit {
            sim::trigger_crash(); // the operation outran the fuse
        }
        lit = progress.fetch_add(1, Relaxed) + 1 == target;
    }
    if lit {
        sim::trigger_crash();
    }
}

fn busy_wait_us(us: u64) {
    let start = Instant::now();
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
fn watchdog_crash(progress: &AtomicU64, target: u64, seed: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while progress.load(Relaxed) < target && !sim::crash_armed() {
        if Instant::now() >= deadline {
            eprintln!(
                "crash harness watchdog: seed {seed}: workers stalled below target; arming crash"
            );
            sim::trigger_crash();
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How long the last recovery round of a scenario may run: each pending
/// process recovers one operation, which takes milliseconds in a debug
/// build.
const RECOVERY_DEADLINE: Duration = Duration::from_secs(30);

/// Waits until every thread of `handles` has finished or `limit` has
/// passed; whether they all finished.
fn finish_by(handles: &[std::thread::JoinHandle<()>], limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    while !handles.iter().all(|h| h.is_finished()) {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// One shape of an `Isb-LP` publication under crash: what the structure
/// holds, the operation crashed, and another process's operation on the
/// same cells.
#[derive(Debug, Clone, Copy)]
pub struct Publication<'a> {
    /// Run by the crashed process before the clean start: inserts of
    /// distinct keys, or puts.
    pub prefill: &'a [Op],
    /// The operation crashed, at every instruction, by process 1.
    pub crashed: Op,
    /// Process 0's operation on the cells the crashed one publishes over,
    /// run on each crash image before or after process 1 recovers.
    pub other: Op,
}

/// The validated-publication sweep: crashes `shape.crashed` on process 1
/// at every instruction of it, over `seeds` images each — and over eight
/// times as many inside the publication window, from its first write-back
/// to its first `psync`'s return, where its descriptor, its new nodes and
/// its recovery line reach media in any subset. Each instruction and seed
/// has an image of its own; odd seeds roll back one word in 8
/// ([`sim::build_crash_image_dropping`]), which makes a torn object beside
/// complete ones that name it common. On every image process 0 runs
/// `shape.other` on the same cells — before process 1 recovers on half the
/// seeds, after it on the other half — and the settled structure is judged
/// by both oracles: exactly-once
/// ([`check_sets`] / [`check_ledger`]: the two processes' keys differ) and
/// linearizability ([`lincheck`], the crashed operation spanning its
/// invocation to its recovery, the contents read back after). Returns the
/// crashes run; panics, naming fuse and seed, on a violation.
pub fn publication_sweep<S: Target + Default>(shape: Publication<'_>, seeds: u64) -> u64 {
    let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    let _sim = sim::begin_session();
    sim::quiet_crash_panics();
    let mut crashes = 0;
    for fuse in 1.. {
        let mut images = seeds;
        let mut seed = 0;
        while seed < images {
            let Some(in_window) = publication_round::<S>(shape, fuse, seed) else {
                sim::reset();
                return crashes;
            };
            if in_window {
                images = 8 * seeds;
            }
            crashes += 1;
            seed += 1;
        }
    }
    unreachable!("an operation runs a finite number of instructions")
}

/// One round of [`publication_sweep`]: `None` when the operation outran
/// `fuse`, else whether the crash landed in the publication window.
fn publication_round<S: Target + Default>(
    shape: Publication<'_>,
    fuse: u64,
    seed: u64,
) -> Option<bool> {
    let name = std::any::type_name::<S>();
    sim::reset();
    nvm::tid::set_tid(1);
    let mut s = S::default();
    let mut hist = Vec::new();
    let mut record = |op, (invoked, ret, returned)| {
        let thread = hist.len();
        hist.push(lincheck::OpRec { thread, op, ret, invoked, returned });
    };
    for &op in shape.prefill {
        record(op, timed(|| s.invoke(1, op)));
    }
    sim::persist_all();
    let (invoked, before) = (now(), nvm::stats::Snapshot::of_tid(1));
    sim::crash_after(fuse);
    if sim::run_crashable(|| s.invoke(1, shape.crashed)).is_ok() {
        return None;
    }
    let ran = nvm::stats::Snapshot::of_tid(1).since(&before);
    let in_window = ran.pwb > 0 && ran.psync == 0;
    sim::build_crash_image_dropping(seed << 32 | fuse, if seed.is_multiple_of(2) { 2 } else { 8 });
    // SAFETY: quiescent; crash runs free nothing.
    let found = unsafe { s.describe(1) };
    let other = |s: &S| {
        nvm::tid::set_tid(0);
        timed(|| s.invoke(0, shape.other))
    };
    // Half the seeds run the other process first: its tags and links may
    // take the cells the crashed publication expected. The other half
    // recover first, so a publication recovery wrongly trusts is applied.
    let before = (seed % 4 < 2).then(|| other(&s));
    nvm::tid::set_tid(1);
    let mine = s.recover(1, shape.crashed);
    record(shape.crashed, (invoked, mine, now()));
    let theirs = before.unwrap_or_else(|| other(&s));
    record(shape.other, theirs);
    let (theirs, contents) = (theirs.1, s.settle());
    let at = format!("{name} {shape:?} fuse {fuse} seed {seed}, recovery found {found}");
    let histories = [
        History { done: vec![(shape.other, theirs)], pending: None },
        History { done: vec![(shape.crashed, mine)], pending: None },
    ];
    let initial: Vec<u64> = shape.prefill.iter().filter_map(added).collect();
    let verdict = match s.bag() {
        None => check_sets(&initial, &histories, &contents),
        Some(_) => check_ledger(&initial, &histories, &contents),
    };
    verdict.unwrap_or_else(|e| panic!("{at}: {e}"));
    for (op, ret) in read_back(s.bag(), shape, &contents) {
        record(op, timed(|| ret));
    }
    assert!(lincheck::is_linearizable(&OpSpec, &hist), "{at}: not linearizable: {hist:?}");
    Some(in_window)
}

/// The key a set operation names.
fn key(op: &Op) -> Option<u64> {
    match *op {
        Op::Insert(k) | Op::Delete(k) | Op::Find(k) => Some(k),
        _ => None,
    }
}

/// What a prefill operation adds: an insert's key, a put's value.
fn added(op: &Op) -> Option<u64> {
    match *op {
        Op::Insert(v) | Op::Enqueue(v) | Op::Push(v) => Some(v),
        _ => None,
    }
}

/// A timestamp of [`lincheck::clock`].
fn now() -> u64 {
    lincheck::clock::now()
}

/// `f`'s answer between its invocation and its response timestamps.
fn timed<R>(f: impl FnOnce() -> R) -> (u64, R, u64) {
    let invoked = now();
    let ret = f();
    (invoked, ret, now())
}

/// The operations that read `contents` back, with their answers: a
/// membership test per key `shape` names, or every value taken in order
/// and one take on empty.
fn read_back(bag: Option<PutTake>, shape: Publication<'_>, contents: &[u64]) -> Vec<(Op, Resp)> {
    let Some((_, take)) = bag else {
        let keys = shape.prefill.iter().chain([&shape.crashed, &shape.other]);
        let keys: HashSet<u64> = keys.filter_map(key).collect();
        return keys
            .into_iter()
            .map(|k| (Op::Find(k), Resp::Bool(contents.contains(&k))))
            .collect();
    };
    let taken = contents.iter().map(|&v| (take, Resp::Val(Some(v))));
    taken.chain([(take, Resp::Val(None))]).collect()
}

/// [`lincheck`]'s sequential specification of the [`Op`] vocabulary: the
/// state of one structure of each kind ([`SeqModel`]).
struct OpSpec;

impl lincheck::Spec for OpSpec {
    type State = (std::collections::BTreeSet<u64>, std::collections::VecDeque<u64>, Vec<u64>);
    type Op = Op;
    type Ret = Resp;

    fn init(&self) -> Self::State {
        Default::default()
    }

    fn apply(&self, s: &Self::State, op: &Op) -> (Self::State, Resp) {
        let mut m =
            SeqModel { set: s.0.iter().copied().collect(), fifo: s.1.clone(), lifo: s.2.clone() };
        let ret = m.apply(*op);
        ((m.set.into_iter().collect(), m.fifo, m.lifo), ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(done: &[(Op, Resp)], pending: Option<Op>) -> History {
        History { done: done.to_vec(), pending }
    }

    const T: Resp = Resp::Bool(true);
    const F: Resp = Resp::Bool(false);

    #[test]
    fn the_set_oracle_replays_every_process() {
        // Process 0 owns keys 1..=2 (1 prefilled), process 1 keys 3..=4.
        let h0 = history(&[(Op::Delete(1), T), (Op::Insert(2), T)], None);
        let h1 = history(&[(Op::Find(3), F), (Op::Insert(3), T)], None);
        assert_eq!(check_sets(&[1], &[h0.clone(), h1.clone()], &[2, 3]), Ok(()));
        // A lost value: the acked insert of 3 is not there.
        let e = check_sets(&[1], &[h0.clone(), h1.clone()], &[2]).unwrap_err();
        assert!(e.contains("key 3 is absent"), "{e}");
        // A duplicated value: key 2 twice, or an insert applied twice.
        let e = check_sets(&[1], &[h0.clone(), h1.clone()], &[2, 2, 3]).unwrap_err();
        assert!(e.contains("duplicated at 2"), "{e}");
        let twice = history(&[(Op::Insert(3), T), (Op::Insert(3), T)], None);
        let e = check_sets(&[1], &[h0.clone(), twice], &[2, 3]).unwrap_err();
        assert!(e.contains("proc 1 op #1 Insert(3) returned Bool(true)"), "{e}");
        // A wrong set response.
        let wrong = history(&[(Op::Find(1), F)], None);
        let e = check_sets(&[1], &[wrong], &[1]).unwrap_err();
        assert!(e.contains("proc 0 op #0 Find(1)"), "{e}");
        // A pending (never recovered) operation may or may not have taken
        // effect — and touches nothing but its own key.
        for contents in [&[1, 2][..], &[1]] {
            let h = history(&[], Some(Op::Insert(2)));
            assert_eq!(check_sets(&[1], &[h], contents), Ok(()), "{contents:?}");
        }
        let h = history(&[], Some(Op::Insert(2)));
        assert!(check_sets(&[1], &[h], &[2]).is_err(), "the pending insert lost key 1");
        let h = history(&[], Some(Op::Insert(1)));
        assert!(check_sets(&[1], &[h], &[]).is_err(), "an insert of a present key deletes");
    }

    #[test]
    fn the_ledger_loses_and_duplicates_nothing() {
        const P: u64 = PREFILLED;
        let prod = history(&[(Op::Enqueue(7), Resp::Unit), (Op::Enqueue(8), Resp::Unit)], None);
        let cons =
            history(&[(Op::Dequeue, Resp::Val(Some(P))), (Op::Dequeue, Resp::Val(None))], None);
        let ok = check_ledger(&[P, P + 1], &[prod.clone(), cons.clone()], &[P + 1, 7, 8]);
        assert_eq!(ok, Ok(()));
        // A lost value: an acked put, or a prefilled one.
        let e = check_ledger(&[P, P + 1], &[prod.clone(), cons.clone()], &[P + 1, 7]).unwrap_err();
        assert!(e.contains("acked values [8] lost"), "{e}");
        let e = check_ledger(&[P, P + 1], &[prod.clone(), cons.clone()], &[7, 8]).unwrap_err();
        assert!(e.contains(&format!("acked values [{}] lost", P + 1)), "{e}");
        // A duplicated value: taken and still there.
        let e = check_ledger(&[P, P + 1], &[prod.clone(), cons.clone()], &[P, P + 1, 7, 8])
            .unwrap_err();
        assert!(e.contains(&format!("value {P} appears 2 times")), "{e}");
        // A wrong response, and a value nobody put.
        let wrong = history(&[(Op::Push(7), Resp::Bool(true))], None);
        let e = check_ledger(&[], &[wrong], &[7]).unwrap_err();
        assert!(e.contains("proc 0 op #0 Push(7) answered Bool(true)"), "{e}");
        let e = check_ledger(&[], &[], &[9]).unwrap_err();
        assert!(e.contains("value 9 was never put"), "{e}");
        // A pending put may or may not have taken effect, and so may a
        // pending take — which takes one value at most.
        for contents in [&[5][..], &[]] {
            let h = history(&[], Some(Op::Push(5)));
            assert_eq!(check_ledger(&[], &[h], contents), Ok(()), "{contents:?}");
        }
        let pop = [history(&[], Some(Op::Pop))];
        for contents in [&[P, P + 1][..], &[P + 1]] {
            assert_eq!(check_ledger(&[P, P + 1], &pop, contents), Ok(()), "{contents:?}");
        }
        let e = check_ledger(&[P, P + 1], &pop, &[]).unwrap_err();
        assert!(e.contains("lost"), "{e}");
    }
}
