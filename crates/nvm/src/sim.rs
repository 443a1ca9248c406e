//! [`SimNvm`]: shadow-tracked persistent memory with system-wide crash
//! injection.
//!
//! Semantics (DESIGN.md §3): every [`PWord`] has, besides its volatile value,
//! a *guaranteed-persisted* value. A `pwb` snapshots the volatile value with
//! a global sequence number into the issuing thread's outstanding set; a
//! `psync` (or `pfence`, which we conservatively treat as completing the
//! write-backs it orders — see DESIGN.md) commits the outstanding snapshots,
//! newest-sequence-wins per word. A **crash** arms a global flag; every
//! instrumented operation then terminates its thread by panicking with
//! [`CrashSignal`] (caught by [`run_crashable`]). Once all participant
//! threads are dead, [`build_crash_image`] rewrites each registered word to
//! either its guaranteed-persisted value or its latest volatile value
//! (seeded, per-word), modelling both lost write-backs and spontaneous cache
//! evictions. Recovery code then runs on the surviving image.
//!
//! Words that were never covered by a completed persist have the
//! [`POISON`] value as their persisted side; a correct algorithm never
//! publishes a reference to unpersisted state, so observing `POISON` through
//! a reachable pointer after a crash indicates a missing-flush bug.
//!
//! # Declared lines
//! A word is its own cache line unless an object declares a group of words
//! one line ([`declare_line`]). Hardware persists the stores to one line in
//! store order, so a declared line keeps its stores in order: a write-back
//! snapshots *how far* into that order the line reached when it was issued,
//! a fence commits that prefix, and the crash image persists some prefix of
//! the order from the last committed write-back up to the latest store —
//! never a later store without an earlier one. Every undeclared word keeps
//! the per-word drop above, with the same seeded choice as before any line
//! was declared. Lines are declared, not derived from addresses, because a
//! `PWord<SimNvm>` is larger than 8 bytes.
//!
//! # Registry contract
//! Words register themselves (address only) on first instrumented mutation.
//! The registry holds raw addresses, so the caller must (1) keep every
//! simulated structure alive until [`reset`] is called, and (2) call
//! [`reset`] after dropping them and before building new ones. The helpers
//! in the test harness (`isb-bench::crash`) enforce this discipline.
//!
//! **The registry is process-global**: at most ONE crash-simulation session
//! (structure lifetime + crash + [`build_crash_image`] + [`reset`]) may be
//! active per process at a time. Two overlapping sessions would interleave
//! their registered words, and `build_crash_image` would poke addresses the
//! other session may already have freed — heap corruption, not a typed
//! failure. Wrap every session in a [`begin_session`] guard: a second
//! concurrent session then panics cleanly instead.

use crate::persist::Persist;
use crate::pword::{PWord, PersistWords};
use crate::stats;
use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::Mutex;

/// Value of the persisted shadow of a word that was never persisted.
pub const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// Per-word shadow metadata.
#[derive(Debug)]
pub struct SimMeta {
    registered: AtomicBool,
    /// Global sequence number at construction: a word older than the last
    /// [`persist_all`] was part of the clean start that call declared.
    born: u64,
    /// Sequence number of the last committed write-back.
    pseq: AtomicU64,
    /// Last guaranteed-persisted value ([`POISON`] if none).
    persisted: AtomicU64,
    /// Declared line: 0 = the word is its own line, else index + 1 into
    /// `Globals::lines`.
    line: AtomicUsize,
}

impl Default for SimMeta {
    fn default() -> Self {
        Self {
            registered: AtomicBool::new(false),
            born: globals().seq.load(Relaxed),
            pseq: AtomicU64::new(0),
            persisted: AtomicU64::new(POISON),
            line: AtomicUsize::new(0),
        }
    }
}

/// One declared line: its words' persisted sides hold the committed prefix,
/// `log` the stores after it.
struct Line {
    words: Vec<usize>,
    /// `(word address, value)` of every store since the committed prefix,
    /// in store order.
    log: Vec<(usize, u64)>,
    /// Position of `log[0]` in the line's store order.
    start: u64,
}

struct Globals {
    registry: Mutex<Vec<usize>>,
    lines: Mutex<Vec<Line>>,
    seq: AtomicU64,
    crash_armed: AtomicBool,
    /// Sequence number of the last [`persist_all`].
    clean_start: AtomicU64,
    commit_locks: Vec<Mutex<()>>,
    session_active: AtomicBool,
}

fn globals() -> &'static Globals {
    use std::sync::OnceLock;
    static G: OnceLock<Globals> = OnceLock::new();
    G.get_or_init(|| Globals {
        registry: Mutex::new(Vec::new()),
        lines: Mutex::new(Vec::new()),
        seq: AtomicU64::new(1),
        crash_armed: AtomicBool::new(false),
        clean_start: AtomicU64::new(0),
        commit_locks: (0..64).map(|_| Mutex::new(())).collect(),
        session_active: AtomicBool::new(false),
    })
}

/// RAII token for one exclusive crash-simulation session (see the module
/// docs' registry contract). Dropping it resets the simulator.
pub struct SimSession {
    _private: (),
}

/// Claims the process-wide crash-simulation session. Panics — cleanly,
/// before any registry state can interleave — if another session is already
/// active: the registry is a process-global singleton, and two concurrent
/// sessions would hand [`build_crash_image`] a mix of live and freed word
/// addresses (silent heap corruption). The crash harness acquires this
/// around every scenario; direct users of [`SimNvm`] structures should too.
pub fn begin_session() -> SimSession {
    let was_active = globals().session_active.swap(true, SeqCst);
    assert!(
        !was_active,
        "a SimNvm crash-simulation session is already active in this process: \
         the simulator registry is process-global, so concurrent sessions would \
         corrupt build_crash_image (see nvm::sim's registry contract)"
    );
    SimSession { _private: () }
}

impl Drop for SimSession {
    fn drop(&mut self) {
        reset();
        globals().session_active.store(false, SeqCst);
    }
}

thread_local! {
    /// (word address, snapshot, sequence) of this thread's outstanding pwbs.
    static OUTSTANDING: RefCell<Vec<(usize, u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread dies when the crash flag is armed.
    static CRASHABLE: Cell<bool> = const { Cell::new(false) };
    /// Instrumented operations this thread still executes before it arms the
    /// crash itself (0 = no fuse lit); see [`crash_after`].
    static FUSE: Cell<u64> = const { Cell::new(0) };
}

/// Panic payload used to kill threads on a simulated crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal;

/// Error returned by [`run_crashable`] when the closure died in a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crashed;

#[inline]
fn maybe_crash() {
    if !CRASHABLE.with(|c| c.get()) {
        return;
    }
    FUSE.with(|f| match f.get() {
        0 => {}
        1 => {
            f.set(0);
            trigger_crash();
        }
        n => f.set(n - 1),
    });
    if globals().crash_armed.load(Relaxed) {
        std::panic::panic_any(CrashSignal);
    }
}

/// First instrumented mutation or write-back of `w` (called before it takes
/// effect). A word that was already there at the clean start — a root or
/// sentinel its constructor initialised and the prefill never wrote — holds
/// its initial value durably, not [`POISON`].
#[inline]
fn register(w: &PWord<SimNvm>) {
    if !w.meta.registered.swap(true, Relaxed) {
        let g = globals();
        if w.meta.born < g.clean_start.load(Relaxed) {
            w.meta.persisted.store(w.v.load(SeqCst), Release);
        }
        g.registry.lock().unwrap().push(w as *const _ as usize);
    }
}

/// The word at a registered address.
fn word(addr: usize) -> &'static PWord<SimNvm> {
    // SAFETY: registry contract — the word outlives the simulation session.
    unsafe { &*(addr as *const PWord<SimNvm>) }
}

/// Index of `w`'s declared line, if it has one.
#[inline]
fn line_of(w: &PWord<SimNvm>) -> Option<usize> {
    w.meta.line.load(Relaxed).checked_sub(1)
}

/// Declares `words` one cache line (see the module docs): from now on a
/// crash persists a prefix of their store order, and a write-back of any
/// of them writes back the whole line as it stands. A word whose current
/// value is not yet durable enters the line as a pending store. Declare an
/// object once, before the operations under test and with no write-back
/// of its words outstanding; stores to one line must not race.
pub fn declare_line(words: &[&PWord<SimNvm>]) {
    let mut lines = globals().lines.lock().unwrap();
    let mut line = Line { words: Vec::new(), log: Vec::new(), start: 0 };
    for &w in words {
        register(w);
        let prev = w.meta.line.swap(lines.len() + 1, Relaxed);
        assert_eq!(prev, 0, "a word belongs to one declared line");
        let addr = w as *const _ as usize;
        line.words.push(addr);
        let v = w.v.load(SeqCst);
        if w.meta.persisted.load(Acquire) != v {
            line.log.push((addr, v));
        }
    }
    lines.push(line);
}

/// `write` performed on `w` — for a word of a declared line under the line
/// lock, recording the store (if `write` reports one) in the line's order.
#[inline]
fn mutate<R>(w: &PWord<SimNvm>, write: impl FnOnce() -> (R, Option<u64>)) -> R {
    let Some(idx) = line_of(w) else { return write().0 };
    let mut lines = globals().lines.lock().unwrap();
    let (r, stored) = write();
    if let Some(v) = stored {
        lines[idx].log.push((w as *const _ as usize, v));
    }
    r
}

/// Queues a write-back of `w` on this thread's outstanding set. The snapshot
/// is the word's value — or, for a declared line, how far into the line's
/// store order the write-back reaches.
fn write_back(w: &PWord<SimNvm>) {
    register(w);
    let seq = globals().seq.fetch_add(1, Relaxed);
    let snap = match line_of(w) {
        None => w.v.load(SeqCst),
        Some(idx) => {
            let lines = globals().lines.lock().unwrap();
            lines[idx].start + lines[idx].log.len() as u64
        }
    };
    OUTSTANDING.with(|o| o.borrow_mut().push((w as *const _ as usize, snap, seq)));
}

/// Makes line `idx` durable through position `upto` of its store order.
fn commit_line(idx: usize, upto: u64) {
    let mut lines = globals().lines.lock().unwrap();
    let line = &mut lines[idx];
    let n = upto.saturating_sub(line.start) as usize;
    for (addr, v) in line.log.drain(..n) {
        word(addr).meta.persisted.store(v, Release);
    }
    line.start += n as u64;
}

fn commit(addr: usize, snap: u64, seq: u64) {
    let g = globals();
    let w = word(addr);
    if let Some(idx) = line_of(w) {
        return commit_line(idx, snap);
    }
    let _lk = g.commit_locks[(addr >> 3) % g.commit_locks.len()].lock().unwrap();
    if w.meta.pseq.load(Acquire) < seq {
        w.meta.persisted.store(snap, Release);
        w.meta.pseq.store(seq, Release);
    }
}

fn commit_outstanding(check: bool) {
    OUTSTANDING.with(|o| {
        let mut o = o.borrow_mut();
        // Drain front-to-back so a mid-psync crash leaves a realistic prefix
        // of the write-backs committed.
        for (addr, snap, seq) in o.drain(..) {
            if check {
                maybe_crash();
            }
            commit(addr, snap, seq);
        }
    });
}

/// The crash-simulation persistency model.
pub struct SimNvm;

impl Persist for SimNvm {
    const NAME: &'static str = "sim";
    const SIMULATED: bool = true;
    type Meta = SimMeta;

    #[inline]
    fn load(w: &PWord<Self>) -> u64 {
        maybe_crash();
        w.v.load(Acquire)
    }
    #[inline]
    fn store(w: &PWord<Self>, v: u64) {
        maybe_crash();
        register(w);
        mutate(w, || (w.v.store(v, Release), Some(v)));
    }
    #[inline]
    fn cas(w: &PWord<Self>, old: u64, new: u64) -> u64 {
        maybe_crash();
        register(w);
        mutate(w, || match w.v.compare_exchange(old, new, SeqCst, SeqCst) {
            Ok(p) => (p, Some(new)),
            Err(p) => (p, None),
        })
    }

    fn pwb(w: &PWord<Self>) {
        maybe_crash();
        write_back(w);
        stats::count_pwb(1);
    }
    fn pfence() {
        // Conservative: treat ordered write-backs as completed (DESIGN.md §3).
        maybe_crash();
        commit_outstanding(true);
        stats::count_pfence();
    }
    fn psync() {
        maybe_crash();
        commit_outstanding(true);
        stats::count_psync();
    }
    fn pbarrier(w: &PWord<Self>) {
        maybe_crash();
        write_back(w);
        // The fence half of a pbarrier completes the write-backs it orders —
        // including every *preceding* outstanding pwb (DESIGN.md §3; on real
        // hardware the mfence drains all prior clflushes, not just this
        // one). Draining front-to-back keeps the realistic mid-crash prefix.
        commit_outstanding(true);
        stats::count_pbarrier(1);
    }
    fn pwb_obj<T: PersistWords<Self> + ?Sized>(obj: &T) {
        let mut n = 0;
        obj.each_word(&mut |w| {
            Self::pwb(w);
            n += 1;
        });
        let _ = n;
    }
    fn pbarrier_obj<T: PersistWords<Self> + ?Sized>(obj: &T) {
        maybe_crash();
        let mut lines = 0;
        obj.each_word(&mut |w| {
            write_back(w);
            lines += 1;
        });
        // Fence half: completes this object's write-backs AND every
        // preceding outstanding pwb (see `pbarrier`) — the paper's
        // `pbarrier(newcurr, newnd, *opInfo)` makes the *whole* attempt
        // durable, not just the descriptor.
        commit_outstanding(true);
        stats::count_pbarrier(lines);
    }

    #[inline]
    fn check_crash() {
        maybe_crash();
    }
}

/// Runs `f` with crash injection suspended on this thread. Models actions of
/// the *system* (e.g., setting `CP_q := 0` before an operation starts),
/// which the paper's model does not subject to crashes.
pub fn suspended<R>(f: impl FnOnce() -> R) -> R {
    CRASHABLE.with(|c| {
        let old = c.get();
        c.set(false);
        let r = f();
        c.set(old);
        r
    })
}

/// Marks the calling thread as a crash participant and runs `f`, converting
/// a simulated crash into `Err(Crashed)`. Other panics propagate.
pub fn run_crashable<R>(f: impl FnOnce() -> R) -> Result<R, Crashed> {
    CRASHABLE.with(|c| c.set(true));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CRASHABLE.with(|c| c.set(false));
    OUTSTANDING.with(|o| o.borrow_mut().clear());
    FUSE.with(|f| f.set(0));
    match r {
        Ok(v) => Ok(v),
        Err(payload) => {
            if payload.downcast_ref::<CrashSignal>().is_some() {
                Err(Crashed)
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}

/// Arms the system-wide crash: every participant thread dies at its next
/// instrumented memory operation.
pub fn trigger_crash() {
    globals().crash_armed.store(true, SeqCst);
}

/// Lights a fuse on the calling thread: the crash is armed the moment the
/// thread, running inside [`run_crashable`], reaches its `n`-th instrumented
/// operation from now, and it dies there, before that operation takes
/// effect. Operations under [`suspended`] do not burn the fuse. Sweeping `n`
/// from 1 until the closure completes therefore crashes a single-threaded
/// sequence at every load, store, write-back and fence commit in turn. A
/// fuse that has not burnt down goes out when [`run_crashable`] returns.
pub fn crash_after(n: u64) {
    FUSE.with(|f| f.set(n));
}

/// True while a crash is armed.
pub fn crash_armed() -> bool {
    globals().crash_armed.load(Relaxed)
}

/// Installs a panic hook that silences [`CrashSignal`] unwinds (idempotent).
pub fn quiet_crash_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                default(info);
            }
        }));
    });
}

/// SplitMix64 — tiny deterministic PRNG for per-word image choices.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Statistics from [`build_crash_image`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageReport {
    /// Registered words examined.
    pub words: usize,
    /// Words rolled back to their guaranteed-persisted value.
    pub rolled_back: usize,
    /// Words that kept their latest volatile value ("evicted in time").
    pub kept_latest: usize,
    /// Words whose persisted side was still [`POISON`] and which rolled back
    /// to it (never-persisted state an algorithm must not depend on).
    pub poisoned: usize,
}

impl ImageReport {
    /// Counts one word of the image: `choice` survived where `latest` was
    /// the volatile value.
    fn count(&mut self, latest: u64, choice: u64) {
        self.words += 1;
        if choice == latest {
            self.kept_latest += 1;
        } else {
            self.rolled_back += 1;
            self.poisoned += (choice == POISON) as usize;
        }
    }
}

/// Installs `choice` as both sides of `w`: the surviving image *is* the
/// durable state now.
fn settle(w: &PWord<SimNvm>, choice: u64) {
    w.v.store(choice, SeqCst);
    w.meta.persisted.store(choice, Release);
    w.meta.pseq.store(globals().seq.fetch_add(1, Relaxed), Release);
}

/// Reconstructs the post-crash NVM image and disarms the crash flag.
///
/// Per registered undeclared word, chooses (seeded by `seed`) between the
/// guaranteed-persisted value and the latest volatile value; per declared
/// line, chooses (from a second stream of the same seed) how many of its
/// uncommitted stores survive, in order. The choice overwrites the volatile
/// values so recovery code observes the NVM state.
///
/// # Safety contract
/// Must only be called when **no participant thread is running**, and every
/// structure whose words are registered must still be alive.
pub fn build_crash_image(seed: u64) -> ImageReport {
    build_crash_image_dropping(seed, 2)
}

/// [`build_crash_image`] with each undeclared word not yet durable rolled
/// back with probability `1 / drop_one_in` (2: the even choice). A sparse
/// drop (8, say) makes images in which nearly everything of a fence window
/// reached media but one word common, where the even choice needs every
/// word's coin: an object torn beside a complete one that names it.
///
/// # Safety contract
/// As [`build_crash_image`].
pub fn build_crash_image_dropping(seed: u64, drop_one_in: u64) -> ImageReport {
    assert!(drop_one_in >= 2, "a word rolls back one time in {drop_one_in}");
    let g = globals();
    assert!(g.crash_armed.load(SeqCst), "build_crash_image without a triggered crash");
    let mut rng = seed ^ 0xA076_1D64_78BD_642F;
    let mut rep = ImageReport::default();
    let reg = g.registry.lock().unwrap();
    for w in reg.iter().map(|&addr| word(addr)).filter(|w| line_of(w).is_none()) {
        let latest = w.v.load(SeqCst);
        let persisted = w.meta.persisted.load(Acquire);
        // For 2 this is the even draw of every seed's history: `& 1 == 0`.
        let keep = persisted == latest || splitmix(&mut rng) % drop_one_in != drop_one_in - 1;
        let choice = if keep { latest } else { persisted };
        rep.count(latest, choice);
        settle(w, choice);
    }
    drop(reg);
    let mut rng = seed ^ 0x2D35_8DCC_AA6C_78A5;
    for line in g.lines.lock().unwrap().iter_mut() {
        let prefix = match line.log.len() {
            0 => 0,
            n => (splitmix(&mut rng) % (n as u64 + 1)) as usize,
        };
        let mut image: Vec<(usize, u64)> =
            line.words.iter().map(|&a| (a, word(a).meta.persisted.load(Acquire))).collect();
        for &(addr, v) in &line.log[..prefix] {
            image.iter_mut().find(|(a, _)| *a == addr).expect("a word of the line").1 = v;
        }
        for (addr, choice) in image {
            rep.count(word(addr).v.load(SeqCst), choice);
            settle(word(addr), choice);
        }
        line.start += line.log.len() as u64;
        line.log.clear();
    }
    g.crash_armed.store(false, SeqCst);
    rep
}

/// Marks every registered word as persisted at its current volatile value,
/// and every word constructed so far but not yet registered as persisted at
/// the value it registers with. Call after building initial structures,
/// modelling a clean start.
pub fn persist_all() {
    let g = globals();
    g.clean_start.store(g.seq.fetch_add(1, Relaxed) + 1, Relaxed);
    for w in g.registry.lock().unwrap().iter().map(|&addr| word(addr)) {
        w.meta.persisted.store(w.v.load(SeqCst), Release);
        w.meta.pseq.store(g.seq.fetch_add(1, Relaxed), Release);
    }
    for line in g.lines.lock().unwrap().iter_mut() {
        line.start += line.log.len() as u64;
        line.log.clear();
    }
}

/// Number of registered words (diagnostics).
pub fn registered_words() -> usize {
    globals().registry.lock().unwrap().len()
}

/// Clears the registry and the declared lines and disarms crashes. Call after dropping all
/// simulated structures and before building new ones.
///
/// # Single-session invariant
/// `reset` assumes it tears down **the** process-wide session: it clears
/// the whole global registry, so calling it while another thread's
/// simulated structures are still live would unregister their words
/// mid-scenario and desynchronize `build_crash_image`. Serialize sessions
/// with [`begin_session`], which panics on overlap and resets on drop.
pub fn reset() {
    let g = globals();
    g.registry.lock().unwrap().clear();
    g.lines.lock().unwrap().clear();
    g.crash_armed.store(false, SeqCst);
    OUTSTANDING.with(|o| o.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tid;

    // The sim registry is global; serialize tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unsynced_pwb_is_not_guaranteed() {
        let _l = LOCK.lock().unwrap();
        reset();
        tid::set_tid(0);
        let w: Box<PWord<SimNvm>> = Box::new(PWord::new(0));
        w.store(1);
        SimNvm::pwb(&w);
        // No psync yet: persisted side must still be POISON.
        assert_eq!(w.meta.persisted.load(Acquire), POISON);
        SimNvm::psync();
        assert_eq!(w.meta.persisted.load(Acquire), 1);
        reset();
    }

    /// A word built before `persist_all` and first written after it (a
    /// structure's root the prefill never touched) rolls back to the value
    /// it was built with; one built after it still rolls back to POISON.
    #[test]
    fn words_of_the_clean_start_hold_their_initial_value() {
        let _l = LOCK.lock().unwrap();
        reset();
        tid::set_tid(0);
        let root: Box<PWord<SimNvm>> = Box::new(PWord::new(7));
        persist_all();
        let fresh: Box<PWord<SimNvm>> = Box::new(PWord::new(7));
        root.cas(7, 8);
        fresh.cas(7, 8);
        assert_eq!(root.meta.persisted.load(Acquire), 7);
        assert_eq!(fresh.meta.persisted.load(Acquire), POISON);
        reset();
    }

    #[test]
    fn psync_commits_snapshot_not_latest() {
        let _l = LOCK.lock().unwrap();
        reset();
        tid::set_tid(0);
        let w: Box<PWord<SimNvm>> = Box::new(PWord::new(0));
        w.store(1);
        SimNvm::pwb(&w); // snapshot = 1
        w.store(2); // dirtied again after the write-back
        SimNvm::psync();
        assert_eq!(w.meta.persisted.load(Acquire), 1);
        assert_eq!(w.load(), 2);
        reset();
    }

    #[test]
    fn newer_writeback_wins() {
        let _l = LOCK.lock().unwrap();
        reset();
        tid::set_tid(0);
        let w: Box<PWord<SimNvm>> = Box::new(PWord::new(0));
        w.store(1);
        SimNvm::pwb(&w);
        w.store(2);
        SimNvm::pwb(&w);
        SimNvm::psync();
        assert_eq!(w.meta.persisted.load(Acquire), 2);
        reset();
    }

    #[test]
    fn pbarrier_commits_immediately() {
        let _l = LOCK.lock().unwrap();
        reset();
        tid::set_tid(0);
        let w: Box<PWord<SimNvm>> = Box::new(PWord::new(0));
        w.store(7);
        SimNvm::pbarrier(&w);
        assert_eq!(w.meta.persisted.load(Acquire), 7);
        reset();
    }

    #[test]
    fn crash_kills_participants_and_image_restores() {
        let _l = LOCK.lock().unwrap();
        reset();
        quiet_crash_panics();
        tid::set_tid(0);
        let w: Box<PWord<SimNvm>> = Box::new(PWord::new(0));
        w.store(1);
        SimNvm::pwb(&w);
        SimNvm::psync(); // guaranteed: 1
        w.store(2); // volatile only
        trigger_crash();
        let r = run_crashable(|| {
            w.load(); // dies here
            unreachable!()
        });
        assert_eq!(r, Err(Crashed));
        // Build many images: with 2 as latest and 1 persisted, both values
        // must be observed across seeds.
        let mut saw = [false, false];
        for seed in 0..32 {
            w.poke(2); // restore "volatile" side for a fresh choice
            globals().crash_armed.store(true, SeqCst);
            build_crash_image(seed);
            match w.peek() {
                1 => saw[0] = true,
                2 => saw[1] = true,
                x => panic!("unexpected image value {x}"),
            }
            w.meta.persisted.store(1, Release); // re-arm the scenario
        }
        assert!(saw[0] && saw[1], "image must explore both persisted and latest values");
        reset();
    }

    #[test]
    fn non_participants_survive_crash() {
        let _l = LOCK.lock().unwrap();
        reset();
        tid::set_tid(0);
        let w: Box<PWord<SimNvm>> = Box::new(PWord::new(0));
        trigger_crash();
        // Not inside run_crashable: operations proceed.
        w.store(3);
        assert_eq!(w.load(), 3);
        reset();
    }

    #[test]
    fn concurrent_sessions_panic_cleanly() {
        let _l = LOCK.lock().unwrap();
        let s1 = begin_session();
        let second = std::panic::catch_unwind(|| drop(begin_session()));
        assert!(second.is_err(), "a second concurrent session must panic, not corrupt");
        drop(s1);
        // After the first session ends, a fresh one is fine again.
        drop(begin_session());
    }

    /// Fresh words holding 0, durable through a clean start.
    fn clean_words<const N: usize>() -> [Box<PWord<SimNvm>>; N] {
        let ws = std::array::from_fn(|_| Box::new(PWord::new(0)));
        persist_all();
        ws
    }

    fn crash_image(seed: u64) {
        trigger_crash();
        build_crash_image(seed);
    }

    /// Length of the prefix of `order` (indices into `ws`, the value each
    /// store wrote) that the image holds, or `None` for a non-prefix.
    fn prefix_of(ws: &[Box<PWord<SimNvm>>], order: &[(usize, u64)]) -> Option<usize> {
        let k = order.iter().take_while(|&&(i, v)| ws[i].peek() == v).count();
        order[k..].iter().all(|&(i, _)| ws[i].peek() == 0).then_some(k)
    }

    /// Stores to a declared line survive a crash as a prefix of their
    /// order (not of the declaration's or the addresses'), every prefix is
    /// reachable, and a failed CAS is no store.
    #[test]
    fn a_declared_line_persists_every_prefix_of_its_store_order_and_nothing_else() {
        let _l = LOCK.lock().unwrap();
        let orders: [&[(usize, u64)]; 2] = [&[(1, 5), (0, 6)], &[(2, 7), (0, 8), (1, 9)]];
        for order in orders {
            let mut seen = vec![false; order.len() + 1];
            for seed in 0..64 {
                reset();
                tid::set_tid(0);
                let ws = clean_words::<3>();
                let n = order.len();
                declare_line(&ws[..n].iter().map(|w| &**w).collect::<Vec<_>>());
                for &(i, v) in order {
                    ws[i].cas(99, 1); // fails: not a store
                    assert_eq!(ws[i].cas(0, v), 0);
                }
                crash_image(seed);
                let k = prefix_of(&ws[..n], order)
                    .unwrap_or_else(|| panic!("seed {seed}: non-prefix image of {order:?}"));
                seen[k] = true;
            }
            assert!(seen.iter().all(|&s| s), "{order:?}: prefixes seen {seen:?}");
        }
        reset();
    }

    /// A write-back captures the line as it stood when issued: a store
    /// after it stays droppable, everything before it survives the fence.
    #[test]
    fn a_line_write_back_snapshots_the_line_when_issued() {
        let _l = LOCK.lock().unwrap();
        let mut dropped = false;
        for seed in 0..32 {
            reset();
            tid::set_tid(0);
            let ws = clean_words::<3>();
            declare_line(&[&ws[0], &ws[1], &ws[2]]);
            ws[0].store(1);
            ws[1].store(2);
            SimNvm::pwb(&ws[2]); // any word writes back the whole line
            ws[2].store(3);
            SimNvm::psync();
            assert_eq!([0, 1, 2].map(|i| ws[i].meta.persisted.load(Acquire)), [1, 2, 0]);
            crash_image(seed);
            assert_eq!((ws[0].peek(), ws[1].peek()), (1, 2), "seed {seed}: committed prefix lost");
            dropped |= ws[2].peek() == 0;
        }
        assert!(dropped, "the store after the write-back must be droppable");
        reset();
    }

    /// A psync that dies between two commits leaves the first write-back's
    /// prefix durable and the line still a prefix beyond it.
    #[test]
    fn a_crash_mid_psync_keeps_a_line_prefix() {
        let _l = LOCK.lock().unwrap();
        quiet_crash_panics();
        let order = [(0, 1), (1, 2), (2, 3)];
        let mut seen = [false; 4];
        for seed in 0..64 {
            reset();
            tid::set_tid(0);
            let ws = clean_words::<3>();
            declare_line(&[&ws[0], &ws[1], &ws[2]]);
            ws[0].store(1);
            SimNvm::pwb(&ws[0]); // reaches position 1
            ws[1].store(2);
            ws[2].store(3);
            SimNvm::pwb(&ws[1]); // reaches position 3
            let r = run_crashable(|| {
                // The psync itself, its first commit's check, then the
                // second commit's check: dies with one commit done.
                crash_after(3);
                SimNvm::psync();
            });
            assert_eq!(r, Err(Crashed));
            assert_eq!(ws[0].meta.persisted.load(Acquire), 1, "first commit done");
            assert_eq!(ws[1].meta.persisted.load(Acquire), 0, "second commit not done");
            build_crash_image(seed);
            let k = prefix_of(&ws, &order).unwrap_or_else(|| panic!("seed {seed}: non-prefix"));
            assert!(k >= 1, "seed {seed}: the committed prefix was lost");
            seen[k] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
        reset();
    }

    /// Undeclared words make today's per-word choice for a seed — the rule
    /// restated here — whether or not a declared line is registered among
    /// them.
    #[test]
    fn undeclared_words_keep_their_per_word_choices() {
        let _l = LOCK.lock().unwrap();
        for seed in 0..32 {
            let expected = {
                let mut rng = seed ^ 0xA076_1D64_78BD_642F;
                // (persisted, latest) per word: only the unequal ones draw.
                [(0, 1), (0, 0), (0, 3), (0, 4)].map(|(p, l)| {
                    if p == l || splitmix(&mut rng) & 1 == 0 {
                        l
                    } else {
                        p
                    }
                })
            };
            for with_line in [false, true] {
                reset();
                tid::set_tid(0);
                let ws = clean_words::<4>();
                let line = clean_words::<2>();
                ws[0].store(1);
                if with_line {
                    declare_line(&[&line[0], &line[1]]);
                    line[1].store(7);
                }
                ws[1].store(0);
                ws[2].store(3);
                if with_line {
                    line[0].store(8);
                }
                ws[3].store(4);
                crash_image(seed);
                assert_eq!(ws.each_ref().map(|w| w.peek()), expected, "seed {seed} {with_line}");
            }
        }
        reset();
    }

    #[test]
    fn persist_all_and_reset_clear_line_state() {
        let _l = LOCK.lock().unwrap();
        for seed in 0..8 {
            reset();
            tid::set_tid(0);
            let ws = clean_words::<2>();
            declare_line(&[&ws[0], &ws[1]]);
            ws[0].store(1);
            ws[1].store(2);
            persist_all();
            assert!(globals().lines.lock().unwrap()[0].log.is_empty());
            crash_image(seed);
            assert_eq!((ws[0].peek(), ws[1].peek()), (1, 2), "seed {seed}: clean start lost");
            ws[0].store(3);
            reset();
            assert!(globals().lines.lock().unwrap().is_empty());
            assert_eq!(registered_words(), 0);
        }
    }

    #[test]
    fn persist_all_marks_everything() {
        let _l = LOCK.lock().unwrap();
        reset();
        tid::set_tid(0);
        let a: Box<PWord<SimNvm>> = Box::new(PWord::new(0));
        let b: Box<PWord<SimNvm>> = Box::new(PWord::new(0));
        a.store(10);
        b.store(20);
        persist_all();
        assert_eq!(a.meta.persisted.load(Acquire), 10);
        assert_eq!(b.meta.persisted.load(Acquire), 20);
        reset();
    }
}
