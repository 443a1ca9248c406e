//! The SIGKILL kit: what the cross-process legs (`tests/restart.rs`,
//! `tests/exactly_once.rs`) share, once — the scratch directory, the child
//! process, the write-ahead journal and the check of a journal against a
//! recovery decision. The operations journaled are `bench_harness::ops`',
//! the vocabulary the `SimNvm` crash driver speaks too.
//!
//! A leg is: a parent test creates a [`Scratch`], spawns this same test
//! binary as a [`Child`] running one `#[ignore]`d child test, lets it hammer
//! a mapped heap through a [`Journal`], SIGKILLs it, re-attaches the heap
//! **from the parent process**, calls [`Scratch::resolve`] per journal and
//! sweeps the recovered structures against the model `resolve` filled.
//!
//! ## Journal protocol (one journal per worker, see [`Journal::invoke`])
//!
//! ```text
//! note_invocation(pid)               // CP_q := 0, persisted — the "system" half
//! write "S <seq> <st> <op> <arg>\n"  // intent record (one write syscall)
//! res = structure.op(pid, arg)
//! write "A <seq> <res>\n"            // ack record
//! ```
//!
//! `note_invocation` *before* the intent record is what makes every kill
//! point unambiguous: if the S record exists, `CP_q` was already cleared for
//! this operation, so a recovery decision of `Completed` can only refer to
//! *this* operation (never to the previous one), and `Restart` proves it
//! did not take effect. If the S record is missing, the operation never ran.
//!
//! ## Children
//!
//! A child is this test binary re-executed as `<exe> --exact <child test>
//! --include-ignored --nocapture scratch=<dir> <key>=<value>…`: libtest takes
//! the trailing words for further name filters, which match nothing, and the
//! child test reads them back through [`Scratch::of_child`]. A child test run
//! by hand (`-- --include-ignored`) finds no `scratch=` word and returns.
//!
//! ## When a round fails
//!
//! A [`Scratch`] dropped by a panic keeps its directory and prints where it
//! is, `nvm::mapped::describe_page0` of every heap in it, every journal's
//! length and last records, the children spawned and the decision each
//! journal was resolved by; a [`Child`] dropped by a panic is SIGKILLed and
//! reaped, so no failing round leaves a process behind.

use bench_harness::ops::{Op, Resp, SeqModel};
use isb::recovery::Recovered;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::str::FromStr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a parent waits for anything a child owes it.
const PATIENCE: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------------
// Scratch directory
// ---------------------------------------------------------------------------

/// One round's directory under the system temp directory: the heap, the
/// journals and the marker files parent and children exchange.
pub struct Scratch {
    dir: PathBuf,
    /// What failure messages of this round start with.
    label: String,
    /// The `key=value` words a child was spawned with (empty in a parent).
    params: Vec<(String, String)>,
    /// The creating parent's copy removes (or, on panic, reports) the
    /// directory; a child's view of it does neither.
    owned: bool,
    notes: Mutex<Vec<String>>,
}

impl Scratch {
    /// A fresh directory for the round `seed` of `test`; `tag` tells apart
    /// rounds of one test that may overlap (other arms, other heap sizes).
    /// Two tests never share a directory — the flake family of PR 20 was
    /// two matrices meeting in one.
    pub fn create(test: &str, tag: impl Display, seed: u64) -> Scratch {
        let label = format!("{test} {tag} seed {seed}");
        let dir =
            std::env::temp_dir().join(format!("isb_{test}_{tag}_{seed}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{label}: create {dir:?}: {e}"));
        Scratch { dir, label, params: Vec::new(), owned: true, notes: Mutex::default() }
    }

    /// In a child test: the directory and parameters the parent passed, or
    /// `None` when this process was not spawned through [`Scratch::child`].
    pub fn of_child() -> Option<Scratch> {
        let mut params: Vec<(String, String)> = std::env::args()
            .filter(|a| !a.starts_with('-'))
            .filter_map(|a| a.split_once('=').map(|(k, v)| (k.to_string(), v.to_string())))
            .collect();
        let at = params.iter().position(|(k, _)| k == "scratch")?;
        let dir = PathBuf::from(params.remove(at).1);
        let label = format!("child {} of {}", std::process::id(), dir.display());
        Some(Scratch { dir, label, params, owned: false, notes: Mutex::default() })
    }

    /// The parameter `key` this child was spawned with.
    pub fn param<T: FromStr>(&self, key: &str) -> T {
        let (_, v) = self
            .params
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("{}: no parameter {key:?}", self.label));
        v.parse().unwrap_or_else(|_| panic!("{}: parameter {key}={v:?} does not parse", self.label))
    }

    /// `name` inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// The round's heap file.
    pub fn heap(&self) -> PathBuf {
        self.file("heap.img")
    }

    /// The journal of worker `id`.
    pub fn journal(&self, id: usize) -> PathBuf {
        self.file(&format!("journal_{id}.txt"))
    }

    /// Records a line for the failure report.
    fn note(&self, line: String) {
        self.notes.lock().unwrap_or_else(|e| e.into_inner()).push(line);
    }

    /// Child side of a handshake: makes `name` appear with `body`, whole
    /// (write + rename — the parent polls for the file and must never read
    /// it between its creation and its contents).
    pub fn publish(&self, name: &str, body: impl Display) {
        let tmp = self.file(&format!("{name}.tmp"));
        std::fs::write(&tmp, body.to_string()).expect("write handshake file");
        std::fs::rename(&tmp, self.file(name)).expect("publish handshake file");
    }

    /// Polls `cond` every 2 ms, for at most 60 s.
    pub fn wait_for(&self, what: &str, mut cond: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < PATIENCE, "{}: timed out waiting: {what}", self.label);
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Parent side of [`Scratch::publish`]: waits for `name`, returns its body.
    pub fn wait_file(&self, name: &str) -> String {
        let path = self.file(name);
        self.wait_for(&format!("a child publishing {name:?}"), || path.exists());
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {path:?}: {e}", self.label))
    }

    /// A command running the child test `test` of this binary with `params`
    /// ([`Scratch::param`] reads them back), its output discarded.
    pub fn child(&self, test: &str, params: &[(&str, &dyn Display)]) -> Command {
        let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
        cmd.args(["--exact", test, "--include-ignored", "--nocapture"])
            .arg(format!("scratch={}", self.dir.display()))
            .args(params.iter().map(|(key, val)| format!("{key}={val}")))
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        cmd
    }

    /// Starts `cmd`.
    pub fn spawn(&self, cmd: &mut Command) -> Child {
        let what = format!("{:?}", cmd.get_args().skip(1).collect::<Vec<_>>());
        let proc = cmd.spawn().unwrap_or_else(|e| panic!("{}: spawn {what}: {e}", self.label));
        self.note(format!("spawned {what} as pid {}", proc.id()));
        Child { proc }
    }

    /// What the round looked like from outside; never panics (it runs while
    /// a panic unwinds).
    fn report(&self) -> String {
        let mut out = format!(
            "{}: round failed, scratch directory kept: {}\n",
            self.label,
            self.dir.display()
        );
        for n in self.notes.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            out += &format!("  {n}\n");
        }
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        files.sort();
        for f in files {
            let name = f.file_name().unwrap_or_default().to_string_lossy().into_owned();
            let len = std::fs::metadata(&f).map_or(0, |m| m.len());
            if f == self.heap() {
                out += &format!("  {name}: {len} bytes\n{}", nvm::mapped::describe_page0(&f));
            } else if name.starts_with("journal_") {
                let raw = std::fs::read(&f).unwrap_or_default();
                let text = String::from_utf8_lossy(&raw);
                let lines: Vec<&str> = text.lines().collect();
                let tail = &lines[lines.len().saturating_sub(3)..];
                out += &format!("  {name}: {len} bytes, {} lines, last {tail:?}\n", lines.len());
            } else {
                out += &format!("  {name}: {len} bytes\n");
            }
        }
        out
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !self.owned {
            return;
        }
        if std::thread::panicking() {
            eprintln!("{}", self.report());
        } else {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

/// A running child. `std::process::Child` does not kill on drop; this one
/// does — SIGKILL, then reap — so a parent that panics while its children
/// are meant to be alive leaves none of them behind holding the heap.
pub struct Child {
    proc: std::process::Child,
}

impl Child {
    /// SIGKILLs the child — no cleanup of any kind runs in it — and reaps it.
    pub fn sigkill(mut self) {
        self.proc.kill().expect("SIGKILL child");
        self.proc.wait().expect("reap child");
    }

    /// Waits for the child to exit by itself.
    pub fn wait_exit(mut self) -> ExitStatus {
        self.proc.wait().expect("reap child")
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}

// ---------------------------------------------------------------------------
// Journal encoding and models
// ---------------------------------------------------------------------------

/// The journal words of `op`: a letter and the argument (`0` when none);
/// [`op_of`] reads them back.
fn token(op: Op) -> (char, u64) {
    match op {
        Op::Insert(k) => ('i', k),
        Op::Delete(k) => ('d', k),
        Op::Find(k) => ('f', k),
        Op::Enqueue(v) => ('e', v),
        Op::Dequeue => ('x', 0),
        Op::Push(v) => ('u', v),
        Op::Pop => ('o', 0),
    }
}

fn op_of(letter: &str, arg: u64) -> Option<Op> {
    Some(match letter {
        "i" => Op::Insert(arg),
        "d" => Op::Delete(arg),
        "f" => Op::Find(arg),
        "e" => Op::Enqueue(arg),
        "x" => Op::Dequeue,
        "u" => Op::Push(arg),
        "o" => Op::Pop,
        _ => return None,
    })
}

/// The ack word of `resp`.
fn ack_token(resp: Resp) -> String {
    match resp {
        Resp::Bool(b) => (b as u8).to_string(),
        Resp::Unit => "ok".to_string(),
        Resp::Val(None) => "E".to_string(),
        Resp::Val(Some(v)) => v.to_string(),
    }
}

/// Parses an ack word written by [`ack_token`] for `op`.
fn parse_ack(op: Op, word: &str) -> Option<Resp> {
    match (op, word) {
        (Op::Insert(_) | Op::Delete(_) | Op::Find(_), "1") => Some(Resp::Bool(true)),
        (Op::Insert(_) | Op::Delete(_) | Op::Find(_), "0") => Some(Resp::Bool(false)),
        (Op::Enqueue(_) | Op::Push(_), "ok") => Some(Resp::Unit),
        (Op::Dequeue | Op::Pop, "E") => Some(Resp::Val(None)),
        (Op::Dequeue | Op::Pop, v) => v.parse().ok().map(|v| Resp::Val(Some(v))),
        _ => None,
    }
}

/// What [`Scratch::resolve`] checks responses against.
pub trait Model {
    /// Applies `op` on the structure tagged `st`, where the structure
    /// answered `got`; returns the response it should have given.
    fn expect(&mut self, st: char, op: Op, got: Resp) -> Resp;
}

/// One [`SeqModel`] per structure tag of a journal.
#[derive(Debug, Default)]
pub struct SeqModels(BTreeMap<char, SeqModel>);

impl SeqModels {
    /// The model of the structure tagged `st`.
    pub fn of(&mut self, st: char) -> &mut SeqModel {
        self.0.entry(st).or_default()
    }
}

impl Model for SeqModels {
    fn expect(&mut self, st: char, op: Op, _got: Resp) -> Resp {
        self.of(st).apply(op)
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// The writing end of one worker's journal.
pub struct Journal {
    file: std::fs::File,
    seq: u64,
}

impl Journal {
    /// Opens (creating) the journal at `path` for appending.
    pub fn append(path: &Path) -> Journal {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path);
        Journal { file: file.unwrap_or_else(|e| panic!("open journal {path:?}: {e}")), seq: 0 }
    }

    /// The sequence number the next [`Journal::invoke`] records — a value
    /// unique per journal, for operations that need one to enqueue or push.
    pub fn next_seq(&self) -> u64 {
        self.seq + 1
    }

    /// One journaled invocation of `op` on the structure tagged `st`, in
    /// the order the module docs argue for: `note` (the structure's
    /// `note_invocation`), the intent record, `run`, the ack record. Each
    /// record is one `write`.
    pub fn invoke(
        &mut self,
        st: char,
        op: Op,
        note: impl FnOnce(),
        run: impl FnOnce() -> Resp,
    ) -> Resp {
        self.seq += 1;
        let (seq, (letter, arg)) = (self.seq, token(op));
        note();
        self.file.write_all(format!("S {seq} {st} {letter} {arg}\n").as_bytes()).expect("intent");
        let res = run();
        self.file.write_all(format!("A {seq} {}\n", ack_token(res)).as_bytes()).expect("ack");
        res
    }
}

/// One journaled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// The journal's sequence number.
    pub seq: u64,
    /// The tag of the structure the operation ran on.
    pub st: char,
    /// The operation.
    pub op: Op,
    /// The acked response; `None` = in flight when the process died.
    pub ack: Option<Resp>,
}

impl Rec {
    /// Did the acked operation change its structure?
    fn took_effect(&self) -> bool {
        match self.op {
            Op::Find(_) => false,
            _ => matches!(self.ack, Some(Resp::Bool(true) | Resp::Unit | Resp::Val(Some(_)))),
        }
    }
}

/// Reads a journal. A missing file is an empty journal (the process died
/// before its first operation). An incomplete last line — the kill landed
/// mid-`write` — is dropped: a torn S means the operation never ran, a torn
/// A that it is in flight. Everything else a correct writer cannot produce
/// panics with the path: an `A` without its `S`, an ack out of order, an
/// unacked operation that is not the last.
pub fn read_journal(path: &Path) -> Vec<Rec> {
    let Ok(raw) = std::fs::read(path) else { return Vec::new() };
    let text = String::from_utf8_lossy(&raw);
    let mut recs: Vec<Rec> = Vec::new();
    for line in text.split_inclusive('\n') {
        if !line.ends_with('\n') {
            break; // torn final record
        }
        macro_rules! malformed {
            () => {
                panic!("malformed journal line {line:?} in {path:?}")
            };
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some(seq) = words.get(1).and_then(|w| w.parse::<u64>().ok()) else { malformed!() };
        match words[..] {
            ["S", _, st, letter, arg] => {
                if let Some(prev) = recs.last().filter(|r| r.ack.is_none()) {
                    panic!("unacked op (seq {}) is not the last record of {path:?}", prev.seq);
                }
                let op = arg.parse().ok().and_then(|arg| op_of(letter, arg));
                let (Some(st), Some(op)) = (st.chars().next(), op) else { malformed!() };
                recs.push(Rec { seq, st, op, ack: None });
            }
            ["A", _, word] => {
                let last = recs.last_mut().unwrap_or_else(|| panic!("A without S in {path:?}"));
                assert!(
                    last.seq == seq && last.ack.is_none(),
                    "ack out of order in {path:?}: A {seq} after S {}",
                    last.seq
                );
                let Some(ack) = parse_ack(last.op, word) else { malformed!() };
                last.ack = Some(ack);
            }
            _ => malformed!(),
        }
    }
    recs
}

// ---------------------------------------------------------------------------
// Resolve
// ---------------------------------------------------------------------------

/// What one [`Scratch::resolve`] verified.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Acked operations checked against the model.
    pub acked: u64,
    /// In-flight operations resolved through a recovery decision.
    pub inflight: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.acked += o.acked;
        self.inflight += o.inflight;
    }
}

impl Scratch {
    /// Replays journal `id` against `model` and the recovery `decision` of
    /// the process that wrote it (`None`: the process was not killed, so it
    /// can have left nothing in flight). `who` — seed and pid — starts every
    /// failure message; `reinvoke` runs an operation on the recovered
    /// structure tagged `st`.
    ///
    /// * acked record: the journaled response must be the model's
    ///   ("acked response wrong");
    /// * the in-flight record under `Completed(res)`: `res` must decode to
    ///   the model's response ("recovered response wrong") — and the
    ///   operation is no find: a find never sets `CP_q`, so it cannot be
    ///   found completed;
    /// * the in-flight record under `Restart`: the operation is re-invoked
    ///   with its original arguments and must answer as the model does
    ///   ("re-invoked response wrong");
    /// * nothing in flight but `Completed(res)`: the process died between an
    ///   ack and the next `note_invocation`, and its recovery words still
    ///   name an acked operation, whose journaled response `res` must equal
    ///   ("stale Completed"). Every mapped structure runs `Isb-LP`, whose
    ///   invocation glue resets `(RD_q, CP_q)` whole on every invocation and
    ///   where an operation that changes nothing publishes nothing; so only
    ///   the very last acked operation can be named, and only if it took
    ///   effect.
    pub fn resolve(
        &self,
        who: &str,
        id: usize,
        decision: Option<Recovered>,
        model: &mut dyn Model,
        reinvoke: &mut dyn FnMut(char, Op) -> Resp,
    ) -> Tally {
        let recs = read_journal(&self.journal(id));
        self.note(format!("{who}: journal {id}, {} records, resolved by {decision:?}", recs.len()));
        let mut tally = Tally::default();
        for r in &recs {
            let at = || format!("{who} seq {} ({} {:?})", r.seq, r.st, r.op);
            let (got, check) = match (r.ack, decision) {
                (Some(ack), _) => {
                    tally.acked += 1;
                    (ack, "acked")
                }
                (None, None) => panic!("{}: left in flight by a process that was not killed", at()),
                (None, Some(Recovered::Completed(res))) => {
                    tally.inflight += 1;
                    assert!(
                        !matches!(r.op, Op::Find(_)),
                        "{}: recovered Completed({res}), which a read-only find cannot be",
                        at()
                    );
                    let got = r.op.decode(res).unwrap_or_else(|| {
                        panic!(
                            "{}: recovered response wrong: Completed({res}) is no answer of it",
                            at()
                        )
                    });
                    (got, "recovered")
                }
                (None, Some(Recovered::Restart)) => {
                    tally.inflight += 1;
                    (reinvoke(r.st, r.op), "re-invoked")
                }
            };
            let want = model.expect(r.st, r.op, got);
            assert_eq!(got, want, "{}: {check} response wrong", at());
        }
        if let Some(Recovered::Completed(res)) = decision {
            if recs.last().is_none_or(|r| r.ack.is_some()) {
                let named = recs.last().filter(|r| r.took_effect()).unwrap_or_else(|| {
                    panic!(
                        "{who}: stale Completed({res}) with nothing in flight, and no acked \
                         operation of journal {id} left published"
                    )
                });
                assert_eq!(
                    named.op.decode(res),
                    named.ack,
                    "{who} seq {} ({} {:?}): stale Completed({res}) diverges from the journaled ack",
                    named.seq,
                    named.st,
                    named.op
                );
            }
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isb::engine::{RES_EMPTY, RES_FALSE, RES_TRUE, RES_UNIT};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Every kind of operation, with `arg` where one is taken.
    fn all_ops(arg: u64) -> [Op; 7] {
        use Op::*;
        [Insert(arg), Delete(arg), Find(arg), Enqueue(arg), Dequeue, Push(arg), Pop]
    }

    /// Runs `f`, which must panic; returns the panic message.
    fn panic_message<R>(f: impl FnOnce() -> R) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).err().expect("must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic message")
    }

    /// A scratch whose journal 1 holds `text`.
    fn scratch_with(test: &str, text: &str) -> Scratch {
        let s = Scratch::create(test, "unit", 0);
        std::fs::write(s.journal(1), text).unwrap();
        s
    }

    /// A journal of `ops`, each acked as `SeqModel` answers; the last one is
    /// left in flight when `cut`.
    fn journal_text(ops: &[Op], cut: bool) -> String {
        let mut model = SeqModel::default();
        let mut text = String::new();
        for (i, &op) in ops.iter().enumerate() {
            let (letter, arg) = token(op);
            text += &format!("S {} m {letter} {arg}\n", i + 1);
            let res = model.apply(op);
            if !(cut && i + 1 == ops.len()) {
                text += &format!("A {} {}\n", i + 1, ack_token(res));
            }
        }
        text
    }

    fn resolve(s: &Scratch, decision: Recovered, reinvoked: Resp) -> (Tally, u32) {
        let mut calls = 0;
        let tally =
            s.resolve("unit pid 1", 1, Some(decision), &mut SeqModels::default(), &mut |_, _| {
                calls += 1;
                reinvoked
            });
        (tally, calls)
    }

    /// The encoded word of `resp`.
    fn encode(resp: Resp) -> u64 {
        match resp {
            Resp::Bool(true) => RES_TRUE,
            Resp::Bool(false) => RES_FALSE,
            Resp::Unit => RES_UNIT,
            Resp::Val(None) => RES_EMPTY,
            Resp::Val(Some(v)) => isb::engine::res_val(v),
        }
    }

    #[test]
    fn every_op_round_trips_through_its_tokens() {
        for op in all_ops(41) {
            let (letter, arg) = token(op);
            assert_eq!(op_of(&letter.to_string(), arg), Some(op));
        }
        for (op, resp) in [
            (Op::Insert(1), Resp::Bool(true)),
            (Op::Find(1), Resp::Bool(false)),
            (Op::Enqueue(1), Resp::Unit),
            (Op::Push(1), Resp::Unit),
            (Op::Dequeue, Resp::Val(None)),
            (Op::Pop, Resp::Val(Some(1))),
        ] {
            assert_eq!(parse_ack(op, &ack_token(resp)), Some(resp), "{op:?}");
            assert_eq!(op.decode(encode(resp)), Some(resp), "{op:?}");
        }
        assert_eq!(parse_ack(Op::Insert(1), "ok"), None);
        assert_eq!(Op::Enqueue(1).decode(RES_TRUE), None);
        assert_eq!(Op::Pop.decode(RES_UNIT), None);
    }

    #[test]
    fn a_journal_cut_mid_record_ends_in_flight() {
        let whole = "S 1 m i 7\nA 1 1\nS 2 q x 0\nA 2 E\n";
        // Cut anywhere inside the last ack: the dequeue is in flight. Cut
        // inside its intent: it never ran.
        for cut in 1..=6 {
            let s = scratch_with("kit_cut", &whole[..whole.len() - cut]);
            let recs = read_journal(&s.journal(1));
            assert_eq!(recs.len(), 2, "cut {cut}");
            assert_eq!(recs[0].ack, Some(Resp::Bool(true)));
            assert_eq!((recs[1].op, recs[1].ack), (Op::Dequeue, None), "cut {cut}");
        }
        let s = scratch_with("kit_cut", &whole[..whole.len() - 9]);
        assert_eq!(read_journal(&s.journal(1)).len(), 1, "a torn intent never ran");
        assert_eq!(read_journal(&s.journal(2)), Vec::new(), "no file, no operation");
    }

    #[test]
    fn journals_no_writer_produces_panic_with_the_path() {
        for (text, want) in [
            ("A 1 1\n", "A without S"),
            ("S 1 m i 7\nA 2 1\n", "ack out of order"),
            ("S 1 m i 7\nA 1 1\nA 1 1\n", "ack out of order"),
            ("S 1 m i 7\nS 2 m d 7\nA 2 1\n", "is not the last record"),
            ("S 1 m i 7\nA 1 ok\n", "malformed journal line"),
            ("S 1 m z 7\n", "malformed journal line"),
        ] {
            let s = scratch_with("kit_bad", text);
            let msg = panic_message(|| read_journal(&s.journal(1)));
            assert!(msg.contains(want), "{text:?}: {msg}");
            assert!(msg.contains("journal_1.txt"), "{text:?}: no path in {msg}");
        }
    }

    #[test]
    fn resolve_checks_the_in_flight_op_of_every_kind() {
        // History before the in-flight op: 5 is in the set, 6 queued, 7 pushed.
        let before = [Op::Insert(5), Op::Enqueue(6), Op::Push(7)];
        for op in all_ops(5) {
            let ops = [&before[..], &[op]].concat();
            let mut model = SeqModel::default();
            let want = ops.iter().map(|&o| model.apply(o)).last().unwrap();
            let wrong = match want {
                Resp::Bool(b) => Resp::Bool(!b),
                Resp::Unit => Resp::Val(None),
                Resp::Val(_) => Resp::Val(Some(99)),
            };
            let s = scratch_with("kit_resolve", &journal_text(&ops, true));
            let at = format!("unit pid 1 seq 4 (m {op:?})");

            // Restart: re-invoked exactly once, and the answer is checked.
            assert_eq!(resolve(&s, Recovered::Restart, want), (Tally { acked: 3, inflight: 1 }, 1));
            let msg = panic_message(|| resolve(&s, Recovered::Restart, wrong));
            assert!(msg.contains(&at) && msg.contains("re-invoked response wrong"), "{msg}");

            // Completed: decoded, never re-invoked; a find cannot complete.
            if let Op::Find(_) = op {
                let msg = panic_message(|| resolve(&s, Recovered::Completed(RES_TRUE), want));
                assert!(msg.contains(&at) && msg.contains("read-only find"), "{msg}");
                continue;
            }
            assert_eq!(
                resolve(&s, Recovered::Completed(encode(want)), wrong),
                (Tally { acked: 3, inflight: 1 }, 0)
            );
            let bad = Recovered::Completed(encode(wrong));
            let msg = panic_message(|| resolve(&s, bad, want));
            assert!(msg.contains(&at) && msg.contains("recovered response wrong"), "{msg}");
            // A word of another kind of operation is wrong too.
            let msg = panic_message(|| resolve(&s, Recovered::Completed(0), want));
            assert!(msg.contains(&at) && msg.contains("recovered response wrong"), "{msg}");
        }
    }

    #[test]
    fn resolve_checks_acked_responses_and_unkilled_processes() {
        let s = scratch_with("kit_acked", "S 1 m i 5\nA 1 1\nS 2 m i 5\nA 2 1\n");
        let msg = panic_message(|| resolve(&s, Recovered::Restart, Resp::Unit));
        assert!(msg.contains("unit pid 1 seq 2") && msg.contains("acked response wrong"), "{msg}");

        let s = scratch_with("kit_unkilled", &journal_text(&[Op::Insert(5)], true));
        let msg = panic_message(|| {
            s.resolve("unit pid 1", 1, None, &mut SeqModels::default(), &mut |_, _| Resp::Unit)
        });
        assert!(msg.contains("not killed"), "{msg}");
    }

    #[test]
    fn stale_completed_names_the_op_its_arm_leaves_published() {
        let t = Recovered::Completed(RES_TRUE);
        let f = Recovered::Completed(RES_FALSE);
        let stale = |ops: &[Op], d: Recovered| {
            let s = scratch_with("kit_stale", &journal_text(ops, false));
            catch_unwind(AssertUnwindSafe(|| resolve(&s, d, Resp::Unit))).map_err(|_| ())
        };
        // insert(5) took effect, the duplicate insert did not, then a find:
        // `Isb-LP` names only the very last op, and only if it took effect.
        let ops = [Op::Insert(5), Op::Insert(5), Op::Find(5)];
        assert!(stale(&ops[..1], t).is_ok());
        assert!(stale(&ops[..1], f).is_err(), "accepted a diverging response");
        assert!(stale(&ops[..2], f).is_err(), "a no-op publishes nothing");
        assert!(stale(&ops[..2], t).is_err(), "an earlier op is reset by the next glue");
        assert!(stale(&ops, t).is_err(), "a find publishes nothing");
        // Queue and stack answers decode through the same rule.
        let q = [Op::Enqueue(9), Op::Dequeue];
        assert!(stale(&q, Recovered::Completed(isb::engine::res_val(9))).is_ok());
        assert!(stale(&q, Recovered::Completed(RES_EMPTY)).is_err());
        assert!(stale(&[Op::Push(9)], Recovered::Completed(RES_UNIT)).is_ok());
        // An in-flight tail is not a stale decision: resolved, not cross-checked.
        let s = scratch_with("kit_stale", &journal_text(&[Op::Insert(5), Op::Delete(5)], true));
        assert_eq!(resolve(&s, t, Resp::Unit).0, Tally { acked: 1, inflight: 1 });
    }

    /// Child half of `a_child_dropped_by_a_panic_is_killed_and_reaped`.
    #[test]
    #[ignore = "child half of the kit's own drop test; spawned by it"]
    fn sleeper_child() {
        let Some(scratch) = Scratch::of_child() else { return };
        scratch.publish("ready", scratch.param::<u64>("nap_s"));
        std::thread::sleep(Duration::from_secs(scratch.param("nap_s")));
    }

    #[test]
    fn a_child_dropped_by_a_panic_is_killed_and_reaped() {
        let mut seen = None;
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let scratch = Scratch::create("kit_drop", "unit", 0);
            let child = scratch
                .spawn(&mut scratch.child("sigkill::tests::sleeper_child", &[("nap_s", &120)]));
            assert_eq!(scratch.wait_file("ready"), "120", "parameters reach the child");
            seen = Some((child.proc.id(), scratch.dir.clone()));
            assert!(Path::new(&format!("/proc/{}", child.proc.id())).exists());
            panic!("a model mismatch, say");
        }));
        assert!(unwound.is_err());
        let (pid, dir) = seen.expect("child spawned");
        assert!(!Path::new(&format!("/proc/{pid}")).exists(), "child {pid} outlived its handle");
        assert!(dir.exists(), "a failed round keeps its scratch directory");
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = {
            let scratch = Scratch::create("kit_drop", "clean", 0);
            scratch.dir.clone()
        };
        assert!(!dir.exists(), "a round that passed removes its scratch directory");
    }
}
