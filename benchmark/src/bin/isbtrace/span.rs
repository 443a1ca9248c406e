//! Spans recorded from the benchmark's own files, around the calls into each
//! layer's public functions (spans inside the program are a later change).
//!
//! A [`Tracer`] belongs to one thread. It records
//! `{thread, name, parent, request, start_ns, end_ns}` in memory; a layer's
//! self time is its span's duration minus what its child spans cover. The
//! same call sites serve three modes, so the traced and untraced runs execute
//! the same code: `Off` calls straight through, `Time` records spans, and
//! `Count` brackets each call with persist-counter snapshots instead.

use std::time::{Duration, Instant};

/// Raw timestamp: the TSC where there is one (a span costs two reads, and
/// `rdtsc` is less than half the price of `Instant::now()` under KVM), else
/// nanoseconds.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` reads a counter; it has no preconditions.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The span clock: [`ticks`] since `origin`, scaled to nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: u64,
    ns_per_tick: f64,
}

impl Clock {
    /// Calibrates the tick length against `Instant` over 20 ms.
    pub fn calibrate() -> Clock {
        let (t0, origin) = (Instant::now(), ticks());
        while t0.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let (ns, dt) = (t0.elapsed().as_nanos() as f64, ticks() - origin);
        Clock { origin, ns_per_tick: ns / dt.max(1) as f64 }
    }

    #[inline]
    fn now(&self) -> u64 {
        ticks() - self.origin
    }

    fn ns(&self, ticks: u64) -> u64 {
        (ticks as f64 * self.ns_per_tick) as u64
    }
}

/// The layers spans are named after — the repo's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Layer {
    /// Root span: one request through the inline replica, or one op of a
    /// store workload including the load generator's own bookkeeping.
    Request,
    ProtoParse,
    ProtoEncode,
    ResptableRegister,
    ResptableForeign,
    ResptableLookup,
    RecoveryNoteInvocation,
    ResptableBegin,
    ResptableFinish,
    HashmapInsert,
    HashmapDelete,
    HashmapFind,
    QueueEnq,
    QueueDeq,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = Layer::QueueDeq as usize + 1;

impl Layer {
    /// Name written to the span file.
    pub fn name(self) -> &'static str {
        [
            "request",
            "proto.parse",
            "proto.encode",
            "resptable.register",
            "resptable.foreign",
            "resptable.lookup",
            "recovery.note_invocation",
            "resptable.begin",
            "resptable.finish",
            "hashmap.insert",
            "hashmap.delete",
            "hashmap.find",
            "queue.enq",
            "queue.deq",
        ][self as usize]
    }
}

/// One recorded span. Times are in clock ticks until [`Tracer::reduce`] or
/// the span file scales them.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub thread: u16,
    pub name: Layer,
    /// Index of the parent span in this thread's buffer; `u32::MAX` = none.
    pub parent: u32,
    pub request: u64,
    pub start: u64,
    pub end: u64,
}

/// What the call sites do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Call straight through.
    Off,
    /// Record a span per call.
    Time,
    /// Accumulate persist-counter deltas per call (slow; never timed).
    Count,
}

/// Per-layer persist counts accumulated in [`Mode::Count`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub calls: u64,
    /// `pwb` + `pbarrier_lines`.
    pub lines: u64,
    /// `pbarrier` + `pfence` + `psync`.
    pub fences: u64,
}

/// One thread's span recorder.
pub struct Tracer {
    pub mode: Mode,
    thread: u16,
    clock: Clock,
    spans: Vec<Span>,
    open_root: u32,
    request: u64,
    counts: [Counts; LAYERS],
}

impl Tracer {
    /// A recorder for `thread`, reading `clock`.
    pub fn new(thread: u16, clock: Clock, mode: Mode) -> Tracer {
        Tracer {
            mode,
            thread,
            clock,
            spans: Vec::with_capacity(1 << 18),
            open_root: u32::MAX,
            request: 0,
            counts: [Counts::default(); LAYERS],
        }
    }

    /// Opens the root span of the next request.
    #[inline]
    pub fn enter(&mut self) {
        self.request += 1;
        if self.mode == Mode::Time {
            self.open_root = self.spans.len() as u32;
            let now = self.clock.now();
            self.spans.push(Span {
                thread: self.thread,
                name: Layer::Request,
                parent: u32::MAX,
                request: self.request,
                start: now,
                end: now,
            });
        }
    }

    /// Closes the root span.
    #[inline]
    pub fn exit(&mut self) {
        if self.mode == Mode::Time {
            let now = self.clock.now();
            self.spans[self.open_root as usize].end = now;
            self.open_root = u32::MAX;
        }
    }

    /// Calls `f` — one call into layer `name` — as a child of the open root.
    #[inline]
    pub fn leaf<R>(&mut self, name: Layer, f: impl FnOnce() -> R) -> R {
        match self.mode {
            Mode::Off => f(),
            Mode::Time => {
                let start = self.clock.now();
                let r = f();
                let end = self.clock.now();
                self.spans.push(Span {
                    thread: self.thread,
                    name,
                    parent: self.open_root,
                    request: self.request,
                    start,
                    end,
                });
                r
            }
            Mode::Count => {
                let before = nvm::stats::snapshot();
                let r = f();
                let d = nvm::stats::snapshot().since(&before);
                let c = &mut self.counts[name as usize];
                c.calls += 1;
                c.lines += d.pwb + d.pbarrier_lines;
                c.fences += d.pbarrier + d.pfence + d.psync;
                r
            }
        }
    }

    /// What one child span adds to its root's self time, in ns: measured on
    /// roots holding nothing but empty children. `trace.sum_ratio` counts
    /// this as accounted for — it is the tracer's time, not a layer's.
    pub fn span_cost_ns(clock: Clock) -> f64 {
        const CHILDREN: u64 = 8;
        let mut tr = Tracer::new(0, clock, Mode::Time);
        for _ in 0..20_000 {
            tr.enter();
            (0..CHILDREN).for_each(|_| tr.leaf(Layer::ProtoParse, || ()));
            tr.exit();
        }
        tr.reduce().self_ns[Layer::Request as usize].unwrap_or(0.0) / CHILDREN as f64
    }

    /// Runs `step` in batches of `per_batch` until `end` (at least 4
    /// batches); returns each batch's steps/s and, in [`Mode::Time`], its
    /// reduced spans. The first traced batch is written to `spans_out`, if
    /// somebody asked for it and nobody wrote it yet.
    pub fn batches(
        &mut self,
        per_batch: usize,
        end: Instant,
        spans_out: &mut Option<std::path::PathBuf>,
        mut step: impl FnMut(&mut Tracer),
    ) -> (Vec<f64>, Vec<Batch>) {
        let (mut rates, mut reduced) = (Vec::new(), Vec::new());
        while Instant::now() < end || rates.len() < 4 {
            let t0 = Instant::now();
            (0..per_batch).for_each(|_| step(self));
            rates.push(per_batch as f64 / t0.elapsed().as_secs_f64());
            if self.mode == Mode::Time {
                if let Some(path) = spans_out.take() {
                    if let Err(e) = write_spans(&path, &self.spans, &self.clock) {
                        eprintln!("isbtrace: writing {}: {e}", path.display());
                    }
                }
                reduced.push(self.reduce());
            }
        }
        (rates, reduced)
    }

    /// The [`Mode::Count`] totals over `layers`.
    pub fn counted(&self, layers: &[Layer]) -> Counts {
        layers.iter().map(|&l| self.counts[l as usize]).fold(Counts::default(), |a, c| Counts {
            calls: a.calls + c.calls,
            lines: a.lines + c.lines,
            fences: a.fences + c.fences,
        })
    }

    /// Reduces the recorded spans to one [`Batch`] and empties the buffer.
    pub fn reduce(&mut self) -> Batch {
        let mut selfs: Vec<Vec<u64>> = vec![Vec::new(); LAYERS];
        let mut child_ns = 0u64;
        let mut children = 0u64;
        let mut root_ns = 0u64;
        let mut root_durs: Vec<u64> = Vec::new();
        // A root's children follow it directly, so one forward pass sees
        // each root together with everything it covers.
        let mut covered = 0u64;
        let mut root: Option<Span> = None;
        let clock = self.clock;
        let close = |root: Option<Span>, covered: u64, selfs: &mut Vec<Vec<u64>>| {
            if let Some(r) = root {
                let dur = clock.ns(r.end - r.start);
                selfs[Layer::Request as usize].push(dur.saturating_sub(covered));
            }
        };
        for s in &self.spans {
            let dur = clock.ns(s.end - s.start);
            if s.name == Layer::Request {
                close(root.take(), covered, &mut selfs);
                root = Some(*s);
                covered = 0;
                root_ns += dur;
                root_durs.push(dur);
            } else {
                selfs[s.name as usize].push(dur);
                covered += dur;
                child_ns += dur;
                children += 1;
            }
        }
        close(root.take(), covered, &mut selfs);
        self.spans.clear();
        let median = |v: &mut Vec<u64>| {
            v.sort_unstable();
            v.get(v.len() / 2).map(|&ns| ns as f64)
        };
        Batch {
            self_ns: std::array::from_fn(|i| median(&mut selfs[i])),
            root_median_ns: median(&mut root_durs).unwrap_or(0.0),
            root_ns,
            child_ns,
            children,
        }
    }
}

/// One batch of requests, reduced.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Median self time per layer (`None` if the layer was not called).
    pub self_ns: [Option<f64>; LAYERS],
    /// Median duration of the root spans.
    pub root_median_ns: f64,
    /// Total duration of the root spans.
    pub root_ns: u64,
    /// Total duration of the child spans.
    pub child_ns: u64,
    /// Number of child spans.
    pub children: u64,
}

/// Quiet quantile across `batches` of layer `l`'s median self time, if the
/// layer was called at all.
pub fn layer_ns(batches: &[Batch], l: Layer) -> Option<f64> {
    let v: Vec<f64> = batches.iter().filter_map(|b| b.self_ns[l as usize]).collect();
    (!v.is_empty()).then(|| isb_benchmark::stats::quiet_low(&v))
}

/// `trace.sum_ratio`: the share of root-span time accounted for — by the
/// child spans, plus the measured cost of recording them.
pub fn sum_ratio(batches: &[Batch], span_cost_ns: f64) -> f64 {
    let (child, spans, root) = batches
        .iter()
        .fold((0u64, 0u64, 0u64), |a, b| (a.0 + b.child_ns, a.1 + b.children, a.2 + b.root_ns));
    (child as f64 + spans as f64 * span_cost_ns) / root.max(1) as f64
}

/// Writes `spans` as tab-separated lines, times in ns.
fn write_spans(path: &std::path::Path, spans: &[Span], clock: &Clock) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tname\tparent\trequest\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = if s.parent == u32::MAX { -1 } else { s.parent as i64 };
        writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}\t{}",
            s.thread,
            s.name.name(),
            s.request,
            clock.ns(s.start),
            clock.ns(s.end)
        )?;
    }
    out.flush()
}
