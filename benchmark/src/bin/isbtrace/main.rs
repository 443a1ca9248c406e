//! `isbtrace --workload <name> --seed <n> [--seconds <s>] [--dir <path>]
//! [--spans <file>]`: the traced run — every per-layer metric, none of the
//! end-to-end ones (those always come from `isbbench`, tracing off).
//!
//! A traced run has two halves. The *probes* measure every layer by a fixed
//! procedure that is the same on every workload: micro-probes on a scratch
//! store, the KV waterfall (inline replica against real loopback) for both
//! request mixes, and the queue on one and two threads. Then the *workload*
//! runs its own seeded stream with spans on, and whatever layer it drives
//! overrides the probe's value. So every metric is measured on every run,
//! and `benchmark/README.md` says which workloads drive which.
//!
//! This binary uses the wide API (`proto`, `ResponseTable`, the allocator,
//! the collector); `isbbench` does not, so reshaping those layers can break
//! the trace but never the gate.

mod kvtrace;
mod probes;
mod replica;
mod span;
mod storetrace;

use isb::recovery::Recovered;
use isb::store::Store;
use isb_benchmark::host::{self, Host, RefLoop};
use isb_benchmark::kv::Mix;
use isb_benchmark::report::{Report, Tally, PER_LAYER};
use isb_benchmark::restart;
use isb_benchmark::run::Args;
use isb_benchmark::stats;
use std::collections::HashMap;
use std::path::PathBuf;

/// The per-layer values gathered so far; a later `set` overrides.
#[derive(Default)]
pub struct Out(HashMap<&'static str, f64>);

impl Out {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What the parts of a traced run share.
pub struct Ctx {
    pub tally: Tally,
    pub clock: span::Clock,
    /// See [`span::Tracer::span_cost_ns`].
    pub span_cost_ns: f64,
    /// Where to write the first traced batch's spans, until somebody does.
    pub spans_out: Option<PathBuf>,
}

/// The parts a traced run is made of.
#[derive(Clone, Copy)]
enum Part {
    Update,
    Lookup,
    Queue,
    Map,
}

/// Sets `<name>` for every layer in `names` that `batches` saw.
pub fn set_layers(out: &mut Out, batches: &[span::Batch], names: &[(span::Layer, &'static str)]) {
    for &(l, name) in names {
        if let Some(ns) = span::layer_ns(batches, l) {
            out.set(name, ns);
        }
    }
}

/// What [`profile`] measured beyond the metrics it set itself.
pub struct Profile {
    /// The count-mode tracer, for per-layer persist counts.
    pub counts: span::Tracer,
    /// Counter delta over the first [`PROFILE_OPS`] steps, untraced.
    pub delta: nvm::stats::Snapshot,
    /// The traced batches, reduced.
    pub batches: Vec<span::Batch>,
}

/// Steps in [`profile`]'s untraced count pass.
pub const PROFILE_OPS: u64 = 20_000;

/// One single-threaded stream under all three tracer modes, in this order:
/// [`PROFILE_OPS`] steps untraced between counter snapshots, 2 000 steps
/// counting persists per call, then batches of `per_batch` untraced (30 % of
/// `secs`) and traced (70 %). Sets the times of `layers`, the allocator
/// counts, the hash map's persist counts, `trace.overhead_ratio` and
/// `trace.sum_ratio`.
pub fn profile(
    ctx: &mut Ctx,
    out: &mut Out,
    secs: f64,
    per_batch: usize,
    layers: &[(span::Layer, &'static str)],
    mut step: impl FnMut(&mut span::Tracer),
) -> Profile {
    use span::{Layer, Mode, Tracer};
    use std::time::{Duration, Instant};
    let mut off = Tracer::new(0, ctx.clock, Mode::Off);
    let before = nvm::stats::snapshot();
    (0..PROFILE_OPS).for_each(|_| step(&mut off));
    let delta = nvm::stats::snapshot().since(&before);
    set_alloc_counts(out, &delta, PROFILE_OPS);

    let mut counts = Tracer::new(0, ctx.clock, Mode::Count);
    (0..2_000).for_each(|_| step(&mut counts));
    let updates = counts.counted(&[Layer::HashmapInsert, Layer::HashmapDelete]);
    if updates.calls > 0 {
        out.set("hashmap.pwb_per_update", updates.lines as f64 / updates.calls as f64);
        out.set("hashmap.fence_per_update", updates.fences as f64 / updates.calls as f64);
    }
    let finds = counts.counted(&[Layer::HashmapFind]);
    if finds.calls > 0 {
        out.set("hashmap.pwb_per_find", finds.lines as f64 / finds.calls as f64);
    }

    let after = |share: f64| Instant::now() + Duration::from_secs_f64(secs * share);
    let (untraced, _) = off.batches(per_batch, after(0.3), &mut None, &mut step);
    let mut on = Tracer::new(0, ctx.clock, Mode::Time);
    let (traced, batches) = on.batches(per_batch, after(0.7), &mut ctx.spans_out, &mut step);
    set_layers(out, &batches, layers);
    out.set("trace.overhead_ratio", stats::quiet_high(&traced) / stats::quiet_high(&untraced));
    out.set("trace.sum_ratio", span::sum_ratio(&batches, ctx.span_cost_ns));
    Profile { counts, delta, batches }
}

/// Allocator and coalescing counts per op, from a counter delta over `ops`.
pub fn set_alloc_counts(out: &mut Out, d: &nvm::stats::Snapshot, ops: u64) {
    let per_op = |n: u64| n as f64 / ops as f64;
    out.set("mapped.allocs_per_op", per_op(d.heap_allocs));
    // No allocation at all counts as all hits: nothing reached the bump.
    let hits =
        if d.heap_allocs == 0 { 1.0 } else { d.free_list_hits as f64 / d.heap_allocs as f64 };
    out.set("mapped.free_list_hit_ratio", hits);
    out.set("mapped.slab_refills_per_kop", 1e3 * per_op(d.slab_refills));
    out.set("coalesce.lines_per_op", per_op(d.lines_coalesced));
    out.set("coalesce.elided_per_op", per_op(d.pwb_elided));
}

/// What the attach that produced `store` found, and what it cost.
pub fn set_store_facts(out: &mut Out, store: &Store, open_ms: f64) {
    let s = store.summary();
    out.set("store.open_ms", open_ms);
    out.set("store.committed_blocks", s.heap.committed as f64);
    out.set("store.swept_blocks", s.swept as f64);
    out.set("store.attach_us_per_block", 1e3 * open_ms / s.heap.committed.max(1) as f64);
    let completed = s.recovered.iter().filter(|(_, r)| matches!(r, Recovered::Completed(_)));
    out.set("recovery.recovered_ops", completed.count() as f64);
    out.set("mapped.segments", store.heap().segments() as f64);
    out.set("mapped.bump_bytes", store.heap().bump_granules() as f64 * 64.0);
}

fn main() {
    restart::maybe_mutator();
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("isbtrace: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<bool, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let spans_out = match argv.iter().position(|a| a == "--spans") {
        Some(i) if i + 1 < argv.len() => {
            Some(PathBuf::from(argv.drain(i..i + 2).nth(1).expect("2")))
        }
        Some(_) => return Err("--spans needs a value".into()),
        None => None,
    };
    let args = Args::parse(argv.into_iter(), 1)?;
    let scratch = args.scratch()?;
    let env = scratch.env(&args);
    // Everything single-threaded — and every server, connection and echo
    // thread — shares one CPU, as in `isbbench`; the queue threads pin
    // themselves to CPUs 0 and 1.
    let cpu = *env.cpus.last().expect("at least one CPU");
    if env.pin {
        host::pin_to(cpu)?;
    }
    let host = Host::begin(&env.dir, env.cpus.len(), if env.pin { vec![cpu] } else { vec![] });

    let mut out = Out::default();
    let clock = span::Clock::calibrate();
    let span_cost_ns = span::Tracer::span_cost_ns(clock);
    let mut ctx = Ctx { tally: Tally::default(), clock, span_cost_ns, spans_out: None };
    let mut refl = RefLoop::default();
    let s = args.seconds;
    // The probes share a quarter of `--seconds`; the workload's own part,
    // run last so that its values win, gets the rest.
    let (probe, own) = (s * 0.08, s * 0.7);
    refl.tick();
    probes::run(&env.dir, &mut out)?;
    use Part::*;
    let order: &[Part] = match args.workload.as_str() {
        "kv_update" => &[Queue, Lookup, Update],
        "kv_lookup" => &[Queue, Update, Lookup],
        "queue_2t" => &[Lookup, Update, Queue],
        "map_restart" => &[Queue, Lookup, Update, Map],
        other => return Err(format!("unknown workload {other}")),
    };
    for (i, part) in order.iter().enumerate() {
        refl.tick();
        let is_own = i + 1 == order.len();
        let t = if is_own { own } else { probe };
        if is_own {
            ctx.spans_out = spans_out.clone();
        }
        match part {
            Update => kvtrace::run(&env, Mix::Update, t, &mut ctx, &mut out)?,
            Lookup => kvtrace::run(&env, Mix::Lookup, t, &mut ctx, &mut out)?,
            Queue => storetrace::queue(&env, t, &mut ctx, &mut out)?,
            Map => storetrace::map(&env, t, &mut ctx, &mut out)?,
        }
    }
    refl.tick();
    let (ref_ns, ref_spread) = refl.summary();
    out.set("host.ref_ns", ref_ns);
    out.set("host.ref_spread", ref_spread);

    let values: Vec<(&'static str, f64)> = out.0.into_iter().collect();
    let r = Report::declared(PER_LAYER, &values)?;
    Ok(r.print(&host.json(""), ctx.tally))
}
