//! The two store workloads with spans on: root span = one op of the load
//! loop (generator, model check and all), child span = the structure call.

use crate::span::{sum_ratio, Batch, Layer, Mode, Tracer};
use crate::{profile, set_layers, Ctx, Out, PROFILE_OPS};
use isb_benchmark::host::{pin_to, RefLoop};
use isb_benchmark::keyset::KeySet;
use isb_benchmark::queue::{self, Ledger};
use isb_benchmark::restart::{self, MapOp, MapRestart};
use isb_benchmark::rng::{distinct_keys, SplitMix};
use isb_benchmark::run::{Env, Workload};
use isb_benchmark::stats::{quiet_high, quiet_low};
use std::time::{Duration, Instant};

/// Ops per batch (one batch ≈ one slice of the traced run).
const BATCH: usize = 20_000;

fn after(secs: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(secs)
}

// -- queue_2t ----------------------------------------------------------------

/// One queue op under a root span: even ops enqueue, odd ops dequeue.
#[inline]
fn queue_op(q: &queue::Queue, pid: usize, i: &mut u64, ledger: &mut Ledger, tr: &mut Tracer) {
    tr.enter();
    if i.is_multiple_of(2) {
        let v = ledger.produce(pid);
        tr.leaf(Layer::QueueEnq, || q.enqueue(pid, v));
    } else {
        let got = tr.leaf(Layer::QueueDeq, || q.dequeue(pid));
        ledger.consume(got);
    }
    *i += 1;
    tr.exit();
}

/// The queue workload: one thread, then two, untraced and traced.
pub fn queue(env: &Env, secs: f64, ctx: &mut Ctx, out: &mut Out) -> Result<(), String> {
    let _ = std::fs::remove_file(queue::heap_path(&env.dir));
    nvm::tid::set_tid(0);
    let (store, q) = queue::open(&env.dir)?;
    let q = &*q;
    let mut setup = Ledger::default();
    (0..queue::PREFILL).for_each(|_| q.enqueue(0, setup.produce(0)));
    let cpus = [env.cpus[0], env.cpus[1 % env.cpus.len()]];
    // Thread `t` (0 or 1) keeps its ledger and op counter across phases.
    let mut state = [(Ledger::default(), 0u64), (Ledger::default(), 0u64)];

    // One thread (on the main thread's CPU): persist counts per call,
    // allocator counts per op, and the uncontended rate.
    nvm::tid::set_tid(1);
    let (ledger, i) = (&mut state[0].0, &mut state[0].1);
    let mut count = Tracer::new(1, ctx.clock, Mode::Count);
    (0..2_000).for_each(|_| queue_op(q, 1, i, ledger, &mut count));
    let ops = count.counted(&[Layer::QueueEnq, Layer::QueueDeq]);
    out.set("queue.pwb_per_op", ops.lines as f64 / ops.calls as f64);
    out.set("queue.fence_per_op", ops.fences as f64 / ops.calls as f64);
    let mut off = Tracer::new(1, ctx.clock, Mode::Off);
    let before = nvm::stats::snapshot();
    (0..PROFILE_OPS).for_each(|_| queue_op(q, 1, i, ledger, &mut off));
    crate::set_alloc_counts(out, &nvm::stats::snapshot().since(&before), PROFILE_OPS);
    let (one, _) =
        off.batches(BATCH, after(secs * 0.15), &mut None, |tr| queue_op(q, 1, i, ledger, tr));
    let rate_1t = quiet_high(&one);
    out.set("queue.ops_per_s_1t", rate_1t);

    // Two pinned threads, untraced then traced.
    let clock = ctx.clock;
    let mut both = |mode: Mode, secs: f64, spans: &mut Option<std::path::PathBuf>| {
        let end = after(secs);
        let mut spans = [spans.take(), None];
        std::thread::scope(|s| {
            let hs: Vec<_> = state
                .iter_mut()
                .zip(spans.iter_mut())
                .enumerate()
                .map(|(t, ((ledger, i), spans))| {
                    let cpu = cpus[t];
                    s.spawn(move || {
                        let _ = pin_to(cpu);
                        nvm::tid::set_tid(t + 1);
                        let mut tr = Tracer::new(t as u16 + 1, clock, mode);
                        tr.batches(BATCH, end, spans, |tr| queue_op(q, t + 1, i, ledger, tr))
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("queue thread")).collect::<Vec<_>>()
        })
    };
    let rate = |runs: &[(Vec<f64>, Vec<Batch>)]| -> f64 {
        runs.iter().map(|(rates, _)| quiet_high(rates)).sum()
    };
    let untraced = both(Mode::Off, secs * 0.3, &mut None);
    let traced = both(Mode::Time, secs * 0.5, &mut ctx.spans_out);
    out.set("queue.scaling_2t", rate(&untraced) / rate_1t);
    out.set("trace.overhead_ratio", rate(&traced) / rate(&untraced));
    let reduced: Vec<Batch> = traced.into_iter().flat_map(|(_, b)| b).collect();
    set_layers(
        out,
        &reduced,
        &[(Layer::QueueEnq, "queue.enq_ns"), (Layer::QueueDeq, "queue.deq_ns")],
    );
    out.set("trace.sum_ratio", sum_ratio(&reduced, ctx.span_cost_ns));

    nvm::tid::set_tid(0);
    let totals = queue::totals(std::iter::once(&setup).chain(state.iter().map(|s| &s.0)));
    queue::drain_check(q, &mut setup, totals);
    ctx.tally.add(setup.tally);
    state.iter().for_each(|s| ctx.tally.add(s.0.tally));
    drop(store);
    let _ = std::fs::remove_file(queue::heap_path(&env.dir));
    Ok(())
}

// -- map_restart -------------------------------------------------------------

/// The map workload: kill cycles for the attach facts, then traced slices
/// of the 30/30/40 mix on a freshly prefilled map.
pub fn map(env: &Env, secs: f64, ctx: &mut Ctx, out: &mut Out) -> Result<(), String> {
    // What the attach after a SIGKILL found and cost.
    let mut killed = MapRestart::setup(env)?;
    killed.timed((secs * 0.4).max(2.0), &mut RefLoop::default())?;
    crate::set_store_facts(out, killed.store(), quiet_low(killed.attach_ms()));
    killed.finish()?;
    ctx.tally.add(killed.tally());
    drop(killed);

    nvm::tid::set_tid(0);
    let (store, map) = restart::open(&env.dir)?;
    let map = &*map;
    let mut model = KeySet::new(restart::KEY_SPACE);
    let mut tally = isb_benchmark::report::Tally::default();
    for key in distinct_keys(&mut SplitMix::new(env.seed, 1), restart::KEY_SPACE, restart::PREFILL)
    {
        tally.check(MapOp::Insert(key).run(map) == model.insert(key));
    }
    let mut rng = SplitMix::new(env.seed, 3);
    let mut step = |tr: &mut Tracer| {
        tr.enter();
        let op = MapOp::mixed(&mut rng);
        let layer = match op {
            MapOp::Insert(_) => Layer::HashmapInsert,
            MapOp::Delete(_) => Layer::HashmapDelete,
            MapOp::Find(_) => Layer::HashmapFind,
        };
        let got = tr.leaf(layer, || op.run(map));
        tally.check(got == op.expect(&mut model));
        tr.exit();
    };

    let layers = [
        (Layer::HashmapInsert, "hashmap.insert_ns"),
        (Layer::HashmapDelete, "hashmap.delete_ns"),
        (Layer::HashmapFind, "hashmap.find_ns"),
    ];
    profile(ctx, out, secs * 0.5, BATCH, &layers, &mut step);
    ctx.tally.add(tally);
    drop(store);
    let _ = std::fs::remove_file(restart::heap_path(&env.dir));
    Ok(())
}
