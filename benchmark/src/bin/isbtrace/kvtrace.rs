//! The KV waterfall: the seeded request stream through the inline replica
//! with spans on, and the same stream over the real loopback path.
//!
//! Replica p50 = `server.inline_us`; loopback p50 − that = the transport
//! (`server.transport_us`): two socket hops and two thread hand-offs per
//! request, which no change to the structures can touch.

use crate::replica::{InlineClient, Replica};
use crate::span::{Clock, Layer, Mode, Tracer};
use crate::{profile, Ctx, Out, PROFILE_OPS};
use isb_benchmark::kv::{self, Kv, KvModel, KvStream, Mix};
use isb_benchmark::report::Tally;
use isb_benchmark::run::{Env, Workload, SLICE};
use isb_benchmark::stats::{quiet, quiet_low};
use kvserve::{KvClient, Server};
use std::time::Instant;

/// Requests per replica batch (one batch ≈ one slice of the traced run).
const BATCH: usize = 10_000;

/// The replica with its inline client, stream and model.
struct Inline {
    server: Replica,
    client: InlineClient,
    stream: KvStream,
    model: KvModel,
    tally: Tally,
}

impl Inline {
    fn open(env: &Env, mix: Mix, clock: Clock) -> Result<Inline, String> {
        let _ = std::fs::remove_file(kv::heap_path(&env.dir));
        let mut me = Inline {
            server: Replica::open(&env.dir)?,
            client: InlineClient::default(),
            stream: KvStream::new(env.seed, mix),
            model: KvModel::default(),
            tally: Tally::default(),
        };
        let mut off = Tracer::new(0, clock, Mode::Off);
        for op in me.stream.prefill(env.seed) {
            let got = me.client.issue(&me.server, &mut off, op);
            me.tally.check(got == Some(me.model.apply(op)));
        }
        Ok(me)
    }

    #[inline]
    fn step(&mut self, tr: &mut Tracer) {
        let op = self.stream.next_op();
        let got = self.client.issue(&self.server, tr, op);
        self.tally.check(got == Some(self.model.apply(op)));
    }
}

const KV_LAYERS: &[(Layer, &str)] = &[
    (Layer::ProtoParse, "proto.parse_ns"),
    (Layer::ProtoEncode, "proto.encode_ns"),
    (Layer::ResptableRegister, "resptable.register_ns"),
    (Layer::ResptableForeign, "resptable.foreign_ns"),
    (Layer::ResptableLookup, "resptable.lookup_ns"),
    (Layer::RecoveryNoteInvocation, "recovery.note_invocation_ns"),
    (Layer::ResptableBegin, "resptable.begin_ns"),
    (Layer::ResptableFinish, "resptable.finish_ns"),
    (Layer::HashmapInsert, "hashmap.insert_ns"),
    (Layer::HashmapDelete, "hashmap.delete_ns"),
    (Layer::HashmapFind, "hashmap.find_ns"),
    (Layer::QueueEnq, "queue.enq_ns"),
    (Layer::QueueDeq, "queue.deq_ns"),
];

/// Runs one mix through the replica and over loopback for about `secs`.
pub fn run(env: &Env, mix: Mix, secs: f64, ctx: &mut Ctx, out: &mut Out) -> Result<(), String> {
    // -- inline replica ------------------------------------------------------
    let mut inline = Inline::open(env, mix, ctx.clock)?;

    // `profile` counts persists over the same first requests of the stream
    // that `loopback` counts below, so a faithful replica differs from the
    // real server by exactly 0.
    let p = profile(ctx, out, secs * 0.5, BATCH, KV_LAYERS, |tr| inline.step(tr));
    let replica_pwb = (p.delta.pwb + p.delta.pbarrier_lines) as f64 / PROFILE_OPS as f64;
    let requests = p.counts.counted(&[Layer::ProtoParse]).calls.max(1) as f64;
    let resptable = p.counts.counted(&[
        Layer::ResptableRegister,
        Layer::ResptableForeign,
        Layer::ResptableLookup,
        Layer::ResptableBegin,
        Layer::ResptableFinish,
    ]);
    out.set("resptable.pwb_per_req", resptable.lines as f64 / requests);
    out.set("resptable.fence_per_req", resptable.fences as f64 / requests);
    let note = p.counts.counted(&[Layer::RecoveryNoteInvocation]);
    out.set("recovery.fence_per_invocation", note.fences as f64 / note.calls.max(1) as f64);
    let root_p50: Vec<f64> = p.batches.iter().map(|b| b.root_median_ns).collect();
    let inline_us = quiet_low(&root_p50) / 1e3;
    out.set("server.inline_us", inline_us);
    ctx.tally.add(inline.tally);
    drop(inline);

    // -- the real loopback path ----------------------------------------------
    let real = match mix {
        Mix::Update => loopback::<false>(env, secs * 0.4, ctx, out)?,
        Mix::Lookup => loopback::<true>(env, secs * 0.4, ctx, out)?,
    };
    out.set("server.transport_us", real.p50_us - inline_us);
    out.set("server.transport_share", 100.0 * (real.p50_us - inline_us) / real.p50_us);
    out.set("trace.replica_pwb_delta", replica_pwb - real.pwb_per_op);
    Ok(())
}

struct Real {
    p50_us: f64,
    pwb_per_op: f64,
}

/// The mix over a real `Server` and `KvClient`: persist counts, quiet-quantile
/// p50, replay latency, and what a restart of the service costs.
fn loopback<const LOOKUP: bool>(
    env: &Env,
    secs: f64,
    ctx: &mut Ctx,
    out: &mut Out,
) -> Result<Real, String> {
    let mut kv = Kv::<LOOKUP>::setup(env)?;
    let before = nvm::stats::snapshot();
    kv.run_ops(PROFILE_OPS);
    let d = nvm::stats::snapshot().since(&before);
    let pwb_per_op = (d.pwb + d.pbarrier_lines) as f64 / PROFILE_OPS as f64;
    if LOOKUP {
        let served = (d.kv_requests + d.kv_dedup_hits).max(1);
        out.set("server.dedup_hit_ratio", d.kv_dedup_hits as f64 / served as f64);
    }
    crate::set_alloc_counts(out, &d, PROFILE_OPS);

    let n = ((secs / SLICE.as_secs_f64()) as usize).max(4);
    let slices: Vec<_> = (0..n).map(|_| kv.run_slice(SLICE)).collect();
    let p50_us = quiet(&slices).p50_us;

    if LOOKUP {
        // Replays never reach a structure: dedup lookup, stored response.
        let mut lat_us: Vec<f64> = Vec::new();
        for _ in 0..2_000 {
            let t0 = Instant::now();
            let pair = kv.client().replay_last_acked().map_err(|e| format!("replay: {e}"))?;
            lat_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            ctx.tally.check(pair.is_some_and(|(again, original)| again == original));
        }
        out.set("client.replay_us", isb_benchmark::stats::median(&lat_us));
    }

    // Stop the service (with its final model check); time clean re-opens
    // and full service restarts on the heap it leaves.
    kv.finish()?;
    nvm::tid::set_tid(0);
    let opens: Vec<f64> = (0..8)
        .map(|_| {
            let t0 = Instant::now();
            let handles = kv::open_store(&env.dir)?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(handles);
            Ok(ms)
        })
        .collect::<Result<_, String>>()?;
    let start_ms: Vec<f64> = (0..3)
        .map(|_| -> Result<f64, String> {
            let t0 = Instant::now();
            let server = Server::start(kv::config(&env.dir)).map_err(|e| e.to_string())?;
            let mut c = KvClient::connect(server.local_addr(), kv::CLIENT_ID + 1)
                .map_err(|e| e.to_string())?;
            c.get(1).map_err(|e| e.to_string())?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(c);
            server.stop();
            Ok(ms)
        })
        .collect::<Result<_, _>>()?;
    out.set("server.start_ms", quiet_low(&start_ms));
    nvm::tid::set_tid(0);
    let handles = kv::open_store(&env.dir)?;
    crate::set_store_facts(out, &handles.0, quiet_low(&opens));
    drop(handles);
    ctx.tally.add(kv.tally());
    Ok(Real { p50_us, pwb_per_op })
}
