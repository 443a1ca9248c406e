//! Metric declarations and the run's printed result.
//!
//! The two tables below are the benchmark's contract with `BENCHMARK.json`
//! (a test checks they agree): `isbbench` emits every end-to-end metric on
//! every workload, `isbtrace` every per-layer metric.

/// `(name, unit)` of every end-to-end metric, as `isbbench` prints them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("pwb_per_op", "lines"),
    ("fence_per_op", "count"),
    ("heap_bytes_per_key", "B"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, as `isbtrace` prints them.
/// Layer names are the repo's modules.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.inline_us", "us"),
    ("server.transport_us", "us"),
    ("server.transport_share", "%"),
    ("server.echo_us", "us"),
    ("server.start_ms", "ms"),
    ("server.dedup_hit_ratio", "ratio"),
    ("client.replay_us", "us"),
    ("proto.parse_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("resptable.register_ns", "ns"),
    ("resptable.foreign_ns", "ns"),
    ("resptable.lookup_ns", "ns"),
    ("resptable.begin_ns", "ns"),
    ("resptable.finish_ns", "ns"),
    ("resptable.lookup_full_ns", "ns"),
    ("resptable.pwb_per_req", "lines"),
    ("resptable.fence_per_req", "count"),
    ("recovery.note_invocation_ns", "ns"),
    ("recovery.fence_per_invocation", "count"),
    ("recovery.recovered_ops", "count"),
    ("hashmap.insert_ns", "ns"),
    ("hashmap.delete_ns", "ns"),
    ("hashmap.find_ns", "ns"),
    ("hashmap.pwb_per_update", "lines"),
    ("hashmap.fence_per_update", "count"),
    ("hashmap.pwb_per_find", "lines"),
    ("queue.enq_ns", "ns"),
    ("queue.deq_ns", "ns"),
    ("queue.pwb_per_op", "lines"),
    ("queue.fence_per_op", "count"),
    ("queue.ops_per_s_1t", "1/s"),
    ("queue.scaling_2t", "ratio"),
    ("flush.line_fence_ns", "ns"),
    ("coalesce.lines_per_op", "lines"),
    ("coalesce.elided_per_op", "lines"),
    ("mapped.alloc_free_ns", "ns"),
    ("mapped.allocs_per_op", "count"),
    ("mapped.free_list_hit_ratio", "ratio"),
    ("mapped.slab_refills_per_kop", "count"),
    ("mapped.segments", "count"),
    ("mapped.bump_bytes", "B"),
    ("reclaim.pin_ns", "ns"),
    ("store.open_ms", "ms"),
    ("store.committed_blocks", "count"),
    ("store.swept_blocks", "count"),
    ("store.attach_us_per_block", "us"),
    ("store.handle_lookup_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.sum_ratio", "ratio"),
    ("trace.replica_pwb_delta", "lines"),
    ("host.ref_ns", "ns"),
    ("host.ref_spread", "ratio"),
];

/// Outcome counts of a run: operations issued in the timed phase and in
/// verification, and how many of them answered wrongly.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Typed errors, model mismatches, lost acks, verdict mismatches.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked outcome.
    #[inline]
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// Adds another tally's counts to this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The metrics of one run, in emission order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// The report of exactly the `declared` metrics, in their order, with
    /// their declared units: an error if one was not measured, or if
    /// something was measured that is not declared.
    pub fn declared(
        declared: &'static [(&'static str, &'static str)],
        values: &[(&'static str, f64)],
    ) -> Result<Report, String> {
        if let Some((stray, _)) = values.iter().find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric {stray} is measured but not declared"));
        }
        let metrics = declared
            .iter()
            .map(|&(name, unit)| {
                let mut hits = values.iter().filter(|(n, _)| *n == name);
                match (hits.next(), hits.next()) {
                    (Some(&(_, value)), None) => Ok((name, unit, value)),
                    (None, _) => Err(format!("metric {name} was never measured")),
                    _ => Err(format!("metric {name} was measured twice")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Report { metrics })
    }

    /// Prints every metric by name with its unit, the host facts, and — as
    /// the last line — the result object. Returns whether the run counts as
    /// correct (no failure, every value finite).
    pub fn print(&self, host_json: &str, tally: Tally) -> bool {
        let finite = self.metrics.iter().all(|m| m.2.is_finite());
        let correct = tally.failed == 0 && tally.attempted > 0 && finite;
        for (name, unit, value) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        println!("host {host_json}");
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            body.join(", ")
        );
        correct
    }
}
