//! The result a workload hands back: operation tallies, metrics and the
//! reasons behind any failed check.

use crate::stats::{median, tail};
use crate::trace::Tracer;

/// End-to-end metrics every workload reports with tracing off, with their
/// units (the `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_seq_s", "s"),
    ("reads_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics every workload reports with tracing on (the
/// `per_layer` list of `BENCHMARK.json`). A workload that bypasses a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("partition.s", "s"),
    ("partition.segs_per_traj", "count"),
    ("index.build_s", "s"),
    ("index.build_par_s", "s"),
    ("eps_query.sweep_s", "s"),
    ("eps_query.candidates_per_query", "count"),
    ("eps_query.pruned_frac", "ratio"),
    ("eps_query.neighbors_per_query", "count"),
    ("cluster.seq_s", "s"),
    ("cluster.par_s", "s"),
    ("cluster.clusters", "count"),
    ("cluster.noise_frac", "ratio"),
    ("representative.s", "s"),
    ("representative.clusters", "count"),
    ("stream.insert_s", "s"),
    ("stream.expire_s", "s"),
    ("stream.local_repairs", "count"),
    ("stream.full_rebuilds", "count"),
    ("stream.decremental_repairs", "count"),
    ("stream.decremental_rebuilds", "count"),
    ("stream.repair_parallel_queries", "count"),
    ("stream.prune_candidates", "count"),
    ("stream.ids_per_live", "ratio"),
    ("snapshot.publish_p50_ms", "ms"),
    ("snapshot.publishes", "count"),
    ("snapshot.nearest_us", "us"),
    ("snapshot.region_us", "us"),
    ("snapshot.membership_us", "us"),
    ("json.encode_ingest_us", "us"),
    ("json.parse_reps_us", "us"),
    ("wire.bytes_per_read", "bytes"),
    ("wire.bytes_per_write", "bytes"),
    ("wire.midsize_reply_bytes", "bytes"),
    ("server.stats_p50_us", "us"),
    ("server.representatives_p50_us", "us"),
    ("server.nearest_p50_us", "us"),
    ("server.membership_p50_us", "us"),
    ("server.region_p50_us", "us"),
    ("server.flush_p50_us", "us"),
    ("server.ingest_p50_us", "us"),
    ("server.midsize_reply_p50_us", "us"),
    ("server.handler_share", "ratio"),
    ("server.publishes_per_write", "ratio"),
    ("e2e.run_s", "s"),
    ("e2e.read_p50_us", "us"),
    ("e2e.visible_p50_ms", "ms"),
    ("e2e.visible_p95_ms", "ms"),
    ("e2e.read_p99_us", "us"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.cpu_pressure", "ratio"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layer_share", "ratio"),
];

/// Count metrics that must repeat exactly across runs with one seed.
/// `server.publishes_per_write` is deliberately absent: how many
/// publications a write causes depends on whether the daemon's engine
/// applied the ingest before the flush arrived, a race the benchmark
/// exposes on purpose.
#[cfg(test)]
pub const EXACT_COUNTS: &[&str] = &[
    "partition.segs_per_traj",
    "eps_query.candidates_per_query",
    "eps_query.pruned_frac",
    "eps_query.neighbors_per_query",
    "cluster.clusters",
    "cluster.noise_frac",
    "representative.clusters",
    "stream.local_repairs",
    "stream.full_rebuilds",
    "stream.decremental_repairs",
    "stream.decremental_rebuilds",
    "stream.repair_parallel_queries",
    "stream.prune_candidates",
    "stream.ids_per_live",
    "snapshot.publishes",
    "wire.bytes_per_read",
    "wire.bytes_per_write",
    "wire.midsize_reply_bytes",
];

/// What one arm of a workload measured, in seconds.
#[derive(Debug, Default)]
pub struct Timings {
    /// Wall time of each timed round.
    pub rounds: Vec<f64>,
    /// Write-to-visible time of each write.
    pub visible: Vec<f64>,
    /// Latency of each read.
    pub reads: Vec<f64>,
    /// Reads per second of read time, one value per round.
    pub read_rates: Vec<f64>,
}

impl Timings {
    /// Closes a round's reads: those recorded since `first`.
    pub fn close_reads(&mut self, first: usize) {
        let spent: f64 = self.reads[first..].iter().sum();
        if spent > 0.0 {
            self.read_rates
                .push((self.reads.len() - first) as f64 / spent);
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// `(name, value)` pairs; units come from the metric lists.
    pub metrics: Vec<(String, f64)>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// A state check failed: every operation of the run counts as failed.
    spoiled: bool,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// Looks a metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Tallies `ops` operations of which `bad` failed their check.
    pub fn tally(&mut self, ops: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += ops;
        self.failed += if self.spoiled { ops } else { bad };
        if bad > 0 {
            self.problem(why);
        }
    }

    /// Records a check of the state every operation of the run builds on
    /// (clusterings agree, published state equals a batch run). A failure
    /// counts every operation of the run as failed — those tallied before
    /// and after — so `ok_frac` drops to 0 however few checks there are.
    pub fn check_state(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.spoiled = true;
            self.failed = self.attempted;
            self.problem(why);
        }
    }

    fn problem(&mut self, why: impl FnOnce() -> String) {
        if self.problems.len() < 20 {
            self.problems.push(why());
        }
    }

    /// Records the end-to-end timings: `main` is the default-parallelism
    /// arm, `seq` the Sequential one.
    pub fn end_to_end(&mut self, main: &Timings, seq: &Timings) {
        self.set("run_seq_s", median(&seq.rounds));
        self.set("reads_per_s", median(&main.read_rates));
    }

    /// Records, for a traced run, the end-to-end figures kept out of the
    /// end-to-end list because they do not repeat within a tenth (see
    /// `README.md`), from the untraced default arm, and the tracing
    /// overhead: the traced default arm against the untraced one, and the
    /// share of the traced rounds (spans called `"round"`) that layer
    /// spans account for. A percentile without ten samples beyond it is
    /// left out (reads 0).
    pub fn held_back(&mut self, traced: &Timings, untraced: &Timings, tracer: &Tracer) {
        self.set("e2e.run_s", median(&untraced.rounds));
        self.set("e2e.read_p50_us", median(&untraced.reads) * 1e6);
        self.set("e2e.visible_p50_ms", median(&untraced.visible) * 1e3);
        if let Ok(p95) = tail(&untraced.visible, 0.95, "visible") {
            self.set("e2e.visible_p95_ms", p95 * 1e3);
        }
        if let Ok(p99) = tail(&untraced.reads, 0.99, "read") {
            self.set("e2e.read_p99_us", p99 * 1e6);
        }
        self.set("trace.run_s", median(&traced.rounds));
        self.set(
            "trace.overhead_s",
            median(&traced.rounds) - median(&untraced.rounds),
        );
        self.set("trace.layer_share", tracer.accounted_share("round"));
    }

    /// Records the CPU diagnostics of the timed phase.
    pub fn phase_usage(&mut self, usage: &crate::sys::PhaseUsage) {
        self.set("proc.phase_s", usage.wall_s);
        self.set("proc.cpu_s", usage.cpu_s);
        self.set("proc.cpu_util", usage.cpu_util());
        self.set("proc.cpu_pressure", usage.pressure);
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The metrics of `list`, in its order, with units; a metric the
    /// workload did not set reads 0 (the layer was bypassed).
    pub fn select(
        &self,
        list: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        list.iter()
            .map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }

    /// The final result line: one JSON object.
    pub fn result_line(&self, metrics: &[(&str, f64, &str)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A finite number in JSON syntax (Rust's `Display` for `f64` never uses
/// an exponent); non-finite values, which no metric should produce, read 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_state_check_fails_the_whole_run() {
        let mut r = Report::default();
        r.tally(100, 0, String::new);
        r.check_state(true, String::new);
        assert_eq!(r.ok_frac(), 1.0);
        r.check_state(false, || "clusterings differ".to_string());
        r.tally(10, 0, String::new);
        assert_eq!((r.attempted, r.failed), (110, 110));
        assert_eq!(r.ok_frac(), 0.0);
        assert_eq!(r.problems, ["clusterings differ"]);
    }
}
