//! `stream_window`: the storms of `batch_storms` flow through the
//! incremental engine with a capacity window. Each arrival is an `insert`
//! followed by `expire_to_capacity` (the explicit form of
//! `StreamConfig::capacity`, so insertion and removal time separately);
//! every block of arrivals ends with a snapshot publication and a batch of
//! snapshot queries.
//!
//! Stresses stream (removal repair above all) and snapshot; bypasses json
//! and server. The default `rebuild_threshold` is kept, so the
//! full-re-cluster fallback on removal shows.

use traclus_core::{
    ClusterSnapshot, IncrementalClustering, IndexKind, LineSegmentClustering, MdlCost, Parallelism,
    PartitionConfig, SegmentDatabase, SnapshotCell, StreamStats, TraclusConfig,
};
use traclus_data::{HurricaneConfig, HurricaneGenerator};
use traclus_geom::{Aabb, Trajectory};

use crate::report::{Report, Timings};
use crate::stats::median;
use crate::sys::{nproc, PhaseMeter};
use crate::trace::Tracer;
use crate::Args;

/// Workload size.
pub struct Scale {
    /// Live trajectories kept by the window.
    pub window: usize,
    /// Arrivals per publication (one timed round).
    pub block: usize,
    /// Snapshot queries after each publication.
    pub reads_per_block: usize,
    /// Rounds per arm for each second of budget.
    pub blocks_per_second: f64,
    /// Fewest rounds per arm.
    pub min_blocks: usize,
    /// Every this many rounds the published snapshot is checked against a
    /// batch run over the live window (and always after the last round).
    pub check_every: usize,
    /// Set-ups timed (the median is reported).
    pub setups: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        window: 256,
        block: 16,
        reads_per_block: 480,
        blocks_per_second: 7.0,
        min_blocks: 21,
        check_every: 4,
        setups: 25,
    };

    /// A quick size for the benchmark's own tests.
    #[cfg(test)]
    pub const SMALL: Scale = Scale {
        window: 64,
        block: 16,
        reads_per_block: 80,
        blocks_per_second: 0.0,
        min_blocks: 13,
        check_every: 4,
        setups: 1,
    };
}

/// The pinned configuration: the batch workload's 0.05° MDL precision,
/// with ε = 1.75 and MinLns 11, where one or two corridor clusters span
/// the window and removal repair dominates. The entropy minimum of a
/// 256-storm window (ε = 1.0, MinLns 9) splits it into small clusters and
/// makes a round about ten times cheaper, hiding the layer this workload
/// exists for.
pub fn config(parallelism: Parallelism) -> TraclusConfig {
    TraclusConfig {
        eps: 1.75,
        min_lns: 11,
        partition: PartitionConfig {
            cost: MdlCost::with_precision(0.05),
            ..PartitionConfig::default()
        },
        parallelism,
        ..TraclusConfig::default()
    }
}

/// One engine and the cell it publishes to.
struct Arm {
    engine: IncrementalClustering<2>,
    cell: SnapshotCell<2>,
    root: &'static str,
    timings: Timings,
    segments_added: usize,
}

impl Arm {
    fn new(cfg: TraclusConfig, warm: &[Trajectory<2>], root: &'static str) -> Self {
        let mut engine = IncrementalClustering::new(cfg);
        engine.extend(warm);
        Self {
            engine,
            cell: SnapshotCell::new(cfg),
            root,
            timings: Timings::default(),
            segments_added: 0,
        }
    }

    /// One timed round: a block of arrivals, a publication, then the
    /// snapshot queries. Returns the number of queries whose answers were
    /// malformed.
    fn round(&mut self, arrivals: &[Trajectory<2>], scale: &Scale, tracer: &mut Tracer) -> u64 {
        let started = crate::now();
        let mut handed_over = Vec::with_capacity(arrivals.len());
        let mut bad_reads = 0;
        tracer.span(self.root, |t| {
            for storm in arrivals {
                t.set_op(u64::from(storm.id.0));
                handed_over.push(crate::now());
                let report = t.span("stream.insert", |_| self.engine.insert(storm));
                self.segments_added += report.new_segments;
                t.span("stream.expire", |_| {
                    self.engine.expire_to_capacity(scale.window)
                });
            }
            let snapshot = t.span("snapshot.publish", |_| self.cell.publish_from(&self.engine));
            let timings = &mut self.timings;
            for at in &handed_over {
                timings.visible.push(at.elapsed().as_secs_f64());
            }
            let first = timings.reads.len();
            for q in 0..scale.reads_per_block {
                let storm = &arrivals[q % arrivals.len()];
                let read = crate::now();
                let ok = snapshot_query(&snapshot, storm, q, t);
                timings.reads.push(read.elapsed().as_secs_f64());
                bad_reads += u64::from(!ok);
            }
            timings.close_reads(first);
        });
        self.timings.rounds.push(started.elapsed().as_secs_f64());
        bad_reads
    }
}

/// One snapshot query — nearest cluster, region summary or membership,
/// in rotation — and whether its answer is well formed.
fn snapshot_query(
    snapshot: &ClusterSnapshot<2>,
    storm: &Trajectory<2>,
    q: usize,
    t: &mut Tracer,
) -> bool {
    let clusters = snapshot.clusters().len();
    let known = |id: u32| (id as usize) < clusters;
    match q % 3 {
        0 => {
            let probe = storm.points[storm.points.len() / 2];
            let found = t.span("snapshot.nearest", |_| snapshot.nearest_cluster(&probe));
            // Clusters whose representative sweep came back empty have no
            // geometry to be near, so `None` means none has a representative.
            match found {
                Some((id, d)) => known(id.0) && d.is_finite() && d >= 0.0,
                None => snapshot.representatives().all(|r| r.points.is_empty()),
            }
        }
        1 => {
            let region = Aabb::from_points(&storm.points);
            let summary = t.span("snapshot.region", |_| snapshot.region_summary(&region));
            summary.clusters.iter().all(|c| known(c.0))
        }
        _ => {
            let member = t.span("snapshot.membership", |_| snapshot.membership(storm.id));
            member.iter().all(|c| known(c.0))
        }
    }
}

/// Snapshot == batch run over the live window, label for label.
fn matches_batch(snapshot: &ClusterSnapshot<2>, engine: &IncrementalClustering<2>) -> bool {
    let live = engine.live_database();
    let batch = LineSegmentClustering::new(&live, engine.config().cluster_config()).run();
    *snapshot.clustering() == batch
}

/// Runs the workload.
pub fn run(args: &Args, scale: &Scale) -> Result<Report, String> {
    let mut report = Report::default();
    // A traced run drives three engines, two at default parallelism, and
    // takes about five times as long a round; a third of the rounds keeps
    // it inside the time a run may take.
    let per_second = if args.trace {
        scale.blocks_per_second / 3.0
    } else {
        scale.blocks_per_second
    };
    let blocks = ((args.seconds * per_second).round() as usize).max(scale.min_blocks);
    let total = scale.window + blocks * scale.block;
    let par = config(Parallelism::default());
    let seq = config(Parallelism::Sequential);

    // Set-up: generate the storms and fill every arm's window.
    let mut setup_times = Vec::new();
    let mut storms = Vec::new();
    let mut arms = Vec::new();
    for _ in 0..scale.setups {
        let started = crate::now();
        storms = HurricaneGenerator::new(HurricaneConfig {
            tracks: total,
            seed: args.seed,
            ..HurricaneConfig::default()
        })
        .generate();
        let warm = &storms[..scale.window];
        // The end-to-end figures need only the Sequential engine; the
        // default-parallelism engines (traced and untraced) join in a
        // traced run, which also checks that all of them agree.
        arms = vec![Arm::new(seq, warm, "round.seq")];
        if args.trace {
            arms.push(Arm::new(par, warm, "round"));
            arms.push(Arm::new(par, warm, "round.plain"));
        }
        setup_times.push(started.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup_times));

    let mut traced = Tracer::new(args.trace);
    let mut plain = Tracer::new(false);
    // The traced default engine, whose counters the per-layer figures use.
    let main = if args.trace { 1 } else { 0 };
    let before = arms[main].engine.stats();
    let meter = PhaseMeter::start();
    for b in 0..blocks {
        let lo = scale.window + b * scale.block;
        let arrivals = &storms[lo..lo + scale.block];
        let mut order: Vec<usize> = (0..arms.len()).collect();
        if b % 2 == 1 {
            order.reverse();
        }
        let mut bad_reads = vec![0; arms.len()];
        for k in order {
            let tracer = if arms[k].root == "round.plain" {
                &mut plain
            } else {
                &mut traced
            };
            bad_reads[k] = arms[k].round(arrivals, scale, tracer);
        }
        // Checks, outside the timed rounds.
        let checked = b % scale.check_every == scale.check_every - 1 || b + 1 == blocks;
        let reference = arms[0].cell.load();
        for (arm, bad) in arms.iter().zip(bad_reads) {
            let snapshot = arm.cell.load();
            let agrees = snapshot.clustering() == reference.clustering();
            let exact = !checked || matches_batch(&snapshot, &arm.engine);
            report.tally(scale.block as u64 + 1, 0, String::new);
            report.check_state(agrees && exact, || {
                format!("{} block {b}: agrees with the Sequential engine {agrees}, equals batch {exact}", arm.root)
            });
            report.tally(scale.reads_per_block as u64, bad, || {
                format!("{} block {b}: {bad} malformed snapshot answers", arm.root)
            });
        }
    }
    let usage = meter.stop();

    report.end_to_end(&arms[0].timings, &arms[0].timings);
    report.phase_usage(&usage);

    if args.trace {
        let main = &arms[main];
        report.held_back(&main.timings, &arms[2].timings, &traced);
        let per_round = |name: &str| median(&traced.self_time_per_root(name, "round"));
        report.set("stream.insert_s", per_round("stream.insert"));
        report.set("stream.expire_s", per_round("stream.expire"));
        report.set(
            "snapshot.publish_p50_ms",
            median(&traced.durations_in("snapshot.publish", "round")) * 1e3,
        );
        report.set("snapshot.publishes", main.cell.load().epoch() as f64);
        report.set(
            "snapshot.nearest_us",
            median(&traced.durations_in("snapshot.nearest", "round")) * 1e6,
        );
        report.set(
            "snapshot.region_us",
            median(&traced.durations_in("snapshot.region", "round")) * 1e6,
        );
        report.set(
            "snapshot.membership_us",
            median(&traced.durations_in("snapshot.membership", "round")) * 1e6,
        );
        stream_counts(&before, &main.engine.stats(), &mut report);
        let engine = &main.engine;
        report.set(
            "stream.ids_per_live",
            engine.database().len() as f64 / engine.live_len().max(1) as f64,
        );
        report.set(
            "partition.segs_per_traj",
            main.segments_added as f64 / (blocks * scale.block) as f64,
        );
        let last = main.cell.load();
        report.set("cluster.clusters", last.clusters().len() as f64);
        report.set("cluster.noise_frac", last.clustering().noise_ratio());
        report.set("representative.clusters", last.clusters().len() as f64);
        probe_index_and_eps(
            &engine.live_database(),
            &par,
            IndexKind::RTree,
            nproc(),
            &mut report,
        );
        crate::trace::save(&traced, args)?;
    }
    Ok(report)
}

/// Stream counters accumulated over the timed phase.
fn stream_counts(before: &StreamStats, after: &StreamStats, report: &mut Report) {
    let delta = |a: usize, b: usize| (a - b) as f64;
    report.set(
        "stream.local_repairs",
        delta(after.local_repairs, before.local_repairs),
    );
    report.set(
        "stream.full_rebuilds",
        delta(after.full_rebuilds, before.full_rebuilds),
    );
    report.set(
        "stream.decremental_repairs",
        delta(after.decremental_repairs, before.decremental_repairs),
    );
    report.set(
        "stream.decremental_rebuilds",
        delta(after.decremental_rebuilds, before.decremental_rebuilds),
    );
    report.set(
        "stream.repair_parallel_queries",
        (after.repair_parallel_queries - before.repair_parallel_queries) as f64,
    );
    report.set(
        "stream.prune_candidates",
        (after.prune_candidates - before.prune_candidates) as f64,
    );
}

/// Side probes of the index and ε-query layers on one database: index
/// builds (single-threaded and on `threads` workers) and a sweep of one
/// `neighborhood_into` per live segment with the filter-and-refine
/// tallies it produced.
pub fn probe_index_and_eps(
    db: &SegmentDatabase<2>,
    cfg: &TraclusConfig,
    kind: IndexKind,
    threads: usize,
    report: &mut Report,
) {
    const BUILDS: usize = 5;
    let time = |f: &dyn Fn()| {
        let started = crate::now();
        f();
        started.elapsed().as_secs_f64()
    };
    let single: Vec<f64> = (0..BUILDS)
        .map(|_| time(&|| drop(std::hint::black_box(db.build_index(kind, cfg.eps)))))
        .collect();
    let parallel: Vec<f64> = (0..BUILDS)
        .map(|_| {
            time(&|| {
                drop(std::hint::black_box(
                    db.build_index_parallel(kind, cfg.eps, threads),
                ))
            })
        })
        .collect();
    report.set("index.build_s", median(&single));
    report.set("index.build_par_s", median(&parallel));

    let mut index = db.build_index(kind, cfg.eps);
    index.set_pruning(cfg.pruning);
    let mut out = Vec::new();
    let mut queries = 0u64;
    let mut neighbors = 0u64;
    let started = crate::now();
    for id in 0..db.len() as u32 {
        if db.is_live(id) {
            db.neighborhood_into(&index, id, cfg.eps, &mut out);
            queries += 1;
            neighbors += out.len() as u64;
        }
    }
    report.set("eps_query.sweep_s", started.elapsed().as_secs_f64());
    let prune = index.prune_stats();
    let per_query = |n: u64| n as f64 / queries.max(1) as f64;
    report.set(
        "eps_query.candidates_per_query",
        per_query(prune.candidates),
    );
    report.set(
        "eps_query.pruned_frac",
        prune.pruned_total() as f64 / prune.candidates.max(1) as f64,
    );
    report.set("eps_query.neighbors_per_query", per_query(neighbors));
}
