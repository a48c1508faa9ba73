//! `batch_storms`: the whole pipeline over a few thousand synthetic
//! storms, repeated under default parallelism and under
//! `Parallelism::Sequential`, then ε-neighbourhood lookups on the result.
//!
//! Stresses partition, ε-query and grouping; bypasses stream, snapshot,
//! json and server.

use traclus_core::{
    representatives_for, IndexKind, LineSegmentClustering, MdlCost, NeighborIndex, Parallelism,
    PartitionConfig, SegmentDatabase, Traclus, TraclusConfig, TraclusOutcome,
};
use traclus_data::{HurricaneConfig, HurricaneGenerator};
use traclus_geom::Trajectory;

use crate::report::{Report, Timings};
use crate::stats::median;
use crate::sys::{nproc, PhaseMeter};
use crate::trace::Tracer;
use crate::Args;

/// Workload size.
pub struct Scale {
    /// Storms generated.
    pub storms: usize,
    /// Pipeline runs per arm for each second of budget.
    pub rounds_per_second: f64,
    /// Fewest pipeline runs per arm.
    pub min_rounds: usize,
    /// Set-ups timed (the median is reported).
    pub setups: usize,
    /// ε-neighbourhood lookups on the result.
    pub reads: usize,
    /// Accepted cluster counts (pinned at design time).
    pub clusters: (usize, usize),
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        storms: 2000,
        rounds_per_second: 1.0,
        min_rounds: 20,
        setups: 5,
        reads: 4000,
        clusters: (6, 30),
    };

    /// A quick size for the benchmark's own tests.
    #[cfg(test)]
    pub const SMALL: Scale = Scale {
        storms: 300,
        rounds_per_second: 0.0,
        min_rounds: 3,
        setups: 1,
        reads: 1000,
        clusters: (1, 30),
    };
}

/// The pinned configuration. The MDL precision is the paper-faithful
/// 0.05° of `examples/hurricanes.rs`. On the design seed the entropy
/// curve of 2,000 storms is flat (within 0.2 %) for ε from 0.5 to 0.875;
/// ε = 0.5, the smallest point of that floor, with MinLns 10 (the top of
/// `select_min_lns` there) yields 12–16 clusters instead of the 3–5 at
/// the exact minimum.
pub fn config(parallelism: Parallelism) -> TraclusConfig {
    TraclusConfig {
        eps: 0.5,
        min_lns: 10,
        partition: PartitionConfig {
            cost: MdlCost::with_precision(0.05),
            ..PartitionConfig::default()
        },
        parallelism,
        ..TraclusConfig::default()
    }
}

fn storms(seed: u64, scale: &Scale) -> Vec<Trajectory<2>> {
    HurricaneGenerator::new(HurricaneConfig {
        tracks: scale.storms,
        seed,
        ..HurricaneConfig::default()
    })
    .generate()
}

/// One pipeline run. Untraced it is the public one-call `Traclus::run`;
/// traced it makes the same calls layer by layer, inside spans.
fn pipeline(
    cfg: &TraclusConfig,
    storms: &[Trajectory<2>],
    tracer: &mut Tracer,
) -> TraclusOutcome<2> {
    if !tracer.on() {
        return Traclus::new(*cfg).run(storms);
    }
    let sequential = cfg.parallelism == Parallelism::Sequential;
    let root = if sequential { "round.seq" } else { "round" };
    tracer.span(root, |t| {
        let database = t.span("partition", |_| {
            SegmentDatabase::from_trajectories(storms, &cfg.partition, cfg.distance)
        });
        let name = if sequential {
            "cluster.seq"
        } else {
            "cluster.par"
        };
        let clustering = t.span(name, |_| {
            LineSegmentClustering::new(&database, cfg.cluster_config()).run_configured()
        });
        let clusters = t.span("representative", |_| {
            representatives_for(cfg, &database, &clustering)
        });
        TraclusOutcome {
            database,
            clustering,
            clusters,
        }
    })
}

/// Runs the workload.
pub fn run(args: &Args, scale: &Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let par = config(Parallelism::default());
    let seq = config(Parallelism::Sequential);

    // Set-up: generate the storms and run one cold pipeline, so caches
    // and lazily built state are warm before timing. The Sequential arm
    // warms up: the default arm's thread scheduling adds noise to set-up.
    let mut setup_times = Vec::new();
    let mut input = Vec::new();
    let mut warm = None;
    for _ in 0..scale.setups {
        let started = crate::now();
        input = storms(args.seed, scale);
        warm = Some(Traclus::new(seq).run(&input));
        setup_times.push(started.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup_times));
    let outcome = warm.ok_or("no set-up ran")?;
    if outcome.database.is_empty() {
        return Err("the pipeline produced no segments".to_string());
    }
    let index = outcome.database.build_index(par.index, par.eps);

    let rounds = ((args.seconds * scale.rounds_per_second).round() as usize).max(scale.min_rounds);
    let reads_per_round = scale.reads.div_ceil(rounds);
    // Arms: default parallelism, Sequential, and — traced runs only — an
    // untraced default arm to measure the tracing overhead against.
    let mut traced = Tracer::new(args.trace);
    let mut plain = Tracer::new(false);
    let mut main = Timings::default();
    let mut sequential = Timings::default();
    let mut untraced = Timings::default();
    let meter = PhaseMeter::start();
    for r in 0..rounds {
        traced.set_op(r as u64);
        // Alternate which arm goes first so slow drift hits both alike.
        let order = if r % 2 == 0 {
            [&par, &seq]
        } else {
            [&seq, &par]
        };
        let mut outcomes = Vec::new();
        for cfg in order {
            let arm = if cfg == &par {
                &mut main
            } else {
                &mut sequential
            };
            let started = crate::now();
            outcomes.push(pipeline(cfg, &input, &mut traced));
            arm.rounds.push(started.elapsed().as_secs_f64());
        }
        if args.trace {
            let started = crate::now();
            std::hint::black_box(pipeline(&par, &input, &mut plain));
            untraced.rounds.push(started.elapsed().as_secs_f64());
        }
        // Checks, outside the timed calls: identical labels across the
        // arms and the set-up run, and a cluster count inside the pinned
        // range.
        let same = outcomes.iter().all(|o| o.clustering == outcome.clustering);
        let count = outcomes[0].clusters.len();
        let in_range = (scale.clusters.0..=scale.clusters.1).contains(&count);
        report.tally(2, 0, String::new);
        report.check_state(same && in_range, || {
            format!(
                "round {r}: arms agree {same}, {count} clusters vs pinned {:?}",
                scale.clusters
            )
        });
        // A slice of the reads, so they sample the whole timed phase.
        let first = main.reads.len();
        let bad = reads(
            &outcome,
            &index,
            &par,
            r * reads_per_round,
            reads_per_round,
            &mut main.reads,
        );
        main.close_reads(first);
        report.tally(reads_per_round as u64, bad, || {
            format!("round {r}: {bad} ε-lookups lacked their own segment or order")
        });
    }
    let usage = meter.stop();
    report.end_to_end(&main, &sequential);
    report.phase_usage(&usage);

    if args.trace {
        let per_round = |name: &str, root: &str| median(&traced.durations_in(name, root));
        report.set("partition.s", per_round("partition", "round"));
        report.set("cluster.par_s", per_round("cluster.par", "round"));
        report.set("cluster.seq_s", per_round("cluster.seq", "round.seq"));
        report.set("representative.s", per_round("representative", "round"));
        // A batch write (the storm set) becomes visible when its pipeline
        // returns; the reads are untraced calls in every arm.
        untraced.visible = untraced.rounds.clone();
        untraced.reads = std::mem::take(&mut main.reads);
        report.held_back(&main, &untraced, &traced);
        let db = &outcome.database;
        report.set(
            "partition.segs_per_traj",
            db.len() as f64 / input.len() as f64,
        );
        report.set("cluster.clusters", outcome.clusters.len() as f64);
        report.set("cluster.noise_frac", outcome.clustering.noise_ratio());
        report.set("representative.clusters", outcome.clusters.len() as f64);
        crate::stream::probe_index_and_eps(db, &par, IndexKind::RTree, nproc(), &mut report);
        crate::trace::save(&traced, args)?;
    }
    Ok(report)
}

/// `count` ε-neighbourhood lookups on the result's segment database — the
/// read a batch user makes ("what moves with this segment?") — starting
/// at the `first`-th probe. Returns how many answers lacked the segment
/// itself or were not sorted.
fn reads(
    outcome: &TraclusOutcome<2>,
    index: &NeighborIndex<2>,
    cfg: &TraclusConfig,
    first: usize,
    count: usize,
    times: &mut Vec<f64>,
) -> u64 {
    let db = &outcome.database;
    let mut bad = 0;
    for k in first..first + count {
        let id = ((k * 7919) % db.len()) as u32;
        let started = crate::now();
        let found = db.neighborhood(index, id, cfg.eps);
        times.push(started.elapsed().as_secs_f64());
        if !(found.contains(&id) && found.windows(2).all(|w| w[0] < w[1])) {
            bad += 1;
        }
    }
    bad
}
