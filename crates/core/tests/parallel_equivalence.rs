//! Equivalence harness for the grouping kernel at every thread count.
//!
//! `run()` and `run_parallel(t)` must produce the same clustering as the
//! Figure 12 breadth-first expansion (the test-side oracle in `common`)
//! for every thread count — the design argument lives in the library's
//! `group` module, and this suite locks it down empirically:
//!
//! * canonical comparison (clusters as member-id sets, noise sets exact)
//!   for t ∈ {1, 2, 4, 8} on hurricane-like, grid, and random-walk
//!   fixtures;
//! * a long corridor with a shared border, shaped like the stolen-border
//!   bug, whose queries are split across every worker;
//! * an extra thread count taken from `RUST_TEST_THREADS` when set, so CI
//!   sweeps thread counts that the hard-coded list misses.

mod common;

use common::{
    bfs_clustering, canonical_clusters, env_thread_count, grid_db, hurricane_db, identified,
    random_walk_db, THREAD_COUNTS,
};
use traclus_core::{
    ClusterConfig, IndexKind, LineSegmentClustering, PartitionConfig, SegmentDatabase, SegmentLabel,
};
use traclus_geom::{Point2, Segment2, SegmentDistance, Trajectory, TrajectoryId};

/// Asserts oracle equivalence on one database+config for `run()`, the
/// fixed thread counts, and an optional extra one from the environment.
fn assert_equivalent(db: &SegmentDatabase<2>, config: ClusterConfig, fixture: &str) {
    let algo = LineSegmentClustering::new(db, config);
    let sequential = bfs_clustering(db, &config);
    assert_eq!(
        algo.run(),
        sequential,
        "{fixture}: run() diverges from the oracle"
    );
    let mut counts: Vec<usize> = THREAD_COUNTS.to_vec();
    if let Some(extra) = env_thread_count() {
        counts.push(extra);
    }
    for t in counts {
        let parallel = algo.run_parallel(t);
        // Canonical comparison: same clusters up to id renumbering...
        assert_eq!(
            canonical_clusters(&sequential),
            canonical_clusters(&parallel),
            "{fixture}: cluster sets diverge at t={t}"
        );
        // ...exact noise sets...
        assert_eq!(
            sequential.noise(),
            parallel.noise(),
            "{fixture}: noise sets diverge at t={t}"
        );
        assert_eq!(
            sequential.filtered_out, parallel.filtered_out,
            "{fixture}: filter diagnostics diverge at t={t}"
        );
        // ...and (stronger, by design) bit-identical output including
        // cluster numbering: components are numbered in the sequential
        // seed order.
        assert_eq!(
            sequential, parallel,
            "{fixture}: exact equality broken at t={t}"
        );
    }
}

#[test]
fn hurricane_like_fixture_is_equivalent() {
    let db = hurricane_db(40, 2007);
    assert_equivalent(&db, ClusterConfig::new(5.0, 5), "hurricane eps=5");
    assert_equivalent(&db, ClusterConfig::new(2.0, 3), "hurricane eps=2");
}

#[test]
fn grid_fixture_is_equivalent_across_index_kinds() {
    let db = grid_db();
    for kind in [IndexKind::Linear, IndexKind::RTree] {
        let config = ClusterConfig {
            index: kind,
            min_trajectories: Some(2),
            ..ClusterConfig::new(1.5, 3)
        };
        assert_equivalent(&db, config, &format!("grid index={kind:?}"));
    }
}

#[test]
fn random_walk_fixture_is_equivalent() {
    for seed in [3, 99, 2026] {
        let db = random_walk_db(seed, 300);
        assert_equivalent(
            &db,
            ClusterConfig::new(6.0, 4),
            &format!("walk seed={seed}"),
        );
        assert_equivalent(
            &db,
            ClusterConfig {
                weighted: true,
                min_trajectories: Some(2),
                ..ClusterConfig::new(3.0, 3)
            },
            &format!("walk weighted seed={seed}"),
        );
    }
}

#[test]
fn whole_pipeline_fixture_is_equivalent() {
    // Trajectory partitioning feeding straight into the grouping phase —
    // the exact shape Traclus::run produces.
    let trajectories: Vec<Trajectory<2>> = (0..12)
        .map(|i| {
            let jitter = i as f64 * 0.4;
            Trajectory::new(
                TrajectoryId(i),
                (0..25)
                    .map(|k| Point2::xy(k as f64 * 5.0, jitter + (k as f64 * 0.6).sin()))
                    .collect(),
            )
        })
        .collect();
    let db = SegmentDatabase::from_trajectories(
        &trajectories,
        &PartitionConfig::default(),
        SegmentDistance::default(),
    );
    assert_equivalent(&db, ClusterConfig::new(4.0, 4), "pipeline");
}

/// The stolen-border bug shape, parallelised: one density-connected
/// cluster strung along a corridor, with a non-core border segment sitting
/// between two core runs. Fanning the queries out over workers must not
/// cut the chain in two, and the border must not be double-assigned or
/// dropped.
#[test]
fn border_merge_keeps_cross_tile_cluster_whole() {
    let mut entries = Vec::new();
    // A long corridor of overlapping 5-segment bundles: adjacent bundles
    // sit at parallel distance 3 (≤ ε), so every segment is core and the
    // whole corridor is one density-connected component...
    let mut tr = 0u32;
    for step in 0..24 {
        let x0 = step as f64 * 7.0;
        for i in 0..5 {
            entries.push((
                Segment2::xy(x0, 0.4 * i as f64, x0 + 10.0, 0.4 * i as f64),
                tr,
            ));
            tr += 1;
        }
    }
    // ...plus one border segment above the corridor midpoint: its
    // neighborhood is {self + the 5 bundle cores below} = 6 < MinLns 7,
    // so it is non-core but density-reachable — shared by several
    // density-connected cores, the stolen-border bug shape.
    let border_id = entries.len() as u32;
    entries.push((Segment2::xy(12.0 * 7.0, 3.2, 12.0 * 7.0 + 10.0, 3.2), tr));
    let db = identified(entries);
    let config = ClusterConfig {
        min_trajectories: Some(3),
        ..ClusterConfig::new(4.0, 7)
    };

    for threads in [2, 3, 4, 8] {
        let parallel = LineSegmentClustering::new(&db, config).run_parallel(threads);
        assert_eq!(
            parallel.clusters.len(),
            1,
            "corridor cluster split at t={threads}"
        );
        assert_eq!(
            parallel.clusters[0].members.len(),
            db.len(),
            "corridor member lost at t={threads}"
        );
        assert_eq!(
            parallel.labels[border_id as usize],
            SegmentLabel::Cluster(parallel.clusters[0].id),
            "border segment dropped at t={threads}"
        );
    }
    // And the oracle agrees.
    assert_equivalent(&db, config, "border-merge chain");
}

/// A non-core border segment reachable from two *distinct* clusters must
/// land in the earlier cluster (first-come sequential semantics) under any
/// thread count — the exact stolen-border scenario.
#[test]
fn shared_border_segment_is_not_stolen_in_parallel() {
    let mut entries = Vec::new();
    let mut tr = 0u32;
    // Bundle A (ids 0–4) around y = 0..1.6.
    for i in 0..5 {
        entries.push((Segment2::xy(0.0, 0.4 * i as f64, 10.0, 0.4 * i as f64), tr));
        tr += 1;
    }
    // Border (id 5) halfway between the bundles: non-core at MinLns = 4.
    entries.push((Segment2::xy(0.0, 3.0, 10.0, 3.0), 50));
    // Bundle B (ids 6–10) around y = 4.4..6.0.
    for i in 0..5 {
        entries.push((
            Segment2::xy(0.0, 4.4 + 0.4 * i as f64, 10.0, 4.4 + 0.4 * i as f64),
            10 + tr,
        ));
        tr += 1;
    }
    let db = identified(entries);
    let config = ClusterConfig::new(1.5, 4);
    let sequential = bfs_clustering(&db, &config);
    assert_eq!(sequential.clusters.len(), 2);
    assert_eq!(sequential.clusters[0].members, vec![0, 1, 2, 3, 4, 5]);
    for t in [2, 3, 4, 8] {
        let parallel = LineSegmentClustering::new(&db, config).run_parallel(t);
        assert_eq!(sequential, parallel, "border stolen at t={t}");
        assert_eq!(
            parallel.labels[5],
            SegmentLabel::Cluster(parallel.clusters[0].id),
            "border must stay with the earlier cluster at t={t}"
        );
    }
}

#[test]
fn dense_database_compaction_preserves_equivalence() {
    // ~600 segments all mutually within ε: more than one query batch, with
    // every query returning the whole database.
    let entries: Vec<(Segment2, u32)> = (0..600)
        .map(|i| {
            let y = (i % 60) as f64 * 0.05;
            let x = (i / 60) as f64 * 0.1;
            (Segment2::xy(x, y, x + 10.0, y), (i % 23) as u32)
        })
        .collect();
    let db = identified(entries);
    assert_equivalent(&db, ClusterConfig::new(50.0, 5), "dense compaction");
    // A mid-range ε yields several components plus noise under the same
    // compaction pressure.
    assert_equivalent(&db, ClusterConfig::new(0.08, 3), "dense tight eps");
}

#[test]
fn determinism_across_repeated_parallel_runs() {
    let db = hurricane_db(24, 77);
    let algo = LineSegmentClustering::new(&db, ClusterConfig::new(4.0, 4));
    for t in [2, 4, 8] {
        let a = algo.run_parallel(t);
        let b = algo.run_parallel(t);
        assert_eq!(a, b, "nondeterministic output at t={t}");
    }
}

#[test]
fn degenerate_databases_are_equivalent() {
    // Empty database.
    let empty = identified(vec![]);
    assert_equivalent(&empty, ClusterConfig::new(1.0, 2), "empty");
    // Single segment.
    let single = identified(vec![(Segment2::xy(0.0, 0.0, 5.0, 0.0), 0)]);
    assert_equivalent(&single, ClusterConfig::new(1.0, 2), "single");
    // All segments stacked on one point (one dense spot, many threads).
    let stacked = identified(
        (0..7)
            .map(|i| (Segment2::xy(1.0, 1.0, 1.0, 1.0), i))
            .collect(),
    );
    assert_equivalent(&stacked, ClusterConfig::new(0.5, 3), "stacked");
}
