//! The paper-faithful oracle for every grouping-equivalence suite: the
//! Figure 12 breadth-first expansion, exactly as the library ran it before
//! batch, parallel and streaming clustering were folded into one
//! ascending-scan kernel. It reaches the database only through the public
//! API (`build_index`, `neighborhood_into`, `neighborhood_cardinality`,
//! `trajectory_of`), so it shares no grouping code with the library.
//!
//! Also home to the segment-database fixtures and thread-count sweep the
//! parallel and prune suites share.

// Each suite compiles this module separately and uses a subset of it.
#![allow(dead_code)]

use std::collections::VecDeque;

use traclus_core::{
    Cluster, ClusterConfig, ClusterId, Clustering, NeighborIndex, PartitionConfig, SegmentDatabase,
    SegmentLabel, TraclusConfig,
};
use traclus_data::{HurricaneConfig, HurricaneGenerator};
use traclus_geom::{
    IdentifiedSegment, Segment2, SegmentDistance, SegmentId, Trajectory, TrajectoryId,
};

/// Figure 12 over `db`: seed clusters from unclassified segments in id
/// order, expand each by BFS through core segments, then apply the
/// trajectory-cardinality filter.
pub fn bfs_clustering<const D: usize>(
    db: &SegmentDatabase<D>,
    config: &ClusterConfig,
) -> Clustering {
    let n = db.len();
    let mut index = db.build_index(config.index, config.eps);
    index.set_pruning(config.pruning);
    // Raw ids assigned during expansion; filtered/renumbered in step 3.
    let mut raw: Vec<Option<u32>> = vec![None; n];
    let mut visited_noise: Vec<bool> = vec![false; n];
    let mut classified: Vec<bool> = vec![false; n];
    let mut cluster_id: u32 = 0; // line 1
    let mut neighborhood = Vec::new();
    let mut queue: VecDeque<u32> = VecDeque::new();

    // Step 1 (lines 3–12): seed clusters from unclassified segments in
    // id order (determinism).
    for l in 0..n as u32 {
        if classified[l as usize] {
            continue;
        }
        db.neighborhood_into(&index, l, config.eps, &mut neighborhood); // line 5
        let cardinality = db.neighborhood_cardinality(&neighborhood, config.weighted);
        if cardinality >= config.min_lns {
            // lines 7–8: claim the neighborhood for the new cluster and
            // queue the unclassified part (minus L itself) for
            // expansion. Only unclassified or noise segments are
            // claimed: a border segment already classified into an
            // earlier cluster belongs to that cluster (DBSCAN
            // first-come semantics) — unconditionally re-assigning it
            // here would silently steal it and desynchronise the
            // earlier cluster's members from its labels. Noise
            // segments are claimed as border members but not queued
            // (they were already visited and found non-core), matching
            // `expand_cluster`.
            queue.clear();
            for &x in &neighborhood {
                let xi = x as usize;
                let was_unclassified = !classified[xi];
                if was_unclassified || visited_noise[xi] {
                    raw[xi] = Some(cluster_id);
                    classified[xi] = true;
                    visited_noise[xi] = false;
                    if was_unclassified && x != l {
                        queue.push_back(x);
                    }
                }
            }
            // Step 2 (lines 17–28).
            expand_cluster(
                db,
                config,
                &index,
                &mut queue,
                cluster_id,
                &mut raw,
                &mut classified,
                &mut visited_noise,
                &mut neighborhood,
            );
            cluster_id += 1; // line 10
        } else {
            visited_noise[l as usize] = true; // line 12
            classified[l as usize] = true;
        }
    }

    // Step 3 (lines 13–16).
    let threshold = config
        .min_trajectories
        .unwrap_or_else(|| config.min_lns.ceil() as usize);
    finalize_raw(db, &raw, cluster_id, threshold)
}

/// The full pipeline's clustering through the oracle: MDL-partition
/// `trajectories` exactly as `Traclus::run` does, then run Figure 12.
pub fn bfs_pipeline<const D: usize>(
    config: &TraclusConfig,
    trajectories: &[Trajectory<D>],
) -> Clustering {
    let db = SegmentDatabase::from_trajectories(trajectories, &config.partition, config.distance);
    bfs_clustering(&db, &config.cluster_config())
}

/// Lines 17–28: BFS expansion of a density-connected set.
#[allow(clippy::too_many_arguments)]
fn expand_cluster<const D: usize>(
    db: &SegmentDatabase<D>,
    config: &ClusterConfig,
    index: &NeighborIndex<D>,
    queue: &mut VecDeque<u32>,
    cluster_id: u32,
    raw: &mut [Option<u32>],
    classified: &mut [bool],
    visited_noise: &mut [bool],
    scratch: &mut Vec<u32>,
) {
    while let Some(m) = queue.pop_front() {
        // lines 19–20
        db.neighborhood_into(index, m, config.eps, scratch);
        let cardinality = db.neighborhood_cardinality(scratch, config.weighted);
        if cardinality >= config.min_lns {
            // lines 21–26
            for &x in scratch.iter() {
                let xi = x as usize;
                let was_unclassified = !classified[xi];
                let was_noise = visited_noise[xi];
                if was_unclassified || was_noise {
                    raw[xi] = Some(cluster_id);
                    classified[xi] = true;
                    visited_noise[xi] = false;
                    if was_unclassified {
                        queue.push_back(x); // line 26
                    }
                }
            }
        }
    }
}

/// Step 3 of Figure 12 (lines 13–16): gather members per raw cluster id,
/// apply the trajectory-cardinality filter, renumber densely, and build
/// the final label array. Member lists come out ascending because
/// segments are scanned in id order.
fn finalize_raw<const D: usize>(
    db: &SegmentDatabase<D>,
    raw: &[Option<u32>],
    raw_cluster_count: u32,
    threshold: usize,
) -> Clustering {
    let n = raw.len();
    let mut members_by_raw: Vec<Vec<u32>> = vec![Vec::new(); raw_cluster_count as usize];
    for (seg, assignment) in raw.iter().enumerate() {
        if let Some(c) = assignment {
            members_by_raw[*c as usize].push(seg as u32);
        }
    }
    let mut labels = vec![SegmentLabel::Noise; n];
    let mut clusters = Vec::new();
    let mut filtered_out = 0usize;
    for members in members_by_raw {
        if members.is_empty() {
            continue;
        }
        let mut trajectories: Vec<TrajectoryId> =
            members.iter().map(|&m| db.trajectory_of(m)).collect();
        trajectories.sort_unstable();
        trajectories.dedup();
        if trajectories.len() < threshold {
            filtered_out += 1; // line 16: cluster removed; members → noise
            continue;
        }
        let id = ClusterId(clusters.len() as u32);
        for &m in &members {
            labels[m as usize] = SegmentLabel::Cluster(id);
        }
        clusters.push(Cluster {
            id,
            members,
            trajectories,
        });
    }
    Clustering {
        labels,
        clusters,
        filtered_out,
    }
}

/// Thread counts every fixture is checked under.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Clusters as sorted member-id sets, sorted by first member — the
/// renumbering-invariant canonical form.
pub fn canonical_clusters(clustering: &Clustering) -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> = clustering
        .clusters
        .iter()
        .map(|c| {
            let mut m = c.members.clone();
            m.sort_unstable();
            m
        })
        .collect();
    sets.sort();
    sets
}

/// `RUST_TEST_THREADS`, reused as a thread-count override so CI can sweep
/// thread counts without recompiling the test list.
pub fn env_thread_count() -> Option<usize> {
    std::env::var("RUST_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0 && t <= 64)
}

pub fn identified(segments: Vec<(Segment2, u32)>) -> SegmentDatabase<2> {
    let segs = segments
        .into_iter()
        .enumerate()
        .map(|(k, (s, tr))| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(tr), s))
        .collect();
    SegmentDatabase::from_segments(segs, SegmentDistance::default())
}

/// Hurricane-like fixture: the synthetic Best-Track stand-in, partitioned
/// by the real MDL phase.
pub fn hurricane_db(tracks: usize, seed: u64) -> SegmentDatabase<2> {
    let trajectories = HurricaneGenerator::new(HurricaneConfig {
        tracks,
        seed,
        ..HurricaneConfig::default()
    })
    .generate();
    SegmentDatabase::from_trajectories(
        &trajectories,
        &PartitionConfig::default(),
        SegmentDistance::default(),
    )
}

/// Grid fixture: bundles of parallel segments on a lattice, dense enough
/// that most bundles cluster and sparse singletons stay noise.
pub fn grid_db() -> SegmentDatabase<2> {
    let mut entries = Vec::new();
    for gx in 0..4 {
        for gy in 0..3 {
            let (x0, y0) = (gx as f64 * 40.0, gy as f64 * 30.0);
            let bundle_size = 3 + ((gx + gy) % 3);
            for i in 0..bundle_size {
                entries.push((
                    Segment2::xy(x0, y0 + 0.5 * i as f64, x0 + 12.0, y0 + 0.5 * i as f64),
                    (gx * 10 + gy * 3 + i) as u32,
                ));
            }
        }
    }
    // Scattered singletons between lattice nodes.
    for k in 0..6 {
        let x = 17.0 + 23.0 * k as f64;
        entries.push((
            Segment2::xy(x, 15.0 + k as f64, x + 4.0, 15.5 + k as f64),
            (100 + k) as u32,
        ));
    }
    identified(entries)
}

/// Random-walk fixture: deterministic pseudo-random segment soup with a
/// few planted corridors, many trajectories.
pub fn random_walk_db(seed: u64, n: usize) -> SegmentDatabase<2> {
    // xorshift64* — self-contained, deterministic across platforms.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f64) / (1u64 << 24) as f64
    };
    let mut entries = Vec::new();
    let (mut x, mut y) = (0.0f64, 0.0f64);
    for k in 0..n {
        let dx = 4.0 + 6.0 * next();
        let dy = 8.0 * next() - 4.0;
        let (nx, ny) = (x + dx, y + dy);
        entries.push((Segment2::xy(x, y, nx, ny), (k % 17) as u32));
        x = nx;
        y = ny;
        if next() < 0.15 {
            // Jump: restart the walk elsewhere so density varies.
            x = 200.0 * next();
            y = 150.0 * next();
        }
    }
    identified(entries)
}
