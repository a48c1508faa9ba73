//! Density-based line-segment clustering (Section 4.2, Figure 12).
//!
//! A faithful adaptation of DBSCAN to line segments under the composite
//! distance: ε-neighborhoods (Definition 4), core segments (Definition 5),
//! cluster expansion through direct density-reachability (Definitions 6–9),
//! and the TRACLUS-specific third step — discarding clusters whose
//! *trajectory cardinality* `|PTR(C)|` (Definition 10) is below a threshold,
//! because a cluster drawn from too few distinct trajectories "does not
//! explain the behavior of a sufficient number of trajectories".
//!
//! The weighted-trajectory extension (end of Section 4.2) replaces the
//! neighborhood count with the sum of member weights.
//!
//! This module holds the public types and the [`LineSegmentClustering`]
//! entry points. The grouping itself is one ascending-scan kernel in
//! `crate::group`, shared with the streaming engine; the module docs there
//! carry the argument for why it labels every segment exactly as Figure
//! 12's breadth-first expansion does.

use traclus_geom::TrajectoryId;

use crate::group::{self, GroupState, Neighborhoods};
use crate::params::Parallelism;
use crate::segment_db::{IndexKind, PruneStats, SegmentDatabase};

/// Identifier of a cluster in a [`Clustering`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Per-segment classification after clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentLabel {
    /// Not yet visited (only observable mid-algorithm).
    Unclassified,
    /// Classified as noise (Figure 12 line 12), or member of a cluster that
    /// the trajectory-cardinality filter later removed.
    Noise,
    /// Member of the given cluster.
    Cluster(ClusterId),
}

/// Parameters of the grouping phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// The neighborhood radius ε.
    pub eps: f64,
    /// `MinLns`: minimum (weighted) neighborhood cardinality of a core
    /// segment.
    pub min_lns: f64,
    /// Threshold on `|PTR(C)|` below which a cluster is removed
    /// (Figure 12 line 15 notes "a threshold other than MinLns can be
    /// used"; `None` uses `MinLns`).
    pub min_trajectories: Option<usize>,
    /// Use weighted neighborhood cardinalities (Section 4.2 extension).
    pub weighted: bool,
    /// Acceleration structure for ε-neighborhood queries.
    pub index: IndexKind,
    /// Worker threads for the ε-queries of
    /// [`LineSegmentClustering::run_configured`]. The resulting
    /// [`Clustering`] is identical for every thread count.
    pub parallelism: Parallelism,
    /// Filter-and-refine pruning of ε-neighborhood candidates through the
    /// admissible lower bounds of `traclus_geom::lower_bound` (default
    /// on). The clustering is bit-identical either way — this is a
    /// performance/diagnostics knob, not a semantics switch.
    pub pruning: bool,
}

impl ClusterConfig {
    /// Plain configuration with the mandatory parameters.
    pub fn new(eps: f64, min_lns: usize) -> Self {
        Self {
            eps,
            min_lns: min_lns as f64,
            min_trajectories: None,
            weighted: false,
            index: IndexKind::default(),
            parallelism: Parallelism::default(),
            pruning: true,
        }
    }

    pub(crate) fn trajectory_threshold(&self) -> usize {
        self.min_trajectories
            .unwrap_or_else(|| self.min_lns.ceil() as usize)
    }
}

/// A surviving cluster: its members and participating trajectories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// The cluster id (dense, renumbered after filtering).
    pub id: ClusterId,
    /// Member segment ids, ascending.
    pub members: Vec<u32>,
    /// The distinct trajectories contributing members (`PTR(C)`),
    /// ascending.
    pub trajectories: Vec<TrajectoryId>,
}

impl Cluster {
    /// `|PTR(C)|` of Definition 10.
    pub fn trajectory_cardinality(&self) -> usize {
        self.trajectories.len()
    }
}

/// Result of the grouping phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Final label of every segment (dense ids).
    pub labels: Vec<SegmentLabel>,
    /// Surviving clusters, dense ids matching `labels`.
    pub clusters: Vec<Cluster>,
    /// Clusters removed by the trajectory-cardinality filter (kept for
    /// diagnostics/experiments; their members are labelled noise).
    pub filtered_out: usize,
}

impl Clustering {
    /// Segment ids labelled noise.
    pub fn noise(&self) -> Vec<u32> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, SegmentLabel::Noise))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Number of segments labelled noise. Counts labels in place, so tests,
    /// examples, and quality statistics no longer materialise the
    /// [`Self::noise`] id vector just to `.len()` it.
    pub fn noise_count(&self) -> usize {
        self.labels
            .iter()
            .filter(|l| matches!(l, SegmentLabel::Noise))
            .count()
    }

    /// Fraction of segments labelled noise. Counts labels in place — this
    /// runs inside the parameter-sweep experiment loops, where building the
    /// full [`Self::noise`] id vector per configuration was pure waste.
    pub fn noise_ratio(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.noise_count() as f64 / self.labels.len() as f64
        }
    }

    /// Member count of every cluster, in cluster-id order.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(|c| c.members.len()).collect()
    }

    /// Mean cluster size in segments (the Section 5.4 statistic).
    pub fn mean_cluster_size(&self) -> f64 {
        if self.clusters.is_empty() {
            0.0
        } else {
            self.clusters.iter().map(|c| c.members.len()).sum::<usize>() as f64
                / self.clusters.len() as f64
        }
    }
}

/// The Figure 12 algorithm, generic over dimension.
pub struct LineSegmentClustering<'db, const D: usize> {
    db: &'db SegmentDatabase<D>,
    config: ClusterConfig,
}

impl<'db, const D: usize> LineSegmentClustering<'db, D> {
    /// Binds the algorithm to a database and parameters.
    pub fn new(db: &'db SegmentDatabase<D>, config: ClusterConfig) -> Self {
        assert!(config.eps >= 0.0 && config.eps.is_finite(), "ε must be ≥ 0");
        assert!(config.min_lns >= 1.0, "MinLns must be ≥ 1");
        Self { db, config }
    }

    /// Runs the three steps of Figure 12 and returns the clustering,
    /// single-threaded.
    ///
    /// ```
    /// use traclus_core::{ClusterConfig, LineSegmentClustering, SegmentDatabase};
    /// use traclus_geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId, TrajectoryId};
    ///
    /// // Five parallel segments from distinct trajectories, plus one far
    /// // outlier.
    /// let mut segments: Vec<_> = (0..5)
    ///     .map(|i| {
    ///         IdentifiedSegment::new(
    ///             SegmentId(i),
    ///             TrajectoryId(i),
    ///             Segment2::xy(0.0, 0.4 * i as f64, 10.0, 0.4 * i as f64),
    ///         )
    ///     })
    ///     .collect();
    /// segments.push(IdentifiedSegment::new(
    ///     SegmentId(5),
    ///     TrajectoryId(99),
    ///     Segment2::xy(500.0, 500.0, 510.0, 500.0),
    /// ));
    /// let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
    ///
    /// let clustering = LineSegmentClustering::new(&db, ClusterConfig::new(1.5, 3)).run();
    /// assert_eq!(clustering.clusters.len(), 1, "one dense bundle");
    /// assert_eq!(clustering.clusters[0].members, vec![0, 1, 2, 3, 4]);
    /// assert_eq!(clustering.noise(), vec![5], "the outlier is noise");
    /// ```
    pub fn run(&self) -> Clustering {
        self.run_with_stats().0
    }

    /// [`Self::run`] plus the filter-and-refine tallies of the run's
    /// ε-neighborhood queries. The counters ride outside the
    /// [`Clustering`] so equivalence comparisons between execution
    /// strategies stay exact.
    pub fn run_with_stats(&self) -> (Clustering, PruneStats) {
        self.run_parallel_with_stats(1)
    }

    /// Runs the grouping phase with its ε-queries fanned out over
    /// `threads` worker threads and returns a [`Clustering`] **identical**
    /// to [`Self::run`]: the queries are pure reads, classification stays
    /// sequential and ascending — the kernel and its equivalence argument
    /// live in `crate::group`. `threads ≤ 1` runs every query inline.
    ///
    /// ```
    /// use traclus_core::{ClusterConfig, LineSegmentClustering, SegmentDatabase};
    /// use traclus_geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId, TrajectoryId};
    ///
    /// let segments: Vec<_> = (0..24)
    ///     .map(|i| {
    ///         // Three separated bundles of eight segments each.
    ///         let (bundle, lane) = (i / 8, i % 8);
    ///         IdentifiedSegment::new(
    ///             SegmentId(i),
    ///             TrajectoryId(i),
    ///             Segment2::xy(
    ///                 bundle as f64 * 100.0,
    ///                 lane as f64 * 0.5,
    ///                 bundle as f64 * 100.0 + 10.0,
    ///                 lane as f64 * 0.5,
    ///             ),
    ///         )
    ///     })
    ///     .collect();
    /// let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
    /// let algo = LineSegmentClustering::new(&db, ClusterConfig::new(1.5, 3));
    ///
    /// // Any worker count returns the identical clustering.
    /// let sequential = algo.run();
    /// assert_eq!(sequential.clusters.len(), 3);
    /// for threads in [2, 4, 8] {
    ///     assert_eq!(algo.run_parallel(threads), sequential);
    /// }
    /// ```
    pub fn run_parallel(&self, threads: usize) -> Clustering {
        self.run_parallel_with_stats(threads).0
    }

    /// [`Self::run_parallel`] plus the run's [`PruneStats`]. The counters
    /// aggregate across all workers (they share one index), and because
    /// every query is the one a sequential run makes, the totals match the
    /// sequential run's on the same database.
    pub fn run_parallel_with_stats(&self, threads: usize) -> (Clustering, PruneStats) {
        let config = &self.config;
        let index = group::build_index(self.db, config);
        let state = GroupState::build(self.db, &index, config, &mut Neighborhoods::new(threads));
        let clustering = state.label(self.db, config.trajectory_threshold());
        (clustering, index.prune_stats())
    }

    /// [`Self::run_parallel`] at the configured [`Parallelism`] thread
    /// count. Small inputs stay sequential on their own: a query batch
    /// below the parallelism floor never spawns workers.
    pub fn run_configured(&self) -> Clustering {
        self.run_parallel(self.config.parallelism.thread_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId};

    /// Builds a database where each entry supplies its own trajectory id,
    /// letting tests control trajectory cardinality precisely.
    fn db(entries: &[(Segment2, u32)]) -> SegmentDatabase<2> {
        let segs = entries
            .iter()
            .enumerate()
            .map(|(k, (s, tr))| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(*tr), *s))
            .collect();
        SegmentDatabase::from_segments(segs, SegmentDistance::default())
    }

    /// A bundle of `count` horizontal segments spaced `gap` apart
    /// vertically starting at `y0`, each from its own trajectory starting
    /// at `tr0`.
    fn bundle(y0: f64, gap: f64, count: u32, tr0: u32, x0: f64) -> Vec<(Segment2, u32)> {
        (0..count)
            .map(|i| {
                (
                    Segment2::xy(x0, y0 + gap * i as f64, x0 + 10.0, y0 + gap * i as f64),
                    tr0 + i,
                )
            })
            .collect()
    }

    #[test]
    fn single_dense_bundle_forms_one_cluster() {
        let entries = bundle(0.0, 0.5, 6, 0, 0.0);
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert_eq!(clustering.clusters.len(), 1);
        assert_eq!(clustering.clusters[0].members.len(), 6);
        assert_eq!(clustering.clusters[0].trajectory_cardinality(), 6);
        assert_eq!(clustering.noise_count(), 0);
        assert_eq!(clustering.cluster_sizes(), vec![6]);
    }

    #[test]
    fn two_separated_bundles_form_two_clusters() {
        let mut entries = bundle(0.0, 0.5, 5, 0, 0.0);
        entries.extend(bundle(100.0, 0.5, 5, 10, 0.0));
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert_eq!(clustering.clusters.len(), 2);
        // Cluster ids are dense and label arrays agree with member lists.
        for c in &clustering.clusters {
            for &m in &c.members {
                assert_eq!(clustering.labels[m as usize], SegmentLabel::Cluster(c.id));
            }
        }
    }

    #[test]
    fn sparse_outliers_are_noise() {
        let mut entries = bundle(0.0, 0.5, 5, 0, 0.0);
        entries.push((Segment2::xy(500.0, 500.0, 510.0, 500.0), 99));
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert_eq!(clustering.clusters.len(), 1);
        let noise = clustering.noise();
        assert_eq!(noise, vec![5], "the outlier is noise");
        assert_eq!(clustering.noise_count(), noise.len());
        assert!((clustering.noise_ratio() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_cardinality_filter_removes_single_trajectory_clusters() {
        // Six tightly packed segments, but all from ONE trajectory: the
        // density test passes, the Definition 10 filter must reject.
        let entries: Vec<(Segment2, u32)> = (0..6)
            .map(|i| (Segment2::xy(0.0, 0.2 * i as f64, 10.0, 0.2 * i as f64), 7))
            .collect();
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert!(clustering.clusters.is_empty());
        assert_eq!(clustering.filtered_out, 1);
        assert_eq!(clustering.noise_count(), 6, "filtered members become noise");
    }

    #[test]
    fn min_trajectories_override() {
        // Two trajectories only; default threshold (MinLns = 3) filters the
        // cluster, an explicit threshold of 2 keeps it.
        let entries: Vec<(Segment2, u32)> = (0..6)
            .map(|i| {
                (
                    Segment2::xy(0.0, 0.2 * i as f64, 10.0, 0.2 * i as f64),
                    (i % 2) as u32,
                )
            })
            .collect();
        let database = db(&entries);
        let default_run = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert!(default_run.clusters.is_empty());
        let relaxed = LineSegmentClustering::new(
            &database,
            ClusterConfig {
                min_trajectories: Some(2),
                ..ClusterConfig::new(1.5, 3)
            },
        )
        .run();
        assert_eq!(relaxed.clusters.len(), 1);
    }

    #[test]
    fn chain_is_density_connected_through_cores() {
        // A long chain of closely spaced segments: every interior segment
        // is core, so the whole chain is one density-connected set.
        let entries: Vec<(Segment2, u32)> = (0..20)
            .map(|i| (Segment2::xy(0.0, 0.4 * i as f64, 10.0, 0.4 * i as f64), i))
            .collect();
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.0, 3)).run();
        assert_eq!(clustering.clusters.len(), 1, "one connected chain");
        assert_eq!(clustering.clusters[0].members.len(), 20);
    }

    #[test]
    fn border_segment_joins_but_does_not_expand() {
        // Classic DBSCAN border case: a segment within ε of a core segment
        // but itself non-core joins the cluster; a second segment only
        // reachable through the border must stay noise.
        let mut entries = bundle(0.0, 0.4, 5, 0, 0.0); // dense core at y=0..1.6
        entries.push((Segment2::xy(0.0, 3.0, 10.0, 3.0), 50)); // border (near y=1.6? no: 1.4 away)
        entries.push((Segment2::xy(0.0, 5.8, 10.0, 5.8), 51)); // beyond the border
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(
            &database,
            ClusterConfig {
                min_trajectories: Some(2),
                ..ClusterConfig::new(1.5, 4)
            },
        )
        .run();
        assert_eq!(clustering.clusters.len(), 1);
        let labels = &clustering.labels;
        assert_eq!(
            labels[5],
            SegmentLabel::Cluster(ClusterId(0)),
            "border segment is absorbed"
        );
        assert_eq!(
            labels[6],
            SegmentLabel::Noise,
            "no expansion through border"
        );
    }

    #[test]
    fn border_segment_is_not_stolen_by_later_cluster() {
        // Two dense bundles share one border segment halfway between them.
        // The border (id 5, y = 3.0) is within ε of the top of bundle A
        // (y = 1.6) and the bottom of bundle B (y = 4.4) but is itself
        // non-core (its neighborhood {1.6, 3.0, 4.4} has cardinality 3 <
        // MinLns 4). Bundle A seeds first (lower ids) and absorbs the
        // border; when bundle B's seed later expands, it must NOT steal
        // the border from cluster 0 — the pre-fix code unconditionally
        // re-assigned every neighborhood member.
        let mut entries = bundle(0.0, 0.4, 5, 0, 0.0); // ids 0–4: bundle A
        entries.push((Segment2::xy(0.0, 3.0, 10.0, 3.0), 50)); // id 5: border
        entries.extend(bundle(4.4, 0.4, 5, 10, 0.0)); // ids 6–10: bundle B
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 4)).run();
        assert_eq!(clustering.clusters.len(), 2, "both bundles survive");
        let [a, b] = &clustering.clusters[..] else {
            unreachable!("two clusters asserted above")
        };
        assert!(a.members.contains(&0), "cluster 0 is bundle A");
        assert_eq!(
            a.members,
            vec![0, 1, 2, 3, 4, 5],
            "the earlier cluster keeps its border segment"
        );
        assert_eq!(b.members, vec![6, 7, 8, 9, 10], "no stolen member");
        assert_eq!(
            clustering.labels[5],
            SegmentLabel::Cluster(a.id),
            "border label agrees with cluster A's member list"
        );
        // Labels and member lists stay mutually consistent for every
        // cluster — the invariant the stealing bug violated.
        for c in &clustering.clusters {
            for &m in &c.members {
                assert_eq!(clustering.labels[m as usize], SegmentLabel::Cluster(c.id));
            }
        }
    }

    #[test]
    fn weighted_cardinality_can_promote_sparse_neighborhoods() {
        // Two heavy segments whose combined weight passes MinLns = 4 even
        // though only 2 segments are present.
        let segs = vec![
            IdentifiedSegment {
                id: SegmentId(0),
                trajectory: TrajectoryId(0),
                segment: Segment2::xy(0.0, 0.0, 10.0, 0.0),
                weight: 3.0,
            },
            IdentifiedSegment {
                id: SegmentId(1),
                trajectory: TrajectoryId(1),
                segment: Segment2::xy(0.0, 0.3, 10.0, 0.3),
                weight: 3.0,
            },
        ];
        let database = SegmentDatabase::from_segments(segs, SegmentDistance::default());
        let unweighted = LineSegmentClustering::new(
            &database,
            ClusterConfig {
                min_trajectories: Some(2),
                ..ClusterConfig::new(1.0, 4)
            },
        )
        .run();
        assert!(unweighted.clusters.is_empty());
        let weighted = LineSegmentClustering::new(
            &database,
            ClusterConfig {
                weighted: true,
                min_trajectories: Some(2),
                ..ClusterConfig::new(1.0, 4)
            },
        )
        .run();
        assert_eq!(weighted.clusters.len(), 1);
    }

    #[test]
    fn index_kinds_produce_identical_clusterings() {
        let mut entries = bundle(0.0, 0.5, 8, 0, 0.0);
        entries.extend(bundle(40.0, 0.7, 6, 20, 5.0));
        entries.push((Segment2::xy(200.0, 0.0, 210.0, 0.0), 90));
        let database = db(&entries);
        let mut results = Vec::new();
        for kind in [IndexKind::Linear, IndexKind::RTree] {
            let clustering = LineSegmentClustering::new(
                &database,
                ClusterConfig {
                    index: kind,
                    ..ClusterConfig::new(2.0, 3)
                },
            )
            .run();
            results.push(clustering);
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn empty_database() {
        let database = db(&[]);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.0, 2)).run();
        assert!(clustering.clusters.is_empty());
        assert!(clustering.labels.is_empty());
        assert_eq!(clustering.noise_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "MinLns")]
    fn zero_min_lns_rejected() {
        let database = db(&[]);
        let _ = LineSegmentClustering::new(&database, ClusterConfig::new(1.0, 0));
    }

    #[test]
    fn determinism_across_runs() {
        let mut entries = bundle(0.0, 0.5, 10, 0, 0.0);
        entries.extend(bundle(30.0, 0.5, 10, 10, 0.0));
        let database = db(&entries);
        let a = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        let b = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert_eq!(a, b);
    }
}
