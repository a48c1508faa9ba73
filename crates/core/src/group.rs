//! The grouping kernel (Section 4.2, Figure 12), shared by every caller:
//! the batch [`crate::LineSegmentClustering`] at any thread count, the
//! streaming engine's full re-cluster, and its snapshot labelling.
//!
//! Figure 12 is a breadth-first expansion, but its output is a function of
//! three order-free quantities, which is what lets one ascending scan
//! reproduce it label for label:
//!
//! 1. *Core-ness is intrinsic.* Whether `|Nε(L)| ≥ MinLns` depends only on
//!    the database, never on visit order.
//! 2. *Clusters are components.* Every core segment reachable through
//!    core-to-core ε-links joins the same cluster, so clusters restricted
//!    to cores are exactly the connected components of the core-adjacency
//!    graph. Figure 12 seeds clusters in ascending id order, and a
//!    component's seed is its minimum core id — components are numbered
//!    by minimum core id.
//! 3. *Borders go to the earliest cluster.* A non-core segment within ε of
//!    cores from several components is claimed by the one that seeds first
//!    — the smallest number — and a later cluster never steals it.
//!
//! [`GroupState::build`] runs one ε-query per live segment, strictly
//! ascending. `counts[id]` is fully determined by `id`'s own query, so
//! `core[id]` is final the moment `id` is visited, and every backward edge
//! `(b, id)` with `b < id` sees two final core flags: it is classified as
//! a union (core–core), a claim (core–border) or nothing on the spot.
//! Forward edges need no deferral because the distance is symmetric — the
//! pair resurfaces as the backward edge of its later endpoint. The queries
//! themselves are pure reads of the database and index, so they may run
//! in batches on worker threads ([`Neighborhoods`]) while the
//! classification stays sequential; the thread count moves work, never
//! output. [`GroupState::label`] then numbers components by minimum core
//! id (the [`UnionFind`] root), gives each border the minimum component
//! among its live core claims, and runs the Definition 10
//! trajectory-cardinality filter.
//!
//! The streaming engine keeps a [`GroupState`] current under insertion and
//! removal by local repair ([`crate::stream`]); because the state it
//! maintains is the one `build` produces, `label` serves its snapshots
//! too. The paper-faithful BFS lives on as a test oracle
//! (`crates/core/tests/common`), against which every caller is compared.

use traclus_geom::TrajectoryId;

use crate::cluster::{Cluster, ClusterConfig, ClusterId, Clustering, SegmentLabel};
use crate::segment_db::{NeighborIndex, SegmentDatabase};

/// Below this many ε-queries a batch runs sequentially: spawning scoped
/// workers costs more than the queries themselves.
pub(crate) const MIN_PARALLEL_REPAIR: usize = 32;

/// Ids are handed to the workers in batches of this size, so a scan over
/// a large database never retains more than one batch worth of
/// neighborhoods at a time (the sequential path holds exactly one).
pub(crate) const REPAIR_BATCH: usize = 512;

/// Claim lists are deduplicated once they outgrow this many entries
/// (weighted databases can have non-core segments with arbitrarily many
/// core neighbours; unweighted ones are bounded by `MinLns` anyway).
const CLAIM_DEDUP_LEN: usize = 16;

/// Union-find with path halving; the smaller root always wins a union, so
/// a component's root is its minimum member id — deterministic regardless
/// of union order. Component numbering relies on exactly this min-root
/// property.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    pub(crate) fn new(n: u32) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    /// Appends one fresh singleton element (the incremental engine grows
    /// the universe as segments stream in).
    pub(crate) fn push(&mut self) {
        self.parent.push(self.parent.len() as u32);
    }

    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Every element's root in one ascending pass: `parent[x] ≤ x` always
    /// holds (unions hang the larger root under the smaller, path halving
    /// only lowers parents), so `parent[x]`'s root is known before `x`'s.
    pub(crate) fn roots(&self) -> Vec<u32> {
        let mut roots: Vec<u32> = Vec::with_capacity(self.parent.len());
        for (x, &p) in self.parent.iter().enumerate() {
            let root = if p as usize == x {
                p
            } else {
                roots[p as usize]
            };
            roots.push(root);
        }
        roots
    }

    /// The raw parent array, for the `invariant-checks` canonical-form
    /// checker (`parent[x] ≤ x` everywhere).
    #[cfg(feature = "invariant-checks")]
    pub(crate) fn parent_slice(&self) -> &[u32] {
        &self.parent
    }

    pub(crate) fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// The spatial index the kernel queries, with pruning as configured. It is
/// bulk-loaded on one thread at every thread count: on two cores the
/// parallel STR load is slower up to several thousand segments (0.59 vs
/// 0.33 ms at 2,000) and saves under 1 ms beyond.
pub(crate) fn build_index<const D: usize>(
    db: &SegmentDatabase<D>,
    config: &ClusterConfig,
) -> NeighborIndex<D> {
    let mut index = db.build_index(config.index, config.eps);
    index.set_pruning(config.pruning);
    index
}

/// Batched ε-neighborhood queries: ids are visited in the order given,
/// `REPAIR_BATCH` at a time, and a batch of at least
/// `MIN_PARALLEL_REPAIR` ids runs on up to `threads` scoped workers.
/// Each query is the exact query a sequential loop would run — a pure
/// `&self` read of the database and index (the index's prune counters are
/// atomic, and their relaxed additions commute) — and results are handed
/// back in id order, so callers observe the same neighborhoods in the same
/// order for any thread count.
#[derive(Debug, Clone)]
pub(crate) struct Neighborhoods {
    threads: usize,
    scratch: Vec<u32>,
    /// Batches that ran on the workers.
    pub(crate) parallel_batches: usize,
    /// ε-queries inside those batches.
    pub(crate) parallel_queries: u64,
}

impl Neighborhoods {
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            scratch: Vec::new(),
            parallel_batches: 0,
            parallel_queries: 0,
        }
    }

    /// Calls `visit(id, Nε(id))` for every id in `ids`, in order.
    pub(crate) fn for_each<const D: usize>(
        &mut self,
        db: &SegmentDatabase<D>,
        index: &NeighborIndex<D>,
        ids: &[u32],
        eps: f64,
        mut visit: impl FnMut(u32, &[u32]),
    ) {
        for batch in ids.chunks(REPAIR_BATCH) {
            let threads = self.threads.min(batch.len());
            if threads <= 1 || batch.len() < MIN_PARALLEL_REPAIR {
                for &id in batch {
                    db.neighborhood_into(index, id, eps, &mut self.scratch);
                    visit(id, &self.scratch);
                }
                continue;
            }
            self.parallel_batches += 1;
            self.parallel_queries += batch.len() as u64;
            // The calling thread takes the first chunk itself and visits
            // it while the spawned workers query the rest.
            let per = batch.len().div_ceil(threads);
            let (own, rest) = batch.split_at(per);
            let scratch = &mut self.scratch;
            let chunks: Vec<(Vec<u32>, Vec<usize>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = rest
                    .chunks(per)
                    .map(|chunk| scope.spawn(move || query_chunk(db, index, chunk, eps)))
                    .collect();
                for &id in own {
                    db.neighborhood_into(index, id, eps, scratch);
                    visit(id, scratch);
                }
                // Joining in spawn order keeps results in id order.
                handles
                    .into_iter()
                    .map(|h| h.join().expect("neighborhood worker panicked"))
                    .collect()
            });
            let mut ids = rest.iter();
            for (flat, ends) in &chunks {
                let mut start = 0;
                for (&end, &id) in ends.iter().zip(ids.by_ref()) {
                    visit(id, &flat[start..end]);
                    start = end;
                }
            }
        }
    }
}

/// The neighborhoods of `ids` in one flat buffer: neighborhood `k` is
/// `flat[ends[k - 1]..ends[k]]` (from 0 for `k = 0`).
fn query_chunk<const D: usize>(
    db: &SegmentDatabase<D>,
    index: &NeighborIndex<D>,
    ids: &[u32],
    eps: f64,
) -> (Vec<u32>, Vec<usize>) {
    let (mut flat, mut ends) = (Vec::new(), Vec::with_capacity(ids.len()));
    let mut buf = Vec::new();
    for &id in ids {
        db.neighborhood_into(index, id, eps, &mut buf);
        flat.extend_from_slice(&buf);
        ends.push(flat.len());
    }
    (flat, ends)
}

/// Grouping state over a (possibly tombstoned) segment id space: the
/// quantities the equivalence argument in the module docs is built on.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupState {
    /// `|Nε(L)|` per segment (weighted when configured; self included),
    /// summed in ascending-id order.
    pub(crate) counts: Vec<f64>,
    /// Definition 5 core flags.
    pub(crate) core: Vec<bool>,
    /// Union-find over core segments; min-root, so a component's root is
    /// its minimum core id.
    pub(crate) dsu: UnionFind,
    /// For each non-core segment: core ids within ε that claim it as a
    /// border member. Lists may carry duplicates and stale entries for
    /// cores that were since retired or demoted; [`Self::label`] only
    /// counts current cores.
    pub(crate) claims: Vec<Vec<u32>>,
}

impl GroupState {
    /// The grouping state of `db` from scratch: one ε-query per live id,
    /// ascending, each backward edge classified on the spot (see the
    /// module docs). Tombstoned ids keep zeroed, non-core slots.
    pub(crate) fn build<const D: usize>(
        db: &SegmentDatabase<D>,
        index: &NeighborIndex<D>,
        config: &ClusterConfig,
        queries: &mut Neighborhoods,
    ) -> Self {
        let n = db.len();
        let mut state = Self {
            counts: vec![0.0; n],
            core: vec![false; n],
            dsu: UnionFind::new(n as u32),
            claims: vec![Vec::new(); n],
        };
        let live: Vec<u32> = (0..n as u32).filter(|&id| db.is_live(id)).collect();
        queries.for_each(db, index, &live, config.eps, |id, hood| {
            let count = db.neighborhood_cardinality(hood, config.weighted);
            let id_core = count >= config.min_lns;
            state.counts[id as usize] = count;
            state.core[id as usize] = id_core;
            for &b in hood.iter().take_while(|&&b| b < id) {
                match (id_core, state.core[b as usize]) {
                    (true, true) => state.dsu.union(id, b),
                    (true, false) => push_claim(&mut state.claims[b as usize], id),
                    (false, true) => push_claim(&mut state.claims[id as usize], b),
                    (false, false) => {}
                }
            }
        });
        #[cfg(feature = "invariant-checks")]
        crate::invariants::assert_union_find_canonical(&state.dsu, "group-build");
        state
    }

    /// Appends one fresh non-core slot (a streamed-in segment).
    pub(crate) fn push(&mut self) {
        self.counts.push(0.0);
        self.core.push(false);
        self.claims.push(Vec::new());
        self.dsu.push();
    }

    /// One core segment's expansion: union with every core neighbour,
    /// claim every non-core neighbour, and drop any claims made on the
    /// segment while it was still a border candidate.
    pub(crate) fn expand_core(&mut self, c: u32, hood: &[u32]) {
        self.claims[c as usize] = Vec::new();
        for &m in hood {
            if m == c {
                continue;
            }
            if self.core[m as usize] {
                self.dsu.union(c, m);
            } else {
                push_claim(&mut self.claims[m as usize], c);
            }
        }
    }

    /// The clustering over `db`'s live segments, re-identified densely in
    /// ascending-id order: components numbered by minimum core id, each
    /// border in the earliest component among its live core claims, then
    /// the Definition 10 filter — clusters drawn from fewer than
    /// `min_trajectories` distinct trajectories become noise, the rest are
    /// renumbered densely. Trajectory ids are read from `db` directly, so
    /// no compacted copy of the database is needed.
    pub(crate) fn label<const D: usize>(
        &self,
        db: &SegmentDatabase<D>,
        min_trajectories: usize,
    ) -> Clustering {
        let n = db.len();
        let roots = self.dsu.roots();
        // Live ids map to dense ranks monotonically, so walking the sparse
        // id space ascending visits cores in dense order too.
        let mut comp_of_root = vec![u32::MAX; n];
        let mut components = 0u32;
        for id in 0..n {
            if self.core[id] && db.is_live(id as u32) {
                let root = roots[id] as usize;
                if comp_of_root[root] == u32::MAX {
                    comp_of_root[root] = components;
                    components += 1;
                }
            }
        }
        // Members per component as (dense, sparse) ids, both ascending.
        let mut members: Vec<Vec<(u32, u32)>> = vec![Vec::new(); components as usize];
        let mut dense = 0u32;
        for id in 0..n {
            if !db.is_live(id as u32) {
                continue;
            }
            let comp = if self.core[id] {
                Some(comp_of_root[roots[id] as usize])
            } else {
                self.claims[id]
                    .iter()
                    .filter(|&&c| self.core[c as usize])
                    .map(|&c| comp_of_root[roots[c as usize] as usize])
                    .min()
            };
            if let Some(comp) = comp {
                members[comp as usize].push((dense, id as u32));
            }
            dense += 1;
        }
        let mut labels = vec![SegmentLabel::Noise; dense as usize];
        let mut clusters = Vec::new();
        let mut filtered_out = 0usize;
        for group in members {
            let mut trajectories: Vec<TrajectoryId> =
                group.iter().map(|&(_, id)| db.trajectory_of(id)).collect();
            trajectories.sort_unstable();
            trajectories.dedup();
            if trajectories.len() < min_trajectories {
                filtered_out += 1; // Figure 12 line 16: members → noise
                continue;
            }
            let id = ClusterId(clusters.len() as u32);
            let members: Vec<u32> = group.iter().map(|&(d, _)| d).collect();
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
}

/// Appends a claiming core, compacting (sort + dedup) only when the list
/// is both past [`CLAIM_DEDUP_LEN`] and out of capacity, then reserving
/// headroom proportional to the distinct count — so a border segment with
/// `k` distinct claiming cores pays O(k log k) per *doubling*, not per
/// push. Duplicates are harmless for correctness (labelling takes a min);
/// compaction only bounds memory.
pub(crate) fn push_claim(claims: &mut Vec<u32>, core_id: u32) {
    if claims.len() >= CLAIM_DEDUP_LEN && claims.len() == claims.capacity() {
        claims.sort_unstable();
        claims.dedup();
        claims.reserve(claims.len().max(CLAIM_DEDUP_LEN));
    }
    claims.push(core_id);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_roots_are_minimum_members() {
        let mut dsu = UnionFind::new(10);
        dsu.union(7, 3);
        dsu.union(3, 9);
        dsu.union(5, 7);
        assert_eq!(dsu.find(9), 3);
        assert_eq!(dsu.find(5), 3);
        assert_eq!(dsu.find(0), 0, "untouched elements stay singletons");
        // Growth appends singletons that union like any other element.
        dsu.push();
        assert_eq!(dsu.find(10), 10);
        dsu.union(10, 9);
        // The one-pass root table agrees with find everywhere, without
        // mutating parents.
        let roots = dsu.roots();
        for x in 0..11 {
            assert_eq!(roots[x as usize], dsu.clone().find(x));
        }
        assert_eq!(roots[10], 3);
    }
}
