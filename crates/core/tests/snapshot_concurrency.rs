//! Concurrent-equivalence harness for [`SnapshotCell`]: one writer
//! ingests a dataset and publishes after every insert while reader
//! threads concurrently pin snapshots. Every snapshot any reader ever
//! observes must be bit-identical to the Figure 12 oracle (`common`) on
//! the prefix the snapshot claims, label for label, and to the batch
//! pipeline's representatives. There is no "close enough" here: the cell either
//! publishes exact prefix states or it is broken.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use traclus_core::{ClusterSnapshot, SnapshotCell, Traclus, TraclusConfig};
use traclus_data::{HurricaneConfig, HurricaneGenerator};
use traclus_geom::Trajectory;

fn fixture() -> (TraclusConfig, Vec<Trajectory<2>>) {
    let config = TraclusConfig {
        eps: 6.0,
        min_lns: 4,
        ..TraclusConfig::default()
    };
    let trajectories = HurricaneGenerator::new(HurricaneConfig {
        tracks: 24,
        seed: 97,
        ..HurricaneConfig::default()
    })
    .generate();
    (config, trajectories)
}

/// Asserts a snapshot equals the batch pipeline on its claimed prefix.
fn assert_is_batch_prefix(
    snap: &ClusterSnapshot<2>,
    config: TraclusConfig,
    trajectories: &[Trajectory<2>],
) {
    let prefix = snap.trajectories();
    assert!(prefix <= trajectories.len(), "prefix in range");
    let batch = Traclus::new(config).run(&trajectories[..prefix]);
    assert_eq!(
        snap.clustering(),
        &common::bfs_pipeline(&config, &trajectories[..prefix]),
        "snapshot at epoch {} must equal the oracle clustering on its {}-trajectory prefix",
        snap.epoch(),
        prefix
    );
    assert_eq!(
        snap.clusters(),
        &batch.clusters[..],
        "snapshot representatives must equal the batch tail on the same prefix"
    );
}

#[test]
fn every_observed_snapshot_is_a_batch_prefix() {
    let (config, trajectories) = fixture();
    let cell = Arc::new(SnapshotCell::<2>::new(config));
    let done = Arc::new(AtomicBool::new(false));
    const READERS: usize = 3;

    // Readers spin on `load`, keeping every distinct epoch they see; the
    // writer ingests and publishes. Verification happens after the join so
    // reader loops stay tight (maximising interleavings) and failures
    // propagate as plain panics.
    let observed: Vec<Vec<Arc<ClusterSnapshot<2>>>> = std::thread::scope(|s| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let cell = Arc::clone(&cell);
            let done = Arc::clone(&done);
            readers.push(s.spawn(move || {
                let mut seen: Vec<Arc<ClusterSnapshot<2>>> = Vec::new();
                loop {
                    let snap = cell.load();
                    if seen.last().map(|p| p.epoch()) != Some(snap.epoch()) {
                        seen.push(snap);
                    }
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::yield_now();
                }
                seen
            }));
        }

        let mut engine = Traclus::new(config).stream();
        for t in &trajectories {
            engine.insert(t);
            cell.publish_from(&engine);
        }
        done.store(true, Ordering::SeqCst);

        readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .collect()
    });

    let mut distinct_epochs: Vec<u64> = Vec::new();
    for seen in &observed {
        // Each reader's epochs are strictly increasing (publications are
        // monotonic and readers record on change only).
        for pair in seen.windows(2) {
            assert!(pair[0].epoch() < pair[1].epoch(), "epochs move forward");
        }
        for snap in seen {
            distinct_epochs.push(snap.epoch());
            assert_is_batch_prefix(snap, config, &trajectories);
        }
    }
    distinct_epochs.sort_unstable();
    distinct_epochs.dedup();
    assert!(
        !distinct_epochs.is_empty(),
        "readers observed at least one published state"
    );

    // The final published state covers the whole dataset.
    let last = cell.load();
    assert_eq!(last.trajectories(), trajectories.len());
    assert_eq!(last.epoch(), trajectories.len() as u64);
    assert_is_batch_prefix(&last, config, &trajectories);
}

#[test]
fn pinned_snapshots_survive_later_publications_unchanged() {
    let (config, trajectories) = fixture();
    let cell = SnapshotCell::<2>::new(config);
    let mut engine = Traclus::new(config).stream();

    let mut pinned = Vec::new();
    for t in &trajectories {
        engine.insert(t);
        pinned.push(cell.publish_from(&engine));
    }

    // Every pinned Arc still describes its own prefix, bit-identical,
    // even though dozens of newer snapshots were published after it.
    for (k, snap) in pinned.iter().enumerate() {
        assert_eq!(snap.trajectories(), k + 1);
        assert_is_batch_prefix(snap, config, &trajectories);
    }
}
