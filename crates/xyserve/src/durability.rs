//! Durability: what the server restores at start-up and what its one
//! background maintenance thread does while it runs.
//!
//! With a [`SnapshotPolicy`](crate::SnapshotPolicy) or a chain-compaction
//! bound configured, the maintenance thread persists every shard through
//! [`xywarehouse::SnapshotStore`] (crash-safe generation directories) on
//! the snapshot interval and folds long delta chains through checkpoints.
//! A final snapshot is taken after the drain completes, and
//! [`IngestServer::try_start`](crate::IngestServer::try_start) restores the
//! latest published generation and replays the write-ahead log before
//! accepting work — a restarted server resumes its version chains.

use crate::config::ServeConfig;
use crate::metrics::Metrics;
use crate::server::{shard_index, Inner, StartError};
use std::time::{Duration, Instant};
use xywal::Wal;
use xywarehouse::{Repository, SnapshotStore};

/// Restore the latest published snapshot generation into `shards`.
/// Returns the store the maintenance thread keeps saving into, with its
/// interval.
pub(crate) fn restore(
    config: &ServeConfig,
    shards: &[Repository],
) -> Result<Option<(SnapshotStore, Duration)>, StartError> {
    let Some(policy) = &config.snapshots else {
        return Ok(None);
    };
    let store = SnapshotStore::open(&policy.dir).map_err(StartError::Snapshot)?;
    store
        .restore_into(shards, |key| shard_index(key, config.shards))
        .map_err(StartError::Snapshot)?;
    Ok(Some((store, policy.interval)))
}

/// Reopen the write-ahead log and fold its suffix (everything past the
/// consumed watermark) on top of the restored snapshot. Records the
/// snapshot already covers replay as harmless skips.
pub(crate) fn replay(
    config: &ServeConfig,
    shards: &[Repository],
    metrics: &Metrics,
) -> Result<Option<Wal>, StartError> {
    let Some(policy) = &config.wal else {
        return Ok(None);
    };
    let (wal, recovery) = Wal::open(policy).map_err(StartError::Wal)?;
    let replayed = xywarehouse::replay::apply_records(&recovery.records, shards, |key| {
        shard_index(key, config.shards)
    })
    .map_err(StartError::Replay)?;
    metrics.wal_replayed.add(replayed.total() as u64);
    metrics.wal_replay_skipped.add(replayed.skipped as u64);
    Ok(Some(wal))
}

impl Inner {
    /// The background maintenance loop: snapshot every shard when the
    /// snapshot interval is due, sweep the chains every 250 ms when a
    /// compaction bound is set, and exit when the server signals stop. The
    /// final post-drain snapshot is taken by `shutdown`, not here.
    pub(crate) fn maintenance_loop(&self) {
        const COMPACT_EVERY: Duration = Duration::from_millis(250);
        let start = Instant::now();
        let mut next_snapshot = self.snapshots.as_ref().map(|(_, every)| start + *every);
        let mut next_compact = (self.compact_chain_max > 0).then(|| start + COMPACT_EVERY);
        // The thread is spawned only when at least one of the two tasks is
        // configured, so there is always a next deadline.
        while let Some(due) = next_snapshot.into_iter().chain(next_compact).min() {
            // INVARIANT: a poisoned lock means a holder panicked mid-update;
            // the panic propagates.
            let mut stop = self.stop.lock().unwrap();
            while !*stop && Instant::now() < due {
                let wait = due.saturating_duration_since(Instant::now());
                // INVARIANT: a poisoned lock means a holder panicked
                // mid-update; the panic propagates.
                stop = self.wake.wait_timeout(stop, wait).unwrap().0;
            }
            if *stop {
                return;
            }
            drop(stop);
            if let Some((store, every)) = &self.snapshots {
                if next_snapshot.is_some_and(|t| t <= Instant::now()) {
                    self.take_snapshot(store);
                    next_snapshot = Some(Instant::now() + *every);
                }
            }
            if next_compact.is_some_and(|t| t <= Instant::now()) {
                let max = self.compact_chain_max;
                let compacted: usize = self.shards.iter().map(|s| s.compact_chains(max)).sum();
                self.metrics.compactions.add(compacted as u64);
                next_compact = Some(Instant::now() + COMPACT_EVERY);
            }
        }
    }

    pub(crate) fn take_snapshot(&self, store: &SnapshotStore) {
        let t = Instant::now();
        // Read the WAL frontier BEFORE cloning the shards: every record
        // with lsn <= this value had its chain push happen-before its
        // append (program order in process()), and the append
        // happened-before this read — so the snapshot covers all of them
        // and the watermark may advance to here once it is durable.
        let wal_lsn = self.wal.as_ref().map(Wal::appended_lsn);
        match store.save(&self.shards) {
            Ok(_generation) => {
                self.metrics.snapshots.inc();
                self.metrics.snapshot_time.observe(t.elapsed());
                if let (Some(wal), Some(lsn)) = (&self.wal, wal_lsn) {
                    // Consumed segments become deletable; failure here only
                    // delays truncation (retried on the next snapshot).
                    let _ = wal.advance_watermark(lsn);
                    self.sync_wal_metrics(wal);
                }
            }
            Err(_) => self.metrics.snapshot_errors.inc(),
        }
    }

    /// Publish the WAL's internal counters into the metrics registry.
    pub(crate) fn sync_wal_metrics(&self, wal: &Wal) {
        let s = wal.stats();
        self.metrics.wal_appends.observe_total(s.appends);
        self.metrics.wal_appended_bytes.observe_total(s.appended_bytes);
        self.metrics.wal_fsyncs.observe_total(s.fsyncs);
        self.metrics.wal_fsynced_records.observe_total(s.fsynced_records);
        self.metrics.wal_segments.set(s.segments as u64);
        self.metrics.wal_fsync_batch_max.set(s.max_fsync_batch);
    }
}
