//! Engine-level crash and restart recovery: epoch verdicts from the engine
//! log, then per-shard WAL replay under them (crash matrix in the crate docs).

use crate::epoch::{EngineRecoveryReport, MigrationSpec};
use crate::sharded::EngineInner;
use pio::IoResult;
use std::collections::HashSet;
use std::sync::atomic::Ordering;

impl EngineInner {
    pub(crate) fn recover(&self) -> IoResult<EngineRecoveryReport> {
        let mut report = EngineRecoveryReport::default();
        let mut discard: HashSet<u64> = HashSet::new();
        let mut boundary_replay: Vec<MigrationSpec> = Vec::new();
        let mut scanned: u64 = 0;
        if let Some(coord) = &self.epoch {
            // Pre-crash pins are meaningless now: every epoch in the log gets
            // a verdict below, and the shard-side brackets are re-registered
            // (or dropped) by the per-shard replay.
            coord.in_flight.lock().clear();
            let analysis = coord.log.analyze()?;
            scanned += analysis.records as u64;
            for state in &analysis.epochs {
                if let Some(migration) = state.migration {
                    if state.committed {
                        // The boundary swap is durable: the copies and retires
                        // replay through normal per-shard recovery, and the
                        // boundary itself is re-applied (in log order) below.
                        report.committed_migrations += 1;
                        boundary_replay.push(migration);
                    } else {
                        // NEVER re-driven, even when fully acked: the swap did
                        // not happen, so the copies belong to a boundary that
                        // never existed. Roll the epoch back on both shards and
                        // keep the old boundary.
                        discard.insert(state.epoch);
                        report.rolled_back_migrations += 1;
                    }
                } else if state.committed {
                    report.committed_epochs += 1;
                } else if state.fully_acked() {
                    // The crash tore the decision force between the acks and
                    // the commit: the batch is durable on every member shard,
                    // so complete the protocol instead of throwing it away.
                    coord.log.commit(state.epoch, &[])?;
                    report.recovered_epochs += 1;
                } else {
                    discard.insert(state.epoch);
                    report.discarded_epochs += 1;
                }
            }
            // Epoch ids must stay unique across restarts: later batches must
            // never collide with epochs already judged in the log.
            coord.next_epoch.store(analysis.max_epoch + 1, Ordering::Relaxed);
        }
        // Re-apply committed boundary swaps in log order (absolute sets, so the
        // replay is idempotent whether the manifest had caught up or not), and
        // drop any in-memory migration state a pre-crash attempt left behind.
        {
            let mut routing = self.routing.write();
            routing.migration = None;
            for migration in &boundary_replay {
                let idx = (migration.src.min(migration.dst)) as usize;
                routing.bounds[idx] = if migration.dst > migration.src {
                    migration.lo
                } else {
                    migration.hi
                };
            }
            if !boundary_replay.is_empty() {
                routing.version += 1;
            }
        }
        report.shards = self.fan_out_all(move |tree| tree.recover_with(&mut |epoch| !discard.contains(&epoch)))?;
        let counters = &self.counters;
        counters
            .recovered_epochs
            .fetch_add(report.recovered_epochs, Ordering::Relaxed);
        counters
            .discarded_epochs
            .fetch_add(report.discarded_epochs, Ordering::Relaxed);
        counters
            .committed_migrations
            .fetch_add(report.committed_migrations, Ordering::Relaxed);
        counters
            .rolled_back_migrations
            .fetch_add(report.rolled_back_migrations, Ordering::Relaxed);
        // A re-driven epoch is now committed in the log, so the lifetime
        // committed counter includes it (as its documentation promises).
        counters
            .committed_epochs
            .fetch_add(report.recovered_epochs, Ordering::Relaxed);
        // The bounded-recovery observable: total log records the analysis
        // passes visited (epoch log + every shard WAL). With checkpoint-
        // anchored truncation this tracks activity since the last checkpoint,
        // not the engine's age.
        scanned += report.shards.iter().map(|r| r.scanned as u64).sum::<u64>();
        counters.recovery_replayed_records.store(scanned, Ordering::Relaxed);
        // Recovery may have rolled roots forward (reopen) or rewound them
        // (undone flushes): persist the post-recovery superblocks.
        self.sync_manifest()?;
        Ok(report)
    }
}
