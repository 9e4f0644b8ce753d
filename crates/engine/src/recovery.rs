//! Engine-level crash and restart recovery: epoch verdicts from the commit
//! records in the shard WALs, then per-shard replay under them (crash matrix
//! in the crate docs). Each shard log is read once per restart: the shard's
//! analysis step yields both the engine's verdict inputs and what the shard
//! replays.

use crate::commit::Unsettled;
use crate::sharded::ShardedPioEngine;
use pio::IoResult;
use pio_btree::{LogAnalysis, LogRecord, PioBTree, RecoveryReport, LOCAL_EPOCH};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use storage::Lsn;

/// What [`crate::ShardedPioEngine::recover`] did, for inspection by callers and
/// tests.
#[derive(Debug, Clone, Default)]
pub struct EngineRecoveryReport {
    /// Per-shard recovery reports, in shard order.
    pub shards: Vec<RecoveryReport>,
    /// Batch epochs whose `EpochCommit` survives in a shard's log (replayed by
    /// normal per-shard recovery).
    pub committed_epochs: u64,
    /// Epochs with a surviving bracket and no commit record, discarded on
    /// every member shard — batches and migrations alike.
    pub discarded_epochs: u64,
    /// Committed migrations whose boundary swap was re-applied from the log.
    pub committed_migrations: u64,
}

impl EngineRecoveryReport {
    /// Total logical records re-appended to shard OPQs.
    pub fn redone(&self) -> usize {
        self.shards.iter().map(|r| r.redone).sum()
    }

    /// Total logical records dropped because their epoch was discarded or
    /// their local bracket aborted.
    pub fn discarded_records(&self) -> usize {
        self.shards.iter().map(|r| r.discarded).sum()
    }

    /// Single-shard batches found aborted in their shard's own log (never
    /// epochs, so not part of `discarded_epochs`).
    pub fn aborted_local(&self) -> usize {
        self.shards.iter().map(|r| r.aborted_local).sum()
    }
}

impl ShardedPioEngine {
    /// Engine-level restart recovery, reading each shard WAL once. First every
    /// shard's analysis step ([`PioBTree::analyze_log`]) reads its log and
    /// collects the epochs' brackets and commit records: an epoch whose
    /// `EpochCommit` (or `MigrateCommit`) survives in some shard's log is
    /// **committed** (normal replay, and a migration's boundary is
    /// re-applied); any other epoch with a surviving bracket is **discarded**
    /// on *every* shard (presumed abort). Then each shard replays its own
    /// analysis ([`PioBTree::replay_log`]) under those verdicts — so after
    /// this returns, every cross-shard batch is either fully present or fully
    /// absent (crash matrix in the crate docs).
    pub fn recover(&self) -> IoResult<EngineRecoveryReport> {
        let mut report = EngineRecoveryReport::default();
        // Pass 1: every shard's analysis — the one read of its log this
        // restart makes — with its brackets and commit records.
        let mut analyses: Vec<LogAnalysis> = if self.epoch.is_some() {
            self.fan_out_all(PioBTree::analyze_log)?
        } else {
            self.shards.iter().map(|_| LogAnalysis::default()).collect()
        };
        // Committed epoch → its coordinator.
        let mut committed: BTreeMap<u64, usize> = BTreeMap::new();
        // Committed migrations by epoch id — one runs at a time, so id order
        // is commit order.
        let mut moves: BTreeMap<u64, (usize, usize, u64, u64)> = BTreeMap::new();
        for (shard, analysis) in analyses.iter().enumerate() {
            for decision in &analysis.decisions {
                match *decision {
                    LogRecord::EpochCommit { epoch } => {
                        report.committed_epochs += 1;
                        committed.insert(epoch, shard);
                    }
                    LogRecord::MigrateCommit {
                        epoch,
                        src,
                        dst,
                        lo,
                        hi,
                    } => {
                        report.committed_migrations += 1;
                        committed.insert(epoch, shard);
                        moves.insert(epoch, (src as usize, dst as usize, lo, hi));
                    }
                    _ => unreachable!("an analysis keeps only commit records as decisions"),
                }
            }
        }
        // The bracket ids stay here for the settle list; the rest of each
        // analysis goes back to its shard.
        let brackets: Vec<BTreeSet<u64>> = analyses.iter_mut().map(|a| std::mem::take(&mut a.brackets)).collect();
        let bracketed: BTreeSet<u64> = brackets.iter().flatten().copied().collect();
        report.discarded_epochs = bracketed.iter().filter(|e| !committed.contains_key(e)).count() as u64;
        // Re-apply committed boundary swaps in commit order (absolute sets, so
        // the replay is idempotent whether the manifest had caught up or not),
        // and drop any in-memory migration state a pre-crash attempt left behind.
        {
            let mut routing = self.routing.write();
            routing.migration = None;
            for &(src, dst, lo, hi) in moves.values() {
                routing.bounds[src.min(dst)] = if dst > src { lo } else { hi };
            }
            if !moves.is_empty() {
                routing.version += 1;
            }
        }
        // Pass 2: each shard replays its own analysis under the verdicts. A
        // bracket is kept iff its epoch's commit record survives somewhere.
        let keep: BTreeSet<u64> = committed.keys().copied().collect();
        let replays = analyses
            .into_iter()
            .enumerate()
            .map(|(shard, analysis)| {
                let keep = &keep;
                (shard, move |tree: &mut PioBTree| {
                    tree.replay_log(analysis, &mut |epoch| keep.contains(&epoch))
                })
            })
            .collect();
        report.shards = self.fan_out_tasks(replays)?.into_iter().map(|(_, r)| r).collect();
        if let Some(coord) = &self.epoch {
            // Epoch ids continue above every id a log still holds, and a
            // commit stays unsettled while another member's log holds a
            // bracket of it — up to that log's whole replayed tail. Until then
            // the coordinator's log is cut no further than it is now: a
            // checkpoint record from before the crash is no safe cut any
            // more, since the replay may have re-queued records older than it.
            let (starts, ends): (Vec<Lsn>, Vec<Lsn>) = self
                .shards
                .iter()
                .map(|s| s.tree.lock().wal().map_or((0, 0), |w| (w.start_lsn(), w.durable_lsn())))
                .unzip();
            let max_seen = bracketed
                .iter()
                .chain(committed.keys())
                .copied()
                .max()
                .unwrap_or(LOCAL_EPOCH);
            let unsettled = committed
                .iter()
                .map(|(&epoch, &coordinator)| Unsettled {
                    coordinator,
                    keep_from: starts[coordinator],
                    participants: (0..brackets.len())
                        .filter(|&member| member != coordinator && brackets[member].contains(&epoch))
                        .map(|member| (member, ends[member]))
                        .collect(),
                })
                .filter(|e| !e.participants.is_empty())
                .collect();
            coord.restart(max_seen, &starts, unsettled);
        }
        let counters = &self.counters;
        counters
            .discarded_epochs
            .fetch_add(report.discarded_epochs, Ordering::Relaxed);
        counters
            .committed_migrations
            .fetch_add(report.committed_migrations, Ordering::Relaxed);
        // The bounded-recovery observable: total records the shard replays
        // visited, each once. With checkpoint-anchored truncation this tracks
        // activity since the last checkpoint, not the engine's age.
        let scanned = report.shards.iter().map(|r| r.scanned as u64).sum::<u64>();
        counters.recovery_replayed_records.store(scanned, Ordering::Relaxed);
        // Recovery may have rolled roots forward (reopen) or rewound them
        // (undone flushes): persist the post-recovery superblocks.
        self.sync_manifest()?;
        Ok(report)
    }
}
