//! The cross-shard flush-epoch log: engine-level batch atomicity.
//!
//! Each shard's [`pio_btree::PioBTree`] recovers independently from its own WAL
//! (Section 3.4 of the paper), which is enough for a single tree but not for the
//! engine: `insert_batch` fans one logical batch out to several shards, and a
//! crash mid-fan-out would leave the batch durable on some shards and lost on
//! others. This module adds the coordinator's side of a two-phase protocol over a
//! dedicated engine-level [`storage::Wal`]:
//!
//! 1. **`Begin { epoch, shards }`** is forced *before* any shard sees the batch;
//! 2. every member shard appends the batch inside a `BatchBegin`/`BatchEnd`
//!    bracket of its own WAL and forces it
//!    ([`pio_btree::PioBTree::apply`]) — the per-shard durability
//!    ack;
//! 3. once every member shard is durable, one **`Ack { epoch, shard,
//!    durable_lsn }`** record per member and then **`Commit { epoch }`** are
//!    appended and made durable by **one** force ([`EpochLog::commit`]); only
//!    then does `insert_batch` return success.
//!
//! An epoch therefore costs the engine log two forces — `Begin`, and the
//! decision. The acks precede the `Commit` on the log, so whatever prefix of the
//! decision force a crash leaves behind is one of the states below.
//!
//! At recovery, [`EpochLog::analyze`] classifies every epoch:
//!
//! * a **committed** epoch's records are replayed by normal per-shard recovery;
//! * an uncommitted epoch whose acks cover *all* member shards is safely durable
//!   everywhere — recovery **re-drives** it by writing the missing commit record
//!   (the crash *tore* the decision force after the last ack and before the end
//!   of the `Commit`; [`storage::Wal::rescan`] salvages the acks);
//! * any other uncommitted epoch is **discarded** on every shard: the engine
//!   passes its id to each shard's
//!   [`pio_btree::PioBTree::recover_with`] filter, which drops the epoch's
//!   logical records and unwinds any flush that had already applied them.
//!
//! Either way the batch is all-or-nothing across shards.
//!
//! ## Batches that need no epoch
//!
//! The protocol exists because a batch spans shards. One whose keys all land
//! on a single shard is already atomic under that shard's own bracket, so
//! `insert_batch` skips the epoch for it: no `Begin`, `Ack` or `Commit`, no
//! engine-log bytes, no truncation pin. The shard applies it inside a *local*
//! bracket ([`pio_btree::LOCAL_EPOCH`], an id this log never hands out) and
//! forces its WAL once; [`pio_btree::PioBTree::recover_with`] commits the
//! bracket iff its close is durable and never asks this log about it. Epochs
//! and local brackets interleave freely on a shard's log — the log's order
//! decides between two writes of one key.
//!
//! ## Migration epochs
//!
//! Shard rebalancing (see [`crate::rebalance`]) journals each boundary move as
//! a special epoch: **`MigrateBegin { epoch, src, dst, lo, hi }`** is forced
//! before any entry is copied, the region copy and retire are bracketed in the
//! two shards' WALs under the epoch id, and **`MigrateCommit { epoch }`** is
//! forced — behind both shards' acks, in the same force
//! ([`EpochLog::migrate_commit`]) — only after both shards are durable: the
//! commit *is* the boundary swap. Unlike batch epochs, an uncommitted
//! migration is **never re-driven**,
//! even when fully acked: the boundary swap did not happen, so replaying the
//! copies would put keys on a shard that does not own them. Recovery discards
//! the epoch on both shards (rolling the copy and the retire back together)
//! and keeps the old boundary; a committed migration replays normally and
//! re-applies its boundary from the logged range.

use pio::IoResult;
use pio_btree::RecoveryReport;
use std::collections::HashMap;
use storage::{Lsn, Wal};

/// A record of the engine-level epoch log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochRecord {
    /// Opens an epoch: `shards` are the member shard indices the batch fans out
    /// to. Forced before any shard sees the batch.
    Begin {
        /// The epoch identifier (unique over the engine's lifetime, including
        /// across restarts).
        epoch: u64,
        /// Member shard indices.
        shards: Vec<u32>,
    },
    /// One member shard's sub-batch is durable in its WAL.
    Ack {
        /// The epoch identifier.
        epoch: u64,
        /// The acking shard.
        shard: u32,
        /// The shard WAL's durable LSN at ack time (diagnostic).
        durable_lsn: Lsn,
    },
    /// The epoch is durable on every member shard; the batch is committed.
    Commit {
        /// The epoch identifier.
        epoch: u64,
    },
    /// Opens a boundary migration: keys in `[lo, hi)` move from shard `src` to
    /// shard `dst`. Forced before any entry is copied.
    MigrateBegin {
        /// The epoch identifier.
        epoch: u64,
        /// The migration being journalled.
        migration: MigrationSpec,
    },
    /// The migration's copies and retires are durable on both shards; this
    /// record *is* the boundary swap.
    MigrateCommit {
        /// The epoch identifier.
        epoch: u64,
    },
}

/// The durable description of one boundary migration (the payload of
/// [`EpochRecord::MigrateBegin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationSpec {
    /// The shard losing the range.
    pub src: u32,
    /// The shard gaining the range (always `src ± 1`).
    pub dst: u32,
    /// Inclusive low end of the moving range.
    pub lo: u64,
    /// Exclusive high end of the moving range.
    pub hi: u64,
}

impl EpochRecord {
    /// Serialises the record into a byte payload for the engine WAL.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the record's payload to `out` (the form
    /// [`storage::Wal::append_with`] takes).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            EpochRecord::Begin { epoch, shards } => {
                out.push(1);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
                for s in shards {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            }
            EpochRecord::Ack {
                epoch,
                shard,
                durable_lsn,
            } => {
                out.push(2);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&durable_lsn.to_le_bytes());
            }
            EpochRecord::Commit { epoch } => {
                out.push(3);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            EpochRecord::MigrateBegin { epoch, migration } => {
                out.push(4);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&migration.src.to_le_bytes());
                out.extend_from_slice(&migration.dst.to_le_bytes());
                out.extend_from_slice(&migration.lo.to_le_bytes());
                out.extend_from_slice(&migration.hi.to_le_bytes());
            }
            EpochRecord::MigrateCommit { epoch } => {
                out.push(5);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
    }

    /// Parses a payload produced by [`EpochRecord::encode`]. Returns `None` for
    /// corrupt or unknown payloads.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let u64_at =
            |off: usize| -> Option<u64> { buf.get(off..off + 8).map(|b| u64::from_le_bytes(b.try_into().unwrap())) };
        let u32_at =
            |off: usize| -> Option<u32> { buf.get(off..off + 4).map(|b| u32::from_le_bytes(b.try_into().unwrap())) };
        match *buf.first()? {
            1 => {
                let epoch = u64_at(1)?;
                let n = u32_at(9)? as usize;
                let mut shards = Vec::with_capacity(n);
                for i in 0..n {
                    shards.push(u32_at(13 + i * 4)?);
                }
                // Trailing garbage would mean a miscounted record.
                (buf.len() == 13 + n * 4).then_some(EpochRecord::Begin { epoch, shards })
            }
            2 => Some(EpochRecord::Ack {
                epoch: u64_at(1)?,
                shard: u32_at(9)?,
                durable_lsn: u64_at(13)?,
            }),
            3 => Some(EpochRecord::Commit { epoch: u64_at(1)? }),
            4 => {
                let migration = MigrationSpec {
                    src: u32_at(9)?,
                    dst: u32_at(13)?,
                    lo: u64_at(17)?,
                    hi: u64_at(25)?,
                };
                (buf.len() == 33).then_some(EpochRecord::MigrateBegin {
                    epoch: u64_at(1)?,
                    migration,
                })
            }
            5 => Some(EpochRecord::MigrateCommit { epoch: u64_at(1)? }),
            _ => None,
        }
    }
}

/// The reconstructed state of one epoch after a log scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochState {
    /// The epoch identifier.
    pub epoch: u64,
    /// Member shard indices from the `Begin` record.
    pub shards: Vec<u32>,
    /// Shards whose `Ack` reached the log.
    pub acked: Vec<u32>,
    /// Whether the `Commit` record reached the log.
    pub committed: bool,
    /// `Some` when the epoch is a boundary migration (opened by
    /// `MigrateBegin` rather than `Begin`).
    pub migration: Option<MigrationSpec>,
}

impl EpochState {
    /// Whether every member shard's ack is durable — the condition under which
    /// an uncommitted *batch* epoch may be re-driven (committed) at recovery.
    /// Migration epochs are never re-driven regardless of this.
    pub fn fully_acked(&self) -> bool {
        self.shards.iter().all(|s| self.acked.contains(s))
    }
}

/// Outcome of an [`EpochLog::analyze`] pass.
#[derive(Debug, Clone, Default)]
pub struct EpochAnalysis {
    /// Every epoch with a durable `Begin`, in log order.
    pub epochs: Vec<EpochState>,
    /// Largest epoch id seen (0 when none): restart continuity for the engine's
    /// epoch counter.
    pub max_epoch: u64,
    /// Whether the engine log ended in a torn record.
    pub torn_tail: bool,
    /// Intact records the scan visited — with checkpoint-anchored truncation
    /// this is proportional to activity since the last checkpoint, not to the
    /// engine's lifetime.
    pub records: usize,
}

/// The engine-level epoch log: a thin protocol layer over [`storage::Wal`].
pub struct EpochLog {
    wal: Wal,
}

impl EpochLog {
    /// Wraps an engine-dedicated WAL.
    pub fn new(wal: Wal) -> Self {
        Self { wal }
    }

    /// Appends `record` to the log; not durable until the next force.
    fn append(&self, record: &EpochRecord) -> Lsn {
        self.wal.append_with(|buf| record.encode_into(buf))
    }

    /// Forces the `Begin` record of `epoch` (phase one: nothing may reach a
    /// shard before this returns). Returns the `Begin` record's LSN so the
    /// caller can pin log truncation while the epoch is undecided.
    pub fn begin(&self, epoch: u64, shards: &[usize]) -> IoResult<Lsn> {
        let lsn = self.append(&EpochRecord::Begin {
            epoch,
            shards: shards.iter().map(|&s| s as u32).collect(),
        });
        self.wal.force()?;
        Ok(lsn)
    }

    /// Phase two, in **one** force: the member shards' `Ack` records followed
    /// by the epoch's `decision` record. The acks precede the decision in the
    /// log, so a force torn by a crash can leave the acks without the
    /// decision, never the reverse.
    fn decide(&self, epoch: u64, acks: &[(usize, Lsn)], decision: EpochRecord) -> IoResult<()> {
        for &(shard, durable_lsn) in acks {
            self.append(&EpochRecord::Ack {
                epoch,
                shard: shard as u32,
                durable_lsn,
            });
        }
        self.append(&decision);
        self.wal.force()
    }

    /// Forces the member shards' `Ack`s and the `Commit` record together (see
    /// `EpochLog::decide`): the batch is now atomically visible. Recovery's
    /// re-drive of an epoch whose acks are already durable passes no acks.
    pub fn commit(&self, epoch: u64, acks: &[(usize, Lsn)]) -> IoResult<()> {
        self.decide(epoch, acks, EpochRecord::Commit { epoch })
    }

    /// Forces both shards' `Ack`s and the `MigrateCommit` record together —
    /// the durable boundary swap.
    pub fn migrate_commit(&self, epoch: u64, acks: &[(usize, Lsn)]) -> IoResult<()> {
        self.decide(epoch, acks, EpochRecord::MigrateCommit { epoch })
    }

    /// Forces the `MigrateBegin` record: nothing may be copied between shards
    /// before this returns. Returns the record's LSN (the epoch's truncation
    /// pin, as for [`EpochLog::begin`]).
    pub fn migrate_begin(&self, epoch: u64, migration: MigrationSpec) -> IoResult<Lsn> {
        let lsn = self.append(&EpochRecord::MigrateBegin { epoch, migration });
        self.wal.force()?;
        Ok(lsn)
    }

    /// Drops un-forced records (crash simulation).
    pub fn simulate_crash(&self) {
        self.wal.simulate_crash();
    }

    /// Next LSN the log will hand out — the append cursor. A checkpoint snapshots
    /// this *before* forcing so it can later truncate everything the checkpoint
    /// made redundant.
    pub fn cursor(&self) -> Lsn {
        self.wal.next_lsn()
    }

    /// Durable high-water mark of the underlying WAL.
    pub fn durable_lsn(&self) -> Lsn {
        self.wal.durable_lsn()
    }

    /// Drops every record below `upto` (see [`storage::Wal::truncate_to`]).
    /// Returns the logical bytes dropped. `upto` must be a record boundary the
    /// caller observed — in practice either [`EpochLog::cursor`] taken between
    /// forces, or an epoch's `Begin` LSN.
    pub fn truncate_to(&self, upto: Lsn) -> IoResult<u64> {
        self.wal.truncate_to(upto)
    }

    /// Logical bytes a recovery scan would still replay (durable minus
    /// truncated).
    pub fn replayable_bytes(&self) -> u64 {
        self.wal.replayable_bytes()
    }

    /// Total logical bytes dropped by truncation over the log's lifetime.
    pub fn truncated_bytes(&self) -> u64 {
        self.wal.truncated_bytes()
    }

    /// Rescans the device (salvaging records completed by a torn force) and
    /// classifies every epoch found in the log.
    pub fn analyze(&self) -> IoResult<EpochAnalysis> {
        let (rescan, scan) = self.wal.recover_scan()?;
        let mut analysis = EpochAnalysis {
            torn_tail: rescan.torn_tail || scan.torn_tail,
            ..EpochAnalysis::default()
        };
        let mut index: HashMap<u64, usize> = HashMap::new();
        for rec in &scan.records {
            analysis.records += 1;
            let Some(record) = EpochRecord::decode(&rec.payload) else {
                // Corrupt record: everything after it is untrustworthy.
                analysis.torn_tail = true;
                break;
            };
            match record {
                EpochRecord::Begin { epoch, shards } => {
                    index.insert(epoch, analysis.epochs.len());
                    analysis.max_epoch = analysis.max_epoch.max(epoch);
                    analysis.epochs.push(EpochState {
                        epoch,
                        shards,
                        acked: Vec::new(),
                        committed: false,
                        migration: None,
                    });
                }
                EpochRecord::MigrateBegin { epoch, migration } => {
                    index.insert(epoch, analysis.epochs.len());
                    analysis.max_epoch = analysis.max_epoch.max(epoch);
                    analysis.epochs.push(EpochState {
                        epoch,
                        shards: vec![migration.src, migration.dst],
                        acked: Vec::new(),
                        committed: false,
                        migration: Some(migration),
                    });
                }
                EpochRecord::Ack { epoch, shard, .. } => {
                    if let Some(&i) = index.get(&epoch) {
                        analysis.epochs[i].acked.push(shard);
                    }
                }
                EpochRecord::Commit { epoch } | EpochRecord::MigrateCommit { epoch } => {
                    if let Some(&i) = index.get(&epoch) {
                        analysis.epochs[i].committed = true;
                    }
                }
            }
        }
        Ok(analysis)
    }
}

impl std::fmt::Debug for EpochLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochLog").field("wal", &self.wal).finish()
    }
}

/// What [`crate::ShardedPioEngine::recover`] did, for inspection by callers and
/// tests.
#[derive(Debug, Clone, Default)]
pub struct EngineRecoveryReport {
    /// Per-shard recovery reports, in shard order.
    pub shards: Vec<RecoveryReport>,
    /// Epochs already committed in the engine log (replayed by normal per-shard
    /// recovery).
    pub committed_epochs: u64,
    /// Uncommitted epochs that were durable on every member shard and were
    /// re-driven (committed) during recovery.
    pub recovered_epochs: u64,
    /// Uncommitted epochs discarded on every member shard.
    pub discarded_epochs: u64,
    /// Committed migrations whose boundary swap was re-applied from the log.
    pub committed_migrations: u64,
    /// Uncommitted migrations rolled back (copies and retires discarded on
    /// both shards, old boundary kept).
    pub rolled_back_migrations: u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use std::sync::Arc;

    fn log() -> EpochLog {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 16 << 20));
        EpochLog::new(Wal::new(io, 0, 2048))
    }

    /// Makes `acks` durable with no decision record behind them — what a
    /// decision force torn between the two leaves on the device.
    fn acks_without_decision(log: &EpochLog, epoch: u64, acks: &[(u32, Lsn)]) {
        for &(shard, durable_lsn) in acks {
            log.append(&EpochRecord::Ack {
                epoch,
                shard,
                durable_lsn,
            });
        }
        log.wal.force().unwrap();
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            EpochRecord::Begin {
                epoch: 42,
                shards: vec![0, 2, 3],
            },
            EpochRecord::Begin {
                epoch: 1,
                shards: vec![],
            },
            EpochRecord::Ack {
                epoch: 42,
                shard: 2,
                durable_lsn: 9001,
            },
            EpochRecord::Commit { epoch: 42 },
            EpochRecord::MigrateBegin {
                epoch: 43,
                migration: MigrationSpec {
                    src: 2,
                    dst: 3,
                    lo: 1_000,
                    hi: u64::MAX,
                },
            },
            EpochRecord::MigrateCommit { epoch: 43 },
        ];
        for r in records {
            let encoded = r.encode();
            assert_eq!(EpochRecord::decode(&encoded), Some(r.clone()));
            for cut in 1..encoded.len() {
                assert_eq!(EpochRecord::decode(&encoded[..cut]), None, "truncated {r:?} at {cut}");
            }
        }
        assert_eq!(EpochRecord::decode(&[]), None);
        assert_eq!(EpochRecord::decode(&[77, 0, 0]), None);
    }

    #[test]
    fn analyze_classifies_epoch_outcomes() {
        let log = log();
        // Epoch 1: committed. Epoch 2: fully acked, no commit. Epoch 3: partial
        // acks. Epoch 4: begin only.
        log.begin(1, &[0, 1]).unwrap();
        log.commit(1, &[(0, 10), (1, 20)]).unwrap();
        log.begin(2, &[0, 1]).unwrap();
        acks_without_decision(&log, 2, &[(0, 30), (1, 40)]);
        log.begin(3, &[0, 1, 2]).unwrap();
        acks_without_decision(&log, 3, &[(2, 50)]);
        log.begin(4, &[1]).unwrap();
        log.simulate_crash();

        let analysis = log.analyze().unwrap();
        assert_eq!(analysis.epochs.len(), 4);
        assert_eq!(analysis.max_epoch, 4);
        assert!(!analysis.torn_tail);
        let by_id: HashMap<u64, &EpochState> = analysis.epochs.iter().map(|e| (e.epoch, e)).collect();
        assert!(by_id[&1].committed);
        assert!(!by_id[&2].committed);
        assert!(by_id[&2].fully_acked(), "both member acks are durable");
        assert!(!by_id[&3].fully_acked());
        assert!(!by_id[&4].fully_acked());
        assert!(by_id[&4].acked.is_empty());
    }

    #[test]
    fn analyze_classifies_migration_epochs() {
        let log = log();
        let spec = MigrationSpec {
            src: 1,
            dst: 2,
            lo: 500,
            hi: 900,
        };
        // Epoch 10: committed migration. Epoch 11: fully acked but uncommitted —
        // recovery must roll it back anyway (fully_acked is irrelevant for
        // migrations).
        log.migrate_begin(10, spec).unwrap();
        log.migrate_commit(10, &[(1, 5), (2, 6)]).unwrap();
        log.migrate_begin(11, spec).unwrap();
        acks_without_decision(&log, 11, &[(1, 7), (2, 8)]);
        log.simulate_crash();

        let analysis = log.analyze().unwrap();
        assert_eq!(analysis.epochs.len(), 2);
        assert_eq!(analysis.max_epoch, 11);
        let by_id: HashMap<u64, &EpochState> = analysis.epochs.iter().map(|e| (e.epoch, e)).collect();
        assert_eq!(by_id[&10].migration, Some(spec));
        assert!(by_id[&10].committed);
        assert_eq!(by_id[&10].shards, vec![1, 2]);
        assert_eq!(by_id[&11].migration, Some(spec));
        assert!(!by_id[&11].committed);
        assert!(by_id[&11].fully_acked());
    }

    #[test]
    fn unforced_records_die_with_the_crash() {
        let log = log();
        log.begin(7, &[0]).unwrap();
        // The ack and commit are appended but the crash hits before the force.
        log.wal.append(
            &EpochRecord::Ack {
                epoch: 7,
                shard: 0,
                durable_lsn: 1,
            }
            .encode(),
        );
        log.wal.append(&EpochRecord::Commit { epoch: 7 }.encode());
        log.simulate_crash();
        let analysis = log.analyze().unwrap();
        assert_eq!(analysis.epochs.len(), 1);
        assert!(!analysis.epochs[0].committed);
        assert!(analysis.epochs[0].acked.is_empty());
    }
}
