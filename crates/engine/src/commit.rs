//! The epoch commit path: presumed-abort two-phase commit with the
//! coordinator as a participant (Mohan, Lindsay & Obermarck, "Transaction
//! management in the R* distributed database management system", TODS 1986),
//! decided in a member shard's own WAL — and the batched insert that rides it.
//!
//! An epoch is one logical batch over several shards. **Round 1**: every
//! member appends its sub-batch inside a `BatchBegin`/`BatchEnd` bracket of
//! its WAL, tagged with the epoch id, and forces it
//! ([`PioBTree::apply`]) — its durability ack. **Round 2**: the
//! *coordinator*, a member chosen by rule (the lowest member shard of a batch,
//! the source shard of a migration), appends the epoch's commit record
//! ([`LogRecord::EpochCommit`] or [`LogRecord::MigrateCommit`]) and forces.
//! Nothing is logged before round 1: an epoch with no durable commit record
//! in any shard's log is aborted, so the engine keeps no log of its own.
//!
//! The one rule the shards' truncation must add: a commit record outlives
//! every bracket of its epoch. The coordinator's WAL is never cut past a
//! commit that is still *unsettled* — some other member's WAL may still hold
//! a bracket of the epoch, which recovery could only keep with the commit
//! beside it ([`EpochCoordinator::cut`]).

use crate::routing::{shard_of, sole_owner};
use crate::shard::ShardHealth;
use crate::sharded::EngineInner;
use btree::{Key, Value};
use parking_lot::Mutex;
use pio::IoResult;
use pio_btree::{LogRecord, OpEntry, PioBTree, LOCAL_EPOCH};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storage::Lsn;

/// A committed epoch whose commit record its coordinator's WAL must keep:
/// another member's WAL may still hold a bracket of it.
pub(crate) struct Unsettled {
    /// The shard whose WAL holds the commit record.
    pub(crate) coordinator: usize,
    /// The coordinator's WAL is cut no further than this: its newest
    /// checkpoint LSN at or below the commit record. Only a checkpoint is a
    /// safe cut — there the shard's OPQ was empty, so no flush that a later
    /// recovery might unwind covers a record below it.
    pub(crate) keep_from: Lsn,
    /// Every other member, with an LSN past its last bracket of the epoch.
    /// The epoch is settled once each one's WAL is truncated at or above it.
    pub(crate) participants: Vec<(usize, Lsn)>,
}

/// The engine side of the epoch protocol (present only when the per-shard
/// WALs are enabled): epoch ids and the settle list.
pub(crate) struct EpochCoordinator {
    /// Next epoch id to assign (continued past every id the shard logs still
    /// hold on recovery).
    next_epoch: AtomicU64,
    /// Each shard's newest checkpoint LSN (its WAL's start before the first
    /// checkpoint): where an epoch it commits from now on keeps its log from.
    checkpoints: Vec<AtomicU64>,
    /// Committed epochs that are not settled yet.
    unsettled: Mutex<Vec<Unsettled>>,
}

impl EpochCoordinator {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            // Ids start above `LOCAL_EPOCH`, which marks the shard-local brackets.
            next_epoch: AtomicU64::new(LOCAL_EPOCH + 1),
            checkpoints: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            unsettled: Mutex::new(Vec::new()),
        }
    }

    /// Allocates the next epoch id.
    pub(crate) fn open(&self) -> u64 {
        self.next_epoch.fetch_add(1, Ordering::Relaxed)
    }

    /// Records shard `shard`'s newest checkpoint LSN.
    pub(crate) fn checkpointed(&self, shard: usize, lsn: Lsn) {
        self.checkpoints[shard].fetch_max(lsn, Ordering::Relaxed);
    }

    /// Recovery's restart: ids continue above `max_seen`, the largest id any
    /// shard log still holds (a discarded bracket outlives the restart, and a
    /// reused id would let a new commit record adopt it); each shard's newest
    /// checkpoint and the settle list are what the surviving logs say.
    pub(crate) fn restart(&self, max_seen: u64, checkpoints: &[Lsn], unsettled: Vec<Unsettled>) {
        self.next_epoch.fetch_max(max_seen + 1, Ordering::Relaxed);
        for (slot, &lsn) in self.checkpoints.iter().zip(checkpoints) {
            slot.store(lsn, Ordering::Relaxed);
        }
        *self.unsettled.lock() = unsettled;
    }

    /// How far shard `shard`'s WAL may be truncated, given its checkpoint LSN
    /// `ckpt` and every shard's current truncation floor: first drops the
    /// epochs whose participants have all been truncated past their brackets,
    /// then keeps the oldest commit this shard still coordinates. A minimum,
    /// not all-or-nothing: under constant cross-shard traffic the coordinator
    /// still sheds everything older than the checkpoint before that commit.
    pub(crate) fn cut(&self, shard: usize, ckpt: Lsn, floors: &[Lsn]) -> Lsn {
        let mut unsettled = self.unsettled.lock();
        unsettled.retain(|e| e.participants.iter().any(|&(member, past)| floors[member] < past));
        unsettled
            .iter()
            .filter(|e| e.coordinator == shard)
            .map(|e| e.keep_from)
            .fold(ckpt, Lsn::min)
    }
}

impl EngineInner {
    /// Round 2 of epoch `epoch`: `coordinator` appends and forces `decision`,
    /// its commit record, behind round 1's acks from the other `participants`.
    /// The epoch joins the settle list *before* the record exists, so no
    /// checkpoint can cut past the record while a participant still holds a
    /// bracket; once the record is durable, every member's bracket pin is
    /// released. An error return keeps the pins and the settle entry: the
    /// record may still reach the device with a later force, so the epoch is
    /// undecided until the next recovery.
    pub(crate) fn commit_epoch(
        &self,
        epoch: u64,
        coordinator: usize,
        participants: Vec<(usize, Lsn)>,
        decision: LogRecord,
    ) -> IoResult<()> {
        let coord = self.epoch.as_ref().expect("epochs exist only with WALs");
        let members: Vec<usize> = std::iter::once(coordinator)
            .chain(participants.iter().map(|&(member, _)| member))
            .collect();
        coord.unsettled.lock().push(Unsettled {
            coordinator,
            keep_from: coord.checkpoints[coordinator].load(Ordering::Relaxed),
            participants,
        });
        self.on_shard(&self.shards[coordinator], |tree| tree.log_decision(decision))?;
        for member in members {
            self.shards[member].tree.lock().resolve_epoch(epoch);
        }
        Ok(())
    }

    /// Batched insert. With WALs enabled, a batch that spans shards runs as an
    /// epoch (module docs): every member shard appends its sub-batch inside an
    /// epoch bracket of its own WAL and forces it, and only then does the
    /// lowest member force the epoch's `EpochCommit` — so a crash anywhere in
    /// between leaves an epoch that [`crate::ShardedPioEngine::recover`]
    /// resolves to all-or-nothing across shards.
    ///
    /// A batch whose keys all land on **one** shard takes no epoch and no
    /// worker: that shard's bracket is already atomic, so it runs as a *local*
    /// bracket ([`LOCAL_EPOCH`]) that the shard's single WAL force commits — no
    /// commit record, no second force, no truncation pin — on the calling
    /// thread ([`EngineInner::run_leg`]).
    ///
    /// An *error* return means the batch is undecided: some shards may hold it
    /// durably, and no commit record exists (a local bracket that failed
    /// mid-way is closed as aborted; one whose force failed may still commit
    /// with the shard's next force). The caller should either retry the batch
    /// (enqueueing is idempotent) or crash-and-recover the engine, which
    /// discards an undecided epoch everywhere and drops an aborted local
    /// bracket.
    pub(crate) fn insert_batch(&self, entries: &[(Key, Value)]) -> IoResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let _mutation = self.begin_mutation()?;
        // Pin the routing table across partitioning, fan-out AND commit: the
        // boundary swap of a migration waits for every in-flight batch, so a
        // batch's sub-batches always land where its binning said they would.
        let routing = self.routing.read();
        let insert = |&(key, value): &(Key, Value)| OpEntry::insert(key, value);
        // One sub-batch per shard; a batch one shard owns is its sub-batch whole.
        let owner = sole_owner(&routing.bounds, entries.iter().map(|&(key, _)| key));
        let mut per_shard: Vec<Vec<OpEntry>> = vec![Vec::new(); self.shards.len()];
        match owner {
            Some(owner) => per_shard[owner] = entries.iter().map(insert).collect(),
            None => {
                for entry in entries {
                    per_shard[shard_of(&routing.bounds, entry.0)].push(insert(entry));
                }
            }
        }
        // A degraded member refuses the whole batch, like a single write —
        // and before any bracket is logged, so the refusal leaves no trace on
        // the healthy members and no epoch for recovery to resolve.
        if let Some(sick) = (0..per_shard.len()).find(|&i| !per_shard[i].is_empty() && self.shards[i].health.is_open())
        {
            return Err(ShardHealth::rejection(sick));
        }
        let epoch = match (&self.epoch, owner) {
            (None, _) => None,
            (Some(_), Some(_)) => Some(LOCAL_EPOCH),
            (Some(coord), None) => Some(coord.open()),
        };
        // A member's leg, the same whichever thread runs it.
        let mut legs = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(i, batch)| {
                let shard = Arc::clone(&self.shards[i]);
                shard.note_batch(batch.len());
                // Writes landing in an active migration's captured range are
                // mirrored into its dirty log from inside the task — under the
                // tree lock — so the mirror order matches the applied order.
                let mirror = routing
                    .migration
                    .as_ref()
                    .filter(|m| i == m.src)
                    .map(|m| {
                        let subset: Vec<OpEntry> = batch
                            .iter()
                            .filter(|e| e.key >= m.lo && e.key < m.hi)
                            .copied()
                            .collect();
                        (Arc::clone(&m.dirty), subset)
                    })
                    .filter(|(_, subset)| !subset.is_empty());
                // The task answers with the shard's durability ack: its WAL's
                // durable LSN once the sub-batch is forced (0 without an epoch).
                let task = move |tree: &mut PioBTree| {
                    if let Some((dirty, subset)) = mirror {
                        dirty.lock().extend(subset);
                    }
                    let ack = tree.apply(&batch, epoch);
                    shard.note_queue_peak(tree);
                    ack
                };
                (i, task)
            });
        // The sole owner's leg runs on this thread and owes nobody an ack;
        // legs on several shards go to their workers.
        let acks: Vec<(usize, Lsn)> = match owner {
            Some(owner) => {
                let (_, leg) = legs.next().expect("a non-empty batch has a member");
                self.run_leg(owner, leg)?;
                Vec::new()
            }
            None => self.fan_out_tasks(legs.collect())?,
        };
        let committed = match epoch {
            Some(LOCAL_EPOCH) => &self.counters.local_commits,
            Some(epoch) => {
                // Acks come back in shard order: the first is the coordinator's.
                let (coordinator, _) = acks[0];
                self.commit_epoch(epoch, coordinator, acks[1..].to_vec(), LogRecord::EpochCommit { epoch })?;
                &self.counters.committed_epochs
            }
            None => return Ok(()),
        };
        committed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}
