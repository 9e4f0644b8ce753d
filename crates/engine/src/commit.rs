//! The epoch commit path: the engine side of the two-phase flush-epoch
//! protocol (see [`crate::epoch`] for the log it runs over) and the batched
//! insert that rides it.

use crate::epoch::EpochLog;
use crate::routing::{shard_of, sole_owner};
use crate::shard::{resilient, Shard, ShardHealth};
use crate::sharded::EngineInner;
use btree::{Key, Value};
use parking_lot::Mutex;
use pio::{IoQueue, IoResult};
use pio_btree::{OpEntry, PioBTree, LOCAL_EPOCH};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storage::{Lsn, Wal};

/// The engine side of the two-phase flush-epoch protocol (present only when the
/// per-shard WALs are enabled).
pub(crate) struct EpochCoordinator {
    pub(crate) log: EpochLog,
    /// Next epoch id to assign (continued past the log's maximum on recovery).
    pub(crate) next_epoch: AtomicU64,
    /// Begin-record LSN of every epoch that is still undecided (begun but not
    /// yet committed or abandoned). Checkpoint truncation of the engine log may
    /// not pass the minimum of these pins: dropping an undecided epoch's
    /// begin record would make recovery treat its shard-side brackets as
    /// orphans. Registered by [`EpochCoordinator::open`] and removed by
    /// [`EpochCoordinator::decide`], so the pin conservatively covers the
    /// whole undecided window.
    pub(crate) in_flight: Mutex<BTreeMap<u64, Lsn>>,
}

impl EpochCoordinator {
    /// A coordinator over the engine's epoch-log backend. The epoch log anchors
    /// cross-shard atomicity; it gets the same transient-error shielding as
    /// every other engine queue.
    pub(crate) fn new(engine_wal: Arc<dyn IoQueue>, page_size: usize) -> Self {
        Self {
            log: EpochLog::new(Wal::new(resilient(engine_wal), 0, page_size)),
            // Ids start above `LOCAL_EPOCH`, which marks the shard-local brackets.
            next_epoch: AtomicU64::new(LOCAL_EPOCH + 1),
            in_flight: Mutex::new(BTreeMap::new()),
        }
    }

    /// Opens an epoch: allocates its id and forces its begin record through
    /// `begin` ([`EpochLog::begin`] or [`EpochLog::migrate_begin`]) — nothing
    /// may reach a shard before this returns — pinning the epoch against
    /// engine-log truncation for its whole undecided window.
    pub(crate) fn open(&self, begin: impl FnOnce(&EpochLog, u64) -> IoResult<Lsn>) -> IoResult<u64> {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        // Hold the pin map across the begin force: a concurrent checkpoint
        // computes its truncation floor under this lock, so it either sees
        // the pin or runs before the record is durable (and truncation
        // clamps to the durable frontier).
        let mut pins = self.in_flight.lock();
        let begin_lsn = begin(&self.log, epoch)?;
        pins.insert(epoch, begin_lsn);
        Ok(epoch)
    }

    /// Decides an epoch: forces the members' `acks` and the decision record
    /// through `decision` ([`EpochLog::commit`] or [`EpochLog::migrate_commit`]),
    /// then releases the truncation pins — the engine log's (this epoch's
    /// records are now redundant for recovery) and each member shard's bracket
    /// pin. An error return keeps both pins, so an undecided epoch can never be
    /// truncated away.
    pub(crate) fn decide(
        &self,
        epoch: u64,
        acks: &[(usize, Lsn)],
        shards: &[Arc<Shard>],
        decision: impl FnOnce(&EpochLog, u64, &[(usize, Lsn)]) -> IoResult<()>,
    ) -> IoResult<()> {
        decision(&self.log, epoch, acks)?;
        self.in_flight.lock().remove(&epoch);
        for &(shard, _) in acks {
            shards[shard].tree.lock().resolve_epoch(epoch);
        }
        Ok(())
    }

    /// The LSN below which the engine log may be truncated without losing an
    /// undecided epoch, given a candidate checkpoint cut `upto`.
    pub(crate) fn truncation_floor(&self, upto: Lsn) -> Lsn {
        let pins = self.in_flight.lock();
        // Minimum pinned LSN, not the first map entry: epoch ids are allocated
        // outside this lock, so id order need not match Begin-LSN order.
        match pins.values().min() {
            Some(&pin) => upto.min(pin),
            None => upto,
        }
    }
}

impl EngineInner {
    /// Batched insert. With WALs enabled, a batch that spans shards runs as a
    /// two-phase flush epoch: `Begin` is forced to the engine log before
    /// fan-out, every member shard appends its sub-batch inside an epoch bracket
    /// of its own WAL and forces it, and only then are the shard acks and the
    /// `Commit` behind them forced, together — so a crash anywhere in between
    /// leaves an epoch that [`crate::ShardedPioEngine::recover`] resolves to
    /// all-or-nothing across shards.
    ///
    /// A batch whose keys all land on **one** shard takes no epoch and no
    /// worker: that shard's bracket is already atomic, so it runs as a *local*
    /// bracket ([`LOCAL_EPOCH`]) that the shard's single WAL force commits — no
    /// engine log record, no second force, no truncation pin — on the calling
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
        let members = || (0..per_shard.len()).filter(|&i| !per_shard[i].is_empty());
        // A degraded member refuses the whole batch, like a single write —
        // and before `Begin` is logged, so the refusal leaves no trace on the
        // healthy members and no epoch for recovery to resolve.
        if let Some(sick) = members().find(|&i| self.shards[i].health.is_open()) {
            return Err(ShardHealth::rejection(sick));
        }
        let epoch = match (&self.epoch, owner) {
            (None, _) => None,
            (Some(_), Some(_)) => Some(LOCAL_EPOCH),
            (Some(coord), None) => {
                let members: Vec<usize> = members().collect();
                Some(coord.open(|log, epoch| log.begin(epoch, &members))?)
            }
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
        let committed = match (epoch, &self.epoch) {
            (Some(LOCAL_EPOCH), _) => &self.counters.local_commits,
            (Some(epoch), Some(coord)) => {
                coord.decide(epoch, &acks, &self.shards, EpochLog::commit)?;
                &self.counters.committed_epochs
            }
            _ => return Ok(()),
        };
        committed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}
