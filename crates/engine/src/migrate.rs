//! The migration executor: moves a key range between two adjacent shards as
//! one crash-recoverable epoch (policy and lifecycle
//! diagram: the [`crate::rebalance`] module).

use crate::rebalance::{MoveKind, RebalanceOutcome};
use crate::routing::{shard_range, ActiveMigration};
use crate::sharded::EngineInner;
use btree::{Key, Value};
use parking_lot::Mutex;
use pio::IoResult;
use pio_btree::{LogRecord, OpEntry};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl EngineInner {
    /// Moves a key range from shard `src` to the adjacent shard `dst` as one
    /// crash-recoverable epoch, serving reads and writes
    /// throughout. Returns `Ok(None)` when the move is vacuous (splitting a
    /// shard with fewer than two entries, merging an already-empty range).
    ///
    /// The sequence (see the `rebalance` module docs for the lifecycle
    /// diagram): install the migration marker under a brief routing write lock
    /// (draining in-flight requests, so later writers see it); snapshot the
    /// moving region from `src`; copy the region into `dst` inside a bracket
    /// of the migration epoch *without* holding the routing lock (the
    /// expensive half — traffic flows meanwhile, `src` stays authoritative,
    /// and writes to the range are mirrored into the migration's dirty log);
    /// then, under the routing write lock, replay the dirty tail onto `dst`,
    /// retire the moved keys from `src`, force `src`'s `MigrateCommit`, and
    /// swap the boundary. A crash anywhere before the commit rolls the whole
    /// migration back at [`ShardedPioEngine::recover`]; a crash after it
    /// re-applies the boundary. An *error* return leaves the engine like a
    /// failed `insert_batch`: consistent for reads (the boundary is
    /// unchanged), but carrying an undecided epoch that the next
    /// crash-recovery cycle rolls back.
    pub(crate) fn migrate(&self, src: usize, dst: usize, kind: MoveKind) -> IoResult<Option<RebalanceOutcome>> {
        let n = self.shards.len();
        let adjacency_ok = match kind {
            MoveKind::SplitUpper => dst == src + 1 && dst < n,
            MoveKind::SplitLower => src >= 1 && dst == src - 1,
            // A merge may empty any shard except the last (the `Key::MAX`
            // sentinel can never leave it): to fold the last shard's range
            // away, merge its *left neighbour into it* instead.
            MoveKind::MergeAll => (dst == src + 1 && dst < n) || (src >= 1 && dst == src - 1 && src != n - 1),
        };
        if !adjacency_ok || src >= n {
            return Err(pio::IoError::InvalidConfig(format!(
                "invalid migration {src} -> {dst} ({kind:?}) over {n} shards"
            )));
        }
        let _mutation = self.begin_mutation()?;
        // Install the migration marker. The write acquisition drains every
        // in-flight request; once it is released, new writes in the captured
        // range mirror themselves into the dirty log.
        {
            let mut routing = self.routing.write();
            if routing.migration.is_some() {
                return Err(pio::IoError::InvalidConfig(
                    "a shard migration is already in flight".into(),
                ));
            }
            let (lo, hi) = shard_range(&routing.bounds, src, n);
            routing.migration = Some(ActiveMigration {
                src,
                dst,
                lo,
                hi,
                dirty: Arc::new(Mutex::new(Vec::new())),
            });
        }
        let result = self.migrate_run(src, dst, kind);
        if !matches!(result, Ok(Some(_))) {
            // Vacuous or failed: withdraw the marker (the success path consumed
            // it inside the commit's critical section).
            self.routing.write().migration = None;
        }
        result
    }

    /// The body of [`EngineInner::migrate`], running with the migration marker
    /// installed. Any `Err` is cleaned up by the caller.
    fn migrate_run(&self, src: usize, dst: usize, kind: MoveKind) -> IoResult<Option<RebalanceOutcome>> {
        let (cap_lo, cap_hi) = {
            let routing = self.routing.read();
            let m = routing.migration.as_ref().expect("installed by migrate");
            debug_assert_eq!((m.src, m.dst), (src, dst));
            (m.lo, m.hi)
        };
        // Snapshot the source range (a pipelined prange scan + OPQ overlay).
        let snapshot = self.on_shard(&self.shards[src], |tree| tree.range_search(cap_lo, cap_hi))?;
        // Choose the final moving range. Split cuts at the median key, so both
        // halves inherit half the (observed) population.
        let (lo, hi, moving): (Key, Key, &[(Key, Value)]) = match kind {
            MoveKind::SplitUpper | MoveKind::SplitLower => {
                if snapshot.len() < 2 {
                    return Ok(None);
                }
                let mid = snapshot.len() / 2;
                let cut = snapshot[mid].0;
                if kind == MoveKind::SplitUpper {
                    (cut, cap_hi, &snapshot[mid..])
                } else {
                    (cap_lo, cut, &snapshot[..mid])
                }
            }
            MoveKind::MergeAll => {
                if cap_lo == cap_hi {
                    return Ok(None);
                }
                (cap_lo, cap_hi, &snapshot[..])
            }
        };
        // Nothing is logged before the copy: a migration with no durable
        // `MigrateCommit` is rolled back on both shards.
        let epoch = self.epoch.as_ref().map(|coord| coord.open());
        // Phase 1 — the expensive copy, off the routing lock: traffic keeps
        // flowing, `src` stays authoritative, writes to the range are mirrored.
        let copy: Vec<OpEntry> = moving.iter().map(|&(k, v)| OpEntry::insert(k, v)).collect();
        self.on_shard(&self.shards[dst], |tree| tree.apply(&copy, epoch))?;
        // Phase 2 — the critical section: acquiring the routing write lock
        // waits out every in-flight request, so the dirty log is complete and
        // no new write can land on `src` until the boundary has swapped.
        let mut routing = self.routing.write();
        let migration = routing.migration.take().expect("installed by migrate");
        let dirty = std::mem::take(&mut *migration.dirty.lock());
        let tail: Vec<OpEntry> = dirty.into_iter().filter(|e| e.key >= lo && e.key < hi).collect();
        let dst_lsn = self.on_shard(&self.shards[dst], |tree| tree.apply(&tail, epoch))?;
        // Retire everything that may live in the moved range on `src`: the
        // snapshot keys plus every mirrored key (a delete of an absent key is
        // a harmless tombstone).
        let mut retires: Vec<OpEntry> = (moving.iter().map(|&(k, _)| k))
            .chain(tail.iter().map(|e| e.key))
            .map(OpEntry::delete)
            .collect();
        retires.sort_unstable_by_key(|e| e.key);
        retires.dedup_by_key(|e| e.key);
        self.on_shard(&self.shards[src], |tree| tree.apply(&retires, epoch))?;
        if let Some(epoch) = epoch {
            // The durable boundary swap, forced by the source shard: before it
            // the migration rolls back on recovery, after it the new boundary
            // is re-applied. Decided, both shards' bracket pins are released,
            // so the next checkpoint may truncate past the migration's records.
            let decision = LogRecord::MigrateCommit {
                epoch,
                src: src as u32,
                dst: dst as u32,
                lo,
                hi,
            };
            self.commit_epoch(epoch, src, vec![(dst, dst_lsn)], decision)?;
        }
        let idx = src.min(dst);
        routing.bounds[idx] = if dst > src { lo } else { hi };
        routing.version += 1;
        drop(routing);
        let moved_keys = retires.len() as u64;
        self.counters.migrated_keys.fetch_add(moved_keys, Ordering::Relaxed);
        match kind {
            MoveKind::MergeAll => self.counters.merges.fetch_add(1, Ordering::Relaxed),
            _ => self.counters.splits.fetch_add(1, Ordering::Relaxed),
        };
        self.sync_manifest()?;
        Ok(Some(RebalanceOutcome {
            kind,
            src,
            dst,
            lo,
            hi,
            moved_keys,
            epoch,
        }))
    }
}
