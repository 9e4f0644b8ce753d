//! Crash recovery for the PIO B-tree (Section 3.4).
//!
//! The OPQ is a volatile, write-back-style cache of index records, so two problems
//! arise on a crash: queued operations are lost, and an OPQ flush interrupted halfway
//! can leave the on-disk tree inconsistent. The paper solves both with write-ahead
//! logging (Table 2):
//!
//! * a **logical redo log** is written for every OPQ append (`<Ti, Ri, op, record>`);
//! * a pair of **flush event logs** brackets every OPQ flush, recording the key range
//!   of the flushed entries;
//! * a **flush undo log** is written for every index node updated by a flush, holding
//!   the information needed to undo that update. What that is depends on what the
//!   flush did to the page. A leaf segment bupdate only **appended** to — nearly
//!   every page a flush touches (Section 3.3's append-only leaf update) — is undone
//!   by its old record count, a few bytes ([`LogRecord::FlushAppendUndo`]): the
//!   append left the earlier records' bytes alone, so recovery rebuilds the
//!   pre-image from the page itself. Only pages a flush **rewrote** — the region
//!   of a leaf that took the full path (shrink, split) and internal nodes — carry
//!   their page pre-image ([`LogRecord::FlushUndo`]);
//! * OPQ entries of uncommitted transactions are never flushed (**no-steal**), so the
//!   undo phase has nothing to do for them.
//!
//! Recovery then proceeds: undo any incomplete flush using its undo records, then
//! redo (re-append to the OPQ) every logical log record that was *not* covered by a
//! completed flush — a record is covered when a completed flush started after the
//! record was logged and the record's key falls inside the flushed key range.

use crate::entry::OpEntry;
use crate::tree::flush::{FlushJournal, Undo};
use crate::tree::PioBTree;
use btree::Key;
use pio::IoResult;
use std::collections::HashMap;

mod record;

pub use record::{LogRecord, TxId, LOCAL_EPOCH};

/// One completed, non-aborted flush as the attribution pass sees it: the key
/// range its `FlushStart` record declared, plus the caller's tag for it.
#[derive(Debug, Clone, Copy)]
pub struct FlushSpan {
    /// Opaque caller identifier, handed back in the attribution result (the
    /// tree passes its index into its flush table).
    pub tag: usize,
    /// LSN of the flush's `FlushStart` record: only records logged strictly
    /// before it can have been in the OPQ batch the flush took.
    pub start_lsn: u64,
    /// Smallest key in the flushed batch.
    pub key_lo: Key,
    /// Largest key in the flushed batch (inclusive).
    pub key_hi: Key,
    /// How many of the oldest still-queued ties at `key_hi` the batch held
    /// (see [`LogRecord::FlushStart`]).
    pub hi_ties: u32,
}

/// Attributes every logical record to the completed flush that certainly
/// applied it, if any — the indexed core of recovery's attribution pass.
///
/// `logical` is `(lsn, key)` per logical record in log order; `flushes` must be
/// sorted by `start_lsn` ascending (the order the flushes drained the OPQ).
/// Returns, per record, `Some(tag)` of the consuming flush.
///
/// This simulates the OPQ the way `take_batch` drained it, in one merged walk:
/// records enter a pending index (ordered by key, then LSN) as the walk passes
/// their LSN, and each flush *removes* the pending records inside its key range
/// — strictly-inside keys wholesale, ties at `key_hi` oldest-first up to
/// `hi_ties`. Every record is inserted once and removed at most once, so the
/// pass visits each record O(1) times regardless of how many flushes the log
/// holds (`visits` counts those touches; a test pins the bound). The naive
/// per-flush rescan this replaces was O(flushes × records), which stopped
/// mattering only while logs were never truncated — with checkpoint-anchored
/// truncation the log is short, but recovery cost must stay proportional to it.
pub fn attribute_flushed_records(
    logical: &[(u64, Key)],
    flushes: &[FlushSpan],
    visits: &mut usize,
) -> Vec<Option<usize>> {
    debug_assert!(
        flushes.windows(2).all(|w| w[0].start_lsn <= w[1].start_lsn),
        "flush spans must be sorted by start LSN"
    );
    let mut consumed_by: Vec<Option<usize>> = vec![None; logical.len()];
    // Pending (unconsumed, already-logged) records: (key, lsn) → record index.
    // Within one key the LSN orders entries oldest-first, matching the order
    // `take_batch` removes ties from the sorted OPQ.
    let mut pending: std::collections::BTreeMap<(Key, u64), usize> = std::collections::BTreeMap::new();
    let mut next = 0usize; // first logical record not yet in `pending`
    for f in flushes {
        while next < logical.len() && logical[next].0 < f.start_lsn {
            let (lsn, key) = logical[next];
            pending.insert((key, lsn), next);
            *visits += 1;
            next += 1;
        }
        // Strictly inside the range: certainly in the batch.
        let inside: Vec<(Key, u64)> = pending.range((f.key_lo, 0)..(f.key_hi, 0)).map(|(&k, _)| k).collect();
        for k in inside {
            let i = pending.remove(&k).expect("key just seen in range");
            consumed_by[i] = Some(f.tag);
            *visits += 1;
        }
        // Ties at the upper bound: the batch held the oldest `hi_ties` of them.
        let ties: Vec<(Key, u64)> = pending
            .range((f.key_hi, 0)..=(f.key_hi, u64::MAX))
            .take(f.hi_ties as usize)
            .map(|(&k, _)| k)
            .collect();
        for k in ties {
            let i = pending.remove(&k).expect("tie just seen in range");
            consumed_by[i] = Some(f.tag);
            *visits += 1;
        }
    }
    consumed_by
}

/// Outcome of a recovery pass, for inspection by callers and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact log records the analysis pass scanned. With checkpoint-anchored
    /// truncation this is bounded by what was logged since the last truncation
    /// — the quantity the bounded-recovery guarantee is stated in.
    pub scanned: usize,
    /// Logical records re-applied to the OPQ.
    pub redone: usize,
    /// Logical records skipped because a completed flush already covered them.
    pub skipped_flushed: usize,
    /// Incomplete flushes found (at most one can be in progress at a crash).
    pub incomplete_flushes: usize,
    /// Flushes that were rolled back in process before the crash (their undo
    /// records are skipped — the pages were already restored).
    pub aborted_flushes: usize,
    /// Pages restored from flush undo records.
    pub undone_pages: usize,
    /// Logical records dropped because their cross-shard epoch was discarded by
    /// the engine's recovery, or their local bracket aborted (all-or-nothing
    /// batch atomicity either way).
    pub discarded: usize,
    /// Local brackets found aborted — closed by `apply` after a mid-batch
    /// error, or left open by the crash (and closed as aborted by this pass).
    /// Not epochs: the engine never heard of them.
    pub aborted_local: usize,
    /// *Completed* flushes that were nevertheless undone because they had flushed
    /// entries of a discarded epoch into the tree (the surviving entries they
    /// covered are re-queued instead).
    pub unwound_flushes: usize,
    /// `true` when the log ended in a torn or corrupt record: replay stopped
    /// cleanly at the last intact record instead of skipping garbage mid-log.
    pub torn_tail: bool,
}

impl PioBTree {
    /// Simulates a crash: the volatile OPQ, buffer pool and LSMap are lost, as are
    /// any WAL records that were never forced. Returns the number of OPQ entries
    /// lost. (The root pointer survives — standing in for the superblock a real
    /// deployment would read it from; [`PioBTree::recover`] rewinds it when the
    /// flush that moved it is undone.)
    pub fn simulate_crash(&mut self) -> usize {
        let lost = self.opq.len();
        self.opq.clear();
        self.store.drop_cache();
        // The checksum sidecar dies with the process: after a torn write the
        // device holds pre-crash bytes that the recorded checksum would
        // wrongly indict.
        self.store.reset_integrity();
        self.lsmap.clear();
        // In-flight epoch verdicts die with the process; recovery re-derives
        // every epoch's fate from the commit records in the shard logs before
        // truncation resumes.
        self.open_brackets.clear();
        if let Some(wal) = &self.wal {
            wal.simulate_crash();
        }
        lost
    }

    /// ARIES-style restart recovery (Section 3.4): undo any incomplete flush from its
    /// undo records, then re-apply (re-append to the OPQ) every logical redo record
    /// not covered by a completed flush. Equivalent to
    /// [`PioBTree::recover_with`] with a filter that keeps every epoch.
    pub fn recover(&mut self) -> IoResult<RecoveryReport> {
        self.recover_with(&mut |_| true)
    }

    /// Restart recovery with an externally supplied epoch verdict: `keep_epoch`
    /// is consulted once per cross-shard epoch found in the log (the brackets
    /// written by [`PioBTree::apply`]) and decides whether that
    /// epoch's logical records are replayed (`true`) or discarded (`false`).
    /// Records outside any bracket are always replayed. The sharded engine calls
    /// this with "does some shard's log hold this epoch's commit record?"
    /// ([`LogRecord::EpochCommit`], [`LogRecord::MigrateCommit`]), which is what
    /// makes a cross-shard batch all-or-nothing. `keep_epoch` is asked about
    /// every surviving bracket, including one older than the last
    /// `Checkpoint` record — this pass does not treat a checkpoint as a
    /// starting point.
    ///
    /// A **local** bracket ([`LOCAL_EPOCH`]) is decided here, from this log
    /// alone, and `keep_epoch` is never asked about it: it commits iff its
    /// `BatchEnd` is durable. One closed by `BatchAbort`, or that the log ends
    /// inside, is aborted — its records are dropped exactly like a discarded
    /// epoch's, and an open one is closed durably *as aborted*, so the next
    /// recovery reaches the same verdict.
    ///
    /// The pass proceeds in four steps:
    ///
    /// 1. **Rescan + analysis** — the WAL re-derives its durable LSN from the
    ///    device ([`storage::Wal::rescan`]), so records completed by a torn force are
    ///    seen; replay stops cleanly at the first torn or corrupt record
    ///    (`torn_tail` in the report). Every bracket gets its verdict here: an
    ///    epoch's from `keep_epoch`, a local one's from its own close.
    /// 2. **Attribution** — every logical record is attributed to the completed
    ///    flush that certainly applied it, if any. `take_batch` removes the
    ///    smallest-key prefix of the sorted OPQ, so a flush certainly applied a
    ///    record iff the record predates the flush, was not applied earlier, and
    ///    its key is strictly inside the flushed range — or ties the range's
    ///    upper bound and is among the oldest `hi_ties` unattributed ties.
    ///    Anything the attribution cannot prove flushed is redone instead
    ///    (redo is idempotent; skipping an unflushed record would lose it).
    ///    The flush/transaction counters and the store's allocation frontier
    ///    are also rolled forward past everything the log proves happened, and
    ///    the surviving `FlushRoot` moves are replayed in log order — so a tree
    ///    reopened from a stale manifest snapshot ([`PioBTree::open`]) converges
    ///    on the crashed process's state before undo begins.
    /// 3. **Undo** — the incomplete flush (if any) and every *poisoned* flush — a
    ///    completed flush that applied a discarded record — are undone, newest
    ///    flush first, together with every later flush (a flush's undo records
    ///    describe the state the newer flushes wrote over, so the chain must
    ///    unwind as a suffix). A rewritten page gets its logged preimage back;
    ///    an appended-to leaf segment is cut back to its logged record count,
    ///    working from the page as the newer flushes' undo left it on the
    ///    device ([`crate::PioLeaf::undo_append`] — exact on a torn page too). Root
    ///    growths are rewound from their `FlushRoot` records.
    /// 4. **Redo** — surviving records not attributed to a surviving flush are
    ///    re-appended to the OPQ in log order; discarded records are dropped.
    pub fn recover_with(&mut self, keep_epoch: &mut dyn FnMut(u64) -> bool) -> IoResult<RecoveryReport> {
        self.open_brackets.clear();
        let Some(wal) = &self.wal else {
            return Ok(RecoveryReport::default());
        };
        let mut report = RecoveryReport::default();
        let (rescan, scan) = wal.recover_scan()?;
        report.torn_tail = rescan.torn_tail || scan.torn_tail;
        report.scanned = scan.records.len();

        // ------------------------------------------------------------- analysis --
        #[derive(Debug)]
        struct FlushInfo {
            /// What its `FlushStart` declared; the tag is its index in `flushes`.
            span: FlushSpan,
            complete: bool,
            /// Rolled back in process before the crash: skip its undo records (the
            /// pages were already restored, and a retry flush may have rewritten
            /// them); it covers no logical records (its batch went back to the OPQ).
            aborted: bool,
            /// Its undo, root and allocation records, in log order.
            journal: FlushJournal,
        }
        let mut flushes: Vec<FlushInfo> = Vec::new();
        // flush_id → index in `flushes` (the per-record lookups below must not
        // rescan the flush list — logs are never truncated, so they grow).
        let mut flush_idx: HashMap<u64, usize> = HashMap::new();
        // (lsn, entry, enclosing cross-shard epoch).
        let mut logical: Vec<(u64, OpEntry, Option<u64>)> = Vec::new();
        let mut current_epoch: Option<u64> = None;
        // Where the bracket being read began in `logical`.
        let mut bracket_start = 0usize;
        let mut max_tx: u64 = 0;
        for rec in &scan.records {
            match LogRecord::decode(&rec.payload) {
                None => {
                    // A corrupt record: everything after it is untrustworthy.
                    // Stop replay cleanly at the last intact record.
                    report.torn_tail = true;
                    break;
                }
                Some(LogRecord::LogicalRedo { tx, entry }) => {
                    max_tx = max_tx.max(tx);
                    logical.push((rec.lsn, entry, current_epoch));
                }
                Some(LogRecord::BatchBegin { epoch }) => {
                    current_epoch = Some(epoch);
                    bracket_start = logical.len();
                }
                Some(LogRecord::BatchEnd { epoch }) => {
                    if epoch == LOCAL_EPOCH {
                        // The durable commit of a local bracket: from here on
                        // its records are ordinary records.
                        logical[bracket_start..].iter_mut().for_each(|rec| rec.2 = None);
                    }
                    current_epoch = None;
                }
                Some(LogRecord::BatchAbort) => {
                    current_epoch = None;
                    report.aborted_local += 1;
                }
                Some(LogRecord::FlushStart {
                    flush_id,
                    key_lo,
                    key_hi,
                    hi_ties,
                }) => {
                    flush_idx.insert(flush_id, flushes.len());
                    flushes.push(FlushInfo {
                        span: FlushSpan {
                            tag: flushes.len(),
                            start_lsn: rec.lsn,
                            key_lo,
                            key_hi,
                            hi_ties,
                        },
                        complete: false,
                        aborted: false,
                        journal: FlushJournal::new(flush_id),
                    });
                }
                Some(LogRecord::FlushEnd { flush_id }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i].complete = true;
                    }
                }
                Some(LogRecord::FlushAbort { flush_id }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i].aborted = true;
                    }
                }
                Some(LogRecord::FlushUndo {
                    flush_id,
                    page,
                    preimage,
                }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i].journal.steps.push((page, Undo::Image(preimage.into())));
                    }
                }
                Some(LogRecord::FlushAppendUndo {
                    flush_id,
                    page,
                    old_count,
                    fresh,
                }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        let keep = (!fresh).then_some(old_count as usize);
                        flushes[i].journal.steps.push((page, Undo::Append(keep)));
                    }
                }
                Some(LogRecord::FlushRoot {
                    flush_id,
                    prev_root,
                    prev_height,
                    new_root,
                    new_height,
                }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i]
                            .journal
                            .roots
                            .push((prev_root, prev_height as usize, new_root, new_height as usize));
                    }
                }
                Some(LogRecord::FlushAlloc { flush_id, first, pages }) => {
                    if let Some(&i) = flush_idx.get(&flush_id) {
                        flushes[i].journal.allocs.push((first, pages));
                    }
                }
                // The engine's decisions: it reads them before this pass and
                // hands their verdicts in through `keep_epoch`.
                Some(LogRecord::Checkpoint | LogRecord::EpochCommit { .. } | LogRecord::MigrateCommit { .. }) => {}
            }
        }
        if let Some(epoch) = current_epoch {
            // The log ends inside a bracket (the crash hit between
            // `BatchBegin` and its close). Close it durably now: otherwise
            // every record logged *after* this recovery would be misattributed
            // to the stale epoch — and dropped by the next recovery if the
            // epoch's verdict was discard. An epoch's verdict is the engine's
            // either way; a local bracket's close IS its verdict, so it must
            // read aborted (a `BatchEnd` would commit it on the second restart).
            let close = if epoch == LOCAL_EPOCH {
                report.aborted_local += 1;
                LogRecord::BatchAbort
            } else {
                LogRecord::BatchEnd { epoch }
            };
            wal.append(&close.encode());
            wal.force()?;
        }
        report.aborted_flushes = flushes.iter().filter(|i| i.aborted).count();

        // Counter continuity across restarts: a reopened tree starts its flush
        // and transaction counters at 1, but the log already holds higher ids —
        // and a duplicated flush id would corrupt the next recovery's
        // attribution (flush_idx keeps only the newest occurrence).
        let max_flush_id = flushes.iter().map(|i| i.journal.flush_id).max().unwrap_or(0);
        self.next_flush_id = self.next_flush_id.max(max_flush_id + 1);
        self.next_tx = self.next_tx.max(max_tx + 1);

        // Allocation roll-forward: every flush allocation in the log lies below
        // the allocator frontier the crashed process had reached, but a reopened
        // store starts from its manifest snapshot's (possibly older) frontier.
        // Raise it over every logged run *before* any undo frees pages — freeing
        // a page the bump allocator has not reached would hand it out twice.
        let alloc_frontier = flushes
            .iter()
            .flat_map(|info| info.journal.allocs.iter())
            .map(|&(first, n)| first + n)
            .max()
            .unwrap_or(0);
        if alloc_frontier > 0 {
            self.store.ensure_high_water(alloc_frontier);
        }

        // Epoch verdicts, one filter call per distinct epoch. A record still
        // tagged local belongs to an aborted bracket (a commit cleared the tag).
        let mut fate: HashMap<u64, bool> = HashMap::new();
        let drops: Vec<bool> = logical
            .iter()
            .map(|&(_, _, epoch)| match epoch {
                None => false,
                Some(LOCAL_EPOCH) => true,
                Some(e) => !*fate.entry(e).or_insert_with(|| keep_epoch(e)),
            })
            .collect();

        // ---------------------------------------------------------- attribution --
        // Walk the completed flushes in start order; each consumes the records it
        // certainly applied (a record is consumed at most once — by the first
        // flush that took it out of the OPQ). The indexed pass in
        // [`attribute_flushed_records`] visits each record O(1) times,
        // keeping recovery proportional to the truncated log's length rather
        // than flushes × records.
        let mut order: Vec<usize> = (0..flushes.len())
            .filter(|&f| flushes[f].complete && !flushes[f].aborted)
            .collect();
        order.sort_by_key(|&f| flushes[f].span.start_lsn);

        // Root roll-forward: replay the surviving root moves in log order, so a
        // reopened tree whose manifest snapshot predates completed flushes lands
        // on the current root. In-place recovery is unaffected — the in-memory
        // root already equals the newest surviving move's target (every root
        // change is logged and forced before the new root is written), and moves
        // of incomplete or aborted flushes are skipped here exactly as their
        // flushes are rewound (or were already rolled back) below.
        for &f in &order {
            for &(_, _, new_root, new_height) in &flushes[f].journal.roots {
                self.root = new_root;
                self.height = new_height;
            }
        }
        let spans: Vec<FlushSpan> = order.iter().map(|&f| flushes[f].span).collect();
        let keyed: Vec<(u64, Key)> = logical.iter().map(|&(lsn, entry, _)| (lsn, entry.key)).collect();
        let mut visits = 0usize;
        let consumed_by = attribute_flushed_records(&keyed, &spans, &mut visits);

        // ----------------------------------------------------------------- undo --
        // The undo set: the incomplete flush, every poisoned flush (a completed
        // flush that applied a discarded record), and — because undo records
        // only compose as a suffix — every flush that started after the
        // earliest of those.
        let poisoned_start = (0..logical.len())
            .filter(|&i| drops[i])
            .filter_map(|i| consumed_by[i])
            .map(|f| flushes[f].span.start_lsn)
            .min();
        let incomplete_start = flushes
            .iter()
            .filter(|i| !i.complete && !i.aborted)
            .map(|i| i.span.start_lsn)
            .min();
        let min_undo_start = match (poisoned_start, incomplete_start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        let mut undone: Vec<bool> = vec![false; flushes.len()];
        if let Some(min_start) = min_undo_start {
            let mut to_undo: Vec<usize> = (0..flushes.len())
                .filter(|&f| !flushes[f].aborted && flushes[f].span.start_lsn >= min_start)
                .collect();
            // Newest first: each flush's undo restores the state the flushes
            // before it wrote, so the chain unwinds in reverse start order.
            to_undo.sort_by_key(|&f| std::cmp::Reverse(flushes[f].span.start_lsn));
            for f in to_undo {
                let journal = std::mem::take(&mut flushes[f].journal);
                if flushes[f].complete {
                    report.unwound_flushes += 1;
                } else {
                    report.incomplete_flushes += 1;
                }
                report.undone_pages += journal.steps.len();
                self.undo_flush(journal)?;
                undone[f] = true;
            }
            // Whatever the LSMap claimed about the undone leaves is stale; it is
            // a cache, so dropping all of it is always safe.
            self.lsmap.clear();
        }

        // ----------------------------------------------------------------- redo --
        for (i, (_, entry, _)) in logical.iter().enumerate() {
            if drops[i] {
                report.discarded += 1;
            } else if consumed_by[i].is_some_and(|f| !undone[f]) {
                report.skipped_flushed += 1;
            } else {
                report.redone += 1;
                self.opq.append(*entry);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_record_round_trips() {
        let records = vec![
            LogRecord::LogicalRedo {
                tx: 7,
                entry: OpEntry::insert(42, 420),
            },
            LogRecord::LogicalRedo {
                tx: 8,
                entry: OpEntry::delete(13),
            },
            LogRecord::LogicalRedo {
                tx: 9,
                entry: OpEntry::update(5, 55),
            },
            LogRecord::FlushStart {
                flush_id: 3,
                key_lo: 10,
                key_hi: 99,
                hi_ties: 2,
            },
            LogRecord::FlushEnd { flush_id: 3 },
            LogRecord::FlushAbort { flush_id: 4 },
            LogRecord::FlushUndo {
                flush_id: 3,
                page: 77,
                preimage: vec![1, 2, 3, 4, 5],
            },
            LogRecord::Checkpoint,
            LogRecord::BatchBegin { epoch: 12 },
            LogRecord::BatchEnd { epoch: 12 },
            LogRecord::BatchBegin { epoch: LOCAL_EPOCH },
            LogRecord::BatchAbort,
            LogRecord::FlushRoot {
                flush_id: 3,
                prev_root: 41,
                prev_height: 2,
                new_root: 120,
                new_height: 3,
            },
            LogRecord::FlushAlloc {
                flush_id: 3,
                first: 90,
                pages: 4,
            },
            LogRecord::FlushAppendUndo {
                flush_id: 3,
                page: 77,
                old_count: 101,
                fresh: false,
            },
            LogRecord::FlushAppendUndo {
                flush_id: 3,
                page: 78,
                old_count: 0,
                fresh: true,
            },
            LogRecord::EpochCommit { epoch: 12 },
            LogRecord::MigrateCommit {
                epoch: 13,
                src: 2,
                dst: 3,
                lo: 1_000,
                hi: u64::MAX,
            },
        ];
        for r in records {
            let encoded = r.encode();
            assert_eq!(LogRecord::decode(&encoded), Some(r.clone()));
            // The in-place form appends exactly the same bytes.
            let mut buf = vec![0xAA; 3];
            r.encode_into(&mut buf);
            assert_eq!(buf[3..], encoded[..]);
        }
    }

    #[test]
    fn corrupt_payloads_decode_to_none() {
        assert_eq!(LogRecord::decode(&[]), None);
        assert_eq!(LogRecord::decode(&[99, 1, 2, 3]), None);
        assert_eq!(LogRecord::decode(&[1, 0, 0]), None, "truncated logical record");
        // FlushUndo whose declared length exceeds the payload.
        let mut bad = LogRecord::FlushUndo {
            flush_id: 1,
            page: 2,
            preimage: vec![9; 10],
        }
        .encode();
        bad.truncate(bad.len() - 5);
        assert_eq!(LogRecord::decode(&bad), None);
        // A logical undo record whose flag byte is neither 0 nor 1.
        let mut bad = LogRecord::FlushAppendUndo {
            flush_id: 1,
            page: 2,
            old_count: 3,
            fresh: true,
        }
        .encode();
        *bad.last_mut().unwrap() = 2;
        assert_eq!(LogRecord::decode(&bad), None);
    }

    /// Every record kind, truncated at every possible length, must decode to
    /// `None` — the contract `PioBTree::recover` relies on to stop replay at a
    /// torn tail instead of misreading a half-written record.
    #[test]
    fn every_truncation_of_every_record_decodes_to_none() {
        let records = vec![
            LogRecord::LogicalRedo {
                tx: 1,
                entry: OpEntry::insert(2, 3),
            },
            LogRecord::FlushStart {
                flush_id: 1,
                key_lo: 2,
                key_hi: 3,
                hi_ties: 1,
            },
            LogRecord::FlushEnd { flush_id: 1 },
            LogRecord::FlushAbort { flush_id: 1 },
            LogRecord::FlushUndo {
                flush_id: 1,
                page: 2,
                preimage: vec![7; 16],
            },
            LogRecord::BatchBegin { epoch: 5 },
            LogRecord::BatchEnd { epoch: 5 },
            LogRecord::FlushRoot {
                flush_id: 1,
                prev_root: 2,
                prev_height: 3,
                new_root: 4,
                new_height: 4,
            },
            LogRecord::FlushAlloc {
                flush_id: 1,
                first: 40,
                pages: 2,
            },
            LogRecord::FlushAppendUndo {
                flush_id: 1,
                page: 2,
                old_count: 7,
                fresh: false,
            },
            LogRecord::EpochCommit { epoch: 5 },
            LogRecord::MigrateCommit {
                epoch: 6,
                src: 1,
                dst: 0,
                lo: 10,
                hi: 20,
            },
        ];
        for r in records {
            let full = r.encode();
            for cut in 1..full.len() {
                assert_eq!(
                    LogRecord::decode(&full[..cut]),
                    None,
                    "truncation of {r:?} at {cut}/{} must not decode",
                    full.len()
                );
            }
            assert_eq!(LogRecord::decode(&full), Some(r));
        }
    }

    /// The indexed attribution must agree with the obvious per-flush rescan on
    /// a workload with overlapping ranges and upper-bound ties — and must visit
    /// each record a bounded number of times, independent of the flush count.
    #[test]
    fn indexed_attribution_matches_the_naive_scan_and_bounds_visits() {
        // Deterministic pseudo-random workload: keys collide often enough to
        // exercise the hi-tie path.
        let mut state = 0x1234_5678_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let logical: Vec<(u64, Key)> = (0..400u64).map(|i| (i * 16, rng() % 40)).collect();
        let mut flushes: Vec<FlushSpan> = (0..60usize)
            .map(|tag| {
                let lo = rng() % 40;
                let hi = lo + rng() % 8;
                FlushSpan {
                    tag,
                    start_lsn: rng() % (400 * 16),
                    key_lo: lo,
                    key_hi: hi,
                    hi_ties: (rng() % 3) as u32,
                }
            })
            .collect();
        flushes.sort_by_key(|f| f.start_lsn);

        // Reference implementation: the O(flushes × records) loop this helper
        // replaced in `PioBTree::recover_with`.
        let mut expect: Vec<Option<usize>> = vec![None; logical.len()];
        for f in &flushes {
            let mut ties_left = f.hi_ties as usize;
            for (i, &(lsn, key)) in logical.iter().enumerate() {
                if lsn >= f.start_lsn || expect[i].is_some() {
                    continue;
                }
                if key >= f.key_lo && key < f.key_hi {
                    expect[i] = Some(f.tag);
                } else if key == f.key_hi && ties_left > 0 {
                    expect[i] = Some(f.tag);
                    ties_left -= 1;
                }
            }
        }

        let mut visits = 0usize;
        let got = attribute_flushed_records(&logical, &flushes, &mut visits);
        assert_eq!(got, expect);
        // Each record is visited at most twice (entering the pending index,
        // leaving it when consumed) — never once per flush.
        assert!(
            visits <= 2 * logical.len(),
            "{visits} visits for {} records × {} flushes breaks the O(records) bound",
            logical.len(),
            flushes.len()
        );
    }

    #[test]
    fn attribution_consumes_the_oldest_ties_first() {
        // Three ties at key 9; the flush held the oldest two.
        let logical = vec![(0u64, 9), (16, 9), (32, 9), (48, 5)];
        let flushes = [FlushSpan {
            tag: 7,
            start_lsn: 100,
            key_lo: 5,
            key_hi: 9,
            hi_ties: 2,
        }];
        let mut visits = 0;
        let got = attribute_flushed_records(&logical, &flushes, &mut visits);
        assert_eq!(got, vec![Some(7), Some(7), None, Some(7)]);
    }

    #[test]
    fn undo_preimage_may_be_a_zero_page() {
        let r = LogRecord::FlushUndo {
            flush_id: 1,
            page: 5,
            preimage: vec![0u8; 2048],
        };
        let back = LogRecord::decode(&r.encode()).unwrap();
        match back {
            LogRecord::FlushUndo { preimage, .. } => assert_eq!(preimage.len(), 2048),
            _ => panic!("wrong variant"),
        }
    }
}
