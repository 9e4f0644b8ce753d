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

use crate::entry::{OpEntry, OpKind};
use btree::Key;
use storage::PageId;

/// Transaction identifier used in the log records (the reproduction runs every index
/// operation as its own committed transaction, but the format carries the id so a
/// transaction manager could be layered on top).
pub type TxId = u64;

/// The PIO-B-tree-specific transaction log records of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// Logical redo log: one per OPQ append.
    LogicalRedo {
        /// Transaction that issued the operation.
        tx: TxId,
        /// The queued index operation.
        entry: OpEntry,
    },
    /// Flush event log written immediately before an OPQ flush begins.
    FlushStart {
        /// Monotonically increasing flush identifier.
        flush_id: u64,
        /// Smallest key in the flushed batch.
        key_lo: Key,
        /// Largest key in the flushed batch (inclusive).
        key_hi: Key,
        /// Number of batch entries whose key equals `key_hi`. `take_batch` removes
        /// the smallest-key prefix of the sorted OPQ, so the only entries the key
        /// range alone cannot classify are ties at `key_hi`: the batch holds the
        /// *oldest* `hi_ties` of them and any younger ties stay queued. Recovery
        /// uses this count to avoid skipping an unflushed tie (which would lose
        /// it) — see `PioBTree::recover_with`.
        hi_ties: u32,
    },
    /// Flush event log written after an OPQ flush completed (all node writes durable).
    FlushEnd {
        /// Identifier matching the corresponding [`LogRecord::FlushStart`].
        flush_id: u64,
    },
    /// Flush event log written after a *failed* flush was rolled back **in
    /// process** (its preimages were written back to the device). Recovery must
    /// not undo an aborted flush — its pages were already restored, and a later
    /// retry flush may have legitimately rewritten them — but unlike
    /// [`LogRecord::FlushEnd`], an aborted flush covers no logical records: its
    /// batch went back to the OPQ, so those records must still be redone.
    FlushAbort {
        /// Identifier matching the corresponding [`LogRecord::FlushStart`].
        flush_id: u64,
    },
    /// Flush undo log of a page a flush **rewrote** (a full-path leaf region
    /// page, an internal node): the page's pre-image.
    FlushUndo {
        /// Identifier of the flush this undo information belongs to.
        flush_id: u64,
        /// The page that was overwritten.
        page: PageId,
        /// The page's contents before the flush (all zeroes for a freshly allocated
        /// page).
        preimage: Vec<u8>,
    },
    /// Checkpoint marker: everything before this point is durable and the OPQ was
    /// empty when it was written.
    Checkpoint,
    /// Opens an engine-assigned batch bracket: every [`LogRecord::LogicalRedo`]
    /// between this record and the matching [`LogRecord::BatchEnd`] belongs to
    /// cross-shard epoch `epoch`. The engine's recovery decides per epoch whether
    /// those records are replayed or discarded (all-or-nothing across shards).
    BatchBegin {
        /// The engine-level epoch identifier.
        epoch: u64,
    },
    /// Closes the batch bracket opened by the matching [`LogRecord::BatchBegin`].
    BatchEnd {
        /// The engine-level epoch identifier.
        epoch: u64,
    },
    /// Root-change log: written (and forced) immediately **before** a flush grows
    /// the tree by installing a new root. It carries both directions of the move:
    /// the previous root/height let recovery *rewind* the growth when it undoes
    /// the flush (without it, an undone flush would leave the tree pointing at a
    /// root whose subtrees duplicate the restored pages), and the new root/height
    /// let a **reopened** tree *roll forward* — a restart begins from its
    /// persisted manifest snapshot, which may predate completed flushes, and
    /// replaying the surviving root moves in log order lands it on the current
    /// root.
    FlushRoot {
        /// Identifier of the flush that grew the root.
        flush_id: u64,
        /// Root page before the growth.
        prev_root: PageId,
        /// Tree height before the growth.
        prev_height: u64,
        /// Root page installed by the growth.
        new_root: PageId,
        /// Tree height after the growth.
        new_height: u64,
    },
    /// Allocation log: a run of pages the flush allocated (split siblings, new
    /// internal nodes, the new root). When recovery undoes the flush it returns
    /// these pages to the free list — the crash-time analogue of the in-process
    /// rollback's allocation reclaim — so unwound flushes do not strand store
    /// space.
    FlushAlloc {
        /// Identifier of the flush that allocated the pages.
        flush_id: u64,
        /// First page of the contiguous run.
        first: PageId,
        /// Number of pages in the run.
        pages: u64,
    },
    /// Flush undo log of a leaf segment a flush only **appended** to: the
    /// append never changes the bytes of the records already there, so the old
    /// record count is all it takes to undo it — recovery rebuilds the
    /// pre-image from the page itself ([`crate::leaf::PioLeaf::undo_append`]).
    FlushAppendUndo {
        /// Identifier of the flush this undo information belongs to.
        flush_id: u64,
        /// The segment page that was appended to.
        page: PageId,
        /// Records the segment held before the append.
        old_count: u16,
        /// `true` for a segment the append spilled into: it held nothing
        /// before this flush, and undo resets it to a never-written page.
        fresh: bool,
    },
}

impl LogRecord {
    /// Serialises the record into a byte payload for the WAL.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the record's payload to `out` (the form [`storage::Wal::append_with`]
    /// takes: the record is serialised straight into the log's pending image).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::LogicalRedo { tx, entry } => {
                out.push(1);
                out.extend_from_slice(&tx.to_le_bytes());
                out.extend_from_slice(&entry.key.to_le_bytes());
                out.extend_from_slice(&entry.value.to_le_bytes());
                out.push(entry.op.to_byte());
            }
            LogRecord::FlushStart {
                flush_id,
                key_lo,
                key_hi,
                hi_ties,
            } => {
                out.push(2);
                out.extend_from_slice(&flush_id.to_le_bytes());
                out.extend_from_slice(&key_lo.to_le_bytes());
                out.extend_from_slice(&key_hi.to_le_bytes());
                out.extend_from_slice(&hi_ties.to_le_bytes());
            }
            LogRecord::FlushEnd { flush_id } => {
                out.push(3);
                out.extend_from_slice(&flush_id.to_le_bytes());
            }
            LogRecord::FlushUndo {
                flush_id,
                page,
                preimage,
            } => {
                out.push(4);
                out.extend_from_slice(&flush_id.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&(preimage.len() as u32).to_le_bytes());
                out.extend_from_slice(preimage);
            }
            LogRecord::Checkpoint => out.push(5),
            LogRecord::FlushAbort { flush_id } => {
                out.push(6);
                out.extend_from_slice(&flush_id.to_le_bytes());
            }
            LogRecord::BatchBegin { epoch } => {
                out.push(7);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            LogRecord::BatchEnd { epoch } => {
                out.push(8);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            LogRecord::FlushRoot {
                flush_id,
                prev_root,
                prev_height,
                new_root,
                new_height,
            } => {
                out.push(9);
                out.extend_from_slice(&flush_id.to_le_bytes());
                out.extend_from_slice(&prev_root.to_le_bytes());
                out.extend_from_slice(&prev_height.to_le_bytes());
                out.extend_from_slice(&new_root.to_le_bytes());
                out.extend_from_slice(&new_height.to_le_bytes());
            }
            LogRecord::FlushAlloc { flush_id, first, pages } => {
                out.push(10);
                out.extend_from_slice(&flush_id.to_le_bytes());
                out.extend_from_slice(&first.to_le_bytes());
                out.extend_from_slice(&pages.to_le_bytes());
            }
            LogRecord::FlushAppendUndo {
                flush_id,
                page,
                old_count,
                fresh,
            } => {
                out.push(11);
                out.extend_from_slice(&flush_id.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&old_count.to_le_bytes());
                out.push(u8::from(*fresh));
            }
        }
    }

    /// Parses a payload produced by [`LogRecord::encode`]. Returns `None` for corrupt
    /// or unknown payloads.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let u64_at =
            |off: usize| -> Option<u64> { buf.get(off..off + 8).map(|b| u64::from_le_bytes(b.try_into().unwrap())) };
        match *buf.first()? {
            1 => {
                let tx = u64_at(1)?;
                let key = u64_at(9)?;
                let value = u64_at(17)?;
                let op = OpKind::from_byte(*buf.get(25)?)?;
                Some(LogRecord::LogicalRedo {
                    tx,
                    entry: OpEntry { key, value, op },
                })
            }
            2 => Some(LogRecord::FlushStart {
                flush_id: u64_at(1)?,
                key_lo: u64_at(9)?,
                key_hi: u64_at(17)?,
                hi_ties: u32::from_le_bytes(buf.get(25..29)?.try_into().unwrap()),
            }),
            3 => Some(LogRecord::FlushEnd { flush_id: u64_at(1)? }),
            4 => {
                let flush_id = u64_at(1)?;
                let page = u64_at(9)?;
                let len = u32::from_le_bytes(buf.get(17..21)?.try_into().unwrap()) as usize;
                let preimage = buf.get(21..21 + len)?.to_vec();
                Some(LogRecord::FlushUndo {
                    flush_id,
                    page,
                    preimage,
                })
            }
            5 => Some(LogRecord::Checkpoint),
            6 => Some(LogRecord::FlushAbort { flush_id: u64_at(1)? }),
            7 => Some(LogRecord::BatchBegin { epoch: u64_at(1)? }),
            8 => Some(LogRecord::BatchEnd { epoch: u64_at(1)? }),
            9 => Some(LogRecord::FlushRoot {
                flush_id: u64_at(1)?,
                prev_root: u64_at(9)?,
                prev_height: u64_at(17)?,
                new_root: u64_at(25)?,
                new_height: u64_at(33)?,
            }),
            10 => Some(LogRecord::FlushAlloc {
                flush_id: u64_at(1)?,
                first: u64_at(9)?,
                pages: u64_at(17)?,
            }),
            11 => Some(LogRecord::FlushAppendUndo {
                flush_id: u64_at(1)?,
                page: u64_at(9)?,
                old_count: u16::from_le_bytes(buf.get(17..19)?.try_into().unwrap()),
                fresh: match *buf.get(19)? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            }),
            _ => None,
        }
    }
}

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
    /// the engine's recovery (all-or-nothing batch atomicity).
    pub discarded: usize,
    /// *Completed* flushes that were nevertheless undone because they had flushed
    /// entries of a discarded epoch into the tree (the surviving entries they
    /// covered are re-queued instead).
    pub unwound_flushes: usize,
    /// `true` when the log ended in a torn or corrupt record: replay stopped
    /// cleanly at the last intact record instead of skipping garbage mid-log.
    pub torn_tail: bool,
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
