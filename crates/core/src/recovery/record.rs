//! The PIO-B-tree-specific transaction log records of Table 2 and their wire
//! format (see the [module docs](super) for what each record is for).

use crate::entry::{OpEntry, OpKind};
use btree::Key;
use storage::PageId;

/// Transaction identifier used in the log records (the reproduction runs every index
/// operation as its own committed transaction, but the format carries the id so a
/// transaction manager could be layered on top).
pub type TxId = u64;

/// The bracket id of a **local** batch: one the shard commits alone, with no
/// engine epoch behind it (the engine's epoch counter starts at 1 and never
/// hands this id out, so no commit record ever names it). A local bracket commits iff its
/// [`LogRecord::BatchEnd`] is durable — recovery decides it from the shard's
/// own log, without asking anyone.
pub const LOCAL_EPOCH: u64 = 0;

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
    /// cross-shard epoch `epoch`. The engine's recovery replays those records
    /// iff the epoch's [`LogRecord::EpochCommit`] (or
    /// [`LogRecord::MigrateCommit`]) survives in some shard's log, and discards
    /// them otherwise (all-or-nothing across shards).
    /// With [`LOCAL_EPOCH`] the bracket is local to this shard and its close
    /// decides it.
    BatchBegin {
        /// The engine-level epoch identifier, or [`LOCAL_EPOCH`].
        epoch: u64,
    },
    /// Closes the batch bracket opened by the matching [`LogRecord::BatchBegin`].
    /// For a local bracket this is the **commit**: once it is durable, the
    /// bracket's records are replayed like any unbracketed record.
    BatchEnd {
        /// The engine-level epoch identifier, or [`LOCAL_EPOCH`].
        epoch: u64,
    },
    /// Closes the open *local* bracket as **aborted**: its records are never
    /// replayed. Written by `apply` when the batch failed mid-way and by
    /// recovery for a bracket the crash left open — durably, so the next
    /// recovery reaches the same verdict and later records stay outside it.
    BatchAbort,
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
    /// The commit record of a cross-shard epoch, forced by the epoch's
    /// *coordinator* — its lowest member shard — once every member's bracket
    /// is durable. Presumed abort: the engine's recovery keeps an epoch's
    /// brackets on every shard iff this record survives in some shard's log,
    /// and needs no record at all to discard one. A tree's own replay skips it.
    EpochCommit {
        /// The engine-level epoch identifier.
        epoch: u64,
    },
    /// The commit record of a boundary migration, forced by its source shard
    /// once both shards' brackets are durable: from here on keys in
    /// `[lo, hi)` belong to shard `dst`. This record *is* the boundary swap —
    /// recovery re-applies it, and keeps the migration's copies and retires,
    /// iff it survives. A tree's own replay skips it.
    MigrateCommit {
        /// The engine-level epoch identifier.
        epoch: u64,
        /// The shard the range left (the coordinator).
        src: u32,
        /// The adjacent shard the range moved to.
        dst: u32,
        /// Inclusive low end of the moved range.
        lo: Key,
        /// Exclusive high end of the moved range.
        hi: Key,
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
            LogRecord::BatchAbort => out.push(12),
            LogRecord::EpochCommit { epoch } => {
                out.push(13);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            LogRecord::MigrateCommit {
                epoch,
                src,
                dst,
                lo,
                hi,
            } => {
                out.push(14);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&dst.to_le_bytes());
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
        }
    }

    /// Parses a payload produced by [`LogRecord::encode`]. Returns `None` for corrupt
    /// or unknown payloads.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let u64_at =
            |off: usize| -> Option<u64> { buf.get(off..off + 8).map(|b| u64::from_le_bytes(b.try_into().unwrap())) };
        let u32_at =
            |off: usize| -> Option<u32> { buf.get(off..off + 4).map(|b| u32::from_le_bytes(b.try_into().unwrap())) };
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
            12 => Some(LogRecord::BatchAbort),
            13 => Some(LogRecord::EpochCommit { epoch: u64_at(1)? }),
            14 => Some(LogRecord::MigrateCommit {
                epoch: u64_at(1)?,
                src: u32_at(9)?,
                dst: u32_at(13)?,
                lo: u64_at(17)?,
                hi: u64_at(25)?,
            }),
            _ => None,
        }
    }
}
