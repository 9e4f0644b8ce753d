//! A minimal append-only write-ahead log.
//!
//! Section 3.4 of the paper makes the PIO B-tree recoverable by writing **logical
//! redo logs** for every OPQ append, **flush event logs** bracketing every OPQ flush
//! and **flush undo logs** for every node updated by a flush. This module provides
//! the log device those records are written to: an append-only sequence of
//! header-prefixed records identified by their [`Lsn`] (the byte offset of the
//! record), buffered in memory and forced to the device by [`Wal::force`] — the
//! "write ahead" step that must complete before an OPQ flush may proceed.
//!
//! A force writes the **force units** its records touch: the device's flash
//! pages (Section 2 of the paper), or the index page where that is smaller. A
//! commit of a few hundred bytes thus rewrites one flash page, not a whole
//! index page, and a force of any size is one sequential request that ends in
//! a zero header, where the next scan stops. The unit governs only what a
//! force writes: the header slots, the LSN→byte mapping, the recovery reads
//! and compaction all stay in index pages, so a log forced at one unit is read
//! by a handle with any other.
//!
//! Every record carries a length **and a checksum of its payload**, so a force that
//! is torn by a crash (only a prefix of its bytes reached the device) is detected
//! at read time: scanning stops at the first record whose bytes are incomplete or
//! whose checksum does not match, and the scan reports the tail as torn instead of
//! silently yielding garbage. After a crash, [`Wal::recover_scan`] re-derives the
//! durable LSN from the device itself, recovering any records that a torn force
//! *did* complete — a real restart has no in-memory `durable_lsn` to trust.
//! [`Wal::scan`] is the same forward read without that adoption, bounded at the
//! in-memory durable LSN: one reader of the log's records, two stopping points.
//!
//! The log occupies its own region of a [`pio::IoQueue`] backend (its own file in
//! the paper's terms), so log writes are sequential and never interleave with index
//! node I/O inside a single psync call. Nor do reads interleave with them: a record
//! is serialised once, at [`Wal::append_with`], straight into the pending byte image
//! a force lays over its units, and the durable head of the partial unit a force
//! must rewrite is kept in memory — in steady state [`Wal::force`] is one sequential
//! write and **zero device reads** (see its contract for the events after which the
//! first force reads the unit head back once).
//!
//! ## Truncation and the log lifecycle
//!
//! Without truncation the log grows for the lifetime of the store and restart
//! cost grows with it. [`Wal::truncate_to`] drops every record below a
//! checkpoint-anchored floor: the floor (and the mapping from LSNs to region
//! bytes after a physical compaction) is persisted in **two alternating header
//! slot pages** at the region start, each versioned and checksummed. A
//! truncation writes the slot the previous one did *not* use, so a crash that
//! tears the write leaves the other slot valid — recovery always lands on
//! either the old head or the new head, never a torn hybrid. The first two
//! pages of the region are reserved for these slots; record data begins at the
//! third page, and LSNs remain stable logical offsets for the log's whole
//! lifetime (truncation never renumbers surviving records).
//!
//! [`Wal::recover_scan`] reads the newest valid slot first and seeks straight
//! to the floor instead of scanning from byte 0 — the bounded-recovery seek:
//! replay work is proportional to the records written since the last
//! checkpoint, never to the store's age.

use parking_lot::Mutex;
use pio::{IoQueue, IoResult};
use std::sync::Arc;

/// Log sequence number: the byte offset of a record within the log.
pub type Lsn = u64;

/// A record read back from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's LSN.
    pub lsn: Lsn,
    /// The record payload.
    pub payload: Vec<u8>,
}

/// The records of a log scan plus what the scan found at the end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every intact record, in LSN order.
    pub records: Vec<WalRecord>,
    /// The durable LSN after the scan: re-derived from the device by
    /// [`Wal::recover_scan`], the in-memory one [`Wal::scan`] stopped at.
    pub durable_lsn: Lsn,
    /// Bytes of records beyond the in-memory durable LSN that a torn force had
    /// completed and [`Wal::recover_scan`] salvaged (always 0 for
    /// [`Wal::scan`]).
    pub salvaged_bytes: u64,
    /// `true` when the scan stopped at a torn or corrupt record (a crash
    /// interrupted the force that was writing it) rather than at clean,
    /// never-written space.
    pub torn_tail: bool,
}

#[derive(Debug, Default)]
struct WalInner {
    /// The records appended but not yet forced, already in their on-disk form
    /// (header + checksum + payload, back to back): the byte image of LSNs
    /// `[next_lsn − pending.len(), next_lsn)`.
    pending: Vec<u8>,
    /// An emptied buffer for `pending` to continue in once a force takes the
    /// image: the buffer of the image forced before, so appends do not regrow
    /// one from nothing after every force.
    spare: Vec<u8>,
    /// The durable bytes of the log's last, partial force unit — `(end, bytes)`
    /// with `bytes` the image of LSNs `[unit base of end, end)` — kept so that
    /// the next force, which rewrites that unit, need not read it back. `None`
    /// means unknown: the force falls back to one device read.
    tail: Option<(Lsn, Vec<u8>)>,
    /// Next LSN to hand out.
    next_lsn: Lsn,
    /// LSN up to which everything is durable.
    durable_lsn: Lsn,
    /// Truncation floor: every record below this LSN has been dropped.
    trunc_lsn: Lsn,
    /// Page-aligned LSN mapped to the first data page of the region. Physical
    /// compaction advances it so the surviving tail slides back to the region
    /// start; LSNs themselves never change.
    phys_start: u64,
    /// Lifetime bytes of records dropped by truncation (persisted in the
    /// truncation header, so it survives restarts).
    truncated: u64,
    /// Version of the newest durable truncation-header slot (0 = none yet).
    header_version: u64,
}

/// An append-only, force-on-demand log over a psync I/O backend.
pub struct Wal {
    io: Arc<dyn IoQueue>,
    /// Byte offset of the start of the log region on the backend.
    base_offset: u64,
    page_size: usize,
    /// The bytes a force rounds its write out to: a divisor of `page_size`.
    force_unit: usize,
    inner: Mutex<WalInner>,
    /// Serialises concurrent [`Wal::force`] calls end to end: two in-flight
    /// forces would both rebuild the unit containing their shared boundary
    /// record — each zero-filling the part the other owns — so whichever write
    /// lands second would erase the other's records.
    force_lock: Mutex<()>,
}

/// Record header: 4-byte little-endian payload length + 4-byte payload checksum.
const HEADER: usize = 8;

/// The largest buffer a force keeps for reuse (as the next pending image or
/// the tail page): a flush's pre-image force must not pin megabytes.
const KEEP_BYTES: usize = 64 << 10;

/// `buf`, emptied, if it is small enough to keep ([`KEEP_BYTES`]).
fn kept(mut buf: Vec<u8>) -> Vec<u8> {
    if buf.capacity() > KEEP_BYTES {
        return Vec::new();
    }
    buf.clear();
    buf
}

/// The log's checksum, over record payloads and header slots: byte-wise
/// FNV-1a-32. It is written to the device and read back after a restart, so it
/// is part of the **on-disk format** — a faster function here would make every
/// existing log read as torn. (The page sidecar's checksum in
/// [`crate::integrity`] is process-volatile and deliberately a different one.)
fn checksum(data: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in data {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Pages reserved at the region start for the two truncation-header slots.
const HEADER_PAGES: u64 = 2;

/// Magic prefix of a truncation-header slot.
const HEADER_MAGIC: &[u8; 8] = b"PIOWALT1";

/// Encoded bytes of one truncation-header slot: magic + version + trunc_lsn +
/// phys_start + truncated total + checksum of everything before it.
const SLOT_LEN: usize = 8 + 8 + 8 + 8 + 8 + 4;

/// The durable truncation state of a log, as stored in a header slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct TruncHeader {
    version: u64,
    trunc_lsn: Lsn,
    phys_start: u64,
    truncated: u64,
}

fn encode_slot(h: &TruncHeader) -> [u8; SLOT_LEN] {
    let mut out = [0u8; SLOT_LEN];
    out[..8].copy_from_slice(HEADER_MAGIC);
    out[8..16].copy_from_slice(&h.version.to_le_bytes());
    out[16..24].copy_from_slice(&h.trunc_lsn.to_le_bytes());
    out[24..32].copy_from_slice(&h.phys_start.to_le_bytes());
    out[32..40].copy_from_slice(&h.truncated.to_le_bytes());
    let sum = checksum(&out[..SLOT_LEN - 4]);
    out[SLOT_LEN - 4..].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes a header slot; `None` for never-written space and torn writes alike
/// (both fail the magic or checksum test).
fn decode_slot(raw: &[u8]) -> Option<TruncHeader> {
    if raw.len() < SLOT_LEN || &raw[..8] != HEADER_MAGIC {
        return None;
    }
    let stored = u32::from_le_bytes(raw[SLOT_LEN - 4..SLOT_LEN].try_into().expect("4 bytes"));
    if checksum(&raw[..SLOT_LEN - 4]) != stored {
        return None;
    }
    Some(TruncHeader {
        version: u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes")),
        trunc_lsn: u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes")),
        phys_start: u64::from_le_bytes(raw[24..32].try_into().expect("8 bytes")),
        truncated: u64::from_le_bytes(raw[32..40].try_into().expect("8 bytes")),
    })
}

/// Upper bound on a record payload (enforced at append): a declared length
/// beyond this is garbage from a torn header, not a record, so scans stop
/// instead of chasing it across the device.
const MAX_RECORD: usize = 1 << 20;

/// Parses the records contained in `raw` (whose first byte is LSN `base_lsn`).
/// Stops at the first zero length (clean, never-written space) or at a record
/// whose bytes are incomplete or whose checksum mismatches (torn tail, the
/// `true` returned beside the records).
fn parse_records(raw: &[u8], base_lsn: Lsn) -> (Vec<WalRecord>, bool) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn_tail = false;
    while pos + HEADER <= raw.len() {
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len == 0 {
            break;
        }
        if len > MAX_RECORD {
            // No legal record is this large (append enforces MAX_RECORD): the
            // length field itself is torn garbage.
            torn_tail = true;
            break;
        }
        let stored_sum = u32::from_le_bytes(raw[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if pos + HEADER + len > raw.len() {
            torn_tail = true;
            break;
        }
        let payload = &raw[pos + HEADER..pos + HEADER + len];
        if checksum(payload) != stored_sum {
            torn_tail = true;
            break;
        }
        records.push(WalRecord {
            lsn: base_lsn + pos as u64,
            payload: payload.to_vec(),
        });
        pos += HEADER + len;
    }
    (records, torn_tail)
}

impl Wal {
    /// Creates a log whose records are written starting at `base_offset` on `io`,
    /// laid out in pages of `page_size` bytes and forced in whole pages.
    pub fn new(io: Arc<dyn IoQueue>, base_offset: u64, page_size: usize) -> Self {
        Self::with_flash_page(io, base_offset, page_size, page_size as u64)
    }

    /// [`Wal::new`] for a log on a device that programs `flash_page_bytes` at
    /// a time: a force writes the smaller of the flash page and `page_size`.
    /// Both must be powers of two (as every page size and flash page is).
    pub fn with_flash_page(io: Arc<dyn IoQueue>, base_offset: u64, page_size: usize, flash_page_bytes: u64) -> Self {
        // No wider than the page, so the cast is lossless.
        let force_unit = flash_page_bytes.min(page_size as u64) as usize;
        assert!(
            force_unit > 0 && page_size.is_multiple_of(force_unit),
            "the force unit ({force_unit} B) must divide the page ({page_size} B)"
        );
        Self {
            io,
            base_offset,
            page_size,
            force_unit,
            inner: Mutex::new(WalInner::default()),
            force_lock: Mutex::new(()),
        }
    }

    /// The backend the log appends to — read-only access for observability
    /// (e.g. engine stats folding the log queue's retry counters into its
    /// per-shard rollup).
    pub fn io(&self) -> &Arc<dyn IoQueue> {
        &self.io
    }

    /// Physical byte offset where record data begins (past the header slots).
    fn data_base(&self) -> u64 {
        self.base_offset + HEADER_PAGES * self.page_size as u64
    }

    /// Physical offset of the byte at LSN `lsn` under the mapping `phys_start`.
    fn phys(&self, lsn: u64, phys_start: u64) -> u64 {
        debug_assert!(lsn >= phys_start, "LSN {lsn} below the mapped region ({phys_start})");
        self.data_base() + (lsn - phys_start)
    }

    /// Appends a record and returns its LSN. The record is **not** durable until
    /// [`Wal::force`] returns. Empty payloads are rejected (a zero length is how
    /// the scanner recognises never-written space), as are payloads beyond the
    /// scanner's sanity bound.
    pub fn append(&self, payload: &[u8]) -> Lsn {
        self.append_with(|buf| buf.extend_from_slice(payload))
    }

    /// [`Wal::append`] for a payload that is serialised in place: `encode`
    /// appends the payload's bytes (and nothing else) to the buffer it is
    /// handed, which is the log's pending image itself — the record is
    /// serialised exactly once.
    pub fn append_with(&self, encode: impl FnOnce(&mut Vec<u8>)) -> Lsn {
        let mut inner = self.inner.lock();
        let start = inner.pending.len();
        inner.pending.extend_from_slice(&[0; HEADER]);
        encode(&mut inner.pending);
        let len = inner.pending.len() - start - HEADER;
        if len == 0 || len > MAX_RECORD {
            inner.pending.truncate(start); // leave the image whole for other users
        }
        assert!(len != 0, "WAL records must be non-empty");
        assert!(len <= MAX_RECORD, "WAL records are bounded at {MAX_RECORD} bytes");
        let sum = checksum(&inner.pending[start + HEADER..]);
        inner.pending[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        inner.pending[start + 4..start + HEADER].copy_from_slice(&sum.to_le_bytes());
        let lsn = inner.next_lsn;
        inner.next_lsn += (HEADER + len) as u64;
        lsn
    }

    /// The LSN that the *next* append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.inner.lock().next_lsn
    }

    /// The LSN up to which the log is durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.inner.lock().durable_lsn
    }

    /// Number of appended-but-not-forced records (counted by walking the
    /// pending image: an inspection hook, not a hot path).
    pub fn pending_records(&self) -> usize {
        parse_records(&self.inner.lock().pending, 0).0.len()
    }

    /// Forces every pending record to the device (WAL rule: callers must invoke this
    /// before the action the records describe is applied to the index). Concurrent
    /// forces are serialised; records appended while a force is in flight are
    /// picked up by the next one.
    ///
    /// A force writes the whole force units its records touch — flash pages,
    /// or index pages where those are smaller — as **one** sequential write
    /// request, zero-filled so that at least a whole zero header follows its
    /// last record (a scan stops there, never in bytes an older write or an
    /// old mapping left behind; that takes one more unit when the records end
    /// within a header of a unit's end). It rewrites the durable head of the
    /// unit its first record starts in. Those bytes come from memory — every
    /// successful force keeps the image of the partial unit it ended in — so
    /// in steady state a force issues **no device read**, only its one write.
    /// The cached tail is dropped by everything that moves the durable
    /// frontier or the LSN→byte mapping behind the cache's back
    /// ([`Wal::simulate_crash`], [`Wal::recover_scan`], a
    /// [`Wal::truncate_to`] that drops records) and by a failed force; the
    /// first force after one of those reads the unit head back once.
    ///
    /// On **any** error the records stay pending, ahead of whatever was
    /// appended meanwhile (which holds later LSNs): a failed force must not
    /// leave a hole in the LSN sequence that would truncate every later record
    /// at read time. A retried force rewrites the same units in full, healing
    /// whatever prefix of this attempt reached the device.
    pub fn force(&self) -> IoResult<()> {
        let _serialised = self.force_lock.lock();
        // The mapping is stable for the whole force: truncation also holds the
        // force lock, so `phys_start` cannot move under the write below.
        let (image, first_lsn, phys_start, head) = {
            let mut inner = self.inner.lock();
            if inner.pending.is_empty() {
                return Ok(());
            }
            let first_lsn = inner.next_lsn - inner.pending.len() as u64;
            // The cached tail is the unit head only if it ends where this
            // image starts (after a salvaging rescan it would not).
            let head = inner
                .tail
                .take()
                .and_then(|(end, bytes)| (end == first_lsn).then_some(bytes));
            let spare = std::mem::take(&mut inner.spare);
            let image = std::mem::replace(&mut inner.pending, spare);
            (image, first_lsn, inner.phys_start, head)
        };
        let end_byte = first_lsn + image.len() as u64;
        match self.write_units_covering(first_lsn, &image, phys_start, head) {
            Ok(tail) => {
                let mut inner = self.inner.lock();
                inner.durable_lsn = inner.durable_lsn.max(end_byte);
                inner.tail = Some((end_byte, tail));
                inner.spare = kept(image);
                Ok(())
            }
            Err(e) => {
                let mut inner = self.inner.lock();
                let appended_meanwhile = std::mem::replace(&mut inner.pending, image);
                inner.pending.extend_from_slice(&appended_meanwhile);
                inner.spare = kept(appended_meanwhile);
                Err(e)
            }
        }
    }

    /// Writes the whole force units covering LSNs `[first_lsn, first_lsn +
    /// image.len())` and a zero header after them as one sequential write
    /// request, and returns the image of the partial unit the write ended in
    /// (the next force's `tail`). The head of the first unit — bytes a
    /// previous force made durable — is `cached_head` when the caller still
    /// holds it, else read from the device. The units are laid out in the
    /// head's buffer, and the partial unit is returned in the same buffer, so
    /// steady forces reuse one.
    fn write_units_covering(
        &self,
        first_lsn: Lsn,
        image: &[u8],
        phys_start: u64,
        cached_head: Option<Vec<u8>>,
    ) -> IoResult<Vec<u8>> {
        let unit = self.force_unit;
        let unit_base = first_lsn - first_lsn % unit as u64;
        let head = (first_lsn - unit_base) as usize;
        let mut region = match cached_head {
            // Empty when the image starts a unit.
            Some(bytes) => bytes,
            None if head == 0 => Vec::new(),
            None => self.io.read_at(self.phys(unit_base, phys_start), head)?.to_vec(),
        };
        debug_assert_eq!(region.len(), head, "the unit head ends where the image starts");
        region.extend_from_slice(image);
        let filled = region.len();
        let partial = filled % unit;
        // Zero-filled to a unit's end, at least a whole header past the
        // records — the scan's stop. Past the write lie whatever bytes the
        // device holds there: after a compaction, intact records of the old
        // mapping.
        region.resize((filled + HEADER).next_multiple_of(unit), 0);
        self.io.write_at(self.phys(unit_base, phys_start), &region)?;
        region.copy_within(filled - partial..filled, 0);
        region.truncate(partial);
        Ok(if region.capacity() > KEEP_BYTES {
            region.to_vec()
        } else {
            region
        })
    }

    /// Reads every record between the truncation floor and the in-memory
    /// durable LSN back from the device, and reports whether the log is torn
    /// before that LSN. The same forward read as [`Wal::recover_scan`], but it
    /// adopts nothing — no header, no salvaged bytes: it observes the log as
    /// this handle already believes it to be.
    pub fn scan(&self) -> IoResult<WalScan> {
        // The force lock keeps the LSN→byte mapping stable: a concurrent
        // truncation could otherwise compact pages out from under the reads.
        let _serialised = self.force_lock.lock();
        let (durable, trunc, phys_start) = {
            let inner = self.inner.lock();
            (inner.durable_lsn, inner.trunc_lsn, inner.phys_start)
        };
        let (records, _, torn_tail) = self.read_forward(trunc, phys_start, Some(durable))?;
        Ok(WalScan {
            records,
            durable_lsn: durable,
            salvaged_bytes: 0,
            torn_tail,
        })
    }

    /// Re-derives the durable LSN from the device and returns every intact
    /// record in one pass: the log is read forward from its truncation floor,
    /// and durability is extended over every intact record found — records that a
    /// force torn by a crash *did* complete are salvaged; the first incomplete
    /// or corrupt record ends the scan (reported as a torn tail, including when
    /// the device's edge cuts a record short). Recovery uses this instead of
    /// [`Wal::scan`], because after a crash the in-memory durable LSN
    /// understates (crash mid-force) what actually reached the device.
    pub fn recover_scan(&self) -> IoResult<WalScan> {
        let _serialised = self.force_lock.lock();
        let known = self.durable_lsn();
        // The bounded-recovery seek: adopt the newest durable truncation header
        // (a restarted handle has none in memory) and start the forward scan at
        // the floor it records instead of at byte 0 — replay work is then
        // proportional to the records written since the last truncation, not to
        // the log's lifetime.
        if let Some(h) = self.load_header()? {
            let mut inner = self.inner.lock();
            if h.version > inner.header_version {
                inner.header_version = h.version;
                inner.trunc_lsn = h.trunc_lsn;
                inner.phys_start = h.phys_start;
                inner.truncated = h.truncated;
            }
        }
        let (trunc, phys_start) = {
            let inner = self.inner.lock();
            (inner.trunc_lsn, inner.phys_start)
        };
        let (records, end, torn_tail) = self.read_forward(trunc, phys_start, None)?;
        {
            let mut inner = self.inner.lock();
            inner.durable_lsn = end;
            inner.next_lsn = inner.next_lsn.max(end);
            inner.tail = None;
        }
        Ok(WalScan {
            records,
            durable_lsn: end,
            salvaged_bytes: end.saturating_sub(known),
            torn_tail,
        })
    }

    /// The log's one reader of its records: reads forward from the floor
    /// `trunc` (under the mapping `phys_start`) one page-aligned chunk at a
    /// time, and returns the intact records, the LSN just past the last of
    /// them and whether a torn record ended the read. It stops at clean,
    /// never-written space, at a torn record, at the device's edge — or at
    /// `bound`, which it treats exactly like the edge.
    fn read_forward(&self, trunc: Lsn, phys_start: u64, bound: Option<Lsn>) -> IoResult<(Vec<WalRecord>, Lsn, bool)> {
        // Only an out-of-range read means the device's edge; any other read
        // error (a transient I/O failure on a real device) must abort recovery
        // rather than silently truncate the log there.
        fn is_edge(e: &pio::IoError) -> bool {
            matches!(e, pio::IoError::OutOfBounds { .. })
        }
        if bound.is_some_and(|b| b <= trunc) {
            return Ok((Vec::new(), trunc, false));
        }
        let ps = self.page_size as u64;
        let window_base = (trunc / ps) * ps;
        // Read forward one page-aligned chunk at a time until the scan stops
        // making progress (clean end, torn record, or the device's edge). The
        // parse is incremental — each iteration parses only the bytes beyond
        // the last complete record — so the whole scan is O(replayable bytes).
        const CHUNK_PAGES: u64 = 16;
        let chunk_len = (CHUNK_PAGES * self.page_size as u64) as usize;
        let mut window: Vec<u8> = Vec::new();
        let mut records: Vec<WalRecord> = Vec::new();
        // Window offset of the first not-yet-consumed record (LSN −
        // `window_base`; the floor itself may sit mid-page).
        let mut parse_from: usize = (trunc - window_base) as usize;
        let mut torn_tail = false;
        loop {
            let read_off = self.phys(window_base + window.len() as u64, phys_start);
            let before = window.len();
            let mut edge = false;
            match self.io.read_at(read_off, chunk_len) {
                Ok(chunk) => window.extend_from_slice(&chunk),
                Err(e) if is_edge(&e) => {
                    // The chunk overshoots the device's edge: take the pages
                    // that still fit, then finish with what the window holds.
                    while window.len() - before < chunk_len {
                        let off = self.phys(window_base + window.len() as u64, phys_start);
                        match self.io.read_at(off, self.page_size) {
                            Ok(page) => window.extend_from_slice(&page),
                            Err(e) if is_edge(&e) => break,
                            Err(e) => return Err(e),
                        }
                    }
                    edge = true;
                }
                Err(e) => return Err(e),
            }
            if let Some(end) = bound.map(|b| (b - window_base) as usize) {
                if window.len() >= end {
                    window.truncate(end);
                    edge = true;
                }
            }
            if window.len() <= parse_from {
                // The window has not reached the floor yet (the floor sits
                // mid-page and the device's edge — or a short chunk — cut the
                // window before it).
                if edge {
                    break;
                }
                continue;
            }
            let (parsed, torn) = parse_records(&window[parse_from..], window_base + parse_from as u64);
            if let Some(last) = parsed.last() {
                parse_from = (last.lsn - window_base) as usize + HEADER + last.payload.len();
            }
            records.extend(parsed);
            if edge {
                // A record still pending at the edge can never complete.
                torn_tail = torn || (parse_from < window.len() && window[parse_from..].iter().any(|&b| b != 0));
                break;
            }
            if torn {
                // A record is incomplete; a longer window cannot complete it
                // unless it simply spans the chunk boundary — detectable because
                // the declared (sane) length reaches past the window.
                let tail = &window[parse_from..];
                let spans_boundary = tail.len() >= HEADER && {
                    let len = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as usize;
                    len != 0 && len <= MAX_RECORD && parse_from + HEADER + len > window.len()
                };
                if !spans_boundary {
                    torn_tail = true;
                    break;
                }
                continue; // not decided yet: fetch more pages
            }
            if parse_from + HEADER <= window.len() {
                // The scan stopped before the window's end at a zero length:
                // clean, never-written space follows the last record.
                break;
            }
            // The window ended exactly at a record boundary; the next chunk may
            // hold more records.
        }
        Ok((records, window_base + parse_from as u64, torn_tail))
    }

    /// Reads both truncation-header slots and returns the newest valid one, if
    /// any. Never-written slots, torn slot writes and slots past the device's
    /// edge all read as absent.
    fn load_header(&self) -> IoResult<Option<TruncHeader>> {
        let mut best: Option<TruncHeader> = None;
        for slot in 0..HEADER_PAGES {
            let off = self.base_offset + slot * self.page_size as u64;
            let raw = match self.io.read_at(off, SLOT_LEN) {
                Ok(raw) => raw,
                Err(pio::IoError::OutOfBounds { .. }) => continue,
                Err(e) => return Err(e),
            };
            if let Some(h) = decode_slot(&raw) {
                if best.is_none_or(|b| h.version > b.version) {
                    best = Some(h);
                }
            }
        }
        Ok(best)
    }

    /// Durably writes `h` into its slot page. The slot index is the version's
    /// parity, so consecutive truncations alternate slots: a crash that tears
    /// this write leaves the *other* slot's older-but-valid header intact, and
    /// recovery lands on either the old head or the new head — never a torn
    /// hybrid.
    fn write_header(&self, h: &TruncHeader) -> IoResult<()> {
        let mut page = vec![0u8; self.page_size];
        page[..SLOT_LEN].copy_from_slice(&encode_slot(h));
        let off = self.base_offset + (h.version % HEADER_PAGES) * self.page_size as u64;
        self.io.write_at(off, &page)
    }

    /// Drops every record below `lsn` from the log and returns the number of
    /// logical bytes dropped. `lsn` must be a record boundary (an LSN returned
    /// by [`Wal::append`], or [`Wal::durable_lsn`]); it is clamped to the
    /// durable LSN, and a floor at or below the current one is a no-op.
    ///
    /// Truncation is logical first: the floor is persisted in a header slot and
    /// scans simply start at it. When the dead prefix has grown large enough to
    /// hold the surviving tail, the truncation also **compacts** the region
    /// physically — the survivors' pages are copied down to the region start
    /// (into space that holds only dead records, so a crash at any point leaves
    /// the old head recoverable), a zero page is written after them so scans
    /// stop deterministically instead of walking into stale bytes, and only
    /// then is the header flipped. Compaction therefore alternates with
    /// logical-only rounds (a fresh compaction leaves no dead prefix), bounding
    /// physical usage at roughly twice the bytes written per truncation round.
    /// After a compaction the backend is told the space past the survivors is
    /// dead ([`pio::IoQueue::reclaim_to`]), which real-file backends turn
    /// into a filesystem-level shrink.
    ///
    /// Crash safety: the header write is the *only* commit point. Everything
    /// before it writes into dead space; a torn header write leaves the other
    /// slot valid (see `Wal::write_header`).
    pub fn truncate_to(&self, lsn: Lsn) -> IoResult<u64> {
        // The force lock keeps the LSN→byte mapping stable under concurrent
        // forces (same order as `force`: force lock, then inner).
        let _serialised = self.force_lock.lock();
        let (durable, old) = {
            let inner = self.inner.lock();
            (
                inner.durable_lsn,
                TruncHeader {
                    version: inner.header_version,
                    trunc_lsn: inner.trunc_lsn,
                    phys_start: inner.phys_start,
                    truncated: inner.truncated,
                },
            )
        };
        let target = lsn.min(durable);
        if target <= old.trunc_lsn {
            return Ok(0);
        }
        let ps = self.page_size as u64;
        let new_phys = (target / ps) * ps;
        // Bytes at the region start that hold only dead records under the old
        // mapping — the space a compaction may write into.
        let freed_prefix = (old.trunc_lsn / ps) * ps - old.phys_start;
        // Pages that survive the truncation (the page holding the floor through
        // the page holding the durable tail), rounded up whole.
        let survivors = (durable - new_phys).div_ceil(ps) * ps;
        let compact = new_phys > old.phys_start && survivors + ps <= freed_prefix;
        let phys_start = if compact {
            // Copy the survivors down to the region start. Destination end
            // (survivors + terminator page) ≤ freed prefix ≤ source start, so
            // the copy never overlaps itself and never touches live data.
            let mut copied = 0u64;
            while copied < survivors {
                let page = self
                    .io
                    .read_at(self.phys(new_phys + copied, old.phys_start), self.page_size)?;
                self.io.write_at(self.phys(new_phys + copied, new_phys), &page)?;
                copied += ps;
            }
            // One zero page after the survivors: the scan's deterministic stop,
            // in place of whatever stale record bytes the old mapping left there.
            let zeros = vec![0u8; self.page_size];
            self.io.write_at(self.data_base() + survivors, &zeros)?;
            new_phys
        } else {
            old.phys_start
        };
        let header = TruncHeader {
            version: old.version + 1,
            trunc_lsn: target,
            phys_start,
            truncated: old.truncated + (target - old.trunc_lsn),
        };
        self.write_header(&header)?;
        {
            let mut inner = self.inner.lock();
            inner.trunc_lsn = header.trunc_lsn;
            inner.phys_start = header.phys_start;
            inner.truncated = header.truncated;
            inner.header_version = header.version;
            inner.tail = None;
        }
        if compact {
            // Everything past the survivors and their terminator page is dead;
            // backends with a real file can give it back to the filesystem.
            self.io.reclaim_to(self.data_base() + survivors + ps)?;
        }
        Ok(target - old.trunc_lsn)
    }

    /// The truncation floor: the LSN of the oldest record the log still holds.
    pub fn start_lsn(&self) -> Lsn {
        self.inner.lock().trunc_lsn
    }

    /// Lifetime logical bytes dropped by truncation (survives restarts — it is
    /// persisted in the truncation header).
    pub fn truncated_bytes(&self) -> u64 {
        self.inner.lock().truncated
    }

    /// Durable bytes a recovery would replay: everything between the
    /// truncation floor and the durable LSN.
    pub fn replayable_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.durable_lsn.saturating_sub(inner.trunc_lsn)
    }

    /// Discards the in-memory notion of the log (used by tests that simulate a crash:
    /// pending, un-forced records are lost, as is the cached tail page; durable
    /// records survive on the device).
    pub fn simulate_crash(&self) -> Lsn {
        let mut inner = self.inner.lock();
        inner.pending.clear();
        inner.tail = None;
        inner.next_lsn = inner.durable_lsn;
        inner.durable_lsn
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Wal")
            .field("base_offset", &self.base_offset)
            .field("next_lsn", &inner.next_lsn)
            .field("durable_lsn", &inner.durable_lsn)
            .field("trunc_lsn", &inner.trunc_lsn)
            .field("phys_start", &inner.phys_start)
            .field("truncated", &inner.truncated)
            .field("pending_bytes", &inner.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log's checksum is a format: these are the published FNV-1a-32 test
    /// vectors, which the function produced before the page sidecar got a
    /// faster checksum of its own. If this fails, every existing log reads as
    /// torn — do not "unify" the two.
    #[test]
    fn wal_checksum_is_pinned_to_fnv1a_32() {
        assert_eq!(checksum(b""), 0x811c_9dc5);
        assert_eq!(checksum(b"a"), 0xe40c_292c);
        assert_eq!(checksum(b"foobar"), 0xbf9c_f968);
        assert_eq!(checksum(b"PIO B-tree write-ahead log"), 0xdd00_3925);
    }
    use pio::{CrashPlan, FaultClock, FaultIo, IoQueue, SimPsyncIo, TornWrite};
    use ssd_sim::DeviceProfile;

    fn wal() -> Wal {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 * 1024 * 1024));
        Wal::new(io, 0, 4096)
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let w = wal();
        let a = w.append(b"first");
        let b = w.append(b"second");
        assert!(b > a);
        assert_eq!(w.pending_records(), 2);
        assert_eq!(w.durable_lsn(), 0);
    }

    #[test]
    fn force_then_read_all_round_trips() {
        let w = wal();
        let payloads: Vec<Vec<u8>> = (0..100u32).map(|i| format!("record-{i}").into_bytes()).collect();
        for p in &payloads {
            w.append(p);
        }
        w.force().unwrap();
        let records = w.scan().unwrap().records;
        assert_eq!(records.len(), 100);
        for (rec, expect) in records.iter().zip(&payloads) {
            assert_eq!(&rec.payload, expect);
        }
        // LSNs must be strictly increasing.
        assert!(records.windows(2).all(|w| w[0].lsn < w[1].lsn));
    }

    #[test]
    fn multiple_forces_accumulate() {
        let w = wal();
        w.append(b"aaaa");
        w.force().unwrap();
        w.append(b"bbbb");
        w.append(b"cccc");
        w.force().unwrap();
        let recs = w.scan().unwrap().records;
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].payload, b"aaaa");
        assert_eq!(recs[2].payload, b"cccc");
    }

    #[test]
    fn unforced_records_are_lost_on_crash() {
        let w = wal();
        w.append(b"durable");
        w.force().unwrap();
        w.append(b"volatile");
        w.simulate_crash();
        let recs = w.scan().unwrap().records;
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"durable");
        // New appends continue from the durable LSN.
        let lsn = w.append(b"after");
        assert_eq!(lsn, w.durable_lsn());
    }

    #[test]
    fn force_with_nothing_pending_is_a_noop() {
        let w = wal();
        w.force().unwrap();
        assert_eq!(w.durable_lsn(), 0);
        assert!(w.scan().unwrap().records.is_empty());
    }

    #[test]
    fn large_records_spanning_pages() {
        let w = wal();
        let big = vec![0xCD; 10_000];
        w.append(&big);
        w.append(b"tail");
        w.force().unwrap();
        let recs = w.scan().unwrap().records;
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, big);
        assert_eq!(recs[1].payload, b"tail");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_records_are_rejected() {
        wal().append(b"");
    }

    #[test]
    fn clean_log_scan_reports_no_torn_tail() {
        let w = wal();
        w.append(b"one");
        w.append(b"two");
        w.force().unwrap();
        let scan = w.scan().unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(!scan.torn_tail);
    }

    /// A WAL over a fault-injected backend whose force is torn mid-batch: the
    /// rescan must salvage every record that fit in the written prefix, report
    /// the tail as torn, and leave the log appendable.
    #[test]
    fn rescan_salvages_records_from_a_torn_force() {
        let clock = FaultClock::new();
        let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let faulty = Arc::new(FaultIo::new(sim, Arc::clone(&clock)));
        let w = Wal::new(faulty, 0, 4096);

        // One durable force to anchor durable_lsn.
        w.append(b"anchor");
        w.force().unwrap();
        let anchored = w.durable_lsn();

        // A force spanning 3 pages (records of 1000 bytes each) in its one
        // request, torn after the first page plus 100 bytes of the second.
        for i in 0..10u32 {
            w.append(&vec![i as u8 + 1; 1000]);
        }
        clock.arm(CrashPlan::at_write(clock.writes_seen()).with_torn(TornWrite {
            keep_requests: 0,
            keep_bytes_of_next: 4096 + 100,
        }));
        assert!(w.force().is_err());
        clock.heal();
        w.simulate_crash();
        assert_eq!(w.durable_lsn(), anchored, "failed force advanced nothing");

        let report = w.recover_scan().unwrap();
        assert!(report.torn_tail, "the torn record must be detected");
        assert!(report.salvaged_bytes > 0, "complete records in page 1 are salvageable");
        let recs = w.scan().unwrap().records;
        // The anchor plus every 1000-byte record that fit in the torn prefix.
        assert!(recs.len() >= 2 && recs.len() < 11, "{} records", recs.len());
        assert_eq!(recs[0].payload, b"anchor");
        for (i, r) in recs[1..].iter().enumerate() {
            assert_eq!(r.payload, vec![i as u8 + 1; 1000], "salvaged record {i} is intact");
        }

        // The log continues cleanly after the torn tail.
        w.append(b"post-crash");
        w.force().unwrap();
        let recs = w.scan().unwrap().records;
        assert_eq!(recs.last().unwrap().payload, b"post-crash");
    }

    #[test]
    fn failed_force_keeps_records_for_retry() {
        let clock = FaultClock::new();
        let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let faulty = Arc::new(FaultIo::new(sim, Arc::clone(&clock)));
        let w = Wal::new(faulty, 0, 4096);
        w.append(b"first");
        clock.arm(CrashPlan::at_write(clock.writes_seen()).transient());
        assert!(w.force().is_err());
        assert_eq!(w.pending_records(), 1, "failed force must not drop records");
        w.append(b"second");
        w.force().unwrap();
        let recs = w.scan().unwrap().records;
        assert_eq!(recs.len(), 2, "no LSN hole after the retried force");
        assert_eq!(recs[0].payload, b"first");
        assert_eq!(recs[1].payload, b"second");
    }

    /// The cold fallback of [`Wal::force`] — reading the page head back after
    /// a rescan dropped the cached tail — is an error path like the write: a
    /// failed read must leave the records pending, or the retried force leaves
    /// an LSN hole that hides every later record from the next recovery.
    #[test]
    fn failed_tail_read_back_keeps_records_for_retry() {
        let clock = FaultClock::new();
        let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let faulty = Arc::new(FaultIo::new(sim, Arc::clone(&clock)));
        let w = Wal::new(faulty, 0, 4096);
        w.append(b"durable-head");
        w.force().unwrap();
        // A partial tail page on the device and no cached copy of it.
        w.recover_scan().unwrap();
        w.append(b"first");
        w.append(b"second");
        clock.arm(CrashPlan::at_read(clock.reads_seen()).transient());
        assert!(w.force().is_err(), "the read-back of the page head fails");
        assert!(clock.tripped());
        assert_eq!(w.pending_records(), 2, "failed force must not drop records");
        clock.heal();
        w.append(b"third");
        w.force().unwrap();
        let scan = w.scan().unwrap();
        let payloads: Vec<&[u8]> = scan.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(
            payloads,
            [&b"durable-head"[..], b"first", b"second", b"third"],
            "no LSN hole"
        );
        assert!(!scan.torn_tail);
    }

    /// In steady state a force issues its one write and nothing else: the head
    /// of the partial tail page comes from memory, not from the device.
    #[test]
    fn steady_state_forces_never_read_the_device() {
        let io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let w = Wal::new(Arc::clone(&io), 0, 4096);
        for i in 0..200u32 {
            // Mixed sizes: forces start mid-page, end mid-page, span pages.
            w.append(&vec![i as u8 + 1; 1 + (i as usize * 37) % 3000]);
            w.force().unwrap();
        }
        assert_eq!(io.io_stats().reads, 0, "no read-back between the writes");
        assert_eq!(io.io_stats().batches, 200, "one psync write per force");
        assert_eq!(io.io_stats().writes, 200, "of one request");
        // A rescan drops the cached tail: exactly the next force reads it back.
        w.recover_scan().unwrap();
        let reads = io.io_stats().reads;
        for _ in 0..2 {
            w.append(b"after-rescan");
            w.force().unwrap();
        }
        assert_eq!(io.io_stats().reads, reads + 1, "one cold read, then steady state again");
        assert_eq!(w.scan().unwrap().records.len(), 202);
    }

    /// The reference of the differential test below: every byte the log ever
    /// made durable, indexed by LSN, plus its own image of the data region —
    /// and each force's units cut from that byte stream alone, with no cached
    /// tail, no pending image and no read-back to get wrong.
    struct Reference {
        ps: usize,
        /// The force unit: a force writes whole units of the byte stream.
        unit: usize,
        /// The durable log, byte `i` being LSN `i`.
        stream: Vec<u8>,
        /// On-disk images of the records appended but not forced.
        pending: Vec<u8>,
        /// The data region (past the two header-slot pages) as the device
        /// must hold it.
        dev: Vec<u8>,
        trunc: usize,
        phys_start: usize,
    }

    impl Reference {
        fn append(&mut self, payload: &[u8]) {
            self.pending.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            self.pending.extend_from_slice(&checksum(payload).to_le_bytes());
            self.pending.extend_from_slice(payload);
        }

        /// The unit-aligned write a force of `pending` must issue: its offset
        /// in the data region and its bytes.
        fn force_write(&self) -> (usize, Vec<u8>) {
            let from = self.stream.len() / self.unit * self.unit;
            let mut bytes = [&self.stream[from..], &self.pending[..]].concat();
            // Zero-filled to the unit's end, and through one more unit when
            // that leaves less than a header of zeros after the records.
            let end = (bytes.len() + HEADER).next_multiple_of(self.unit);
            bytes.resize(end, 0);
            (from - self.phys_start, bytes)
        }

        /// Lands the first `keep` bytes of a write at `off`.
        fn land(&mut self, off: usize, bytes: &[u8], keep: usize) {
            let keep = keep.min(bytes.len());
            if self.dev.len() < off + keep {
                self.dev.resize(off + keep, 0);
            }
            self.dev[off..off + keep].copy_from_slice(&bytes[..keep]);
        }

        fn force(&mut self) {
            if self.pending.is_empty() {
                return; // nothing to write: stale bytes past the end stay
            }
            let (off, bytes) = self.force_write();
            self.land(off, &bytes, usize::MAX);
            self.stream.append(&mut self.pending);
        }

        /// [`Wal::truncate_to`], compaction included, re-derived from the
        /// byte stream.
        fn truncate_to(&mut self, lsn: usize) {
            let (ps, durable) = (self.ps, self.stream.len());
            let target = lsn.min(durable);
            if target <= self.trunc {
                return;
            }
            let new_phys = target / ps * ps;
            let freed_prefix = self.trunc / ps * ps - self.phys_start;
            let survivors = (durable - new_phys).div_ceil(ps) * ps;
            if new_phys > self.phys_start && survivors + ps <= freed_prefix {
                // The survivors' pages — whatever the device holds there,
                // including stale bytes past the durable end — slide to the
                // region start, followed by one zero page.
                let from = new_phys - self.phys_start;
                if self.dev.len() < from + survivors {
                    self.dev.resize(from + survivors, 0);
                }
                let moved = self.dev[from..from + survivors].to_vec();
                self.land(0, &moved, usize::MAX);
                self.land(survivors, &vec![0; ps], usize::MAX);
                self.phys_start = new_phys;
            }
            self.trunc = target;
        }
    }

    /// Drives [`Wal`] and [`Reference`] through the same seeded stream of
    /// appends, forces, failed and torn forces, crash + rescan and
    /// truncations (compactions included) and demands a byte-identical data
    /// region, the same frontiers and the same record list after every step.
    /// This is what makes the in-memory tail and the single pending image safe
    /// to trust. It runs with the force unit equal to the page and at half the
    /// page. `CRASH_SEED` replays a failure.
    #[test]
    fn wal_differential_against_a_rebuilding_reference() {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_0106);
        for unit in [PS, PS / 2] {
            wal_differential(seed, unit);
        }
    }

    /// The page of the differential test.
    const PS: usize = 512;

    fn wal_differential(seed: u64, unit: usize) {
        let mut x = seed | 1;
        let mut rand = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let clock = FaultClock::new();
        let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let faulty: Arc<dyn IoQueue> = Arc::new(FaultIo::new(Arc::clone(&sim), Arc::clone(&clock)));
        let w = Wal::with_flash_page(faulty, 0, PS, unit as u64);
        let mut model = Reference {
            ps: PS,
            unit,
            stream: Vec::new(),
            pending: Vec::new(),
            dev: Vec::new(),
            trunc: 0,
            phys_start: 0,
        };
        // LSNs of every record appended so far: legal truncation floors.
        let mut boundaries: Vec<usize> = Vec::new();
        let mut compactions = 0;
        for step in 0..4_000u32 {
            let ctx = format!("CRASH_SEED={seed} unit={unit} step={step}");
            match rand(100) {
                0..=54 => {
                    // Mostly small records, sometimes one spanning pages.
                    let len = if rand(12) == 0 { 1 + rand(3 * PS) } else { 1 + rand(60) };
                    let payload: Vec<u8> = (0..len).map(|i| (step as usize + i) as u8 | 1).collect();
                    let lsn = w.append(&payload);
                    assert_eq!(lsn as usize, model.stream.len() + model.pending.len(), "{ctx}: LSN");
                    boundaries.push(lsn as usize);
                    model.append(&payload);
                }
                55..=79 => {
                    w.force().unwrap_or_else(|e| panic!("{ctx}: force: {e}"));
                    model.force();
                }
                80..=86 if !model.pending.is_empty() => {
                    // A force that fails, leaving a torn prefix (often empty,
                    // often whole units) of its one request behind; the
                    // records must stay pending.
                    let (off, bytes) = model.force_write();
                    let cut = if rand(2) == 0 {
                        rand(bytes.len() / unit + 1) * unit
                    } else {
                        rand(bytes.len() + 1)
                    };
                    let torn = TornWrite {
                        keep_requests: 0,
                        keep_bytes_of_next: cut,
                    };
                    // A cold force reads the unit head first; only the write fails.
                    clock.arm(CrashPlan::on_payload(|_| true).with_torn(torn).transient());
                    assert!(w.force().is_err(), "{ctx}: armed force");
                    clock.heal();
                    model.land(off, &bytes, cut);
                }
                87..=91 => {
                    // Crash: pending records die; the recovery scan salvages
                    // whatever whole records a torn force left past the
                    // durable end — records this log appended, never stale
                    // bytes.
                    w.simulate_crash();
                    let pending = std::mem::take(&mut model.pending);
                    let scan = w.recover_scan().unwrap_or_else(|e| panic!("{ctx}: recover_scan: {e}"));
                    let from = model.stream.len() - model.phys_start;
                    let salvaged = scan.durable_lsn as usize - model.stream.len();
                    assert_eq!(scan.salvaged_bytes as usize, salvaged, "{ctx}: salvaged bytes");
                    let bytes = model.dev[from..from + salvaged].to_vec();
                    assert!(
                        pending.starts_with(&bytes),
                        "{ctx}: salvaged bytes that were never appended"
                    );
                    model.stream.extend_from_slice(&bytes);
                    boundaries.retain(|&b| b < model.stream.len());
                }
                92..=99 if !boundaries.is_empty() => {
                    let lsn = boundaries[rand(boundaries.len())];
                    let before = model.phys_start;
                    w.truncate_to(lsn as Lsn)
                        .unwrap_or_else(|e| panic!("{ctx}: truncate: {e}"));
                    model.truncate_to(lsn);
                    compactions += usize::from(model.phys_start != before);
                }
                _ => continue,
            }
            // The data region, byte for byte (the reference never shrinks its
            // image, so the comparison also covers stale bytes past the end).
            let region = sim.read_at((2 * PS) as u64, model.dev.len().max(1)).unwrap();
            if region[..model.dev.len()] != model.dev[..] {
                let at = (0..model.dev.len()).find(|&i| region[i] != model.dev[i]);
                panic!("{ctx}: data region diverged at byte {at:?}");
            }
            // The observer: the log reads back exactly the reference's
            // records between the floor and the durable end.
            let scan = w.scan().unwrap_or_else(|e| panic!("{ctx}: scan: {e}"));
            let (expect, _) = parse_records(&model.stream[model.trunc..], model.trunc as Lsn);
            assert!(!scan.torn_tail, "{ctx}: torn scan");
            assert_eq!(scan.records, expect, "{ctx}: scan");
            let inner = w.inner.lock();
            assert_eq!(inner.durable_lsn as usize, model.stream.len(), "{ctx}: durable LSN");
            assert_eq!(
                inner.next_lsn as usize,
                model.stream.len() + model.pending.len(),
                "{ctx}"
            );
            assert_eq!(inner.pending, model.pending, "{ctx}: pending image");
            assert_eq!(inner.trunc_lsn as usize, model.trunc, "{ctx}: floor");
            assert_eq!(inner.phys_start as usize, model.phys_start, "{ctx}: mapping");
        }
        // The log reads back exactly the reference's records past the floor.
        w.force().unwrap();
        model.force();
        let (expect, torn) = parse_records(&model.stream[model.trunc..], model.trunc as Lsn);
        let scan = w.scan().unwrap();
        assert!(!scan.torn_tail && !torn, "CRASH_SEED={seed} unit={unit}");
        assert_eq!(scan.records, expect, "CRASH_SEED={seed} unit={unit}: final scan");
        assert!(
            compactions >= 2,
            "CRASH_SEED={seed} unit={unit}: the stream must compact ({compactions})"
        );
    }

    /// Concurrent append+force storms must never lose or corrupt a record:
    /// forces are serialised end to end, because two in-flight forces would
    /// both rebuild the page holding their shared boundary record.
    #[test]
    fn concurrent_forces_do_not_corrupt_shared_pages() {
        let w = Arc::new(wal());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    w.append(format!("thread-{t}-record-{i}").as_bytes());
                    w.force().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        w.force().unwrap();
        let recs = w.scan().unwrap().records;
        assert_eq!(recs.len(), 200, "every record must survive the storm");
        let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
        for r in &recs {
            assert!(seen.insert(r.payload.clone()), "duplicate record {:?}", r.payload);
        }
        assert!(!w.scan().unwrap().torn_tail);
    }

    #[test]
    fn rescan_of_a_clean_log_is_a_noop() {
        let w = wal();
        w.append(b"steady");
        w.force().unwrap();
        let before = w.durable_lsn();
        let report = w.recover_scan().unwrap();
        assert_eq!(report.durable_lsn, before);
        assert_eq!(report.salvaged_bytes, 0);
        assert!(!report.torn_tail);
    }

    #[test]
    fn rescan_salvages_a_whole_unrecorded_force() {
        // The force completes on the device but the process dies before
        // durable_lsn is advanced (crash between psync_write returning and the
        // bookkeeping): model by writing via a second Wal handle over the same
        // backend.
        let io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let w1 = Wal::new(Arc::clone(&io), 0, 4096);
        w1.append(b"seen");
        w1.force().unwrap();
        w1.append(b"lost-bookkeeping");
        w1.force().unwrap();
        // A restarted handle with no in-memory state at all: the rescan must
        // rebuild durability purely from the device.
        let w2 = Wal::new(io, 0, 4096);
        let report = w2.recover_scan().unwrap();
        assert!(!report.torn_tail);
        assert!(report.salvaged_bytes > 0);
        let recs = w2.scan().unwrap().records;
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].payload, b"lost-bookkeeping");
    }

    /// The force unit is no part of the format: a log forced at one unit —
    /// truncated, so a header slot is in play too — recovers under a handle
    /// with the other, which appends after a cold read of the unit head, and
    /// the first unit's handle then reads back both, in either direction.
    #[test]
    fn a_log_forced_at_one_unit_recovers_at_the_other() {
        for (first, second) in [(4096u64, 2048u64), (2048, 4096)] {
            let ctx = format!("forced at {first}, reopened at {second}");
            let io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
            let w1 = Wal::with_flash_page(Arc::clone(&io), 0, 4096, first);
            let mut payloads: Vec<Vec<u8>> = Vec::new();
            let mut lsns = Vec::new();
            for i in 0..40u32 {
                // Mixed sizes: forces start and end mid-unit and span units.
                payloads.push(vec![i as u8 + 1; 1 + (i as usize * 373) % 2500]);
                lsns.push(w1.append(payloads.last().unwrap()));
                if i % 3 == 0 {
                    w1.force().unwrap();
                }
            }
            w1.force().unwrap();
            w1.truncate_to(lsns[5]).unwrap();

            // A restarted handle at `unit` reads back every payload past the floor.
            let reopen = |unit: u64, payloads: &[Vec<u8>]| {
                let w = Wal::with_flash_page(Arc::clone(&io), 0, 4096, unit);
                let scan = w.recover_scan().unwrap();
                assert!(!scan.torn_tail, "{ctx}: reopened at {unit}");
                let read: Vec<Vec<u8>> = scan.records.into_iter().map(|r| r.payload).collect();
                assert_eq!(read, payloads[5..], "{ctx}: reopened at {unit}");
                w
            };
            let w2 = reopen(second, &payloads);
            assert_eq!(w2.durable_lsn(), w1.durable_lsn(), "{ctx}");
            for i in 0..5u32 {
                payloads.push(format!("reopened-{i}").into_bytes());
                w2.append(payloads.last().unwrap());
                w2.force().unwrap();
            }
            reopen(first, &payloads);
        }
    }

    #[test]
    fn truncate_drops_records_below_the_floor() {
        let w = wal();
        let mut lsns = Vec::new();
        for i in 0..20u32 {
            lsns.push(w.append(format!("rec-{i:02}").as_bytes()));
        }
        w.force().unwrap();
        let floor = lsns[12];
        let dropped = w.truncate_to(floor).unwrap();
        assert_eq!(dropped, floor, "every byte below the floor is dropped");
        assert_eq!(w.start_lsn(), floor);
        assert_eq!(w.truncated_bytes(), floor);
        assert_eq!(w.replayable_bytes(), w.durable_lsn() - floor);
        let recs = w.scan().unwrap().records;
        assert_eq!(recs.len(), 8);
        assert_eq!(recs[0].lsn, floor);
        assert_eq!(recs[0].payload, b"rec-12");
        // Truncating to (or below) the current floor is a no-op.
        assert_eq!(w.truncate_to(lsns[5]).unwrap(), 0);
        assert_eq!(w.truncate_to(floor).unwrap(), 0);
        // The log stays appendable and LSNs keep increasing monotonically.
        let tail = w.append(b"after-truncation");
        assert!(tail > floor);
        w.force().unwrap();
        let recs = w.scan().unwrap().records;
        assert_eq!(recs.len(), 9);
        assert_eq!(recs.last().unwrap().payload, b"after-truncation");
    }

    #[test]
    fn truncation_survives_a_restart() {
        let io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let w1 = Wal::new(Arc::clone(&io), 0, 4096);
        let mut lsns = Vec::new();
        for i in 0..30u32 {
            lsns.push(w1.append(format!("persist-{i:02}").as_bytes()));
        }
        w1.force().unwrap();
        let floor = lsns[17];
        w1.truncate_to(floor).unwrap();
        // A restarted handle with no in-memory state: the header slot tells it
        // the floor and the recovery scan starts there, not at byte 0.
        let w2 = Wal::new(io, 0, 4096);
        let scan = w2.recover_scan().unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.durable_lsn, w1.durable_lsn());
        assert_eq!(w2.start_lsn(), floor);
        assert_eq!(w2.truncated_bytes(), floor);
        assert_eq!(scan.records.len(), 13);
        assert_eq!(scan.records[0].lsn, floor);
        assert_eq!(scan.records[0].payload, b"persist-17");
        // And the restarted handle appends where the old one left off.
        w2.append(b"continues");
        w2.force().unwrap();
        assert_eq!(w2.scan().unwrap().records.last().unwrap().payload, b"continues");
    }

    /// Round after round of append → force → truncate must bound the log's
    /// *physical* footprint, not just its logical replay window: the dead
    /// prefix is periodically compacted away by sliding the survivors back to
    /// the region start.
    #[test]
    fn repeated_truncation_compacts_the_region_physically() {
        let io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let w = Wal::new(Arc::clone(&io), 0, 4096);
        let mut last_tail = 0;
        for round in 0..6u32 {
            for i in 0..60u32 {
                w.append(&vec![(round * 60 + i) as u8; 1000]);
            }
            last_tail = w.append(format!("tail-{round}").as_bytes());
            w.force().unwrap();
            w.truncate_to(last_tail).unwrap();
            assert!(
                w.replayable_bytes() < 2 * 4096,
                "round {round}: the replay window stays bounded at the tail record"
            );
        }
        let (durable, phys_start) = {
            let inner = w.inner.lock();
            (inner.durable_lsn, inner.phys_start)
        };
        assert!(phys_start > 0, "six rounds must have compacted at least once");
        let physical_extent = durable - phys_start;
        assert!(
            physical_extent * 2 < durable,
            "physical footprint ({physical_extent} B) stays far below lifetime bytes ({durable} B)"
        );
        // The surviving tail reads back through the moved mapping...
        let recs = w.scan().unwrap().records;
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"tail-5");
        // ...and a restarted handle agrees byte for byte.
        let w2 = Wal::new(io, 0, 4096);
        let scan = w2.recover_scan().unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].lsn, last_tail);
        assert_eq!(scan.records[0].payload, b"tail-5");
    }

    /// A compaction leaves intact records of the old mapping past the zero
    /// page it writes after the survivors. Records that end on a unit
    /// boundary there must not run into them: every force ends in a zero
    /// header, so a restarted handle adopts exactly the durable records.
    /// 64-byte records put a header at every unit start, so the old ones line
    /// up with the end of the new ones.
    #[test]
    fn a_restart_after_a_compaction_adopts_no_stale_record() {
        for unit in [512u64, 256] {
            let io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
            let w = Wal::with_flash_page(Arc::clone(&io), 0, 512, unit);
            let record = |i: u32| vec![i as u8 | 1; 64 - HEADER];
            let mut lsns = Vec::new();
            for i in 0..80 {
                lsns.push(w.append(&record(i)));
            }
            w.force().unwrap();
            w.truncate_to(lsns[78]).unwrap();
            for i in 80..84 {
                lsns.push(w.append(&record(i)));
            }
            w.force().unwrap();
            w.truncate_to(lsns[82]).unwrap();
            assert!(
                w.inner.lock().phys_start > 0,
                "unit {unit}: the second truncation compacts"
            );
            for i in 84..124 {
                w.append(&record(i));
                w.force().unwrap();
                let restarted = Wal::with_flash_page(Arc::clone(&io), 0, 512, unit);
                let scan = restarted.recover_scan().unwrap();
                assert_eq!(
                    (scan.durable_lsn, scan.records.len()),
                    (w.durable_lsn(), i as usize - 81),
                    "unit {unit}, record {i}: a restart adopted stale records"
                );
            }
        }
    }

    /// A crash that tears the truncation-header write must leave the log on
    /// exactly the old head or the new head — the slots alternate, so the
    /// previous header always survives a torn write of the next one.
    #[test]
    fn torn_truncation_header_leaves_old_or_new_head() {
        // Below 44 bytes the new slot's checksum cannot be complete → old
        // head; at 44+ the slot is whole (the rest of its page is zeros
        // anyway) → new head. Both are legal; torn hybrids are not.
        for keep_bytes in [0usize, 7, 43, 44, 100] {
            let clock = FaultClock::new();
            let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
            let faulty: Arc<dyn IoQueue> = Arc::new(FaultIo::new(sim, Arc::clone(&clock)));
            let w = Wal::new(Arc::clone(&faulty), 0, 4096);
            let mut lsns = Vec::new();
            for i in 0..12u32 {
                lsns.push(w.append(format!("t-{i:02}").as_bytes()));
            }
            w.force().unwrap();
            let first_floor = lsns[4];
            w.truncate_to(first_floor).unwrap();
            // Tear the second truncation's header write mid-page. (Both
            // truncations are logical-only — everything fits in page 0 — so
            // the header is the truncation's sole write.)
            let second_floor = lsns[9];
            clock.arm(CrashPlan::at_write(clock.writes_seen()).with_torn(TornWrite {
                keep_requests: 0,
                keep_bytes_of_next: keep_bytes,
            }));
            assert!(w.truncate_to(second_floor).is_err(), "keep_bytes={keep_bytes}");
            clock.heal();

            // A restarted handle must land on exactly one of the two heads.
            let w2 = Wal::new(faulty, 0, 4096);
            let scan = w2.recover_scan().unwrap();
            assert!(!scan.torn_tail, "keep_bytes={keep_bytes}");
            let floor = w2.start_lsn();
            assert!(
                floor == first_floor || floor == second_floor,
                "keep_bytes={keep_bytes}: floor {floor} is neither the old nor the new head"
            );
            let from = lsns.iter().position(|&l| l == floor).unwrap();
            assert_eq!(scan.records.len(), 12 - from, "keep_bytes={keep_bytes}");
            assert_eq!(scan.records[0].lsn, floor);
            for (r, &lsn) in scan.records.iter().zip(&lsns[from..]) {
                assert_eq!(r.lsn, lsn, "keep_bytes={keep_bytes}: surviving records are intact");
            }
        }
    }

    /// A crash in the middle of a compaction's copy phase is harmless: the
    /// copies only ever write into space that holds dead records, and the
    /// header — the sole commit point — was never flipped.
    #[test]
    fn crash_during_compaction_copy_preserves_the_old_head() {
        let clock = FaultClock::new();
        let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20));
        let faulty: Arc<dyn IoQueue> = Arc::new(FaultIo::new(sim, Arc::clone(&clock)));
        let w = Wal::new(Arc::clone(&faulty), 0, 4096);
        // Round 1: ~5 pages of records, then a logical-only truncation (the
        // floor advances but the bytes stay where they are).
        let mut lsns = Vec::new();
        for i in 0..20u32 {
            lsns.push(w.append(&vec![i as u8 + 1; 1000]));
        }
        w.force().unwrap();
        let first_floor = lsns[18];
        w.truncate_to(first_floor).unwrap();
        // Round 2: this truncation has a dead prefix to compact into. Crash
        // on its first copy write.
        for i in 20..24u32 {
            lsns.push(w.append(&vec![i as u8 + 1; 1000]));
        }
        w.force().unwrap();
        let second_floor = lsns[22];
        clock.arm(CrashPlan::at_write(clock.writes_seen()).transient());
        assert!(w.truncate_to(second_floor).is_err(), "the compaction copy write fails");
        clock.heal();

        // The header was never flipped: a restarted handle sees the old head,
        // records intact.
        let w2 = Wal::new(faulty, 0, 4096);
        let scan = w2.recover_scan().unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(w2.start_lsn(), first_floor);
        assert_eq!(scan.records.len(), lsns.len() - 18);
        for (r, &lsn) in scan.records.iter().zip(&lsns[18..]) {
            assert_eq!(r.lsn, lsn, "old-head records are intact");
        }
        // Healed, the retried truncation succeeds — and compacts.
        let moved = w2.truncate_to(second_floor).unwrap();
        assert!(moved > 0);
        assert!(w2.inner.lock().phys_start > 0, "the retried truncation compacts");
        let recs = w2.scan().unwrap().records;
        assert_eq!(recs.first().unwrap().lsn, second_floor);
        assert_eq!(recs.len(), 2);
    }

    /// Fuzz: a truncation-header slot and a record stream, rewritten one byte
    /// at a time, cut short and extended. A slot decodes only whole and
    /// unchanged: its checksum covers every byte before it, and FNV-1a-32
    /// tells any one-byte change. A stream parses to exactly the records
    /// before the one a rewrite hit, to exactly those a cut leaves whole, and
    /// to all of them when extended.
    #[test]
    fn fuzz_wal_header_slots_and_record_streams() {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_3A15);
        let mut x = seed | 1;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let header = TruncHeader {
            version: 7,
            trunc_lsn: 4096,
            phys_start: 8192,
            truncated: 3,
        };
        let slot = encode_slot(&header);
        for at in 0..SLOT_LEN {
            for value in (0..=255u8).filter(|&v| v != slot[at]) {
                let mut mutated = slot;
                mutated[at] = value;
                assert_eq!(decode_slot(&mutated), None, "slot byte {at} = {value}");
            }
        }
        for cut in 0..SLOT_LEN {
            assert_eq!(decode_slot(&slot[..cut]), None, "slot cut at {cut}");
        }
        let mut extended = slot.to_vec();
        extended.extend((0..64).map(|_| rand(256) as u8));
        assert_eq!(decode_slot(&extended), Some(header), "CRASH_SEED={seed}");

        const BASE: Lsn = 1 << 20;
        let (mut stream, mut records, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..20 {
            let payload: Vec<u8> = (0..1 + rand(40)).map(|_| rand(256) as u8).collect();
            records.push(WalRecord {
                lsn: BASE + stream.len() as Lsn,
                payload: payload.clone(),
            });
            stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            stream.extend_from_slice(&checksum(&payload).to_le_bytes());
            stream.extend_from_slice(&payload);
            ends.push(stream.len());
        }
        assert_eq!(parse_records(&stream, BASE), (records.clone(), false));
        for _ in 0..4000 {
            let (at, value) = (rand(stream.len() as u64) as usize, rand(256) as u8);
            let mut mutated = stream.clone();
            mutated[at] = value;
            let hit = if value == stream[at] {
                records.len()
            } else {
                ends.partition_point(|&end| end <= at)
            };
            let (parsed, _) = parse_records(&mutated, BASE);
            assert_eq!(parsed, records[..hit], "CRASH_SEED={seed} byte {at} = {value}");
        }
        for cut in 0..=stream.len() {
            let whole = ends.partition_point(|&end| end <= cut);
            let rest = cut - whole.checked_sub(1).map_or(0, |last| ends[last]);
            let parsed = parse_records(&stream[..cut], BASE);
            assert_eq!(parsed, (records[..whole].to_vec(), rest >= HEADER), "cut at {cut}");
        }
        for _ in 0..256 {
            let mut extended = stream.clone();
            extended.extend((0..1 + rand(64)).map(|_| rand(256) as u8));
            let (parsed, _) = parse_records(&extended, BASE);
            assert!(
                parsed.starts_with(&records),
                "CRASH_SEED={seed}: an extension lost records"
            );
        }
    }
}
