//! Page integrity: the in-memory checksum sidecar of a [`crate::CachedStore`].
//!
//! Flash rots silently: a page can come back from the device with flipped bits
//! and no error. Every image that reaches the device has a checksum
//! **recorded** per page, and every image fetched from the device is
//! **verified** against the recorded values. A mismatch is counted, re-read
//! **once** (in-flight corruption — a bad transfer, an injected bit flip —
//! clears on the second read), and only a *persistent* mismatch surfaces as
//! [`pio::IoError::Corruption`]; corrupt bytes are never returned to a caller.
//! [`crate::CachedStore::scrub_step`] walks the tracked pages incrementally
//! off the foreground path, from the cursor kept here. The sidecar is
//! per-store-handle state, not an on-disk format: after a restart it
//! repopulates as pages are rewritten, so verification covers everything
//! written through this handle since open.
//!
//! This crate has **two** checksums and only one of them is a format. The
//! page checksum below lives in the sidecar and dies with the process, so it
//! is free to be whatever is fastest — it runs over every page read from or
//! written to the device. The WAL's record and slot checksum (`wal.rs`) is
//! written to the log and read back after a restart: it *is* the log's
//! on-disk format and must not change. Do not merge the two.

use crate::page::PageId;
use crate::store::PageStore;
use parking_lot::Mutex;
use pio::{IoError, IoResult};
use std::collections::BTreeMap;

/// The sidecar's page checksum: 64-bit FNV-1a taken a little-endian word at a
/// time (one multiply per 8 bytes, the odd tail a byte at a time), folded to
/// the `u32` the sidecar stores. Every step is a bijection of the 64-bit
/// state, so two images that differ in one word never reach the same state
/// (only the final fold can collide, at 2⁻³²); plenty to catch bit rot — this
/// is integrity checking, not cryptography.
/// Not a format — see the [module docs](self).
pub(crate) fn page_checksum(data: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    (hash ^ (hash >> 32)) as u32
}

/// Counters of the checksum sidecar (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Device reads whose payload failed checksum verification.
    pub corruption_detected: u64,
    /// Detected mismatches that cleared on the single re-read (in-flight
    /// corruption: the stored data was fine).
    pub corruption_recovered: u64,
    /// Pages validated by [`crate::CachedStore::scrub_step`] since open.
    pub scrubbed_pages: u64,
    /// Persistent mismatches found by scrub (the stored page is rotted).
    pub scrub_corruptions: u64,
    /// Rotted pages scrub repaired by rewriting a verified cached copy.
    pub scrub_healed: u64,
}

impl IntegrityStats {
    /// Folds another store's counters into this one (engine-level roll-ups).
    pub fn merge(&mut self, other: &IntegrityStats) {
        self.corruption_detected += other.corruption_detected;
        self.corruption_recovered += other.corruption_recovered;
        self.scrubbed_pages += other.scrubbed_pages;
        self.scrub_corruptions += other.scrub_corruptions;
        self.scrub_healed += other.scrub_healed;
    }
}

/// The outcome of one [`crate::CachedStore::scrub_step`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages read back and verified this step.
    pub scanned: usize,
    /// Persistent mismatches found this step (after the one re-read).
    pub corrupt: usize,
    /// Of those, pages repaired from a verified cached copy.
    pub healed: usize,
    /// `true` when the cursor wrapped past the last tracked page — one full
    /// pass over the store has completed.
    pub wrapped: bool,
}

#[derive(Debug, Default)]
struct IntegrityState {
    checksums: BTreeMap<PageId, u32>,
    scrub_cursor: PageId,
    stats: IntegrityStats,
}

/// The checksum sidecar: recorded page checksums, the scrub cursor, and the
/// integrity counters, all behind one short-lived lock (never held across
/// device I/O).
#[derive(Debug, Default)]
pub(crate) struct Integrity {
    state: Mutex<IntegrityState>,
}

impl Integrity {
    pub(crate) fn stats(&self) -> IntegrityStats {
        self.state.lock().stats
    }

    /// Applies `bump` to the counters.
    pub(crate) fn count(&self, bump: impl FnOnce(&mut IntegrityStats)) {
        bump(&mut self.state.lock().stats)
    }

    pub(crate) fn tracked_pages(&self) -> usize {
        self.state.lock().checksums.len()
    }

    /// The checksum currently recorded for `page`, if any.
    pub(crate) fn expected(&self, page: PageId) -> Option<u32> {
        self.state.lock().checksums.get(&page).copied()
    }

    /// Drops the entry of a freed page.
    pub(crate) fn forget(&self, page: PageId) {
        self.state.lock().checksums.remove(&page);
    }

    /// Forgets every recorded checksum and rewinds the scrub cursor; the
    /// cumulative counters survive.
    pub(crate) fn reset(&self) {
        let mut state = self.state.lock();
        state.checksums.clear();
        state.scrub_cursor = 0;
    }

    /// Records the checksum of every page of an image that is on its way to
    /// the device at `first`.
    pub(crate) fn record(&self, first: PageId, data: &[u8], page_size: usize) {
        let mut state = self.state.lock();
        for (page, chunk) in (first..).zip(data.chunks_exact(page_size)) {
            state.checksums.insert(page, page_checksum(chunk));
        }
    }

    /// The first *tracked* page of the image at `first` whose bytes do not
    /// match its recorded checksum. Pages without a recorded checksum —
    /// written before this handle opened — pass unverified.
    fn first_mismatch(&self, first: PageId, data: &[u8], page_size: usize) -> Option<PageId> {
        let state = self.state.lock();
        (first..)
            .zip(data.chunks_exact(page_size))
            .find(|(page, chunk)| state.checksums.get(page).is_some_and(|&e| page_checksum(chunk) != e))
            .map(|(page, _)| page)
    }

    /// Verifies a device-fetched image of `n_pages` pages at `first`,
    /// re-reading the whole image once if any covered page mismatches; `data`
    /// then holds the re-read copy. The re-read is judged against the
    /// checksums recorded *then*: a concurrent writer may have replaced a page
    /// in between.
    pub(crate) fn verify(&self, store: &PageStore, first: PageId, n_pages: u64, data: &mut Vec<u8>) -> IoResult<()> {
        let page_size = store.page_size();
        if self.first_mismatch(first, data, page_size).is_none() {
            return Ok(());
        }
        self.count(|s| s.corruption_detected += 1);
        *data = store
            .read_regions(&[(first, n_pages)])?
            .pop()
            .expect("one buffer per request");
        match self.first_mismatch(first, data, page_size) {
            None => {
                self.count(|s| s.corruption_recovered += 1);
                Ok(())
            }
            Some(bad) => Err(IoError::Corruption {
                offset: bad * page_size as u64,
                len: page_size as u64,
            }),
        }
    }

    /// Selects the next scrub batch: up to `max_pages` tracked pages from the
    /// cursor, wrapping to the lowest page when the end of the tracked set is
    /// reached, as one-page regions ready to submit. The flag is `true` when
    /// this batch completes a full pass. `None` when there is nothing to
    /// scrub.
    pub(crate) fn next_scrub_batch(&self, max_pages: usize) -> Option<(Vec<(PageId, u64)>, bool)> {
        let mut state = self.state.lock();
        if max_pages == 0 || state.checksums.is_empty() {
            return None;
        }
        let cursor = state.scrub_cursor;
        // The two ranges are disjoint, so no page is selected twice.
        let batch: Vec<(PageId, u64)> = state
            .checksums
            .range(cursor..)
            .chain(state.checksums.range(..cursor))
            .take(max_pages)
            .map(|(&p, _)| (p, 1))
            .collect();
        state.scrub_cursor = batch.last().map_or(0, |&(p, _)| p + 1);
        // Wrapped below the cursor, or landed exactly on the end of the
        // tracked set: either way the cycle is complete.
        let wrapped = batch.last().is_some_and(|&(p, _)| p < cursor)
            || state.checksums.range(state.scrub_cursor..).next().is_none();
        Some((batch, wrapped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every single-bit flip of a seeded page changes the checksum (all 32 768
    /// of a 4 KiB page), and a length that is not a multiple of 8 is covered to
    /// its last byte.
    #[test]
    fn page_checksum_changes_under_every_single_bit_flip() {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_C5A1);
        let mut x = seed | 1;
        let mut page: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in [4096usize, 4093, 7, 1] {
            let clean = page_checksum(&page[..len]);
            for bit in 0..len * 8 {
                page[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    page_checksum(&page[..len]),
                    clean,
                    "CRASH_SEED={seed} len {len} bit {bit}"
                );
                page[bit / 8] ^= 1 << (bit % 8);
            }
            assert_ne!(
                page_checksum(&page[..len - 1]),
                clean,
                "CRASH_SEED={seed}: length {len} counts"
            );
        }
        assert_ne!(page_checksum(&[]), page_checksum(&[0]), "a zero byte is not nothing");
    }
}
