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
//! page checksum below (`page_checksum`, four FNV-1a lanes) lives in the
//! sidecar and dies with the process, so it is free to be whatever is
//! fastest — it runs over every page read from or written to the device. The
//! WAL's record and slot checksum (`wal.rs`, byte-wise FNV-1a-32) is written
//! to the log and read back after a restart: it *is* the log's on-disk format
//! and must not change. Do not merge the two.
//!
//! The page checksum is nonetheless pinned by golden values
//! (`tests::page_checksum_is_pinned`). Not because it is a format today, but
//! because the planned on-disk page trailer (ROADMAP direction 5 (a)) will
//! write this checksum to the device and so make it one: the trailer should
//! inherit a fixed function, not whatever the sidecar happened to use last.

use crate::page::{PageId, PageImage};
use crate::store::PageStore;
use parking_lot::Mutex;
use pio::{IoError, IoResult};
use std::collections::BTreeMap;

/// The sidecar's page checksum: **four independent 64-bit FNV-1a lanes**.
/// Little-endian word `i` of every 32-byte block goes to lane `i`; each lane
/// starts from its own seed. The four lane states are then folded in lane
/// order by the same FNV step, the byte tail (under 32 bytes) is hashed after
/// them a byte at a time, and the result is folded to the `u32` the sidecar
/// stores.
///
/// Why lanes: a single FNV chain makes every 8-byte step wait for the last
/// multiply to finish, so it runs at the multiplier's *latency* — ≈1.4 µs
/// per 8 KiB leaf region already in the CPU cache (one core of an x86-64
/// Xeon VM, baseline target), the largest single host cost of a cold lookup.
/// Four independent chains keep the multiplier busy every cycle: ≈0.36 µs
/// per region. Eight lanes measured no faster; a `u32` × 8 variant was
/// slower (the baseline x86-64 target has no 32-bit lane multiply).
///
/// Every step is a bijection of its 64-bit state, so two images that differ
/// in one word never reach the same lane state, and the distinct seeds and
/// the ordered fold keep lanes from commuting — a word moved to another lane
/// is a different image. Only the final fold to 32 bits can collide, at
/// 2⁻³²; plenty to catch bit rot — this is integrity checking, not
/// cryptography. Not a format, though pinned — see the [module docs](self).
pub(crate) fn page_checksum(data: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (*lane ^ u64::from_le_bytes(word.try_into().expect("8-byte word"))).wrapping_mul(PRIME);
        }
    }
    let mut hash = OFFSET;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    for &b in blocks.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
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
    /// then holds the re-read image. The re-read is judged against the
    /// checksums recorded *then*: a concurrent writer may have replaced a page
    /// in between.
    pub(crate) fn verify(&self, store: &PageStore, first: PageId, n_pages: u64, data: &mut PageImage) -> IoResult<()> {
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
    /// of a 4 KiB page), and a length that is not a multiple of the 32-byte
    /// lane block — a partial last word, whole words past the last block, a
    /// lone byte — is covered to its last byte.
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
        for len in [4096usize, 4095, 4093, 64, 33, 32, 31, 8, 7, 1] {
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

    /// A mostly-zero page — what a sparsely filled leaf segment looks like —
    /// with the given little-endian words set.
    fn sparse_page(words: &[(usize, u64)]) -> Vec<u8> {
        let mut page = vec![0u8; 4096];
        for &(i, w) in words {
            page[8 * i..8 * i + 8].copy_from_slice(&w.to_le_bytes());
        }
        page
    }

    /// The lanes do not commute: which lane a word lands in, and which block
    /// it sits in, both count. A fold that XORs identically seeded lanes
    /// collides on the first two cases.
    #[test]
    fn page_checksum_tells_lanes_and_blocks_apart() {
        let (a, b) = (0x0123_4567_89ab_cdef_u64, 0x0f1e_2d3c_4b5a_6978_u64);
        let blocks = 4096 / 32;
        for block in [0, 1, blocks / 2, blocks - 1] {
            let word = |lane: usize| 4 * block + lane;
            for lane in 0..3 {
                assert_ne!(
                    page_checksum(&sparse_page(&[(word(lane), a)])),
                    page_checksum(&sparse_page(&[(word(lane + 1), a)])),
                    "block {block}: a word moved from lane {lane} to the next"
                );
            }
            for (i, j) in [(0, 1), (0, 3), (1, 2), (2, 3)] {
                assert_ne!(
                    page_checksum(&sparse_page(&[(word(i), a), (word(j), b)])),
                    page_checksum(&sparse_page(&[(word(i), b), (word(j), a)])),
                    "block {block}: two words swapped between lanes {i} and {j}"
                );
            }
        }
        // Two different blocks swapped: each lane sees the same words in
        // another order.
        for (x, y) in [(0, 1), (0, blocks - 1), (5, 77)] {
            let block = |at: usize, w: u64| [(4 * at, w), (4 * at + 1, !w), (4 * at + 2, w >> 3), (4 * at + 3, 1)];
            let here: Vec<_> = block(x, a).into_iter().chain(block(y, b)).collect();
            let swapped: Vec<_> = block(x, b).into_iter().chain(block(y, a)).collect();
            assert_ne!(
                page_checksum(&sparse_page(&here)),
                page_checksum(&sparse_page(&swapped)),
                "blocks {x} and {y} swapped"
            );
        }
    }

    /// Golden values, computed once by the four-lane function (why a
    /// process-volatile checksum is pinned: see the module docs).
    #[test]
    fn page_checksum_is_pinned() {
        let pattern: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        assert_eq!(page_checksum(&[]), 0x026f_27fb);
        assert_eq!(page_checksum(&[0x5a]), 0x4de3_0c9f);
        assert_eq!(page_checksum(&pattern), 0xb7f9_147c);
        assert_eq!(page_checksum(&pattern[..4093]), 0xaf21_e691);
    }
}
