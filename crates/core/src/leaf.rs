//! Asymmetric leaf nodes built from Leaf Segments (Section 3.2.2).
//!
//! A PIO B-tree leaf node occupies `L` physically consecutive pages (Leaf Segments,
//! LS). Each segment is self-describing — a small header with its record count — and
//! records are stored in the OPQ-entry format in *arrival order* (the append-only
//! feature): an insert, delete or update is appended right after the most recently
//! written record, so only the last segment has to be read and rewritten. When the
//! leaf fills up, the **shrink** operation resolves the appended operations (deletes
//! cancel inserts, updates replace values), re-materialises the survivors as sorted
//! insert records, and only then does the node split if it is still full.
//!
//! The format has **one parser**, [`LeafView`]: it borrows the images that
//! tile the pages read — one image of the whole region, or one per page, as
//! the store's one cache of pages hands them back — validates every segment
//! header once, and answers reads from the bytes where they lie: a point read
//! scans the segments newest-first for the key's latest record, a range read
//! emits a leaf that is still sorted inserts straight into the caller's
//! output. A view of one segment page is a view
//! too: a leaf that is still strictly ascending inserts (bulk loaded, or
//! shrunk by bupdate's full path and not appended to since) holds each key
//! only in the segment its position puts it in, so a point read of such a
//! leaf reads that one page ([`PioLeaf::segment_fences`] are the first keys
//! the [`crate::LsMap`] keeps to find it). The owned [`PioLeaf`] is for the paths
//! that mutate (append, shrink, split) and is collected *from* the view. What
//! the parser accepts: segments are counted up to the first page that does
//! not carry the segment tag (an uninitialised trailing segment — an all-zero
//! region is an empty leaf), and a record slot inside a segment's count whose
//! op byte is not `i`/`d`/`u` is skipped. What is **corrupt** —
//! [`pio::IoError::Corruption`], never a panic: tiles that are not one whole
//! image or one image per page, and a segment whose count exceeds what a page
//! holds.

use crate::entry::{resolve, resolve_key, OpEntry, OpKind, ENTRY_BYTES};
use btree::{Key, Value};
use pio::{IoError, IoResult};
use std::collections::BTreeMap;
use storage::{new_image, PageId, PageImage};

/// Per-segment header size in bytes (record count + tag).
const SEG_HEADER: usize = 8;
/// Tag byte marking a PIO leaf segment (distinct from the baseline node tags).
const TAG_PIO_LEAF_SEGMENT: u8 = 3;

/// A borrowed, validated leaf region (or a single segment page of one): the
/// segments that hold records, read in place from the images that tile the
/// pages — one image of them all, or one per page. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct LeafView<'a, T = PageImage> {
    tiles: &'a [T],
    /// The live segments: the pages before the first untagged one, each
    /// carrying the segment tag and a count within capacity.
    live: usize,
    page_size: usize,
}

impl<'a, T: AsRef<[u8]>> LeafView<'a, T> {
    /// Validates the leaf pages starting at `first`, tiled by `tiles`.
    pub fn new(first: PageId, tiles: &'a [T], page_size: usize) -> IoResult<Self> {
        let len = |tile: &T| tile.as_ref().len();
        let corrupt = || IoError::Corruption {
            offset: first.saturating_mul(page_size as u64),
            len: tiles.iter().map(len).sum::<usize>() as u64,
        };
        let pages = match tiles {
            [whole] if len(whole).is_multiple_of(page_size) => len(whole) / page_size,
            tiles if tiles.iter().all(|tile| len(tile) == page_size) => tiles.len(),
            _ => return Err(corrupt()),
        };
        if page_size <= SEG_HEADER {
            return Err(corrupt());
        }
        let mut live = 0;
        while live < pages {
            let page = page(tiles, page_size, live);
            if page[0] != TAG_PIO_LEAF_SEGMENT {
                break; // uninitialised trailing segment
            }
            if Self::count(page) > PioLeaf::segment_capacity(page_size) {
                return Err(corrupt());
            }
            live += 1;
        }
        Ok(Self { tiles, live, page_size })
    }

    /// The record count a segment page's header claims.
    fn count(page: &[u8]) -> usize {
        u16::from_le_bytes([page[2], page[3]]) as usize
    }

    /// Segments holding records (pages before the first untagged one).
    pub fn live_segments(&self) -> usize {
        self.live
    }

    /// The record slots of every live segment, oldest first.
    fn slots(&self) -> impl DoubleEndedIterator<Item = &'a [u8]> + 'a {
        let (tiles, page_size) = (self.tiles, self.page_size);
        (0..self.live).flat_map(move |i| {
            let page = page(tiles, page_size, i);
            // In bounds: `new` checked the count against the page's capacity.
            page[SEG_HEADER..SEG_HEADER + Self::count(page) * ENTRY_BYTES].chunks_exact(ENTRY_BYTES)
        })
    }

    /// The records in arrival order, empty slots skipped.
    pub fn records(&self) -> impl Iterator<Item = OpEntry> + 'a {
        self.slots().filter_map(OpEntry::decode)
    }

    /// Latest verdict for `key` ([`PioLeaf::lookup`] without the decode): the
    /// newest record that mentions the key decides.
    pub fn lookup(&self, key: Key) -> Option<Option<Value>> {
        let needle = key.to_le_bytes();
        self.slots()
            .rev()
            .filter(|slot| slot[..8] == needle)
            .find_map(OpEntry::decode)
            .map(|e| e.verdict())
    }

    /// Appends the leaf's live entries with keys in `[lo, hi)` to `out`, in
    /// key order. A leaf that is still strictly ascending inserts — bulk
    /// loaded or freshly shrunk — goes straight from the image; only one with
    /// appended records is resolved first.
    pub fn emit_range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) {
        let mark = out.len();
        let mut prev = None;
        for e in self.records() {
            if e.op != OpKind::Insert || prev.is_some_and(|p| p >= e.key) {
                out.truncate(mark);
                let live = resolve(self.records()).into_iter();
                return out.extend(live.filter(|(k, _)| (lo..hi).contains(k)));
            }
            prev = Some(e.key);
            if (lo..hi).contains(&e.key) {
                out.push((e.key, e.value));
            }
        }
    }
}

/// Page `i` of the leaf pages `tiles` tile: one image of them all, or one
/// per page.
fn page<T: AsRef<[u8]>>(tiles: &[T], page_size: usize, i: usize) -> &[u8] {
    match tiles {
        [whole] => &whole.as_ref()[i * page_size..][..page_size],
        tiles => tiles[i].as_ref(),
    }
}

/// An in-memory image of a PIO B-tree leaf node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PioLeaf {
    /// Number of Leaf Segments (`L`), fixed per tree.
    pub segments: usize,
    /// Records in arrival (append) order, spanning all segments.
    pub records: Vec<OpEntry>,
}

impl PioLeaf {
    /// Creates an empty leaf of `segments` Leaf Segments.
    pub fn new(segments: usize) -> Self {
        assert!(segments >= 1);
        Self {
            segments,
            records: Vec::new(),
        }
    }

    /// Creates a leaf pre-populated with sorted insert records (bulk loading).
    pub fn from_sorted(segments: usize, entries: &[(Key, Value)]) -> Self {
        let records = entries.iter().map(|&(k, v)| OpEntry::insert(k, v)).collect();
        Self { segments, records }
    }

    /// Records that fit in one segment of `page_size` bytes.
    pub fn segment_capacity(page_size: usize) -> usize {
        (page_size - SEG_HEADER) / ENTRY_BYTES
    }

    /// Total record capacity of a leaf with `segments` segments of `page_size` bytes.
    pub fn capacity(segments: usize, page_size: usize) -> usize {
        segments * Self::segment_capacity(page_size)
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the leaf holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Index of the segment the next append lands in / the last segment holding
    /// records (0 for an empty leaf).
    pub fn last_segment(&self, page_size: usize) -> u32 {
        if self.records.is_empty() {
            return 0;
        }
        ((self.records.len() - 1) / Self::segment_capacity(page_size)) as u32
    }

    /// The first key of every segment after the first, in order — the
    /// [`crate::LsMap`] fences of a leaf that is sorted inserts (bulk loaded
    /// or shrunk). Their count is [`PioLeaf::last_segment`].
    pub fn segment_fences(&self, page_size: usize) -> impl Iterator<Item = Key> + '_ {
        let seg_cap = Self::segment_capacity(page_size);
        self.records.iter().step_by(seg_cap).skip(1).map(|e| e.key)
    }

    /// Whether the leaf cannot accept `extra` more appended records.
    pub fn would_overflow(&self, extra: usize, page_size: usize) -> bool {
        self.records.len() + extra > Self::capacity(self.segments, page_size)
    }

    /// Appends records in arrival order (the append-only feature).
    pub fn append(&mut self, entries: &[OpEntry]) {
        self.records.extend_from_slice(entries);
    }

    /// Resolves the appended operations into the final `key → value` state.
    pub fn resolve(&self) -> BTreeMap<Key, Value> {
        resolve(self.records.iter())
    }

    /// Latest verdict for `key` among this leaf's records (see
    /// [`crate::entry::resolve_key`]).
    pub fn lookup(&self, key: Key) -> Option<Option<Value>> {
        resolve_key(self.records.iter(), key)
    }

    /// The shrink operation: cancel insert/delete pairs, apply updates, and
    /// re-materialise the survivors as sorted insert records. Returns the number of
    /// records eliminated.
    ///
    /// In place, with at most one allocation (the stable sort's buffer): a
    /// stable sort by key keeps each key's records in arrival order, so the
    /// last of a run of equal keys is its latest verdict; one compaction pass
    /// keeps that verdict as an insert, or nothing for a delete. The result
    /// is exactly [`crate::entry::resolve`]'s map, as sorted inserts.
    pub fn shrink(&mut self) -> usize {
        let before = self.records.len();
        self.records.sort_by_key(|e| e.key);
        let mut kept = 0;
        for i in 0..before {
            let e = self.records[i];
            // Only slots below `i` have been overwritten, so `i + 1` is unread.
            if self.records.get(i + 1).is_some_and(|next| next.key == e.key) {
                continue; // a later record of the key decides
            }
            if let Some(value) = e.verdict() {
                self.records[kept] = OpEntry::insert(e.key, value);
                kept += 1;
            }
        }
        self.records.truncate(kept);
        before - kept
    }

    /// Splits a (shrunken, sorted) leaf in half, leaving the lower half in `self` and
    /// returning `(fence_key, upper_half)`. Must be called after [`PioLeaf::shrink`].
    pub fn split(&mut self) -> (Key, PioLeaf) {
        debug_assert!(
            self.records.windows(2).all(|w| w[0].key <= w[1].key),
            "split requires a shrunken (sorted) leaf"
        );
        let mid = self.records.len() / 2;
        let upper = self.records.split_off(mid);
        let fence = upper[0].key;
        (
            fence,
            PioLeaf {
                segments: self.segments,
                records: upper,
            },
        )
    }

    /// Serialises the whole leaf into a new image of `segments × page_size`
    /// bytes.
    pub fn encode(&self, page_size: usize) -> PageImage {
        let seg_cap = Self::segment_capacity(page_size);
        assert!(
            self.records.len() <= self.segments * seg_cap,
            "leaf overflow: {} records, capacity {}",
            self.records.len(),
            self.segments * seg_cap
        );
        new_image(self.segments * page_size, |out| {
            for (i, chunk) in self.records.chunks(seg_cap).enumerate() {
                Self::encode_segment_into(chunk, &mut out[i * page_size..(i + 1) * page_size]);
            }
            // Mark segments with zero records too, so decode can distinguish an empty
            // segment from uninitialised storage.
            for i in self.records.chunks(seg_cap).count().max(1)..self.segments {
                out[i * page_size] = TAG_PIO_LEAF_SEGMENT;
            }
            if self.records.is_empty() {
                out[0] = TAG_PIO_LEAF_SEGMENT;
            }
        })
    }

    /// Serialises one segment's records into a page image — the append path
    /// rewrites only the trailing segment(s) this way.
    pub fn encode_segment_into(records: &[OpEntry], page: &mut [u8]) {
        page.fill(0);
        page[0] = TAG_PIO_LEAF_SEGMENT;
        page[2..4].copy_from_slice(&(records.len() as u16).to_le_bytes());
        let mut off = SEG_HEADER;
        for r in records {
            r.encode_into(&mut page[off..off + ENTRY_BYTES]);
            off += ENTRY_BYTES;
        }
    }

    /// Parses the image of the leaf stored at `first`, one of a tree whose
    /// leaves have `segments` segments — the owned form of [`LeafView`], for
    /// the paths that mutate.
    pub fn decode(first: PageId, buf: &[u8], segments: usize, page_size: usize) -> IoResult<Self> {
        let view = LeafView::new(first, std::slice::from_ref(&buf), page_size)?;
        let mut records = Vec::with_capacity(view.live_segments() * Self::segment_capacity(page_size));
        records.extend(view.records());
        Ok(Self { segments, records })
    }

    /// Undoes an append to one segment, in place: rebuilds the image the page
    /// held before a flush appended to it from whatever image it holds now.
    /// `keep` is the segment's record count before the append; `None` means
    /// the append spilled into this segment and it goes back to a
    /// never-written (all-zero) page.
    ///
    /// An append leaves the bytes of the first `keep` records alone — it only
    /// raises the count and fills record slots that were zero — so "keep those
    /// records, reset the header, zero the rest" yields the old image whether
    /// the page holds the old image, the new one, or any torn mix of the two,
    /// and applying it twice changes nothing.
    pub fn undo_append(page: &mut [u8], keep: Option<usize>) {
        let Some(keep) = keep else {
            page.fill(0);
            return;
        };
        page[..SEG_HEADER].fill(0);
        page[0] = TAG_PIO_LEAF_SEGMENT;
        page[2..4].copy_from_slice(&(keep as u16).to_le_bytes());
        let kept_end = (SEG_HEADER + keep * ENTRY_BYTES).min(page.len());
        page[kept_end..].fill(0);
    }

    /// Whether a page image looks like a PIO leaf segment.
    pub fn is_segment(page: &[u8]) -> bool {
        !page.is_empty() && page[0] == TAG_PIO_LEAF_SEGMENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 2048;

    #[test]
    fn capacities() {
        assert_eq!(PioLeaf::segment_capacity(PAGE), (PAGE - SEG_HEADER) / ENTRY_BYTES);
        assert_eq!(PioLeaf::capacity(4, PAGE), 4 * PioLeaf::segment_capacity(PAGE));
    }

    #[test]
    fn whole_leaf_round_trip() {
        let mut leaf = PioLeaf::new(4);
        let ops: Vec<OpEntry> = (0..300u64)
            .map(|i| {
                if i % 7 == 0 {
                    OpEntry::delete(i)
                } else {
                    OpEntry::insert(i, i * 2)
                }
            })
            .collect();
        leaf.append(&ops);
        let buf = leaf.encode(PAGE);
        assert_eq!(buf.len(), 4 * PAGE);
        let back = PioLeaf::decode(0, &buf, 4, PAGE).unwrap();
        assert_eq!(back, leaf);
    }

    #[test]
    fn empty_leaf_round_trip() {
        let leaf = PioLeaf::new(2);
        let back = PioLeaf::decode(0, &leaf.encode(PAGE), 2, PAGE).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.segments, 2);
    }

    #[test]
    fn bulk_loaded_leaf_is_sorted_inserts() {
        let entries: Vec<(Key, Value)> = (0..50).map(|i| (i, i * 10)).collect();
        let leaf = PioLeaf::from_sorted(2, &entries);
        assert_eq!(leaf.len(), 50);
        assert_eq!(leaf.lookup(10), Some(Some(100)));
        assert_eq!(leaf.lookup(51), None);
    }

    #[test]
    fn last_segment_advances_with_appends() {
        let seg_cap = PioLeaf::segment_capacity(PAGE);
        let mut leaf = PioLeaf::new(4);
        assert_eq!(leaf.last_segment(PAGE), 0);
        leaf.append(&(0..seg_cap as u64).map(|i| OpEntry::insert(i, i)).collect::<Vec<_>>());
        assert_eq!(leaf.last_segment(PAGE), 0, "exactly full first segment");
        leaf.append(&[OpEntry::insert(9999, 1)]);
        assert_eq!(leaf.last_segment(PAGE), 1);
    }

    #[test]
    fn appended_ops_resolve_with_later_wins() {
        let mut leaf = PioLeaf::from_sorted(2, &[(1, 10), (2, 20), (3, 30)]);
        leaf.append(&[OpEntry::delete(2), OpEntry::update(3, 33), OpEntry::insert(4, 40)]);
        let state = leaf.resolve();
        assert_eq!(state.get(&1), Some(&10));
        assert_eq!(state.get(&2), None);
        assert_eq!(state.get(&3), Some(&33));
        assert_eq!(state.get(&4), Some(&40));
        assert_eq!(leaf.lookup(2), Some(None));
        assert_eq!(leaf.lookup(5), None);
    }

    #[test]
    fn shrink_cancels_and_sorts() {
        let mut leaf = PioLeaf::new(2);
        leaf.append(&[
            OpEntry::insert(5, 50),
            OpEntry::insert(1, 10),
            OpEntry::insert(3, 30),
            OpEntry::delete(5),
            OpEntry::update(1, 11),
        ]);
        let eliminated = leaf.shrink();
        assert_eq!(eliminated, 3, "5 records collapse to 2");
        let keys: Vec<Key> = leaf.records.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 3]);
        assert_eq!(leaf.lookup(1), Some(Some(11)));
    }

    #[test]
    fn split_produces_a_fence_key_and_disjoint_halves() {
        let entries: Vec<(Key, Value)> = (0..100).map(|i| (i, i)).collect();
        let mut leaf = PioLeaf::from_sorted(4, &entries);
        let (fence, right) = leaf.split();
        assert_eq!(fence, 50);
        assert!(leaf.records.iter().all(|e| e.key < fence));
        assert!(right.records.iter().all(|e| e.key >= fence));
        assert_eq!(leaf.len() + right.len(), 100);
    }

    #[test]
    fn segment_encode_matches_whole_leaf_encode() {
        let seg_cap = PioLeaf::segment_capacity(PAGE);
        let mut leaf = PioLeaf::new(3);
        leaf.append(
            &(0..(seg_cap as u64 + 10))
                .map(|i| OpEntry::insert(i, i))
                .collect::<Vec<_>>(),
        );
        let whole = leaf.encode(PAGE);
        for (seg, records) in [&leaf.records[..seg_cap], &leaf.records[seg_cap..], &[]]
            .into_iter()
            .enumerate()
        {
            let mut single = vec![0xAAu8; PAGE];
            PioLeaf::encode_segment_into(records, &mut single);
            assert_eq!(&whole[seg * PAGE..(seg + 1) * PAGE], single.as_slice(), "segment {seg}");
        }
    }

    /// The logical undo of an append is exact on every image a crash can
    /// leave: the old one, the new one, and every torn mix (a prefix of the new
    /// image over the old) — and it is idempotent.
    #[test]
    fn undo_append_rebuilds_the_old_image_from_any_torn_mix() {
        let records: Vec<OpEntry> = (0..90u64).map(|i| OpEntry::insert(i * 3, i)).collect();
        for old_count in [0usize, 1, 37, 89] {
            let (mut old, mut new) = (vec![0u8; PAGE], vec![0u8; PAGE]);
            PioLeaf::encode_segment_into(&records[..old_count], &mut old);
            PioLeaf::encode_segment_into(&records, &mut new);
            for cut in 0..=PAGE {
                let mut page = [&new[..cut], &old[cut..]].concat();
                PioLeaf::undo_append(&mut page, Some(old_count));
                assert!(page == old, "old_count {old_count}, torn at {cut}");
                PioLeaf::undo_append(&mut page, Some(old_count));
                assert!(page == old, "old_count {old_count}, torn at {cut}: second undo");
            }
            PioLeaf::undo_append(&mut new, None);
            assert!(
                new.iter().all(|&b| b == 0),
                "a spilled-into segment goes back to zeroes"
            );
        }
    }

    #[test]
    fn would_overflow_detects_the_boundary() {
        let cap = PioLeaf::capacity(2, PAGE);
        let mut leaf = PioLeaf::new(2);
        leaf.append(&(0..cap as u64 - 1).map(|i| OpEntry::insert(i, i)).collect::<Vec<_>>());
        assert!(!leaf.would_overflow(1, PAGE));
        assert!(leaf.would_overflow(2, PAGE));
    }

    #[test]
    #[should_panic(expected = "leaf overflow")]
    fn encoding_an_overflowing_leaf_panics() {
        let cap = PioLeaf::capacity(1, PAGE);
        let mut leaf = PioLeaf::new(1);
        leaf.append(&(0..cap as u64 + 1).map(|i| OpEntry::insert(i, i)).collect::<Vec<_>>());
        let _ = leaf.encode(PAGE);
    }

    /// `CRASH_SEED` (or a fixed default) and a xorshift drawn from it.
    fn seeded() -> (u64, impl FnMut(u64) -> u64) {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_1EAF);
        let mut x = seed | 1;
        (seed, move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        })
    }

    /// Everything a read asks of a leaf, answered by the view and by the owned
    /// reference decoded from the same image.
    fn assert_view_matches_owned(image: &[u8], segments: usize, probes: &[Key], ranges: &[(Key, Key)], ctx: &str) {
        let view = LeafView::new(7, std::slice::from_ref(&image), PAGE).unwrap();
        let owned = PioLeaf::decode(7, image, segments, PAGE).unwrap();
        let pages: Vec<&[u8]> = image.chunks(PAGE).collect();
        let paged = LeafView::new(7, &pages, PAGE).unwrap();
        assert_eq!(
            paged.records().collect::<Vec<_>>(),
            owned.records,
            "{ctx}: records, one tile per page"
        );
        assert_eq!(view.records().collect::<Vec<_>>(), owned.records, "{ctx}: records");
        for &key in probes {
            assert_eq!(view.lookup(key), owned.lookup(key), "{ctx}: lookup({key})");
        }
        for &(lo, hi) in ranges {
            let mut emitted = vec![(0, 0)];
            view.emit_range(lo, hi, &mut emitted);
            let expected: Vec<(Key, Value)> = std::iter::once((0, 0))
                .chain(owned.resolve().into_iter().filter(|&(k, _)| lo <= k && k < hi))
                .collect();
            assert_eq!(emitted, expected, "{ctx}: emit_range({lo}, {hi})");
        }
    }

    /// The view against the naive reference — `PioLeaf::decode(..)` then
    /// `lookup` / `resolve` — on seeded leaves: a bulk-loaded prefix plus random
    /// appends of inserts, updates and deletes with duplicate keys across
    /// segments, empty trailing segments, a zeroed slot inside the count, and
    /// an all-zero region; present, deleted and absent keys.
    #[test]
    fn view_differential_against_the_owned_leaf() {
        let (seed, mut rand) = seeded();
        let segments = 3;
        let cap = PioLeaf::capacity(segments, PAGE);
        for round in 0..200 {
            let ctx = format!("CRASH_SEED={seed} round {round}");
            let loaded = rand(cap as u64 / 2) as usize;
            let entries: Vec<(Key, Value)> = (0..loaded as u64).map(|i| (i * 4 + 2, i)).collect();
            let mut leaf = PioLeaf::from_sorted(segments, &entries);
            for i in 0..rand((cap - loaded) as u64 + 1) {
                let key = rand(loaded as u64 * 4 + 40);
                leaf.append(&[match rand(3) {
                    0 => OpEntry::insert(key, 1000 + i),
                    1 => OpEntry::update(key, 2000 + i),
                    _ => OpEntry::delete(key),
                }]);
            }
            let mut image = leaf.encode(PAGE).to_vec();
            let probes: Vec<Key> = (0..60).map(|_| rand(loaded as u64 * 4 + 60)).collect();
            let ranges = [(0, Key::MAX), (probes[0], probes[1]), (40, 41), (9, 3)];
            assert_view_matches_owned(&image, segments, &probes, &ranges, &ctx);
            if !leaf.is_empty() {
                // Zero one slot inside the count: both parsers skip it.
                let slot = rand(leaf.len() as u64) as usize;
                let seg_cap = PioLeaf::segment_capacity(PAGE);
                let at = (slot / seg_cap) * PAGE + SEG_HEADER + (slot % seg_cap) * ENTRY_BYTES;
                image[at..at + ENTRY_BYTES].fill(0);
                assert_view_matches_owned(
                    &image,
                    segments,
                    &probes,
                    &ranges,
                    &format!("{ctx}, slot {slot} zeroed"),
                );
            }
        }
        let zeroes = vec![0u8; segments * PAGE];
        assert_view_matches_owned(&zeroes, segments, &[1, 2, 3], &[(0, Key::MAX)], "an all-zero region");
        assert_eq!(LeafView::new(7, &[&zeroes], PAGE).unwrap().live_segments(), 0);
    }

    /// `shrink` against the naive reference — `entry::resolve` into a
    /// `BTreeMap`, re-materialised as sorted inserts — on seeded two-segment
    /// leaves decoded from their image: a sorted bulk-loaded prefix, then
    /// appends that repeat keys across both segments, delete and update keys
    /// no record holds, and delete a key and insert it again. The surviving
    /// records, their order and the count eliminated must all match.
    #[test]
    fn shrink_differential_against_resolve() {
        let (seed, mut rand) = seeded();
        let segments = 2;
        let cap = PioLeaf::capacity(segments, PAGE);
        for round in 0..300 {
            let ctx = format!("CRASH_SEED={seed} round {round}");
            let loaded = rand(cap as u64 / 2 + 1) as usize;
            let entries: Vec<(Key, Value)> = (0..loaded as u64).map(|i| (i * 4 + 2, i)).collect();
            let mut leaf = PioLeaf::from_sorted(segments, &entries);
            // Keys up to 40 past the loaded ones: present, absent and repeated.
            let span = loaded as u64 * 4 + 40;
            let target = loaded + rand((cap - loaded) as u64 + 1) as usize;
            for i in 0.. {
                let key = rand(span);
                let ops = match rand(4) {
                    0 => vec![OpEntry::insert(key, 1000 + i)],
                    1 => vec![OpEntry::update(key, 2000 + i)],
                    2 => vec![OpEntry::delete(key)],
                    _ => vec![OpEntry::delete(key), OpEntry::insert(key, 3000 + i)],
                };
                if leaf.len() + ops.len() > target {
                    break;
                }
                leaf.append(&ops);
            }
            let mut leaf = PioLeaf::decode(7, &leaf.encode(PAGE), segments, PAGE).unwrap();
            let expected: Vec<OpEntry> = resolve(&leaf.records)
                .into_iter()
                .map(|(k, v)| OpEntry::insert(k, v))
                .collect();
            let before = leaf.len();
            let eliminated = leaf.shrink();
            assert_eq!(leaf.records, expected, "{ctx}: records");
            assert_eq!(eliminated, before - expected.len(), "{ctx}: eliminated");
        }
        // The cases by name: a delete then a re-insert keeps the re-insert, a
        // delete or an update of an absent key, and a key in both segments.
        let seg_cap = PioLeaf::segment_capacity(PAGE) as u64;
        let mut leaf = PioLeaf::from_sorted(segments, &(0..seg_cap).map(|k| (k * 2, k)).collect::<Vec<_>>());
        leaf.append(&[
            OpEntry::delete(4),
            OpEntry::insert(4, 44),
            OpEntry::delete(1),
            OpEntry::update(3, 33),
            OpEntry::update(6, 66),
            OpEntry::delete(8),
        ]);
        let expected: Vec<OpEntry> = resolve(&leaf.records)
            .into_iter()
            .map(|(k, v)| OpEntry::insert(k, v))
            .collect();
        assert_eq!(
            leaf.shrink(),
            6,
            "4's old record and delete, the absent delete, 6's old record, 8 and its delete"
        );
        assert_eq!(leaf.records, expected);
        assert_eq!(leaf.lookup(4), Some(Some(44)));
        assert_eq!(leaf.lookup(3), Some(Some(33)));
        assert_eq!((leaf.lookup(1), leaf.lookup(8)), (None, None));
    }

    /// Fuzz: every value at every header byte of every segment, and a seeded
    /// sample of mutations elsewhere, of an encoded leaf region parses to a
    /// view or to `Corruption` — and a view answers every kind of read without
    /// a panic or an out-of-bounds index, exactly as the owned form does.
    #[test]
    fn fuzz_single_byte_mutations_yield_a_view_or_corruption() {
        let (seed, mut rand) = seeded();
        let segments = 3;
        let mut leaf = PioLeaf::from_sorted(segments, &(0..150u64).map(|k| (k * 3, k)).collect::<Vec<_>>());
        leaf.append(&[OpEntry::delete(30), OpEntry::update(33, 9), OpEntry::insert(1, 1)]);
        let image = leaf.encode(PAGE);
        let sampled: Vec<(usize, u8)> = (0..2000)
            .map(|_| (rand(image.len() as u64) as usize, rand(256) as u8))
            .collect();
        let every_header_value = (0..segments)
            .flat_map(|seg| (0..SEG_HEADER).map(move |b| seg * PAGE + b))
            .flat_map(|at| (0..=255u8).map(move |v| (at, v)));
        for (at, value) in every_header_value.chain(sampled) {
            let mut mutated = image.to_vec();
            mutated[at] = value;
            let ctx = format!("CRASH_SEED={seed} byte {at} = {value}");
            match LeafView::new(7, &[&mutated], PAGE) {
                Ok(_) => assert_view_matches_owned(&mutated, segments, &[0, 1, 30, 33, 449], &[(0, Key::MAX)], &ctx),
                Err(e) => {
                    assert!(matches!(e, IoError::Corruption { .. }), "{ctx}: {e}");
                    assert!(PioLeaf::decode(7, &mutated, segments, PAGE).is_err(), "{ctx}");
                }
            }
        }
        // An image that is not whole pages is corruption too, not a slice
        // panic, and so are tiles that are neither one image nor one per page.
        assert!(LeafView::new(7, &[&image[..PAGE + 1]], PAGE).is_err());
        assert!(LeafView::new(7, &[&image[..2 * PAGE], &image[2 * PAGE..]], PAGE).is_err());
        assert!(PioLeaf::decode(7, &image[..PAGE + 1], segments, PAGE).is_err());
    }
}
