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

use crate::entry::{resolve, resolve_key, OpEntry, ENTRY_BYTES};
use btree::{Key, Value};
use std::collections::BTreeMap;

/// Per-segment header size in bytes (record count + tag).
const SEG_HEADER: usize = 8;
/// Tag byte marking a PIO leaf segment (distinct from the baseline node tags).
const TAG_PIO_LEAF_SEGMENT: u8 = 3;

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
    pub fn shrink(&mut self) -> usize {
        let before = self.records.len();
        let resolved = self.resolve();
        self.records = resolved.into_iter().map(|(k, v)| OpEntry::insert(k, v)).collect();
        before - self.records.len()
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

    /// Serialises the whole leaf into `segments × page_size` bytes.
    pub fn encode(&self, page_size: usize) -> Vec<u8> {
        let seg_cap = Self::segment_capacity(page_size);
        assert!(
            self.records.len() <= self.segments * seg_cap,
            "leaf overflow: {} records, capacity {}",
            self.records.len(),
            self.segments * seg_cap
        );
        let mut out = vec![0u8; self.segments * page_size];
        for (i, chunk) in self.records.chunks(seg_cap).enumerate() {
            let seg = &mut out[i * page_size..(i + 1) * page_size];
            Self::encode_segment_into(chunk, seg);
        }
        // Mark segments with zero records too, so decode can distinguish an empty
        // segment from uninitialised storage.
        for i in self.records.chunks(seg_cap).count().max(1)..self.segments {
            out[i * page_size] = TAG_PIO_LEAF_SEGMENT;
        }
        if self.records.is_empty() {
            out[0] = TAG_PIO_LEAF_SEGMENT;
        }
        out
    }

    /// Serialises one segment's records into a page image.
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

    /// Serialises the records belonging to segment `seg` (by index) into a fresh page
    /// image — used by the append path, which rewrites only the trailing segment(s).
    pub fn encode_segment(&self, seg: usize, page_size: usize) -> Vec<u8> {
        let seg_cap = Self::segment_capacity(page_size);
        let start = seg * seg_cap;
        let end = ((seg + 1) * seg_cap).min(self.records.len());
        let records = if start < self.records.len() {
            &self.records[start..end]
        } else {
            &[]
        };
        let mut page = vec![0u8; page_size];
        Self::encode_segment_into(records, &mut page);
        page
    }

    /// Parses one segment page image into its records.
    pub fn decode_segment(page: &[u8]) -> Vec<OpEntry> {
        assert_eq!(page[0], TAG_PIO_LEAF_SEGMENT, "not a PIO leaf segment");
        let count = u16::from_le_bytes(page[2..4].try_into().expect("2 bytes")) as usize;
        let mut out = Vec::with_capacity(count);
        let mut off = SEG_HEADER;
        for _ in 0..count {
            if let Some(e) = OpEntry::decode(&page[off..off + ENTRY_BYTES]) {
                out.push(e);
            }
            off += ENTRY_BYTES;
        }
        out
    }

    /// Parses a whole-leaf image of `segments × page_size` bytes.
    pub fn decode(buf: &[u8], segments: usize, page_size: usize) -> Self {
        assert_eq!(buf.len(), segments * page_size, "leaf image size mismatch");
        let mut records = Vec::new();
        for i in 0..segments {
            let page = &buf[i * page_size..(i + 1) * page_size];
            if page[0] != TAG_PIO_LEAF_SEGMENT {
                break; // uninitialised trailing segment
            }
            records.extend(Self::decode_segment(page));
        }
        Self { segments, records }
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
        let back = PioLeaf::decode(&buf, 4, PAGE);
        assert_eq!(back, leaf);
    }

    #[test]
    fn empty_leaf_round_trip() {
        let leaf = PioLeaf::new(2);
        let back = PioLeaf::decode(&leaf.encode(PAGE), 2, PAGE);
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
        for seg in 0..3 {
            let single = leaf.encode_segment(seg, PAGE);
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
}
