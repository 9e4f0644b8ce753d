//! The LSMap: an in-memory map caching the last Leaf Segment of every leaf node,
//! and the segment fences of every sorted leaf.
//!
//! Section 3.2.2: thanks to the append-only leaf format, an update operation only
//! needs to read and rewrite the *last* Leaf Segment of its leaf node. Which segment
//! is last is cached in memory by the LSMap so the tree does not have to read half
//! the leaf to find out. The paper compresses the cached id by storing it relative to
//! `⌊L/2⌋` (two bits per leaf); this reproduction keeps the plain id per leaf and
//! accounts for the map's memory footprint explicitly instead.
//!
//! **Segment fences.** A leaf whose records are all strictly ascending inserts —
//! every bulk-loaded leaf, and every leaf bupdate's full path has just shrunk or
//! split — holds each key in the one segment its position puts it in. For such a
//! leaf the map also keeps the first key of every segment after the first, so a
//! point lookup can read the one segment page that can hold its key instead of
//! the whole region ([`LsMap::segment_of`]). The fences describe the leaf as the
//! last flush wrote it, so anything that may change the leaf otherwise drops
//! them: an append ([`LsMap::set`]), a flush rollback's restore (`set` or
//! [`LsMap::remove`]), and recovery and crash simulation ([`LsMap::clear`]).
//! A leaf without fences is read whole, which is always correct. Fences are not
//! learned again after a restart: a leaf gets them back when bupdate next
//! rewrites it.

use btree::Key;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use storage::PageId;

/// The maps' hasher. Their keys are page ids the store handed out, not input
/// an adversary picks, so one multiply and a fold spread them well enough,
/// at a fraction of the default SipHash's cost — a point lookup of a fenced
/// leaf probes both maps once per key.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, page: u64) {
        let h = (self.0 ^ page).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PageMap<V> = HashMap<PageId, V, BuildHasherDefault<PageHasher>>;

/// What the map knows about one leaf.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    /// Index of the last segment holding records.
    last: u32,
    /// Whether the leaf is sorted inserts and its fences are in
    /// [`LsMap::fences`].
    fenced: bool,
}

/// In-memory map from a leaf node (identified by its first page id) to the index of
/// its last Leaf Segment, plus the segment fences of sorted leaves (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct LsMap {
    leaves: PageMap<Leaf>,
    /// First key of segment `s ≥ 1` of a fenced leaf, keyed by that segment's
    /// page (`leaf + s`): no per-leaf allocation, one probe per fence.
    fences: PageMap<Key>,
}

impl LsMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `leaf`'s last segment is `ls`, and that its records are no
    /// longer known to be sorted: any fences it had are dropped.
    pub fn set(&mut self, leaf: PageId, ls: u32) {
        self.drop_fences(leaf);
        self.leaves.insert(
            leaf,
            Leaf {
                last: ls,
                fenced: false,
            },
        );
    }

    /// Records a leaf whose records are all strictly ascending inserts:
    /// `fences` yields the first key of every segment after the first, in
    /// order, and their count is the leaf's last segment.
    pub fn set_sorted(&mut self, leaf: PageId, fences: impl IntoIterator<Item = Key>) {
        self.drop_fences(leaf);
        let mut last = 0;
        for key in fences {
            last += 1;
            self.fences.insert(leaf + last as u64, key);
        }
        self.leaves.insert(leaf, Leaf { last, fenced: true });
    }

    /// The cached last-segment index of `leaf`, if known.
    pub fn get(&self, leaf: PageId) -> Option<u32> {
        self.leaves.get(&leaf).map(|l| l.last)
    }

    /// The one segment of a fenced `leaf` that can hold `key`: the number of
    /// fences at or below it. `None` when the leaf has no fences.
    pub fn segment_of(&self, leaf: PageId, key: Key) -> Option<u32> {
        let entry = self.leaves.get(&leaf).filter(|l| l.fenced)?;
        Some(
            (1..=entry.last)
                .take_while(|&s| self.fences[&(leaf + s as u64)] <= key)
                .count() as u32,
        )
    }

    /// The fences of `leaf`, in segment order, if it has them.
    pub fn fences(&self, leaf: PageId) -> Option<impl Iterator<Item = Key> + '_> {
        let entry = self.leaves.get(&leaf).filter(|l| l.fenced)?;
        Some((1..=entry.last).map(move |s| self.fences[&(leaf + s as u64)]))
    }

    /// Drops the entry for a leaf that no longer exists (after a merge or split that
    /// frees the node).
    pub fn remove(&mut self, leaf: PageId) {
        self.drop_fences(leaf);
        self.leaves.remove(&leaf);
    }

    fn drop_fences(&mut self, leaf: PageId) {
        if let Some(&Leaf { last, fenced: true }) = self.leaves.get(&leaf) {
            for s in 1..=last {
                self.fences.remove(&(leaf + s as u64));
            }
        }
    }

    /// Number of leaves with fences.
    #[cfg(test)]
    pub(crate) fn fenced_leaves(&self) -> usize {
        self.leaves.values().filter(|l| l.fenced).count()
    }

    /// Number of leaves tracked.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Approximate main-memory footprint in bytes (used when dividing the memory
    /// budget between the OPQ, the LSMap and the buffer pool, as in Section 4.1.3),
    /// fences included.
    pub fn memory_bytes(&self) -> usize {
        // key + value + HashMap overhead estimate per entry, in each map
        self.leaves.len() * (8 + 8 + 12) + self.fences.len() * (8 + 8 + 12)
    }

    /// Clears the map, fences included.
    pub fn clear(&mut self) {
        self.leaves.clear();
        self.fences.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut m = LsMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(10), None);
        m.set(10, 2);
        m.set(20, 0);
        assert_eq!(m.get(10), Some(2));
        assert_eq!(m.len(), 2);
        m.set(10, 3);
        assert_eq!(m.get(10), Some(3), "set overwrites");
        m.remove(10);
        assert_eq!(m.get(10), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn memory_accounting_grows_with_entries() {
        let mut m = LsMap::new();
        assert_eq!(m.memory_bytes(), 0);
        for i in 0..100 {
            m.set(i * 4, 0);
        }
        assert!(m.memory_bytes() >= 100 * 12);
        let unfenced = m.memory_bytes();
        m.set_sorted(0, [7, 9]);
        assert!(m.memory_bytes() > unfenced, "fences count");
        m.clear();
        assert_eq!(m.memory_bytes(), 0);
    }

    /// A fenced leaf answers which segment holds a key; an append, a remove or
    /// a clear drops its fences, and the fences of one leaf never touch
    /// another's.
    #[test]
    fn fences_locate_segments_until_dropped() {
        let mut m = LsMap::new();
        m.set_sorted(100, [50, 80, 120]);
        m.set_sorted(104, [900]);
        m.set_sorted(108, []);
        assert_eq!(m.get(100), Some(3), "the fence count is the last segment");
        let segments: Vec<Option<u32>> = [0, 49, 50, 79, 80, 119, 120, 1 << 40]
            .into_iter()
            .map(|k| m.segment_of(100, k))
            .collect();
        assert_eq!(segments, [0, 0, 1, 1, 2, 2, 3, 3].map(Some));
        assert_eq!(m.fences(100).unwrap().collect::<Vec<_>>(), [50, 80, 120]);
        assert_eq!((m.get(108), m.segment_of(108, 5)), (Some(0), Some(0)));
        assert_eq!(m.segment_of(200, 5), None, "an unknown leaf has no fences");

        m.set(100, 3);
        assert_eq!(m.segment_of(100, 60), None, "an append drops the fences");
        assert!(m.fences(100).is_none());
        assert_eq!(m.segment_of(104, 900), Some(1), "another leaf keeps its own");
        m.set_sorted(100, [60]);
        assert_eq!((m.get(100), m.segment_of(100, 60)), (Some(1), Some(1)));
        m.remove(104);
        assert_eq!(m.segment_of(104, 900), None);
        assert_eq!(m.fences.len(), 1, "only leaf 100's one fence is left");
        m.clear();
        assert_eq!(m.segment_of(100, 60), None);
    }
}
