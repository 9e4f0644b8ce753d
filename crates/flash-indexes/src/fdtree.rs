//! FD-tree: an in-memory head tree plus a cascade of sorted runs on flash.
//!
//! Faithfulness notes (relative to Li et al.):
//!
//! * Inserts go into the **head tree** (level 0, main memory). When it fills, it is
//!   merged into level 1; when level `i` exceeds its capacity (`size ratio k` times
//!   the previous level) it is merged into level `i+1`. Merges read and write the
//!   runs **sequentially** — the access pattern FD-tree is designed around.
//! * Deletes insert tombstone ("filter") entries that cancel matching records during
//!   merges and are filtered from query results.
//! * Every level is a sorted run of fixed-size pages; searches probe **one page per
//!   level** located via fence pointers. The original stores fences inside the runs
//!   of the next level; this implementation keeps each level's fence array (first key
//!   of every page) in memory, which costs the same one-page-per-level probe.
//! * As in the paper's analysis, the point-search cost grows with the number of
//!   levels, which is why the FD-tree trails the B+-tree and the PIO B-tree on
//!   searches while being very fast on inserts.

use pio::IoResult;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{CachedStore, PageId};

/// Key type.
pub type Key = u64;
/// Value (record pointer) type.
pub type Value = u64;

const RECORD_BYTES: usize = 17;

/// Tuning knobs of the FD-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdTreeConfig {
    /// Capacity of the in-memory head tree in records.
    pub head_capacity: usize,
    /// Size ratio `k` between adjacent levels.
    pub size_ratio: usize,
}

impl Default for FdTreeConfig {
    fn default() -> Self {
        Self {
            head_capacity: 4096,
            size_ratio: 8,
        }
    }
}

/// Operation counters of an [`FdTree`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FdTreeStats {
    /// Point searches.
    pub searches: u64,
    /// Update-type operations accepted.
    pub updates: u64,
    /// Range searches.
    pub range_searches: u64,
    /// Level-to-level merges performed.
    pub merges: u64,
}

/// One record of a sorted run: a key, a value and a tombstone flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    key: Key,
    value: Value,
    tombstone: bool,
}

/// One on-flash level: a sorted run of pages plus its in-memory fences.
#[derive(Debug, Clone, Default)]
struct Level {
    pages: Vec<PageId>,
    /// First key of each page (fence pointers).
    fences: Vec<Key>,
    records: usize,
}

/// The FD-tree.
pub struct FdTree {
    store: Arc<CachedStore>,
    config: FdTreeConfig,
    /// Level 0: the in-memory head tree. Tombstones are represented by `None`.
    head: BTreeMap<Key, Option<Value>>,
    levels: Vec<Level>,
    stats: FdTreeStats,
}

impl FdTree {
    /// Creates an empty FD-tree over `store`.
    pub fn new(store: Arc<CachedStore>, config: FdTreeConfig) -> Self {
        assert!(config.head_capacity > 0 && config.size_ratio >= 2);
        Self {
            store,
            config,
            head: BTreeMap::new(),
            levels: Vec::new(),
            stats: FdTreeStats::default(),
        }
    }

    /// Bulk-loads sorted entries by writing them directly as the bottom level.
    pub fn bulk_load(store: Arc<CachedStore>, entries: &[(Key, Value)], config: FdTreeConfig) -> IoResult<Self> {
        let mut tree = Self::new(store, config);
        if entries.is_empty() {
            return Ok(tree);
        }
        let records: Vec<Record> = entries
            .iter()
            .map(|&(key, value)| Record {
                key,
                value,
                tombstone: false,
            })
            .collect();
        // Place the bulk data at the deepest level that can hold it.
        let mut level_idx = 0usize;
        let mut cap = tree.config.head_capacity * tree.config.size_ratio;
        while cap < records.len() {
            cap *= tree.config.size_ratio;
            level_idx += 1;
        }
        while tree.levels.len() <= level_idx {
            tree.levels.push(Level::default());
        }
        let level = tree.write_run(&records)?;
        tree.levels[level_idx] = level;
        Ok(tree)
    }

    /// The store the index performs I/O through.
    pub fn store(&self) -> &Arc<CachedStore> {
        &self.store
    }

    /// Operation counters.
    pub fn stats(&self) -> FdTreeStats {
        self.stats
    }

    /// Number of on-flash levels currently in use.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    fn records_per_page(&self) -> usize {
        self.store.page_size() / RECORD_BYTES
    }

    fn level_capacity(&self, level_idx: usize) -> usize {
        self.config.head_capacity * self.config.size_ratio.pow(level_idx as u32 + 1)
    }

    /// Serialises a sorted record run into consecutive pages and returns the level.
    fn write_run(&mut self, records: &[Record]) -> IoResult<Level> {
        let per_page = self.records_per_page();
        let page_size = self.store.page_size();
        let n_pages = records.len().div_ceil(per_page).max(1);
        let first = self.store.allocate_contiguous(n_pages as u64);
        let mut level = Level {
            pages: Vec::with_capacity(n_pages),
            fences: Vec::with_capacity(n_pages),
            records: records.len(),
        };
        let mut writes: Vec<(PageId, Vec<u8>)> = Vec::new();
        for (i, chunk) in records.chunks(per_page.max(1)).enumerate() {
            let page = first + i as u64;
            let mut image = vec![0u8; page_size];
            for (j, rec) in chunk.iter().enumerate() {
                let off = j * RECORD_BYTES;
                image[off..off + 8].copy_from_slice(&rec.key.to_le_bytes());
                image[off + 8..off + 16].copy_from_slice(&rec.value.to_le_bytes());
                image[off + 16] = if rec.tombstone { 2 } else { 1 };
            }
            level.pages.push(page);
            level.fences.push(chunk[0].key);
            writes.push((page, image));
        }
        if records.is_empty() {
            level.pages.push(first);
            level.fences.push(0);
            writes.push((first, vec![0u8; page_size]));
        }
        // Merges write their output sequentially; model that as page-at-a-time writes
        // (sequential, not parallel — FD-tree predates psync I/O).
        for (page, image) in writes {
            self.store.write_page(page, image.into())?;
        }
        Ok(level)
    }

    fn read_run_page(&self, page: PageId) -> IoResult<Vec<Record>> {
        let image = self.store.read_page(page)?;
        let mut out = Vec::new();
        for chunk in image.chunks(RECORD_BYTES) {
            if chunk.len() < RECORD_BYTES || chunk[16] == 0 {
                continue;
            }
            out.push(Record {
                key: u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")),
                value: u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes")),
                tombstone: chunk[16] == 2,
            });
        }
        Ok(out)
    }

    fn read_whole_level(&self, level: &Level) -> IoResult<Vec<Record>> {
        let mut out = Vec::new();
        for &page in &level.pages {
            out.extend(self.read_run_page(page)?);
        }
        Ok(out)
    }

    /// Inserts `key → value`.
    pub fn insert(&mut self, key: Key, value: Value) -> IoResult<()> {
        self.stats.updates += 1;
        self.head.insert(key, Some(value));
        self.maybe_cascade()
    }

    /// Deletes `key` (a tombstone entry).
    pub fn delete(&mut self, key: Key) -> IoResult<()> {
        self.stats.updates += 1;
        self.head.insert(key, None);
        self.maybe_cascade()
    }

    /// Updates `key` (same cost as an insert).
    pub fn update(&mut self, key: Key, value: Value) -> IoResult<()> {
        self.insert(key, value)
    }

    fn maybe_cascade(&mut self) -> IoResult<()> {
        if self.head.len() < self.config.head_capacity {
            return Ok(());
        }
        // Merge the head into level 1, then ripple down while levels overflow.
        let head: Vec<Record> = std::mem::take(&mut self.head)
            .into_iter()
            .map(|(key, v)| Record {
                key,
                value: v.unwrap_or(0),
                tombstone: v.is_none(),
            })
            .collect();
        self.merge_into_level(0, head)?;
        let mut i = 0;
        while i < self.levels.len() {
            if self.levels[i].records > self.level_capacity(i) {
                let run = self.read_whole_level(&self.levels[i].clone())?;
                for &page in &self.levels[i].pages {
                    self.store.free(page);
                }
                self.levels[i] = self.write_run(&[])?;
                self.levels[i].records = 0;
                self.merge_into_level(i + 1, run)?;
            }
            i += 1;
        }
        Ok(())
    }

    /// Merges `incoming` (sorted by key, later entries win) into on-flash level
    /// `level_idx`, creating the level if needed.
    fn merge_into_level(&mut self, level_idx: usize, incoming: Vec<Record>) -> IoResult<()> {
        self.stats.merges += 1;
        while self.levels.len() <= level_idx {
            self.levels.push(Level::default());
        }
        let existing = if self.levels[level_idx].pages.is_empty() {
            Vec::new()
        } else {
            self.read_whole_level(&self.levels[level_idx].clone())?
        };
        for &page in &self.levels[level_idx].pages {
            self.store.free(page);
        }
        // Merge: the incoming run is newer, so its records win; tombstones at the
        // bottom level are dropped entirely.
        let mut merged: BTreeMap<Key, Record> = BTreeMap::new();
        for rec in existing.into_iter().chain(incoming) {
            merged.insert(rec.key, rec);
        }
        let is_bottom = level_idx + 1 >= self.levels.len();
        let records: Vec<Record> = merged.into_values().filter(|r| !(is_bottom && r.tombstone)).collect();
        self.levels[level_idx] = self.write_run(&records)?;
        Ok(())
    }

    /// Point search: the head tree, then one fence-guided page per level.
    pub fn search(&mut self, key: Key) -> IoResult<Option<Value>> {
        self.stats.searches += 1;
        if let Some(v) = self.head.get(&key) {
            return Ok(*v);
        }
        for level in &self.levels {
            if level.pages.is_empty() {
                continue;
            }
            let idx = match level.fences.binary_search(&key) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            let records = self.read_run_page(level.pages[idx])?;
            if let Some(rec) = records.iter().find(|r| r.key == key) {
                return Ok(if rec.tombstone { None } else { Some(rec.value) });
            }
        }
        Ok(None)
    }

    /// Range search over `[lo, hi)`: scans the overlapping pages of every level and
    /// merges, newer levels winning.
    pub fn range_search(&mut self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        self.stats.range_searches += 1;
        if lo >= hi {
            return Ok(Vec::new());
        }
        let mut merged: BTreeMap<Key, Option<Value>> = BTreeMap::new();
        // Older (deeper) levels first so newer records overwrite them.
        for level in self.levels.iter().rev() {
            if level.pages.is_empty() {
                continue;
            }
            let start = match level.fences.binary_search(&lo) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            for (idx, &page) in level.pages.iter().enumerate().skip(start) {
                if level.fences[idx] >= hi {
                    break;
                }
                for rec in self.read_run_page(page)? {
                    if rec.key >= lo && rec.key < hi {
                        merged.insert(rec.key, if rec.tombstone { None } else { Some(rec.value) });
                    }
                }
            }
        }
        for (&key, v) in self.head.range(lo..hi) {
            merged.insert(key, *v);
        }
        Ok(merged.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use storage::{PageStore, WritePolicy};

    fn store() -> Arc<CachedStore> {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 30));
        Arc::new(CachedStore::new(
            PageStore::new(io, 2048),
            64,
            WritePolicy::WriteThrough,
        ))
    }

    fn small_config() -> FdTreeConfig {
        FdTreeConfig {
            head_capacity: 128,
            size_ratio: 4,
        }
    }

    #[test]
    fn insert_search_round_trip_with_cascades() {
        let mut t = FdTree::new(store(), small_config());
        for k in 0..5_000u64 {
            t.insert(k, k + 1).unwrap();
        }
        assert!(t.levels() >= 2, "5000 entries with a 128-entry head must cascade");
        assert!(t.stats().merges > 0);
        for k in (0..5_000u64).step_by(97) {
            assert_eq!(t.search(k).unwrap(), Some(k + 1), "key {k}");
        }
        assert_eq!(t.search(10_000).unwrap(), None);
    }

    #[test]
    fn deletes_tombstone_and_updates_overwrite() {
        let mut t = FdTree::new(store(), small_config());
        for k in 0..1_000u64 {
            t.insert(k, k).unwrap();
        }
        t.delete(500).unwrap();
        t.update(600, 999).unwrap();
        assert_eq!(t.search(500).unwrap(), None);
        assert_eq!(t.search(600).unwrap(), Some(999));
        // Push everything through more cascades and re-check.
        for k in 1_000..3_000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.search(500).unwrap(), None);
        assert_eq!(t.search(600).unwrap(), Some(999));
    }

    #[test]
    fn bulk_load_places_data_in_a_deep_level() {
        let entries: Vec<(Key, Value)> = (0..20_000u64).map(|k| (k * 2, k)).collect();
        let mut t = FdTree::bulk_load(store(), &entries, small_config()).unwrap();
        assert_eq!(t.search(200).unwrap(), Some(100));
        assert_eq!(t.search(201).unwrap(), None);
        assert!(t.levels() >= 2);
    }

    #[test]
    fn range_search_merges_levels_and_head() {
        let entries: Vec<(Key, Value)> = (0..2_000u64).map(|k| (k * 2, k)).collect();
        let mut t = FdTree::bulk_load(store(), &entries, small_config()).unwrap();
        t.delete(100).unwrap();
        t.insert(101, 7).unwrap();
        let r = t.range_search(90, 110).unwrap();
        assert!(r.contains(&(101, 7)));
        assert!(!r.iter().any(|&(k, _)| k == 100));
        assert!(r.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn search_reads_at_most_one_page_per_level() {
        let entries: Vec<(Key, Value)> = (0..30_000u64).map(|k| (k, k)).collect();
        let mut t = FdTree::bulk_load(store(), &entries, small_config()).unwrap();
        t.store().drop_cache();
        let before = t.store().store().stats().page_reads;
        t.search(15_000).unwrap();
        let reads = t.store().store().stats().page_reads - before;
        assert!(
            reads as usize <= t.levels(),
            "fence-guided search must read at most one page per level: {reads} reads, {} levels",
            t.levels()
        );
    }

    #[test]
    fn inserts_are_cheaper_than_a_btree_style_read_modify_write() {
        // The defining property: an insert's amortised I/O is far below one page
        // write per operation.
        let mut t = FdTree::new(
            store(),
            FdTreeConfig {
                head_capacity: 1024,
                size_ratio: 8,
            },
        );
        for k in 0..10_000u64 {
            t.insert(k, k).unwrap();
        }
        let writes = t.store().store().stats().page_writes;
        assert!(
            writes < 2_000,
            "10k inserts should need far fewer than 10k page writes, got {writes}"
        );
    }
}
