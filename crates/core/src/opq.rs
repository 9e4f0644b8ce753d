//! The Operation Queue (OPQ) of Section 3.1.3.
//!
//! The OPQ is an in-memory, array-based structure that buffers the index records of
//! update operations until they are batch-processed by bupdate. It is divided into a
//! **sorted region** and a **recently appended region**, separated by `sortedOffset`:
//! appends are O(1) (no ordering maintained), and every `speriod` appends the
//! unsorted tail is sorted and merged into the sorted region (the merge step of
//! merge-sort). Point and range searches consult the queue before the tree: the
//! sorted region by binary search, the unsorted tail by a linear scan.
//!
//! The queue's capacity is expressed in 4 KiB-page equivalents, exactly like the `O`
//! parameter of the paper's cost model, so the Figure-11 trade-off between OPQ size
//! and buffer-pool size carries over directly.

use crate::entry::{OpEntry, ENTRY_BYTES};
use btree::{Key, Value};

/// The in-memory operation queue.
#[derive(Debug, Clone)]
pub struct OperationQueue {
    entries: Vec<OpEntry>,
    /// Entries before this index are sorted by key (ties broken by arrival order).
    sorted_offset: usize,
    capacity: usize,
    speriod: usize,
    appends_since_sort: usize,
    /// Total appends over the queue's lifetime.
    total_appends: u64,
    /// Number of sort/merge passes executed.
    sorts: u64,
}

impl OperationQueue {
    /// Creates a queue that can hold the number of entries that fit in `opq_pages`
    /// pages of `page_size` bytes, sorting the unsorted tail every `speriod` appends.
    pub fn new(opq_pages: usize, page_size: usize, speriod: usize) -> Self {
        let capacity = ((opq_pages * page_size) / ENTRY_BYTES).max(1);
        Self::with_capacity(capacity, speriod)
    }

    /// Creates a queue with an explicit entry capacity.
    pub fn with_capacity(capacity: usize, speriod: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity.min(1 << 20)),
            sorted_offset: 0,
            capacity: capacity.max(1),
            speriod: speriod.max(1),
            appends_since_sort: 0,
            total_appends: 0,
            sorts: 0,
        }
    }

    /// Maximum number of entries the queue holds before a flush is required.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue has reached its capacity (the bupdate trigger).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Number of sort/merge passes performed so far.
    pub fn sorts(&self) -> u64 {
        self.sorts
    }

    /// Total appends over the queue's lifetime.
    pub fn total_appends(&self) -> u64 {
        self.total_appends
    }

    /// The `sortedOffset` boundary (exposed for tests and introspection).
    pub fn sorted_offset(&self) -> usize {
        self.sorted_offset
    }

    /// Appends an update operation. Returns `true` if the queue is full afterwards
    /// (the caller should trigger bupdate). Appending never sorts more than the
    /// periodic `speriod` maintenance requires.
    pub fn append(&mut self, entry: OpEntry) -> bool {
        self.entries.push(entry);
        self.total_appends += 1;
        self.appends_since_sort += 1;
        if self.appends_since_sort >= self.speriod {
            self.sort_and_merge();
        }
        self.is_full()
    }

    /// Sorts the recently appended region and merges it into the sorted region
    /// (the `speriod` maintenance of the paper). Stable with respect to arrival
    /// order of equal keys, which is what makes later entries override earlier ones
    /// during resolution.
    pub fn sort_and_merge(&mut self) {
        if self.sorted_offset < self.entries.len() {
            // Tag each entry with its arrival index so the merge stays stable even
            // though we sort by key.
            let sorted: Vec<OpEntry> = {
                let (head, tail) = self.entries.split_at(self.sorted_offset);
                let mut tail_idx: Vec<(usize, OpEntry)> = tail.iter().copied().enumerate().collect();
                tail_idx.sort_by(|a, b| a.1.key.cmp(&b.1.key).then(a.0.cmp(&b.0)));
                // Merge two key-sorted runs.
                let mut merged = Vec::with_capacity(self.entries.len());
                let mut i = 0usize;
                let mut j = 0usize;
                while i < head.len() && j < tail_idx.len() {
                    if head[i].key <= tail_idx[j].1.key {
                        merged.push(head[i]);
                        i += 1;
                    } else {
                        merged.push(tail_idx[j].1);
                        j += 1;
                    }
                }
                merged.extend_from_slice(&head[i..]);
                merged.extend(tail_idx[j..].iter().map(|&(_, e)| e));
                merged
            };
            self.entries = sorted;
            self.sorted_offset = self.entries.len();
        }
        self.appends_since_sort = 0;
        self.sorts += 1;
    }

    /// In-OPQ search (Section 3.1.3): binary search over the sorted region plus a
    /// linear scan of the unsorted tail. Returns the latest verdict for `key`:
    /// `Some(Some(v))` established, `Some(None)` deleted, `None` not mentioned.
    pub fn lookup(&self, key: Key) -> Option<Option<Value>> {
        let sorted = &self.entries[..self.sorted_offset];
        let mut verdict: Option<Option<Value>> = None;
        // All equal keys are adjacent in the sorted region, in arrival order.
        let start = sorted.partition_point(|e| e.key < key);
        for e in &sorted[start..] {
            if e.key != key {
                break;
            }
            verdict = Some(e.verdict());
        }
        for e in &self.entries[self.sorted_offset..] {
            if e.key == key {
                verdict = Some(e.verdict());
            }
        }
        verdict
    }

    /// Fills `out` with every queued entry with a key in `[lo, hi)`, entries on one
    /// key in arrival order (used to overlay the OPQ on a prange-search result).
    pub fn entries_in_range(&self, lo: Key, hi: Key, out: &mut Vec<OpEntry>) {
        out.clear();
        out.extend(self.entries.iter().filter(|e| e.key >= lo && e.key < hi));
    }

    /// Removes and returns up to `bcnt` entries for batch processing, sorted by key
    /// (arrival order preserved among equal keys). The paper removes the *chosen*
    /// entries only when bupdate terminates; the tree keeps them aside during the
    /// flush, so taking them here models the same visibility because the tree holds
    /// the index lock for the duration of the flush.
    pub fn take_batch(&mut self, bcnt: usize) -> Vec<OpEntry> {
        self.sort_and_merge();
        let n = bcnt.min(self.entries.len());
        let taken: Vec<OpEntry> = self.entries.drain(..n).collect();
        self.sorted_offset = self.entries.len();
        taken
    }

    /// Removes and returns every queued entry (checkpoint / shutdown flush).
    pub fn take_all(&mut self) -> Vec<OpEntry> {
        self.take_batch(usize::MAX)
    }

    /// Puts a batch obtained from [`OperationQueue::take_batch`] back at the *front*
    /// of the queue — the failure-recovery path of a bupdate. `take_batch` removes
    /// the smallest-key prefix of the fully sorted queue, so restoring that prefix
    /// at the front preserves both key order and arrival order (recency) for
    /// overlapping keys.
    pub fn restore_front(&mut self, batch: Vec<OpEntry>) {
        if batch.is_empty() {
            return;
        }
        debug_assert!(
            batch.windows(2).all(|w| w[0].key <= w[1].key),
            "restored batch must be sorted"
        );
        if let (Some(last), Some(first)) = (batch.last(), self.entries.first()) {
            debug_assert!(last.key <= first.key, "restored batch must precede the queue");
        }
        self.sorted_offset += batch.len();
        self.entries.splice(0..0, batch);
    }

    /// Clears the queue (crash simulation: volatile contents are lost).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.sorted_offset = 0;
        self.appends_since_sort = 0;
    }

    /// Iterates over the queued entries in storage order.
    pub fn iter(&self) -> impl Iterator<Item = &OpEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::OpKind;

    fn q(cap: usize, speriod: usize) -> OperationQueue {
        OperationQueue::with_capacity(cap, speriod)
    }

    #[test]
    fn capacity_follows_page_budget() {
        let q = OperationQueue::new(1, 4096, 100);
        assert_eq!(q.capacity(), 4096 / ENTRY_BYTES);
        let q = OperationQueue::new(0, 4096, 100);
        assert_eq!(q.capacity(), 1, "zero pages still allows one entry");
    }

    #[test]
    fn append_reports_full() {
        let mut q = q(3, 100);
        assert!(!q.append(OpEntry::insert(1, 1)));
        assert!(!q.append(OpEntry::insert(2, 2)));
        assert!(q.append(OpEntry::insert(3, 3)));
        assert!(q.is_full());
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn speriod_triggers_sort_and_merge() {
        let mut q = q(1000, 4);
        for k in [9u64, 3, 7, 1] {
            q.append(OpEntry::insert(k, k));
        }
        // After 4 appends (speriod) the whole array must be sorted.
        assert_eq!(q.sorted_offset(), 4);
        assert_eq!(q.sorts(), 1);
        let keys: Vec<Key> = q.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 3, 7, 9]);
        // More appends stay unsorted until the next period.
        q.append(OpEntry::insert(0, 0));
        assert_eq!(q.sorted_offset(), 4);
    }

    #[test]
    fn merge_is_stable_for_equal_keys() {
        let mut q = q(1000, 2);
        q.append(OpEntry::insert(5, 1));
        q.append(OpEntry::insert(3, 0)); // sort #1: [3, 5]
        q.append(OpEntry::delete(5));
        q.append(OpEntry::insert(5, 2)); // sort #2 merges; the delete+insert must stay after the first 5
        assert_eq!(q.lookup(5), Some(Some(2)));
        let fives: Vec<OpKind> = q.iter().filter(|e| e.key == 5).map(|e| e.op).collect();
        assert_eq!(fives, vec![OpKind::Insert, OpKind::Delete, OpKind::Insert]);
    }

    #[test]
    fn lookup_checks_both_regions() {
        let mut q = q(1000, 3);
        q.append(OpEntry::insert(10, 100));
        q.append(OpEntry::insert(20, 200));
        q.append(OpEntry::insert(30, 300)); // sorted now
        q.append(OpEntry::delete(10)); // unsorted tail
        assert_eq!(q.lookup(10), Some(None));
        assert_eq!(q.lookup(20), Some(Some(200)));
        assert_eq!(q.lookup(99), None);
    }

    #[test]
    fn entries_in_range_filters_inclusively_exclusive() {
        let mut q = q(1000, 100);
        for k in 0..10u64 {
            q.append(OpEntry::insert(k, k));
        }
        let mut r = vec![OpEntry::delete(99)];
        q.entries_in_range(3, 7, &mut r);
        assert_eq!(r.len(), 4, "the vector is refilled, not appended to");
        assert!(r.iter().all(|e| (3..7).contains(&e.key)));
    }

    #[test]
    fn take_batch_removes_sorted_prefix() {
        let mut q = q(1000, 1000);
        for k in [5u64, 1, 9, 3, 7] {
            q.append(OpEntry::insert(k, k));
        }
        let batch = q.take_batch(3);
        let keys: Vec<Key> = batch.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 3, 5]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.lookup(7), Some(Some(7)));
        assert_eq!(q.lookup(1), None, "taken entries are gone");
        let rest = q.take_all();
        assert_eq!(rest.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn restore_front_undoes_a_take_batch() {
        let mut q = q(1000, 1000);
        // Two writes to key 3: the later one (value 33) must stay the winner
        // through a take/restore cycle.
        for (k, v) in [(5u64, 5u64), (1, 1), (3, 3), (9, 9), (3, 33), (7, 7)] {
            q.append(OpEntry::insert(k, v));
        }
        let len_before = q.len();
        let batch = q.take_batch(4);
        assert_eq!(q.lookup(1), None, "taken entries are gone");
        q.restore_front(batch);
        assert_eq!(q.len(), len_before);
        assert_eq!(q.lookup(1), Some(Some(1)));
        assert_eq!(q.lookup(3), Some(Some(33)), "recency preserved across restore");
        assert_eq!(q.lookup(9), Some(Some(9)));
        // The queue remains fully usable: another take drains in key order.
        let keys: Vec<Key> = q.take_all().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 3, 3, 5, 7, 9]);
    }

    #[test]
    fn clear_simulates_a_crash() {
        let mut q = q(100, 10);
        q.append(OpEntry::insert(1, 1));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.lookup(1), None);
    }

    #[test]
    fn many_appends_stay_sorted_by_periodic_merges() {
        let mut q = q(100_000, 50);
        let mut keys: Vec<u64> = (0..5_000u64).map(|i| (i * 2_654_435_761) % 100_000).collect();
        for &k in &keys {
            q.append(OpEntry::insert(k, k));
        }
        q.sort_and_merge();
        let got: Vec<u64> = q.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(got, keys);
    }
}
