//! A generic driver that replays generated workloads against any index.
//!
//! [`crate::OperationGenerator`] produces operation streams; this module defines
//! the [`IndexTarget`] abstraction those streams can be replayed against, so the
//! generator never needs to know which index it is talking to.
//!
//! Point searches are batched into rounds of `batch` operations and submitted via
//! [`IndexTarget::multi_search`], which is how the paper's emulated client threads
//! present themselves to the index (`T` overlapping searches arrive as one MPSearch).

use crate::ops::Operation;

/// An index that a generated workload can be replayed against.
///
/// The error type is associated so this crate does not have to depend on any
/// particular index implementation.
pub trait IndexTarget {
    /// Error produced by the underlying index I/O.
    type Error: std::fmt::Debug;

    /// Inserts `key → value`.
    fn insert(&mut self, key: u64, value: u64) -> Result<(), Self::Error>;
    /// Deletes `key`.
    fn delete(&mut self, key: u64) -> Result<(), Self::Error>;
    /// Updates the record pointer of `key`.
    fn update(&mut self, key: u64, value: u64) -> Result<(), Self::Error>;
    /// Point search.
    fn search(&mut self, key: u64) -> Result<Option<u64>, Self::Error>;
    /// Range search over `[lo, hi)`, returning live entries sorted by key.
    fn range_search(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>, Self::Error>;

    /// Batched point search. The default submits the keys one at a time; indexes
    /// with an MPSearch-style entry point override this.
    fn multi_search(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>, Self::Error> {
        keys.iter().map(|&k| self.search(k)).collect()
    }
}

/// Counters accumulated by [`replay`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Inserts submitted.
    pub inserts: u64,
    /// Deletes submitted.
    pub deletes: u64,
    /// Updates submitted.
    pub updates: u64,
    /// Point searches submitted (individually or inside a batch).
    pub searches: u64,
    /// Point searches that found a value.
    pub search_hits: u64,
    /// Range searches submitted.
    pub range_searches: u64,
    /// Entries returned by range searches.
    pub range_entries: u64,
    /// multi_search rounds issued.
    pub search_batches: u64,
}

impl ReplayStats {
    /// Total operations submitted.
    pub fn total_ops(&self) -> u64 {
        self.inserts + self.deletes + self.updates + self.searches + self.range_searches
    }
}

/// Replays `ops` against `target`, batching consecutive point searches into
/// [`IndexTarget::multi_search`] rounds of at most `batch` keys (use `batch = 1`
/// for strictly serial submission).
pub fn replay<T: IndexTarget>(target: &mut T, ops: &[Operation], batch: usize) -> Result<ReplayStats, T::Error> {
    let batch = batch.max(1);
    let mut stats = ReplayStats::default();
    let mut pending: Vec<u64> = Vec::with_capacity(batch);
    let flush_searches = |target: &mut T, pending: &mut Vec<u64>, stats: &mut ReplayStats| {
        if pending.is_empty() {
            return Ok(());
        }
        let results = target.multi_search(pending)?;
        stats.search_batches += 1;
        stats.searches += pending.len() as u64;
        stats.search_hits += results.iter().filter(|r| r.is_some()).count() as u64;
        pending.clear();
        Ok(())
    };
    for op in ops {
        match *op {
            Operation::Search { key } => {
                pending.push(key);
                if pending.len() >= batch {
                    flush_searches(target, &mut pending, &mut stats)?;
                }
                continue;
            }
            _ => flush_searches(target, &mut pending, &mut stats)?,
        }
        match *op {
            Operation::Insert { key, value } => {
                target.insert(key, value)?;
                stats.inserts += 1;
            }
            Operation::Delete { key } => {
                target.delete(key)?;
                stats.deletes += 1;
            }
            Operation::Update { key, value } => {
                target.update(key, value)?;
                stats.updates += 1;
            }
            Operation::RangeSearch { lo, hi } => {
                stats.range_entries += target.range_search(lo, hi)?.len() as u64;
                stats.range_searches += 1;
            }
            Operation::Search { .. } => unreachable!("handled above"),
        }
    }
    flush_searches(target, &mut pending, &mut stats)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::convert::Infallible;

    /// A BTreeMap-backed reference target.
    #[derive(Default)]
    struct MapTarget {
        map: BTreeMap<u64, u64>,
        multi_calls: u64,
    }

    impl IndexTarget for MapTarget {
        type Error = Infallible;

        fn insert(&mut self, key: u64, value: u64) -> Result<(), Infallible> {
            self.map.insert(key, value);
            Ok(())
        }

        fn delete(&mut self, key: u64) -> Result<(), Infallible> {
            self.map.remove(&key);
            Ok(())
        }

        fn update(&mut self, key: u64, value: u64) -> Result<(), Infallible> {
            self.map.insert(key, value);
            Ok(())
        }

        fn search(&mut self, key: u64) -> Result<Option<u64>, Infallible> {
            Ok(self.map.get(&key).copied())
        }

        fn range_search(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>, Infallible> {
            Ok(self.map.range(lo..hi).map(|(&k, &v)| (k, v)).collect())
        }

        fn multi_search(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>, Infallible> {
            self.multi_calls += 1;
            Ok(keys.iter().map(|k| self.map.get(k).copied()).collect())
        }
    }

    #[test]
    fn replay_counts_and_batches() {
        let ops = vec![
            Operation::Insert { key: 1, value: 10 },
            Operation::Insert { key: 2, value: 20 },
            Operation::Search { key: 1 },
            Operation::Search { key: 2 },
            Operation::Search { key: 3 },
            Operation::Delete { key: 1 },
            Operation::Search { key: 1 },
            Operation::RangeSearch { lo: 0, hi: 10 },
        ];
        let mut t = MapTarget::default();
        let stats = replay(&mut t, &ops, 2).unwrap();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.searches, 4);
        assert_eq!(stats.search_hits, 2, "keys 1 and 2 hit before the delete");
        assert_eq!(stats.range_searches, 1);
        assert_eq!(stats.range_entries, 1, "only key 2 remains");
        assert_eq!(stats.total_ops(), 8);
        // 4 searches at batch 2, but the delete forces an early flush after 2+1.
        assert_eq!(stats.search_batches, 3);
        assert_eq!(t.multi_calls, 3);
    }

    #[test]
    fn replay_with_batch_one_is_serial() {
        let ops = vec![
            Operation::Insert { key: 7, value: 1 },
            Operation::Search { key: 7 },
            Operation::Search { key: 8 },
        ];
        let mut t = MapTarget::default();
        let stats = replay(&mut t, &ops, 1).unwrap();
        assert_eq!(stats.search_batches, 2);
        assert_eq!(stats.search_hits, 1);
    }
}
