//! The live routing table: key-range partitioning and the migration marker.
//!
//! The key space is cut into `N` contiguous ranges by `N − 1` boundary keys chosen
//! from a key sample at [`crate::ShardedPioEngine::create`] /
//! [`crate::ShardedPioEngine::bulk_load`]
//! time (quantiles of the sample, topped up with uniform cuts if the sample is too
//! small or skewed). Shard `i` owns `[bounds[i-1], bounds[i])`; the last shard also
//! owns `Key::MAX`.

use btree::Key;
use parking_lot::Mutex;
use pio_btree::OpEntry;

/// A boundary migration in flight (installed in [`RoutingState`] for its whole
/// duration). Until the commit swaps the boundary, the routing table is
/// unchanged — the source shard stays authoritative for the moving range — and
/// every write that lands in the captured range is also appended to `dirty` so
/// the committed state includes writes that raced the region copy.
pub(crate) struct ActiveMigration {
    /// The shard losing keys.
    pub(crate) src: usize,
    /// The adjacent shard gaining them.
    pub(crate) dst: usize,
    /// Captured range (the source shard's full range at install time): writes
    /// inside it are mirrored into `dirty`.
    pub(crate) lo: Key,
    pub(crate) hi: Key,
    /// Ordered log of writes that hit the captured range after the snapshot.
    /// Pushed under the owning shard's tree lock, so its order matches the
    /// order the writes applied in; drained under the routing write lock.
    pub(crate) dirty: Mutex<Vec<OpEntry>>,
}

/// The live routing table: boundary keys plus the (at most one) migration in
/// flight. Every request path holds the read half for its whole operation, so
/// acquiring the write half is a barrier that drains in-flight requests — the
/// commit's boundary swap can never race a request routed under the old
/// bounds.
pub(crate) struct RoutingState {
    /// Boundary keys; shard `i` owns keys `< bounds[i]` (and `≥ bounds[i-1]`).
    /// Non-decreasing: two equal adjacent bounds denote an empty (merged-away)
    /// shard, which `partition_point` routing handles naturally.
    pub(crate) bounds: Vec<Key>,
    /// The migration in flight, if any.
    pub(crate) migration: Option<ActiveMigration>,
    /// Bumped on every boundary change (diagnostics; lets front ends detect
    /// topology movement cheaply).
    pub(crate) version: u64,
}

/// Chooses `shards − 1` strictly increasing boundary keys: quantiles of `sample`,
/// topped up with uniform cuts of the remaining key space when the sample has too
/// few distinct keys.
pub fn boundaries_from_sample(sample: &[Key], shards: usize) -> Vec<Key> {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    boundaries_from_sorted(sorted.len(), |i| sorted[i], shards)
}

/// Quantile + top-up boundary selection over an already sorted, duplicate-free
/// sequence accessed through `key_at` — the zero-copy path used by
/// [`crate::ShardedPioEngine::bulk_load`], whose entries are sorted by contract.
pub(crate) fn boundaries_from_sorted(len: usize, key_at: impl Fn(usize) -> Key, shards: usize) -> Vec<Key> {
    if shards <= 1 {
        return Vec::new();
    }
    let mut bounds: Vec<Key> = Vec::with_capacity(shards - 1);
    if len > 0 {
        for i in 1..shards {
            let idx = (i * len / shards).min(len - 1);
            let candidate = key_at(idx);
            if bounds.last().is_none_or(|&prev| candidate > prev) && candidate > 0 {
                bounds.push(candidate);
            }
        }
    }
    // Top up by repeatedly cutting the largest remaining gap in half (with 0 and
    // `Key::MAX` as sentinels), so the chooser stays total even when the sample
    // clusters at either end of the key space.
    while bounds.len() < shards - 1 {
        let mut best: Option<(Key, usize, Key)> = None; // (gap, insert position, new cut)
        let mut prev = 0;
        for (i, &b) in bounds.iter().chain(std::iter::once(&Key::MAX)).enumerate() {
            let gap = b - prev;
            // A cut strictly between `prev` and `b` needs a gap of at least 2.
            if gap >= 2 && best.is_none_or(|(g, _, _)| gap > g) {
                best = Some((gap, i, prev + gap / 2));
            }
            prev = b;
        }
        let Some((_, pos, cut)) = best else {
            // The key space has fewer representable cut points than requested
            // shards (only possible for absurd shard counts).
            break;
        };
        bounds.insert(pos, cut);
    }
    bounds
}

/// The key range `[lo, hi)` of shard `i` under `bounds` (`hi == Key::MAX` for
/// the last shard, which also owns `Key::MAX` itself).
pub(crate) fn shard_range(bounds: &[Key], i: usize, shards: usize) -> (Key, Key) {
    let lo = if i == 0 { 0 } else { bounds[i - 1] };
    let hi = if i == shards - 1 { Key::MAX } else { bounds[i] };
    (lo, hi)
}

/// The shard index owning `key` under `bounds`. Free function so request paths
/// already holding the routing lock never re-enter it.
pub(crate) fn shard_of(bounds: &[Key], key: Key) -> usize {
    bounds.partition_point(|&b| b <= key)
}

/// The shard that owns every one of `keys` under `bounds`, if one shard does
/// (`None` for no keys): such a call runs as one leg
/// ([`crate::sharded::ShardedPioEngine::run_leg`]) instead of a fan-out.
pub(crate) fn sole_owner(bounds: &[Key], mut keys: impl Iterator<Item = Key>) -> Option<usize> {
    let owner = shard_of(bounds, keys.next()?);
    keys.all(|key| shard_of(bounds, key) == owner).then_some(owner)
}
