//! Elastic shard management: crash-recoverable split/merge and live leaf
//! migration under traffic.
//!
//! Shard boundaries are chosen once, from a key sample, at build time. An
//! append-heavy or skew-shifting workload then piles into one shard forever
//! while the rest of the device's channels idle — exactly the internal
//! parallelism the engine exists to exploit. This module closes the loop:
//!
//! * a **load monitor** tracks per-shard routed operations and OPQ queue
//!   pressure (the same counters surfaced as
//!   [`ShardSnapshot::routed_ops`](crate::ShardSnapshot::routed_ops) /
//!   [`ShardSnapshot::queue_peak_pct`](crate::ShardSnapshot::queue_peak_pct))
//!   over a window it alone closes — `stats()` readers only read;
//! * a **policy** ([`plan`]) decides when to *split* a hot shard at its median
//!   key into a colder neighbour, or *merge* a cold shard's range into an
//!   adjacent one;
//! * a **migration executor** moves the leaf region between the shard stores
//!   as one epoch-logged, crash-recoverable operation while the router keeps
//!   serving reads and writes.
//!
//! # Migration lifecycle
//!
//! Shard boundaries are *non-decreasing*, not strictly increasing: a merged-away
//! shard keeps an empty range `[b, b)` and simply stops receiving traffic, so
//! the shard count (and the worker pool) stays fixed while the *key ownership*
//! is elastic. A migration moves the range `[lo, hi)` between two **adjacent**
//! shards:
//!
//! ```text
//!   install marker        phase 1                    MigrateCommit{src,dst,lo,hi}
//!        │                        │                                │
//!  ──────▼────────────────────────▼───────────────┬────────────────▼──────────
//!   routing.write()     copy region into dst      │ routing.write()
//!   (drains in-flight   inside an epoch bracket,  │ (drains in-flight again)
//!   requests, installs  traffic still flowing,    │ replay dirty tail -> dst
//!   the dirty mirror)   src authoritative, writes │ retire moved keys <- src
//!                       to [lo,hi) also mirrored  │ src forces MigrateCommit
//!                                                 │ swap boundary, version+1
//! ```
//!
//! Throughout phase 1 the moving range is **dual-resolved**: the old shard
//! stays authoritative for reads and writes, and every write landing in
//! `[lo, hi)` is additionally mirrored (in tree-lock order) into the
//! migration's dirty log. Phase 2 drains the in-flight requests by taking the
//! routing write lock, replays the mirrored tail onto the destination, retires
//! the moved keys from the source — both bracketed in the shards' WALs under
//! the migration epoch — forces `MigrateCommit` in the source shard's WAL, and
//! swaps the boundary.
//! Requests never error and never stall longer than the phase-2 critical
//! section (one batch application).
//!
//! Crash before the `MigrateCommit` is whole in the source shard's WAL:
//! recovery discards the migration epoch on **both** shards (presumed abort —
//! the boundary swap never happened, so the old boundaries must keep
//! governing) and the old boundaries stand. Crash after: recovery replays the
//! epoch normally and re-applies the boundary swap from the range the
//! `MigrateCommit` carries. Either way the change is
//! all-or-nothing — `tests/rebalance.rs` sweeps randomized crash points
//! through mid-migration traffic to hold that line.
//!
//! # Using it
//!
//! Policy knobs live in [`EngineConfig::rebalance`](crate::EngineConfig)
//! ([`RebalanceConfig`]); they are validated with the rest of the engine
//! configuration. Call [`ShardedPioEngine::rebalance_once`] from your own
//! control loop, or set [`RebalanceConfig::auto`] to let the background
//! maintenance worker tick the balancer after each sweep. Forced moves for
//! tests and operators: [`ShardedPioEngine::split_shard`] /
//! [`ShardedPioEngine::merge_shard`].
//!
//! `tests/rebalance.rs` covers forced split/merge semantics, the policy on
//! skewed, starved and balanced windows, a multi-client service hammer across
//! a storm of forced migrations (zero request errors, exact oracle state), and
//! the crash sweep above. The `fig_rebalance` bench adapts live on a shared
//! device: after 5–8 migrations under traffic the elastic engine clears
//! ≥ 1.3× the static layout's throughput (measured ≈1.5–2.5×, hottest shard's
//! share 75 % → 43 %).

use crate::config::RebalanceConfig;
use crate::routing::shard_range;
use crate::sharded::{EngineInner, ShardedPioEngine};
use pio::IoResult;
use std::sync::atomic::Ordering;

/// Which way a migration moves keys between two adjacent shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Split a hot shard at its median key, moving the upper half to the
    /// right neighbour (`dst == src + 1`).
    SplitUpper,
    /// Split a hot shard at its median key, moving the lower half to the left
    /// neighbour (`dst == src - 1`).
    SplitLower,
    /// Merge: move the source shard's whole range into the neighbour,
    /// leaving the source with an empty range. Forbidden for the last shard
    /// (it owns the `Key::MAX` sentinel, which can never leave it): to fold
    /// the last shard away, merge its left neighbour *into* it instead.
    MergeAll,
}

/// One decided rebalance move, produced by [`plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Shard keys move out of.
    pub src: usize,
    /// Adjacent shard keys move into.
    pub dst: usize,
    /// Split or merge.
    pub kind: MoveKind,
}

/// What a completed migration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceOutcome {
    /// Split or merge.
    pub kind: MoveKind,
    /// Shard the keys moved out of.
    pub src: usize,
    /// Shard the keys moved into.
    pub dst: usize,
    /// Inclusive lower bound of the moved range.
    pub lo: u64,
    /// Exclusive upper bound of the moved range.
    pub hi: u64,
    /// Keys retired from the source (moved entries plus mirrored writes).
    pub moved_keys: u64,
    /// The migration's epoch id (`None` on WAL-less engines,
    /// which migrate without journaling — volatile like the rest of their
    /// state).
    pub epoch: Option<u64>,
}

/// Per-shard input to the [`plan`] policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardLoad {
    /// Operations routed to the shard over the observation window.
    pub routed_ops: u64,
    /// Peak OPQ fill over the window, percent of capacity.
    pub queue_peak_pct: u64,
    /// Whether the shard's key range is currently empty (`[b, b)` — already
    /// merged away). Empty shards are preferred merge sources (nothing to
    /// move) and never split.
    pub range_empty: bool,
}

/// An adjacent pair is *cold* (merge candidate) when its **combined** routed-op
/// share falls below this fraction of the fair share.
pub const COLD_FACTOR: f64 = 0.5;

/// OPQ peak fill (percent of capacity) above which a shard carrying at least its
/// fair share counts as hot even if `hot_factor` is not reached — queue pressure
/// flags an overload that routed counts alone understate.
pub const HOT_QUEUE_PCT: u64 = 85;

/// The pure rebalance policy: decides at most one move from a window of
/// per-shard loads. Deterministic and side-effect free, so tests can probe it
/// directly.
///
/// * **Split** when the hottest shard's routed share exceeds
///   [`RebalanceConfig::hot_factor`] × the fair share — or when its OPQ peaked
///   above [`HOT_QUEUE_PCT`] while carrying at least a fair
///   share — cutting at the median key into whichever valid neighbour saw
///   less traffic.
/// * **Merge** when the coldest adjacent pair's combined share falls below
///   [`COLD_FACTOR`] × the fair share, emptying the colder
///   member into the other (never emptying the last shard — its left
///   neighbour merges into it instead).
/// * **Hold** otherwise, and always when the window carried fewer than
///   [`RebalanceConfig::min_window_ops`] operations (too little signal).
pub fn plan(loads: &[ShardLoad], config: &RebalanceConfig) -> Option<RebalancePlan> {
    let n = loads.len();
    if n < 2 {
        return None;
    }
    let total: u64 = loads.iter().map(|l| l.routed_ops).sum();
    if total < config.min_window_ops {
        return None;
    }
    let fair = total as f64 / n as f64;
    // Split the hottest shard if it is overloaded.
    let (hot, hottest) = loads
        .iter()
        .enumerate()
        .max_by_key(|(_, l)| l.routed_ops)
        .expect("n >= 2");
    let overloaded = hottest.routed_ops as f64 > config.hot_factor * fair
        || (hottest.queue_peak_pct >= HOT_QUEUE_PCT && hottest.routed_ops as f64 >= fair);
    if overloaded && !hottest.range_empty {
        // Prefer the neighbour that saw less traffic; ties go to the upper
        // one (append-heavy workloads grow rightward, so pushing the upper
        // half right meets the growth).
        let upper = (hot + 1 < n).then(|| (hot + 1, MoveKind::SplitUpper));
        let lower = (hot > 0).then(|| (hot - 1, MoveKind::SplitLower));
        let (dst, kind) = match (upper, lower) {
            (Some((u, uk)), Some((l, lk))) => {
                if loads[l].routed_ops < loads[u].routed_ops {
                    (l, lk)
                } else {
                    (u, uk)
                }
            }
            (Some(pick), None) | (None, Some(pick)) => pick,
            (None, None) => return None,
        };
        return Some(RebalancePlan { src: hot, dst, kind });
    }
    // Merge the coldest adjacent pair if it is (jointly) underloaded.
    let (i, pair_ops) = (0..n - 1)
        .map(|i| (i, loads[i].routed_ops + loads[i + 1].routed_ops))
        .min_by_key(|&(_, ops)| ops)?;
    if (pair_ops as f64) < COLD_FACTOR * fair {
        // Empty the colder member into the other; a member whose range is
        // already empty would be a no-op move, so it must be the *source*
        // (which the executor then skips) — prefer the non-empty partner as
        // destination. The last shard can never be the source.
        let (a, b) = (i, i + 1);
        let a_colder = loads[a].range_empty || (!loads[b].range_empty && loads[a].routed_ops <= loads[b].routed_ops);
        let (src, dst) = if a_colder { (a, b) } else { (b, a) };
        if loads[src].range_empty {
            return None; // nothing left to merge here
        }
        let (src, dst) = if src == n - 1 { (dst, src) } else { (src, dst) };
        return Some(RebalancePlan {
            src,
            dst,
            kind: MoveKind::MergeAll,
        });
    }
    None
}

impl EngineInner {
    /// One balancer tick: observe the window, plan, and execute at most one
    /// migration. Used by [`ShardedPioEngine::rebalance_once`] and, when
    /// [`RebalanceConfig::auto`] is set, by the background maintenance worker.
    pub(crate) fn auto_rebalance_tick(&self) -> IoResult<Option<RebalanceOutcome>> {
        let bounds = self.routing.read().bounds.clone();
        let n = self.shards.len();
        // Close the monitor's load window: per shard, the ops routed to it and
        // its peak OPQ fill (percent) since the previous tick. The monitor is
        // the one consumer of a window, so the baseline and the peak reset
        // live here and `stats()` readers perturb nothing.
        let loads: Vec<ShardLoad> = {
            let mut baseline = self.rebalance_baseline.lock();
            (self.shards.iter().zip(baseline.iter_mut()).enumerate())
                .map(|(i, (shard, base))| {
                    let total = shard.routed_total.load(Ordering::Relaxed);
                    let routed_ops = total - *base;
                    *base = total;
                    let (lo, hi) = shard_range(&bounds, i, n);
                    ShardLoad {
                        routed_ops,
                        queue_peak_pct: shard.queue_peak_pct.swap(0, Ordering::Relaxed),
                        range_empty: lo >= hi,
                    }
                })
                .collect()
        };
        let Some(plan) = plan(&loads, &self.config.rebalance) else {
            return Ok(None);
        };
        self.migrate(plan.src, plan.dst, plan.kind)
    }
}

impl ShardedPioEngine {
    /// Runs one rebalance decision cycle: reads the load window accumulated
    /// since the previous call, asks the [`plan`] policy for a move, and — if
    /// one is due — executes the migration, blocking until it commits (or
    /// proves vacuous). Returns what moved, `Ok(None)` when balanced.
    ///
    /// Reads and writes keep flowing on every shard while this runs; see the
    /// [module docs](self) for the lifecycle and crash-consistency contract.
    pub fn rebalance_once(&self) -> IoResult<Option<RebalanceOutcome>> {
        self.inner().auto_rebalance_tick()
    }

    /// Forces a median-key split of shard `src` into an adjacent neighbour
    /// (the upper one when it exists), regardless of load. Returns `Ok(None)`
    /// if the shard holds fewer than two entries (nothing to split).
    pub fn split_shard(&self, src: usize) -> IoResult<Option<RebalanceOutcome>> {
        let n = self.shard_count();
        if n < 2 || src >= n {
            return Ok(None);
        }
        let (dst, kind) = if src + 1 < n {
            (src + 1, MoveKind::SplitUpper)
        } else {
            (src - 1, MoveKind::SplitLower)
        };
        self.inner().migrate(src, dst, kind)
    }

    /// Forces shard `src`'s whole range to merge into the adjacent shard
    /// `dst`, regardless of load. Returns `Ok(None)` if the range is already
    /// empty, and an error for non-adjacent pairs or an attempt to merge the
    /// last shard away (it owns the `Key::MAX` sentinel).
    pub fn merge_shard(&self, src: usize, dst: usize) -> IoResult<Option<RebalanceOutcome>> {
        self.inner().migrate(src, dst, MoveKind::MergeAll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> RebalanceConfig {
        RebalanceConfig::default()
    }

    fn loads(ops: &[u64]) -> Vec<ShardLoad> {
        ops.iter()
            .map(|&routed_ops| ShardLoad {
                routed_ops,
                ..ShardLoad::default()
            })
            .collect()
    }

    #[test]
    fn holds_below_the_window_floor() {
        let cfg = config();
        let window = loads(&[cfg.min_window_ops - 1, 0, 0, 0]);
        assert_eq!(plan(&window, &cfg), None, "too little signal to act on");
    }

    #[test]
    fn holds_when_balanced() {
        let window = loads(&[1000, 900, 1100, 1000]);
        assert_eq!(plan(&window, &config()), None);
    }

    #[test]
    fn splits_a_hot_shard_into_the_colder_neighbour() {
        let window = loads(&[100, 4000, 50, 100]);
        let plan = plan(&window, &config()).expect("shard 1 is hot");
        assert_eq!(plan.src, 1);
        assert_eq!(plan.dst, 2, "right neighbour saw less traffic than left");
        assert_eq!(plan.kind, MoveKind::SplitUpper);
    }

    #[test]
    fn splits_the_last_shard_downward() {
        let window = loads(&[100, 50, 4000]);
        let plan = plan(&window, &config()).expect("last shard is hot");
        assert_eq!((plan.src, plan.dst), (2, 1));
        assert_eq!(plan.kind, MoveKind::SplitLower);
    }

    #[test]
    fn queue_pressure_alone_can_trigger_a_split() {
        let cfg = config();
        let mut window = loads(&[1500, 1000, 1000, 1000]);
        assert_eq!(plan(&window, &cfg), None, "share alone is not hot enough");
        window[0].queue_peak_pct = HOT_QUEUE_PCT;
        let decided = plan(&window, &cfg).expect("pressure breaks the tie");
        assert_eq!((decided.src, decided.kind), (0, MoveKind::SplitUpper));
    }

    #[test]
    fn merges_a_cold_pair_emptying_the_colder_member() {
        let window = loads(&[3000, 10, 40, 3000]);
        let plan = plan(&window, &config()).expect("pair (1,2) is cold");
        assert_eq!((plan.src, plan.dst), (1, 2), "colder member is the source");
        assert_eq!(plan.kind, MoveKind::MergeAll);
    }

    #[test]
    fn never_merges_the_last_shard_away() {
        // The cold pair is (2, 3) with 3 colder — but 3 owns Key::MAX, so the
        // move flips: 2 merges into 3.
        let window = loads(&[3000, 3000, 40, 10]);
        let plan = plan(&window, &config()).expect("tail pair is cold");
        assert_eq!((plan.src, plan.dst), (2, 3));
    }

    #[test]
    fn an_already_empty_source_is_a_hold() {
        let mut window = loads(&[3000, 0, 60, 3000]);
        window[1].range_empty = true;
        assert_eq!(plan(&window, &config()), None, "nothing left to move");
    }

    #[test]
    fn empty_ranges_are_never_split() {
        let mut window = loads(&[9000, 10, 20, 30]);
        window[0].range_empty = true;
        // Shard 0 is "hot" by share but owns no keys (all its traffic was
        // misses); the policy falls through to the merge check.
        let decided = plan(&window, &config());
        assert!(decided.is_none_or(|p| p.kind == MoveKind::MergeAll), "{decided:?}");
    }
}
