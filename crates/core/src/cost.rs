//! The cost model of Sections 3.2.1, 3.5 and the Appendix, and the auto-tuning
//! procedure of Section 3.6.
//!
//! Notation (Table 1): `H` tree height, `F'` average entries per node, `N` indexed
//! entries, `Pr`/`Pw` random page read/write latency, `P'r`/`P'w` the amortised
//! per-page latencies under psync I/O, `L` leaf size in pages, `Pr(L)` the latency of
//! reading an `L`-page leaf, `Ri`/`Rs` the insert/search ratio of the workload, `M`
//! the available buffer pool in pages and `O` the OPQ size in pages.
//!
//! Equations implemented here:
//!
//! * (4)/(5)  — B+-tree average operation cost without a buffer pool;
//! * (6)      — B+-tree cost with a buffer pool (`C'b+`);
//! * (7)/(8)  — PIO B-tree cost without a buffer pool, including the `G(ℓ)` factor
//!   (how many queued operations share one node read at level ℓ);
//! * (9)      — PIO B-tree cost with a buffer pool (`C'pio`);
//! * (3)/(10) — the arg-min searches for the optimal node size and `(L_opt, O_opt)`.

use ssd_sim::bench::{characterise, leaf_read_latency, DeviceCharacterisation};
use ssd_sim::SsdDevice;

/// Insert/search mix of a workload (the remaining fraction is assumed to be
/// cost-equivalent to inserts, as the paper does for deletes and updates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Fraction of operations that are searches (`Rs`).
    pub search_ratio: f64,
    /// Fraction of operations that are inserts/updates/deletes (`Ri`).
    pub insert_ratio: f64,
}

impl WorkloadMix {
    /// A search-only workload.
    pub fn search_only() -> Self {
        Self {
            search_ratio: 1.0,
            insert_ratio: 0.0,
        }
    }

    /// An insert-only workload.
    pub fn insert_only() -> Self {
        Self {
            search_ratio: 0.0,
            insert_ratio: 1.0,
        }
    }

    /// A mixed workload with the given insert fraction.
    pub fn with_insert_ratio(insert_ratio: f64) -> Self {
        Self {
            search_ratio: 1.0 - insert_ratio,
            insert_ratio,
        }
    }
}

/// Device and tree parameters needed to evaluate the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Number of indexed entries (`N`).
    pub entries: f64,
    /// Average entries per node (`F'` = (F−1)·U).
    pub fanout: f64,
    /// Random single-page read latency `Pr` (µs).
    pub page_read_us: f64,
    /// Random single-page write latency `Pw` (µs).
    pub page_write_us: f64,
    /// Amortised per-page read latency under psync I/O, `P'r` (µs).
    pub psync_read_us: f64,
    /// Amortised per-page write latency under psync I/O, `P'w` (µs).
    pub psync_write_us: f64,
    /// Leaf-node read latency `Pr(L)` (µs) for the configured leaf size. The
    /// search terms of Eqs. (7) and (9) still charge it, as the paper does,
    /// although the tree reads only one segment (`Pr`) of a leaf whose
    /// LSMap fences it keeps; whether the model should follow is for
    /// checking the model against measured reads (ROADMAP direction 4 (b)).
    pub leaf_read_us: f64,
    /// Leaf size `L` in pages.
    pub leaf_pages: f64,
    /// Buffer-pool size `M` in pages.
    pub pool_pages: f64,
    /// OPQ size `O` in pages.
    pub opq_pages: f64,
    /// OPQ entries per page (used to turn `O` into a queued-operation count).
    pub opq_entries_per_page: f64,
    /// Batch count `bcnt` (caps `G(ℓ)`).
    pub bcnt: f64,
}

impl CostModel {
    /// Tree height `H = log2 N / log2 F'` (eq. 4). At least 1.
    pub fn height(&self) -> f64 {
        if self.entries <= 1.0 || self.fanout <= 1.0 {
            return 1.0;
        }
        (self.entries.ln() / self.fanout.ln()).max(1.0)
    }

    /// Eq. (5): B+-tree average operation cost without a buffer pool.
    pub fn btree_cost(&self, mix: WorkloadMix) -> f64 {
        let h = self.height();
        mix.search_ratio * (h * self.page_read_us) + mix.insert_ratio * (h * self.page_read_us + self.page_write_us)
    }

    /// Eq. (6): B+-tree average operation cost with a buffer pool of `M` pages.
    pub fn btree_cost_buffered(&self, mix: WorkloadMix) -> f64 {
        let eta = self.eta_btree();
        let uncached_levels = eta.floor() + (1.0 - 1.0 / self.fanout.powf(eta.fract()));
        let read = uncached_levels.max(0.0) * self.page_read_us;
        mix.search_ratio * read + mix.insert_ratio * (read + self.page_write_us)
    }

    /// `η = log_F'(N / M) − 1` for the B+-tree (eq. 6).
    fn eta_btree(&self) -> f64 {
        if self.pool_pages <= 0.0 {
            return self.height();
        }
        ((self.entries / self.pool_pages).ln() / self.fanout.ln() - 1.0).max(0.0)
    }

    /// `η = log_F'(N / (L·(M−O))) − 1` for the PIO B-tree (eq. 9).
    fn eta_pio(&self) -> f64 {
        let effective = (self.pool_pages - self.opq_pages).max(1.0) * self.leaf_pages.max(1.0);
        ((self.entries / effective).ln() / self.fanout.ln() - 1.0).max(0.0)
    }

    /// `G(ℓ)` (eq. 8): the average number of queued update operations that share one
    /// node read at level ℓ, clamped to `[1, bcnt]`.
    pub fn sharing_factor(&self, level: f64) -> f64 {
        let h = self.height();
        let opq_entries = self.opq_pages * self.opq_entries_per_page;
        // Number of nodes at level ℓ ≈ N / (F'^(H-ℓ) · L); leaves divide by L.
        let nodes_at_level = (self.entries / (self.fanout.powf(h - level) * self.leaf_pages.max(1.0))).max(1.0);
        (opq_entries / nodes_at_level).clamp(1.0, self.bcnt.max(1.0))
    }

    /// Eq. (7): PIO B-tree average operation cost without a buffer pool.
    pub fn pio_cost(&self, mix: WorkloadMix) -> f64 {
        let h = self.height();
        let search = (h - 1.0).max(0.0) * self.page_read_us + self.leaf_read_us;
        let mut insert = 0.0;
        let mut level = 0.0;
        while level <= h - 2.0 {
            insert += self.psync_read_us / self.sharing_factor(level);
            level += 1.0;
        }
        insert += (self.psync_read_us + self.psync_write_us) / self.sharing_factor(h - 1.0);
        mix.search_ratio * search + mix.insert_ratio * insert
    }

    /// Eq. (9): PIO B-tree average operation cost with a buffer pool.
    pub fn pio_cost_buffered(&self, mix: WorkloadMix) -> f64 {
        let h = self.height();
        let eta = self.eta_pio();
        let search = (eta.floor() + (1.0 - 1.0 / self.fanout.powf(eta.fract()))).max(0.0) * self.page_read_us
            + self.leaf_read_us;
        let mut insert = 0.0;
        let mut level = eta.floor();
        while level <= h - 2.0 {
            insert += self.psync_read_us / self.sharing_factor(level);
            level += 1.0;
        }
        insert += (self.psync_read_us + self.psync_write_us) / self.sharing_factor(h - 1.0);
        mix.search_ratio * search + mix.insert_ratio * insert
    }
}

/// Result of the auto-tuning procedure of Section 3.6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuning {
    /// Chosen leaf size in pages (`L_opt`).
    pub leaf_pages: usize,
    /// Chosen OPQ size in pages (`O_opt`).
    pub opq_pages: usize,
    /// Predicted average operation cost at the chosen point (µs).
    pub predicted_cost_us: f64,
}

/// Graefe-style utility/cost node-size selection (eq. 3) for the baseline B+-tree:
/// maximise `log2(entries per node) / node read latency`. Returns the best node size
/// in bytes among `candidates`.
pub fn optimal_btree_node_size(device: &mut SsdDevice, candidates: &[usize], seed: u64) -> usize {
    let mut best = candidates[0];
    let mut best_score = f64::MIN;
    for &size in candidates {
        let latency = leaf_read_latency(device, size as u64, 1, seed);
        let entries_per_page = (size / 16).max(2) as f64;
        let score = entries_per_page.log2() / latency;
        if score > best_score {
            best_score = score;
            best = size;
        }
    }
    best
}

/// The auto-tuning procedure of Section 3.6: micro-benchmark the device to obtain
/// `Pr`, `Pw`, `Pr(L)`, `P'r`, `P'w`, then choose `(L_opt, O_opt)` minimising
/// eq. (9) for the given workload mix and memory budget.
#[allow(clippy::too_many_arguments)]
pub fn auto_tune(
    device: &mut SsdDevice,
    page_size: usize,
    entries: u64,
    pool_pages_total: u64,
    mix: WorkloadMix,
    leaf_candidates: &[usize],
    opq_candidates: &[usize],
    pio_max: usize,
    seed: u64,
) -> Tuning {
    let chars: DeviceCharacterisation = characterise(device, page_size as u64, pio_max, seed);
    let fanout = ((page_size / 16) as f64 * 0.7).max(2.0);
    let mut best = Tuning {
        leaf_pages: leaf_candidates[0],
        opq_pages: opq_candidates[0],
        predicted_cost_us: f64::MAX,
    };
    for &l in leaf_candidates {
        let leaf_read_us = leaf_read_latency(device, page_size as u64, l as u64, seed ^ l as u64);
        for &o in opq_candidates {
            if o as u64 >= pool_pages_total {
                continue;
            }
            let model = CostModel {
                entries: entries as f64,
                fanout,
                page_read_us: chars.page_read_us,
                page_write_us: chars.page_write_us,
                psync_read_us: chars.psync_read_us,
                psync_write_us: chars.psync_write_us,
                leaf_read_us,
                leaf_pages: l as f64,
                pool_pages: pool_pages_total as f64,
                opq_pages: o as f64,
                opq_entries_per_page: (page_size / crate::entry::ENTRY_BYTES) as f64,
                bcnt: 5000.0,
            };
            let cost = model.pio_cost_buffered(mix);
            if cost < best.predicted_cost_us {
                best = Tuning {
                    leaf_pages: l,
                    opq_pages: o,
                    predicted_cost_us: cost,
                };
            }
        }
    }
    best
}

/// Result of the workload-aware shard-count recommendation
/// ([`recommended_shards`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardTuning {
    /// Recommended shard count.
    pub shards: usize,
    /// Predicted effective per-operation cost at that count (µs), i.e. the
    /// per-shard eq. (9) cost divided by the achievable cross-shard overlap.
    pub predicted_cost_us: f64,
}

/// The workload-aware half of shard-count tuning, completing
/// `SsdConfig::recommended_shard_count` (which considers only device
/// geometry). Sweeps candidate shard counts `1..=max_shards` and, for each
/// `s`, evaluates eq. (9) for one shard of an `s`-way engine:
///
/// * the indexed entries and the buffer pool are **split** `N/s`, `M/s` — the
///   engine divides its pool budget across shards, so a search-heavy mix pays
///   for extra shards with cache misses (the η term grows as each shard's
///   pool covers fewer levels);
/// * the OPQ is **multiplied** — every shard keeps a full-size queue over
///   `1/s` of the entries, so the sharing factor `G(ℓ)` rises and the
///   insert-heavy mix gets *cheaper* per shard on top of the overlap win;
/// * the per-shard cost is divided by the achievable cross-shard I/O overlap
///   `min(s, device_streams)`, where `device_streams` is the geometric stream
///   capacity (`SsdConfig::recommended_shard_count(pio_max)`: how many
///   `PioMax`-wide psync streams the package array can serve concurrently).
///
/// The recommendation is the arg-min of that effective cost: search-heavy
/// mixes stop at (or below) the geometric stream capacity, insert-heavy mixes
/// tolerate — and sometimes prefer — more shards than streams because the
/// multiplied OPQs keep paying after the overlap has saturated.
pub fn recommended_shards(base: &CostModel, mix: WorkloadMix, device_streams: usize, max_shards: usize) -> ShardTuning {
    let streams = device_streams.max(1) as f64;
    let mut best = ShardTuning {
        shards: 1,
        predicted_cost_us: f64::MAX,
    };
    for s in 1..=max_shards.max(1) {
        let sf = s as f64;
        let mut shard = base.clone();
        shard.entries = (base.entries / sf).max(1.0);
        shard.pool_pages = (base.pool_pages / sf).max(1.0);
        let effective = shard.pio_cost_buffered(mix) / sf.min(streams);
        if effective < best.predicted_cost_us {
            best = ShardTuning {
                shards: s,
                predicted_cost_us: effective,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::DeviceProfile;

    fn model() -> CostModel {
        CostModel {
            entries: 1e8,
            fanout: 150.0,
            page_read_us: 150.0,
            page_write_us: 400.0,
            psync_read_us: 20.0,
            psync_write_us: 40.0,
            leaf_read_us: 200.0,
            leaf_pages: 2.0,
            pool_pages: 4096.0,
            opq_pages: 64.0,
            opq_entries_per_page: 200.0,
            bcnt: 5000.0,
        }
    }

    #[test]
    fn height_grows_with_entries_and_shrinks_with_fanout() {
        let mut m = model();
        let h1 = m.height();
        m.entries = 1e9;
        assert!(m.height() > h1);
        m.fanout = 300.0;
        assert!(m.height() < (1e9f64).ln() / (150f64).ln() + 1.0);
    }

    #[test]
    fn buffer_pool_reduces_btree_cost() {
        let m = model();
        let mix = WorkloadMix::with_insert_ratio(0.5);
        assert!(m.btree_cost_buffered(mix) < m.btree_cost(mix));
    }

    #[test]
    fn pio_beats_btree_on_inserts() {
        let m = model();
        let mix = WorkloadMix::insert_only();
        assert!(m.pio_cost(mix) < m.btree_cost(mix));
        assert!(m.pio_cost_buffered(mix) < m.btree_cost_buffered(mix));
    }

    #[test]
    fn sharing_factor_is_larger_near_the_root() {
        let m = model();
        let near_root = m.sharing_factor(0.0);
        let near_leaf = m.sharing_factor(m.height() - 1.0);
        assert!(near_root >= near_leaf);
        assert!(near_leaf >= 1.0);
        assert!(near_root <= m.bcnt);
    }

    #[test]
    fn larger_opq_lowers_pio_insert_cost() {
        let mut small = model();
        small.opq_pages = 1.0;
        let mut large = model();
        large.opq_pages = 1024.0;
        let mix = WorkloadMix::insert_only();
        assert!(large.pio_cost_buffered(mix) <= small.pio_cost_buffered(mix));
    }

    #[test]
    fn search_only_cost_ignores_write_latency() {
        let mut m = model();
        let mix = WorkloadMix::search_only();
        let before = m.btree_cost(mix);
        m.page_write_us *= 10.0;
        assert_eq!(m.btree_cost(mix), before);
    }

    #[test]
    fn optimal_node_size_prefers_moderate_pages_on_ssd() {
        let mut dev = SsdDevice::new(DeviceProfile::P300.build());
        let best = optimal_btree_node_size(&mut dev, &[2048, 4096, 8192, 16384, 65536], 7);
        assert!(
            best >= 4096,
            "non-linear latency should push the optimum above 2 KiB, got {best}"
        );
        assert!(best <= 16384, "the optimum should not grow unboundedly, got {best}");
    }

    #[test]
    fn auto_tune_returns_a_candidate_pair() {
        let mut dev = SsdDevice::new(DeviceProfile::F120.build());
        let t = auto_tune(
            &mut dev,
            4096,
            10_000_000,
            4096,
            WorkloadMix::with_insert_ratio(0.5),
            &[1, 2, 4],
            &[1, 16, 256],
            32,
            3,
        );
        assert!([1usize, 2, 4].contains(&t.leaf_pages));
        assert!([1usize, 16, 256].contains(&t.opq_pages));
        assert!(t.predicted_cost_us.is_finite() && t.predicted_cost_us > 0.0);
    }

    #[test]
    fn recommended_shards_track_the_device_stream_capacity() {
        let m = model();
        let streams = 4;
        let t = recommended_shards(&m, WorkloadMix::search_only(), streams, 16);
        assert!(
            t.shards <= streams,
            "search-only gains nothing past the overlap capacity, got {}",
            t.shards
        );
        assert!(t.shards >= 2, "overlap should still beat one shard, got {}", t.shards);
        assert!(t.predicted_cost_us.is_finite() && t.predicted_cost_us > 0.0);
    }

    #[test]
    fn insert_heavy_mixes_tolerate_at_least_as_many_shards() {
        let m = model();
        let search = recommended_shards(&m, WorkloadMix::with_insert_ratio(0.1), 4, 16);
        let insert = recommended_shards(&m, WorkloadMix::with_insert_ratio(0.9), 4, 16);
        assert!(
            insert.shards >= search.shards,
            "multiplied OPQs keep paying for insert-heavy mixes: {} vs {}",
            insert.shards,
            search.shards
        );
    }

    #[test]
    fn one_stream_recommends_one_shard_for_searches() {
        let m = model();
        let t = recommended_shards(&m, WorkloadMix::search_only(), 1, 8);
        assert_eq!(
            t.shards, 1,
            "no overlap to win and the pool split only costs cache hits"
        );
    }

    #[test]
    fn auto_tune_prefers_bigger_opq_for_insert_heavy_workloads() {
        let mut dev = SsdDevice::new(DeviceProfile::F120.build());
        let insert_heavy = auto_tune(
            &mut dev,
            4096,
            10_000_000,
            4096,
            WorkloadMix::with_insert_ratio(0.9),
            &[2],
            &[1, 1024],
            32,
            3,
        );
        let search_heavy = auto_tune(
            &mut dev,
            4096,
            10_000_000,
            4096,
            WorkloadMix::with_insert_ratio(0.1),
            &[2],
            &[1, 1024],
            32,
            3,
        );
        assert!(insert_heavy.opq_pages >= search_heavy.opq_pages);
    }
}
