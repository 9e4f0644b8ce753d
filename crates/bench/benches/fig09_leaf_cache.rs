//! Figure 9 extension: the scan-resistant leaf cache at an equal memory
//! budget.
//!
//! One claim, asserted (this bench doubles as a regression gate): the
//! baseline engine can spend its whole budget only on the buffer pool — which
//! caches single pages, i.e. internal nodes, and architecturally cannot hold
//! the multi-page leaf regions. Splitting the same budget into pool + leaf
//! cache serves a skewed multi-search workload ≥ 1.2× faster on a shared
//! device, because the hot leaves finally have somewhere to live, while the
//! smaller pool still holds every internal node for the descents to walk.
//!
//! Reported in simulated device time, as everywhere in this harness.

use engine::{EngineBuilder, EngineConfig, ShardedPioEngine, SharedDevice};
use pio_bench::{ratio, scaled, setup, us, Table};
use pio_btree::PioConfig;
use ssd_sim::DeviceProfile;

const PAGE: usize = 2048;

/// Total memory budget in pages, split two ways across the compared engines.
const BUDGET_PAGES: u64 = 3072;

/// xorshift key stream, deterministic across the compared engines.
fn key_stream(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn engine_with(pool_pages: u64, cache_pages: u64, entries: &[(u64, u64)]) -> ShardedPioEngine {
    let mut builder = EngineConfig::builder()
        .shards(4)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(8 << 30)
        .base(
            PioConfig::builder()
                .page_size(PAGE)
                .leaf_segments(2)
                .opq_pages(4)
                .pool_pages(pool_pages)
                .build(),
        );
    if cache_pages > 0 {
        builder = builder.leaf_cache_bytes(cache_pages * PAGE as u64);
    }
    EngineBuilder::new(builder.build())
        .topology(SharedDevice)
        .entries(entries)
        .build()
        .expect("engine build")
}

/// The skewed serving workload: 80% of probes cycle a hot set that fits the
/// leaf cache, 20% are uniform over the whole space.
fn drive(engine: &ShardedPioEngine, hot: &[u64], key_space: u64, rounds: usize) -> f64 {
    let mut next = key_stream(0xB07);
    let mut hot_i = 0usize;
    // Warm-up: one full pass so both engines start from steady state.
    for _ in 0..4 {
        let keys: Vec<u64> = (0..256)
            .map(|_| {
                hot_i = (hot_i + 1) % hot.len();
                hot[hot_i]
            })
            .collect();
        engine.multi_search(&keys).unwrap();
    }
    let before = engine.stats().total_io_us;
    for _ in 0..rounds {
        let keys: Vec<u64> = (0..256)
            .map(|i| {
                if i % 5 == 4 {
                    next() % key_space
                } else {
                    hot_i = (hot_i + 1) % hot.len();
                    hot[hot_i]
                }
            })
            .collect();
        engine.multi_search(&keys).unwrap();
    }
    engine.stats().total_io_us - before
}

fn main() {
    let mut table = Table::new(
        "fig09_leaf_cache",
        "Pool + leaf cache: equal-memory shared-device speedup",
        &["configuration", "memory", "elapsed_ms", "detail", "speedup"],
    );
    let n = setup::initial_entries();
    let key_space = n * 4;
    let entries = setup::bulk_entries(n);
    let rounds = scaled(12_000) / 256;
    // 512 hot keys scattered over the space: their leaves fit the split
    // engine's leaf cache but nothing can hold them in the baseline.
    let hot: Vec<u64> = (0..512u64).map(|i| (i * (key_space / 512)) / 4 * 4).collect();

    // Baseline: the whole budget in the pool, leaf cache off.
    let baseline = engine_with(BUDGET_PAGES, 0, &entries);
    let base_us = drive(&baseline, &hot, key_space, rounds);
    // Same budget split: pool 1536 + leaf cache 1536 pages.
    let split = engine_with(BUDGET_PAGES / 2, BUDGET_PAGES / 2, &entries);
    let split_us = drive(&split, &hot, key_space, rounds);

    let stats = split.stats();
    table.row(vec![
        "baseline (all pool)".into(),
        format!("{BUDGET_PAGES} pages pool"),
        us(base_us / 1e3),
        "-".into(),
        "-".into(),
    ]);
    table.row(vec![
        "pool + leaf cache".into(),
        format!("{}+{} pages", BUDGET_PAGES / 2, BUDGET_PAGES / 2),
        us(split_us / 1e3),
        format!(
            "walked {:.0}%, leaf cache {:.0}%",
            stats.inner_tier_hit_rate() * 100.0,
            stats.leaf_cache_hit_rate() * 100.0
        ),
        ratio(base_us, split_us),
    ]);
    table.finish();
    assert!(
        stats.inner_tier_hit_rate() > 0.9,
        "the halved pool must still hold the internal levels: {:.3} of descents walked it",
        stats.inner_tier_hit_rate()
    );
    assert!(
        base_us >= 1.2 * split_us,
        "equal-memory speedup regressed: baseline {base_us:.0} µs vs pool + leaf cache {split_us:.0} µs \
         ({:.2}× < 1.2×)",
        base_us / split_us
    );
    println!("\nfig09_leaf_cache done.");
}
