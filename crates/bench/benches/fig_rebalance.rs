//! Elastic vs static shard boundaries (new to this reproduction): what live
//! split/merge migration buys a range-partitioned engine whose traffic does
//! not match its boundaries.
//!
//! The headline comparison uses the range-clustered skew approximation
//! ([`KeyDistribution::Skewed`], the repo's Zipfian-over-ranges: 90% of the
//! accesses land in the lowest 30% of the key space) with an append-heavy
//! mix. Static boundaries — laid out evenly over the bulk-loaded data — leave
//! one shard carrying almost the whole workload on a single psync stream of
//! the shared device; the elastic engine watches its per-shard routed-op
//! windows, splits the hot shard while traffic flows, and converges to
//! boundaries that spread the hot range over every stream. Throughput is ops
//! per second of **simulated schedule time** (the `scheduled_io_us` makespan
//! delta over the measured window), so the win measured is device overlap,
//! not host speed.
//!
//! True scrambled [`KeyDistribution::Zipfian`] is deliberately not the
//! headline: its multiplicative-hash key mapping spreads the hot ranks across
//! all shards by construction, which makes every boundary placement equally
//! good — there is nothing for a rebalancer to fix. The second section runs
//! [`KeyDistribution::Latest`] — the append/recency torture case — where the
//! rebalancer must chase a moving head: it demonstrates boundary pursuit
//! (splits keep landing while the hot point advances) and the service-level
//! guarantees (zero request errors, queue waits bounded by migration slack),
//! without a throughput claim range
//! partitioning cannot make for a single moving hot key.
//!
//! All shards share ONE simulated device; `PioMax` is kept at 8 so a lone hot
//! shard cannot saturate the device's internal parallelism by itself — the
//! headroom elasticity is supposed to claim.

use engine::{EngineBuilder, EngineConfig, EngineStats, RebalanceConfig, ShardedPioEngine, SharedDevice};
use pio_bench::Table;
use pio_btree::PioConfig;
use service::EngineService;
use ssd_sim::DeviceProfile;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use workload::{run_closed_loop, ClientMix, ClosedLoopSpec, KeyDistribution};

const SHARDS: usize = 4;
const PAGE_SIZE: usize = 2048;
/// Bound on a phase's p99 queue wait: host scheduling jitter plus the
/// routing-lock hold of a migration's boundary swap.
const MIGRATION_SLACK_US: u64 = 20_000;

fn build_engine(entries: &[(u64, u64)]) -> Arc<ShardedPioEngine> {
    let base = PioConfig::builder()
        .page_size(PAGE_SIZE)
        .leaf_segments(2)
        .opq_pages(8)
        .pio_max(8)
        .speriod(256)
        .bcnt(512)
        .pool_pages(512)
        .build();
    let config = EngineConfig::builder()
        .shards(SHARDS)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(8 << 30)
        .max_batch_size(64)
        .rebalance(RebalanceConfig {
            // Bench-tuned: react within one adaptation round and keep
            // splitting until no shard carries more than ~1.3× its fair
            // share.
            min_window_ops: 512,
            hot_factor: 1.3,
            ..RebalanceConfig::default()
        })
        .base(base)
        .build();
    Arc::new(
        EngineBuilder::new(config)
            .topology(SharedDevice)
            .entries(entries)
            .build()
            .expect("bulk load"),
    )
}

struct Phase {
    sim_throughput: f64,
    stats: service::ServiceStats,
}

/// Runs one closed-loop phase against `engine`; when `rebalance` is set, a
/// background thread keeps ticking `rebalance_once` every few milliseconds
/// while the clients hammer, so migrations execute under live traffic.
fn run_phase(engine: &Arc<ShardedPioEngine>, spec: &ClosedLoopSpec, rebalance: Option<&Arc<AtomicU64>>) -> Phase {
    let service = EngineService::start(Arc::clone(engine));
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = rebalance.map(|migrations| {
        let engine = Arc::clone(engine);
        let stop = Arc::clone(&stop);
        let migrations = Arc::clone(migrations);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // Slow enough that each tick's routed-op window clears the
                // policy's min_window_ops floor at this client count.
                std::thread::sleep(Duration::from_millis(20));
                let moved = engine.rebalance_once().expect("rebalance under traffic");
                migrations.fetch_add(u64::from(moved.is_some()), Ordering::Relaxed);
            }
        })
    });

    let sched_before = engine.scheduled_io_us();
    let report = run_closed_loop(&service.handle(), spec).expect("closed loop failed");
    let sched_us = engine.scheduled_io_us() - sched_before;

    stop.store(true, Ordering::Relaxed);
    if let Some(t) = ticker {
        t.join().expect("rebalance ticker panicked");
    }
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0, "requests failed during the phase");
    assert_eq!(stats.total_requests(), report.total_ops());
    Phase {
        sim_throughput: report.total_ops() as f64 / (sched_us / 1e6),
        stats,
    }
}

fn main() {
    // Deliberately NOT under REPRO_SCALE: the run is seconds long, and both
    // the adaptation (enough routed-op windows to converge) and the measured
    // window (enough puts to force real flush I/O on every shard) need their
    // full size for the comparison to mean anything.
    let n_entries = 120_000u64;
    let entries: Vec<(u64, u64)> = (0..n_entries).map(|i| (i * 31, i)).collect();
    let key_space = n_entries * 31;

    // Append-heavy serving mix over the range-clustered skew: most of the
    // traffic, writes included, hammers the lowest 30% of the key space.
    let mix = ClientMix {
        put: 0.6,
        scan: 0.02,
        scan_span: 100,
    };
    let skew = KeyDistribution::Skewed {
        hot_fraction: 0.3,
        hot_probability: 0.9,
    };
    // The warmup is the adaptation phase — the thing under test — so its
    // length does NOT shrink with REPRO_SCALE: the policy needs enough
    // routed-op windows to converge regardless of how small the measured
    // phase is.
    let warmup = |seed: u64| ClosedLoopSpec {
        clients: 16,
        ops_per_client: 1_200,
        think_time: Duration::ZERO,
        key_space,
        distribution: skew,
        mix,
        seed,
    };
    let measure = |seed: u64| ClosedLoopSpec {
        ops_per_client: 600,
        ..warmup(seed)
    };

    let mut table = Table::new(
        "fig_rebalance",
        "Elastic vs static shard boundaries: append-heavy range-clustered skew on a shared device (Kops/s of simulated schedule time)",
        &[
            "mode",
            "Kops/s (sim)",
            "migrations",
            "hottest shard %",
            "p50 e2e µs",
            "p99 e2e µs",
            "p99 queue µs",
        ],
    );

    /// Share of the ops routed between two snapshots that went to the hottest
    /// shard, in percent.
    fn hottest_share(before: &EngineStats, after: &EngineStats) -> f64 {
        let routed = || {
            after
                .shards
                .iter()
                .zip(&before.shards)
                .map(|(a, b)| a.routed_ops - b.routed_ops)
        };
        100.0 * routed().max().unwrap_or(0) as f64 / routed().sum::<u64>().max(1) as f64
    }

    // --- static baseline: same data, same traffic, boundaries never move ---
    let static_engine = build_engine(&entries);
    run_phase(&static_engine, &warmup(0xE1A5), None);
    let warmed = static_engine.stats();
    let static_phase = run_phase(&static_engine, &measure(0x57A7), None);
    let static_hot = hottest_share(&warmed, &static_engine.stats());
    table.row(vec![
        "static".into(),
        format!("{:.1}", static_phase.sim_throughput / 1e3),
        "0".into(),
        format!("{static_hot:.0}"),
        static_phase.stats.e2e.p50().to_string(),
        static_phase.stats.e2e.p99().to_string(),
        static_phase.stats.queue_wait.p99().to_string(),
    ]);

    // --- elastic: identical traffic, rebalancer ticking underneath ---
    let elastic_engine = build_engine(&entries);
    let migrations = Arc::new(AtomicU64::new(0));
    run_phase(&elastic_engine, &warmup(0xE1A5), Some(&migrations));
    // Let the window-driven policy settle before the measured phase.
    while elastic_engine.rebalance_once().expect("settle").is_some() {}
    let adapted = migrations.load(Ordering::Relaxed);
    let warmed = elastic_engine.stats();
    let elastic_phase = run_phase(&elastic_engine, &measure(0x57A7), None);
    let elastic_hot = hottest_share(&warmed, &elastic_engine.stats());
    table.row(vec![
        "elastic".into(),
        format!("{:.1}", elastic_phase.sim_throughput / 1e3),
        adapted.to_string(),
        format!("{elastic_hot:.0}"),
        elastic_phase.stats.e2e.p50().to_string(),
        elastic_phase.stats.e2e.p99().to_string(),
        elastic_phase.stats.queue_wait.p99().to_string(),
    ]);

    assert!(
        adapted >= 2,
        "adaptation executed only {adapted} migrations — the policy never engaged"
    );
    assert!(
        elastic_hot < static_hot,
        "elastic boundaries did not reduce the hottest shard's share: {elastic_hot:.0}% vs {static_hot:.0}%"
    );
    let speedup = elastic_phase.sim_throughput / static_phase.sim_throughput;
    assert!(
        speedup >= 1.3,
        "elastic {:.0} ops/s is only {speedup:.2}× static {:.0} ops/s (need ≥1.3×)",
        elastic_phase.sim_throughput,
        static_phase.sim_throughput
    );
    for (mode, phase) in [("static", &static_phase), ("elastic", &elastic_phase)] {
        assert!(
            phase.stats.queue_wait.p99() <= MIGRATION_SLACK_US,
            "{mode}: p99 queue wait {}µs exceeds the migration slack",
            phase.stats.queue_wait.p99()
        );
    }

    // --- Latest: the rebalancer chases a moving append head ---
    let latest_engine = build_engine(&entries);
    let chase_migrations = Arc::new(AtomicU64::new(0));
    // Unscaled for the same reason as the warmup: the chase needs enough
    // windows for splits to land while the head moves.
    let latest_spec = ClosedLoopSpec {
        clients: 16,
        ops_per_client: 1_200,
        think_time: Duration::ZERO,
        key_space,
        distribution: KeyDistribution::Latest { theta: 0.9 },
        mix,
        seed: 0x1A7E,
    };
    let fresh = latest_engine.stats();
    let latest_phase = run_phase(&latest_engine, &latest_spec, Some(&chase_migrations));
    let latest_stats = latest_engine.stats();
    let latest_hot = hottest_share(&fresh, &latest_stats);
    table.row(vec![
        "latest (chase)".into(),
        "-".into(),
        chase_migrations.load(Ordering::Relaxed).to_string(),
        format!("{latest_hot:.0}"),
        latest_phase.stats.e2e.p50().to_string(),
        latest_phase.stats.e2e.p99().to_string(),
        latest_phase.stats.queue_wait.p99().to_string(),
    ]);
    assert!(
        latest_stats.splits >= 1,
        "the rebalancer never split under the Latest append head"
    );
    assert!(
        latest_phase.stats.queue_wait.p99() <= MIGRATION_SLACK_US,
        "latest: p99 queue wait {}µs exceeds the migration slack",
        latest_phase.stats.queue_wait.p99()
    );

    table.finish();
    println!(
        "\nfig_rebalance done: elastic {speedup:.2}× static after {adapted} live migrations \
         (hottest shard {static_hot:.0}% → {elastic_hot:.0}%)."
    );
}
