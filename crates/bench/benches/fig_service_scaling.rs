//! Service scaling (new to this reproduction): what cross-request group
//! batching buys a *serving* deployment of the PIO B-tree.
//!
//! The paper's batched entry points assume someone hands the index a wide
//! batch; a serving system receives independent single requests from
//! concurrent clients. This bench drives the service front end with closed-loop
//! clients (each submits one request, waits, repeats — the honest serving
//! model) and sweeps the client count, against the request-at-a-time baseline
//! (`max_batch_size = 1`: every request is its own engine call).
//!
//! Admission is work-conserving: a request that finds its shard idle runs at
//! once, and a batch forms only *while* the batch ahead of it executes, started
//! by the thread that finishes that one — there is no timer. So a lone client
//! never waits (asserted: its median queue wait stays under 25 µs), and
//! occupancy comes from concurrency alone. The finding this
//! bench records: 16 clients over 4 shards × 2 request kinds leave about two
//! requests per slot, which coalesces a little (occupancy > 1, throughput no
//! worse than one-at-a-time) — a timer bought more there only by idling the
//! CPUs; the paper-style ≥ 1.5× win is asserted where the concurrency for it
//! exists, at 64 clients.
//!
//! Throughput is operations per second of **simulated schedule time** (the
//! engine's `scheduled_io_us` makespan delta over the run), so the comparison
//! measures what the batching does to device work and overlap, not how fast
//! the host machine happens to be. Latency percentiles are the service's own
//! per-request wall-clock histograms.
//!
//! All shards live on ONE shared simulated device: a serving box has one SSD.

use engine::{EngineBuilder, EngineConfig, ShardedPioEngine, SharedDevice};
use pio_bench::{scaled, Table};
use pio_btree::PioConfig;
use service::EngineService;
use ssd_sim::DeviceProfile;
use std::sync::Arc;
use std::time::Duration;
use workload::{run_closed_loop, ClientMix, ClosedLoopSpec, KeyDistribution};

const SHARDS: usize = 4;
const PAGE_SIZE: usize = 2048;

fn build_engine(max_batch_size: usize, entries: &[(u64, u64)]) -> Arc<ShardedPioEngine> {
    let base = PioConfig::builder()
        .page_size(PAGE_SIZE)
        .leaf_segments(2)
        .opq_pages(8)
        .pio_max(32)
        .speriod(256)
        .bcnt(512)
        .pool_pages(1024)
        .build();
    let config = EngineConfig::builder()
        .shards(SHARDS)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(8 << 30)
        .max_batch_size(max_batch_size)
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

struct RunOutcome {
    sim_throughput: f64,
    stats: service::ServiceStats,
}

/// Runs `clients` closed-loop clients against a fresh service on `engine` and
/// measures ops per second of simulated schedule time.
fn run(engine: &Arc<ShardedPioEngine>, clients: usize, ops_per_client: usize, key_space: u64, seed: u64) -> RunOutcome {
    let service = EngineService::start(Arc::clone(engine));
    let spec = ClosedLoopSpec {
        clients,
        ops_per_client,
        think_time: Duration::ZERO,
        key_space,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: ClientMix::read_heavy(),
        seed,
    };
    let sched_before = engine.scheduled_io_us();
    let report = run_closed_loop(&service.handle(), &spec).expect("closed loop failed");
    let sched_us = engine.scheduled_io_us() - sched_before;
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0, "engine calls failed during the run");
    assert_eq!(stats.total_requests(), report.total_ops());
    RunOutcome {
        sim_throughput: report.total_ops() as f64 / (sched_us / 1e6),
        stats,
    }
}

fn main() {
    let n_entries = scaled(120_000) as u64;
    let ops_per_client = scaled(400);
    let entries: Vec<(u64, u64)> = (0..n_entries).map(|i| (i * 31, i)).collect();
    let key_space = n_entries * 31;
    let client_counts = [1usize, 4, 16, 64];
    const COALESCED_BATCH: usize = 64;

    let mut table = Table::new(
        "fig_service_scaling",
        "Service front end: coalesced vs request-at-a-time throughput (Kops/s of simulated schedule time), closed-loop clients, shared device",
        &[
            "mode",
            "clients",
            "Kops/s (sim)",
            "occupancy",
            "batches",
            "idle",
            "hand-over",
            "size-triggered",
            "p50 e2e µs",
            "p99 e2e µs",
            "p99 queue µs",
        ],
    );

    // Request-at-a-time baselines, one per client count.
    let mut baseline_tp = Vec::new();
    for &clients in &client_counts {
        let engine = build_engine(1, &entries);
        let outcome = run(&engine, clients, ops_per_client, key_space, 0xBA5E);
        assert!(
            (outcome.stats.avg_batch_occupancy() - 1.0).abs() < 1e-9,
            "baseline must not coalesce"
        );
        table.row(vec![
            "one-at-a-time".into(),
            clients.to_string(),
            format!("{:.1}", outcome.sim_throughput / 1e3),
            "1.00".into(),
            outcome.stats.batches_formed.to_string(),
            outcome.stats.idle_flushes.to_string(),
            outcome.stats.handover_flushes.to_string(),
            outcome.stats.size_triggered_flushes.to_string(),
            outcome.stats.e2e.p50().to_string(),
            outcome.stats.e2e.p99().to_string(),
            outcome.stats.queue_wait.p99().to_string(),
        ]);
        baseline_tp.push(outcome.sim_throughput);
    }

    // The coalescing sweep.
    let mut occupancy_at = Vec::new();
    for (ci, &clients) in client_counts.iter().enumerate() {
        let engine = build_engine(COALESCED_BATCH, &entries);
        let outcome = run(&engine, clients, ops_per_client, key_space, 0xC0A1);
        let occupancy = outcome.stats.avg_batch_occupancy();
        table.row(vec![
            "coalesced".into(),
            clients.to_string(),
            format!("{:.1}", outcome.sim_throughput / 1e3),
            format!("{occupancy:.2}"),
            outcome.stats.batches_formed.to_string(),
            outcome.stats.idle_flushes.to_string(),
            outcome.stats.handover_flushes.to_string(),
            outcome.stats.size_triggered_flushes.to_string(),
            outcome.stats.e2e.p50().to_string(),
            outcome.stats.e2e.p99().to_string(),
            outcome.stats.queue_wait.p99().to_string(),
        ]);
        occupancy_at.push(occupancy);

        // A lone client finds every slot idle: it never waits.
        if clients == 1 {
            assert!(
                outcome.stats.queue_wait.p50() < 25,
                "a lone client's median queue wait is {}µs",
                outcome.stats.queue_wait.p50()
            );
        }
        // Sixteen clients over eight slots coalesce a little, and for free.
        if clients == 16 {
            assert!(occupancy > 1.0, "{clients} clients: occupancy {occupancy:.2}");
            assert!(
                outcome.sim_throughput >= baseline_tp[ci],
                "{clients} clients: coalesced {:.0} ops/s < baseline {:.0} ops/s",
                outcome.sim_throughput,
                baseline_tp[ci]
            );
        }
        // The paper-style win: at 64 concurrent clients, coalescing
        // independent requests into shared psync streams must beat
        // request-at-a-time by ≥1.5× on simulated schedule time.
        if clients == *client_counts.last().unwrap() {
            assert!(
                occupancy > 1.5,
                "{clients} clients: occupancy {occupancy:.2} — no real coalescing"
            );
            assert!(
                outcome.sim_throughput >= 1.5 * baseline_tp[ci],
                "{clients} clients: coalesced {:.0} ops/s < 1.5× baseline {:.0} ops/s",
                outcome.sim_throughput,
                baseline_tp[ci]
            );
        }
    }
    // More clients → fuller batches (the whole point of cross-request group
    // batching).
    assert!(
        occupancy_at.last().unwrap() > occupancy_at.first().unwrap(),
        "occupancy did not grow with the client count: {occupancy_at:?}"
    );

    table.finish();
    println!("\nfig_service_scaling done.");
}
