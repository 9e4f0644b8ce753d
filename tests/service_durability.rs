//! Integration: the service's group-commit ack contract. A put acked by the
//! service rides a forced flush epoch, so it must survive a crash of the whole
//! engine — deterministically, and across a randomized sweep of shutdown
//! points with clients still in full flight when the service goes down.

mod common;

use common::crash::seeded_rng;
use engine::{EngineConfig, ShardedPioEngine};
use pio_btree::PioConfig;
use rand::Rng;
use service::{EngineService, ServiceError};
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// WAL-enabled engine: three shards, small OPQs so service batches overflow
/// into real flushes mid-run.
fn config(max_batch_size: usize) -> EngineConfig {
    EngineConfig::builder()
        .shards(3)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 28)
        .max_batch_size(max_batch_size)
        .base(
            PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(1)
                .pio_max(8)
                .speriod(32)
                .bcnt(64)
                .pool_pages(96)
                .wal(true)
                .build(),
        )
        .build()
}

fn wal_engine(config: EngineConfig) -> Arc<ShardedPioEngine> {
    let sample: Vec<u64> = (0..3_000u64).map(|i| i * 11).collect();
    Arc::new(ShardedPioEngine::create(config, &sample).unwrap())
}

/// Deterministic version: concurrent clients put through the service, every
/// ack is recorded, the service shuts down cleanly, the engine crashes (OPQs,
/// pools, un-forced WAL records all lost) and recovers — and every acked put
/// must be present with its last acked value.
#[test]
fn acked_puts_survive_crash_and_recovery() {
    const THREADS: u64 = 6;
    const OPS: u64 = 120;

    let engine = wal_engine(config(8));
    let service = EngineService::start(Arc::clone(&engine));

    let acked: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let handle = service.handle();
                scope.spawn(move || {
                    let mut acks = Vec::new();
                    for seq in 0..OPS {
                        // Disjoint per-thread keys; repeated writes to the same
                        // key exercise last-ack-wins across epochs.
                        let key = (seq % 40) * THREADS + t;
                        let value = (t << 32) | seq;
                        handle.put(key, value).expect("put failed");
                        acks.push((key, value));
                    }
                    acks
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });

    service.shutdown();
    // Every service batch lands on one shard, so it commits in that shard's
    // own log: a local bracket, no epoch.
    let local_commits = engine.stats().local_commits;
    let lost = engine.simulate_crash();
    let report = engine.recover().unwrap();
    assert!(
        local_commits + report.committed_epochs + report.recovered_epochs > 0,
        "no batch was ever forced"
    );
    assert_eq!(
        report.aborted_local(),
        0,
        "every batch was acked, so none may read aborted"
    );

    // Last acked value per key, across all clients (keys are disjoint per
    // thread, so per-thread ack order is the global order for each key).
    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    for acks in &acked {
        for &(k, v) in acks {
            expected.insert(k, v);
        }
    }
    for (&k, &v) in &expected {
        assert_eq!(
            engine.search(k).unwrap(),
            Some(v),
            "acked put {k} lost after crash (simulated loss of {lost} OPQ entries)"
        );
    }
}

/// Randomized sweep: clients hammer puts in an open loop while the main thread
/// shuts the service down at a random moment — mid-builder, mid-epoch,
/// wherever the seed lands. In-flight requests drain (acked) or are refused
/// (`Closed`); then the engine crashes and recovers, and every put that *was*
/// acked must be durable. `CRASH_SEED` replays a failing sweep.
#[test]
fn acked_puts_survive_randomized_shutdown_points() {
    const THREADS: u64 = 4;
    const ROUNDS: usize = 5;

    let (mut rng, seed) = seeded_rng();
    for round in 0..ROUNDS {
        let engine = wal_engine(config(rng.gen_range(2..12)));
        let service = EngineService::start(Arc::clone(&engine));
        let shutdown_after = Duration::from_micros(rng.gen_range(500..30_000));

        let acked: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let handle = service.handle();
                    scope.spawn(move || {
                        let mut acks = Vec::new();
                        for seq in 0u64.. {
                            let key = (seq % 64) * THREADS + t;
                            let value = (t << 32) | seq;
                            match handle.put(key, value) {
                                Ok(_) => acks.push((key, value)),
                                Err(ServiceError::Closed) => break,
                                Err(e) => panic!("unexpected service error: {e}"),
                            }
                        }
                        acks
                    })
                })
                .collect();
            std::thread::sleep(shutdown_after);
            let stats = service.shutdown();
            assert_eq!(stats.errors, 0, "seed {seed} round {round}: engine errors");
            handles
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect()
        });

        engine.simulate_crash();
        engine
            .recover()
            .unwrap_or_else(|e| panic!("seed {seed} round {round}: recovery failed: {e}"));

        let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
        for acks in &acked {
            for &(k, v) in acks {
                expected.insert(k, v);
            }
        }
        for (&k, &v) in &expected {
            let got = engine.search(k).unwrap();
            assert_eq!(
                got,
                Some(v),
                "seed {seed} round {round}: acked put {k}={v} not durable after crash (got {got:?})"
            );
        }
    }
}
