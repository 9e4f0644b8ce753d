//! The engine's threading model, observed from outside: an engine runs no
//! thread of its own — its calls, the ones that span shards too, and the
//! maintenance sweeps its cadences make due all run on its callers. Alone in
//! its file so no other test's engine shares the process.
#![cfg(target_os = "linux")]

use engine::{EngineConfig, ShardedPioEngine};
use pio_btree::PioConfig;
use ssd_sim::DeviceProfile;
use std::time::Duration;

/// Names of this process's live threads that an engine started.
fn engine_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("engine-"))
        .collect();
    names.sort();
    names
}

#[test]
fn an_engine_never_starts_a_thread() {
    let mut config = EngineConfig::builder()
        .shards(3)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 30)
        .base(PioConfig::builder().page_size(2048).opq_pages(1).pool_pages(64).build())
        .maintenance_interval_ms(1)
        .checkpoint_interval_ms(1)
        .scrub_interval_ms(1)
        .build();
    config.rebalance.auto = true;
    let sample: Vec<u64> = (0..3_000).collect();
    assert!(engine_threads().is_empty());

    let engine = ShardedPioEngine::create(config, &sample).unwrap();
    assert!(engine_threads().is_empty(), "building starts no thread");
    for round in 0..20u64 {
        // Every call spans the three shards; each sleep makes every cadence
        // due, so the next call to end runs a sweep with all its steps.
        let batch: Vec<(u64, u64)> = (0..60u64).map(|i| (i * 50 + round, round)).collect();
        engine.insert_batch(&batch).unwrap();
        assert!(engine_threads().is_empty(), "round {round}: insert_batch");
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            engine.multi_search(&[round, 1_500 + round, 2_950 + round]).unwrap(),
            vec![Some(round), Some(round), Some(round)]
        );
        assert!(engine_threads().is_empty(), "round {round}: multi_search");
        std::thread::sleep(Duration::from_millis(2));
        engine.range_search(0, 3_000).unwrap();
        engine.search(round).unwrap();
        assert!(engine_threads().is_empty(), "round {round}: range_search and search");
    }
    let stats = engine.stats();
    assert!(stats.checkpoints > 0, "the callers' sweeps checkpointed");
    assert!(stats.integrity.scrubbed_pages > 0, "the callers' sweeps scrubbed");
    assert_eq!(stats.maintenance_errors, 0, "{:?}", stats.last_maintenance_error);
    drop(engine);
    assert!(engine_threads().is_empty());
}
