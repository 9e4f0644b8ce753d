//! The engine's threading model, observed from outside: an engine with `N`
//! shards runs `N` worker threads, one more with a maintenance interval, and
//! none once it is dropped. Alone in its file so no other test's engine shares
//! the process.
#![cfg(target_os = "linux")]

use engine::{EngineConfig, ShardedPioEngine};
use pio_btree::PioConfig;
use ssd_sim::DeviceProfile;

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
fn an_engine_runs_one_thread_per_shard_plus_optional_maintenance() {
    let config = |maintenance: Option<u64>| {
        let mut config = EngineConfig::builder()
            .shards(3)
            .profile(DeviceProfile::F120)
            .shard_capacity_bytes(1 << 30)
            .base(PioConfig::builder().page_size(2048).pool_pages(64).build())
            .build();
        config.maintenance_interval_ms = maintenance;
        config
    };
    let sample: Vec<u64> = (0..3_000).collect();
    assert!(engine_threads().is_empty());

    let engine = ShardedPioEngine::create(config(None), &sample).unwrap();
    engine.insert_batch(&[(1, 1), (1_500, 2), (2_900, 3)]).unwrap();
    assert_eq!(
        engine.multi_search(&[1, 1_500, 2_900]).unwrap(),
        vec![Some(1), Some(2), Some(3)]
    );
    assert_eq!(engine_threads(), ["engine-shard-0", "engine-shard-1", "engine-shard-2"]);
    drop(engine);
    assert!(engine_threads().is_empty(), "dropping the engine joins its workers");

    let engine = ShardedPioEngine::create(config(Some(50)), &sample).unwrap();
    // A thread names itself as it starts: give the four a bounded moment to.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine_threads().len() < 4 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    // The kernel keeps 15 bytes of a thread name.
    assert_eq!(
        engine_threads(),
        ["engine-maintena", "engine-shard-0", "engine-shard-1", "engine-shard-2"]
    );
    drop(engine);
    assert!(engine_threads().is_empty());
}
