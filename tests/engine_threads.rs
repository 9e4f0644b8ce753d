//! The engine's threading model, observed from outside: an engine runs no
//! thread of its own — its calls, the ones that span shards too, run on their
//! callers — but the maintenance worker when it has a maintenance interval,
//! and none once it is dropped. Alone in its file so no other test's engine
//! shares the process.
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
fn an_engine_runs_no_thread_but_its_optional_maintenance_worker() {
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
    engine.checkpoint().unwrap();
    assert_eq!(engine.maintain_once().unwrap(), 0);
    assert!(
        engine_threads().is_empty(),
        "calls across three shards and background work start no thread"
    );
    drop(engine);
    assert!(engine_threads().is_empty());

    let engine = ShardedPioEngine::create(config(Some(50)), &sample).unwrap();
    // A thread names itself as it starts: give it a bounded moment to.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine_threads().is_empty() && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    engine.insert_batch(&[(2, 1), (1_502, 2), (2_902, 3)]).unwrap();
    // The kernel keeps 15 bytes of a thread name.
    assert_eq!(engine_threads(), ["engine-maintena"]);
    drop(engine);
    assert!(engine_threads().is_empty());
}
