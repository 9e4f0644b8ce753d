//! The service's threading model, observed from outside: starting an
//! `EngineService` and serving every kind of request through it adds no thread
//! to the process — requests run on their callers — and `shutdown()` leaves
//! none behind. Alone in its file so no other test's threads share the process.
#![cfg(target_os = "linux")]

use engine::{EngineConfig, ShardedPioEngine};
use pio_btree::PioConfig;
use service::EngineService;
use ssd_sim::DeviceProfile;
use std::sync::{Arc, Barrier};

/// Names of this process's live threads, sorted.
fn thread_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn a_started_service_adds_no_thread_and_shutdown_leaves_none() {
    const CLIENTS: usize = 3;
    let config = EngineConfig::builder()
        .shards(3)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 30)
        .max_batch_size(4)
        .base(PioConfig::builder().page_size(2048).pool_pages(64).build())
        .build();
    let sample: Vec<u64> = (0..3_000).collect();
    // Whatever the test harness itself runs (its main thread, this test's).
    let harness = thread_names();
    let engine = Arc::new(ShardedPioEngine::create(config, &sample).unwrap());
    // A call that spans every shard runs on this thread.
    engine.multi_search(&[1, 1_500, 2_900]).unwrap();
    let with_clients = |clients: &[&str]| {
        let mut names: Vec<String> = harness.clone();
        names.extend(clients.iter().map(|name| name.to_string()));
        names.sort();
        names
    };
    assert_eq!(thread_names(), harness, "the engine starts no thread");

    let service = EngineService::start(Arc::clone(&engine));
    assert_eq!(thread_names(), harness, "starting the service spawns nothing");

    // Clients push gets, puts and a scan each, then hold still (requests done,
    // threads alive) while the main thread counts.
    let served = Barrier::new(CLIENTS + 1);
    let counted = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..CLIENTS as u64 {
            let handle = service.handle();
            let (served, counted) = (&served, &counted);
            let client = std::thread::Builder::new()
                .name(format!("client-{c}"))
                .spawn_scoped(scope, move || {
                    for i in 0..50u64 {
                        let key = (i * 59 + c) % 3_000;
                        handle.put(key, key + 1).unwrap();
                        assert_eq!(handle.get(key).unwrap().value(), Some(key + 1));
                    }
                    assert!(!handle.scan(0, 3_000).unwrap().entries().is_empty());
                    served.wait();
                    counted.wait();
                })
                .unwrap();
            clients.push(client);
        }
        served.wait();
        assert_eq!(
            thread_names(),
            with_clients(&["client-0", "client-1", "client-2"]),
            "serving requests spawns nothing"
        );
        counted.wait();
        // Joined, not just finished: the scope's end waits for the closures to
        // return, a join for the OS threads to be gone from `/proc`.
        for client in clients {
            client.join().unwrap();
        }
    });

    let stats = service.shutdown();
    assert_eq!(stats.total_requests(), CLIENTS as u64 * 101);
    assert_eq!(thread_names(), harness, "shutdown leaves no thread behind");
    drop(engine);
    assert_eq!(thread_names(), harness);
}
