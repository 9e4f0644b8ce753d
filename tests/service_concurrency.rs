//! Integration: the service front end under concurrency — a multi-threaded
//! hammer against a per-client oracle, deterministic flush-trigger behaviour,
//! shutdown drain semantics, and the cross-check that the front end's batching
//! accounting agrees with the engine's own ground-truth counters.

mod common;

use common::crash::seeded_rng;
use common::gate::{gated_engine, Gate};
use engine::{EngineConfig, ShardedPioEngine};
use pio_btree::PioConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};
use service::{EngineService, ServiceError};
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config(shards: usize, max_batch_size: usize) -> EngineConfig {
    EngineConfig::builder()
        .shards(shards)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(1 << 30)
        .max_batch_size(max_batch_size)
        .base(
            PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(2)
                .pio_max(32)
                .speriod(64)
                .bcnt(128)
                .pool_pages(256)
                .build(),
        )
        .build()
}

/// The key population the shard boundaries are cut from.
fn key_sample() -> Vec<u64> {
    (0..20_000u64).map(|i| i * 7).collect()
}

fn engine(config: EngineConfig) -> Arc<ShardedPioEngine> {
    Arc::new(ShardedPioEngine::create(config, &key_sample()).unwrap())
}

/// A service with a **busy slot**, which is what it takes to park anything: a
/// one-shard WAL engine behind a shut gate, and a put of `key` running — its
/// batch taken at once from the idle slot and now waiting at the gate, inside
/// its shard-WAL force. Until the gate opens, every later put opens (or joins)
/// a builder behind that batch and parks. Returns the service, the gate and
/// the blocked put's thread.
fn service_with_a_put_in_flight(
    mut config: EngineConfig,
    key: u64,
) -> (
    EngineService,
    Arc<Gate>,
    std::thread::JoinHandle<Result<service::Response, ServiceError>>,
) {
    assert_eq!(config.shards, 1, "one shard: every put shares the busy slot");
    config.base.wal_enabled = true;
    let gate = Gate::new();
    let service = EngineService::start(Arc::new(gated_engine(config, &[], &gate)));
    gate.shut();
    let handle = service.handle();
    let blocked = std::thread::spawn(move || handle.put(key, key * 10));
    gate.wait_until_blocked(1);
    (service, gate, blocked)
}

/// Spins (yielding) until `reached` holds for the service's stats. Only a
/// liveness wait: the tests' outcomes never depend on how long it takes.
fn wait_for(service: &EngineService, what: &str, reached: impl Fn(&service::ServiceStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !reached(&service.stats()) {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::yield_now();
    }
}

/// Every batch left its builder by exactly one of the five triggers.
fn assert_triggers_add_up(stats: &service::ServiceStats) {
    assert_eq!(
        stats.size_triggered_flushes
            + stats.idle_flushes
            + stats.handover_flushes
            + stats.budget_expired_flushes
            + stats.drain_flushes,
        stats.batches_formed,
        "{stats:?}"
    );
}

/// ≥ 8 client threads hammer one service with a mixed get/put/scan workload.
/// Each thread owns a congruence class of the key space (keys ≡ t mod THREADS),
/// keeps a private `BTreeMap` oracle of its own writes, and checks *every*
/// response against it — a get must return exactly the thread's last acked put
/// for that key (read-your-writes through the batch builders), and a scan,
/// filtered to the thread's own class, must equal the oracle's range. After the
/// run the service's batching accounting must agree with the engine's own
/// per-shard ground truth, and a full sweep over the merged oracle must verify
/// on the bare engine.
#[test]
fn concurrent_hammer_against_oracle() {
    const THREADS: u64 = 8;
    const OPS: u64 = 400;
    const KEY_SPACE: u64 = 4_000;

    let engine = engine(config(4, 16));
    let service = EngineService::start(Arc::clone(&engine));

    let oracles: Vec<BTreeMap<u64, u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let handle = service.handle();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBEEF + t);
                    let mut own = BTreeMap::new();
                    for seq in 0..OPS {
                        // Keys ≡ t (mod THREADS): disjoint ownership, but every
                        // shard sees every thread (classes stripe the space).
                        let key = rng.gen_range(0..KEY_SPACE / THREADS) * THREADS + t;
                        let dice: f64 = rng.gen();
                        if dice < 0.40 {
                            let value = (t << 32) | seq;
                            handle.put(key, value).expect("put failed");
                            own.insert(key, value);
                        } else if dice < 0.50 {
                            let span = rng.gen_range(50..400);
                            let hi = key.saturating_add(span);
                            let response = handle.scan(key, hi).expect("scan failed");
                            let mine: Vec<(u64, u64)> = response
                                .entries()
                                .iter()
                                .copied()
                                .filter(|(k, _)| k % THREADS == t)
                                .collect();
                            let expected: Vec<(u64, u64)> = own.range(key..hi).map(|(&k, &v)| (k, v)).collect();
                            assert_eq!(mine, expected, "thread {t} scan [{key},{hi}) diverged");
                        } else {
                            let got = handle.get(key).expect("get failed").value();
                            assert_eq!(got, own.get(&key).copied(), "thread {t} get {key} diverged");
                        }
                    }
                    own
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });

    let stats = service.shutdown();
    let engine_stats = engine.stats();

    // Request accounting adds up, and every admitted request was timed.
    assert_eq!(stats.total_requests(), THREADS * OPS);
    assert_eq!(stats.gets + stats.puts + stats.scans, THREADS * OPS);
    assert_eq!(stats.e2e.count(), THREADS * OPS);
    assert_eq!(stats.queue_wait.count(), THREADS * OPS);
    assert!(stats.errors == 0, "engine calls failed: {}", stats.errors);
    assert_eq!(
        stats.batched_requests,
        stats.gets + stats.puts,
        "every get and put must ride a coalesced batch"
    );
    assert_triggers_add_up(&stats);

    // With 8 tightly-looping clients, builders fill while the batch ahead of
    // them executes — coalescing must actually happen: strictly more batched
    // requests than batches.
    assert!(
        stats.avg_batch_occupancy() > 1.0,
        "no coalescing happened: occupancy {}",
        stats.avg_batch_occupancy()
    );

    // The front end's accounting must agree with the engine's own per-shard
    // counters: every service batch is exactly one single-shard sub-batch.
    assert_eq!(stats.batches_formed, engine_stats.batched_calls);
    assert_eq!(stats.batched_requests, engine_stats.batched_ops);
    assert!((stats.avg_batch_occupancy() - engine_stats.avg_batch_occupancy()).abs() < 1e-9);

    // Full-state verification on the bare engine (classes are disjoint, so the
    // merged oracle is the exact expected state of the tree).
    let mut merged = BTreeMap::new();
    for oracle in oracles {
        merged.extend(oracle);
    }
    assert!(!merged.is_empty());
    for (&k, &v) in &merged {
        assert_eq!(engine.search(k).unwrap(), Some(v), "key {k} lost after shutdown");
    }
    assert_eq!(engine.count_entries().unwrap(), merged.len() as u64);
}

/// `max_batch_size = 1` is the request-at-a-time baseline: every request
/// flushes its builder immediately, so every flush is size-triggered and the
/// occupancy is exactly 1.
#[test]
fn batch_size_one_degenerates_to_request_at_a_time() {
    let engine = engine(config(2, 1));
    let service = EngineService::start(Arc::clone(&engine));
    let handle = service.handle();
    for key in 0..40u64 {
        handle.put(key * 31, key).unwrap();
        assert_eq!(handle.get(key * 31).unwrap().value(), Some(key));
    }
    let stats = service.shutdown();
    assert_eq!(stats.batches_formed, 80);
    assert_eq!(stats.size_triggered_flushes, 80);
    assert_eq!(stats.budget_expired_flushes, 0);
    assert_eq!(stats.drain_flushes, 0);
    assert!((stats.avg_batch_occupancy() - 1.0).abs() < 1e-9);
}

/// With a huge size cap and a request deadline, a request parked behind a
/// running batch that never finishes can only leave its builder when its
/// deadline runs out — and the measured queue wait must show that the request
/// actually waited out its deadline (and not much longer: the deadline fired
/// on time). A lone request on an idle slot, by contrast, never waits at all.
#[test]
fn lone_requests_flush_on_budget_expiry() {
    const DEADLINE_MS: u64 = 2;
    let mut config = config(1, 10_000);
    config.request_deadline_ms = Some(DEADLINE_MS);
    let (service, gate, blocked) = service_with_a_put_in_flight(config, 1);
    let parked: Vec<_> = (2..4u64)
        .map(|key| {
            let handle = service.handle();
            // One at a time: each opens its own builder behind the blocked
            // batch and takes it when its own deadline runs out.
            let put = std::thread::spawn(move || handle.put(key * 1_001, key));
            wait_for(&service, "the parked put's deadline", |stats| {
                stats.budget_expired_flushes == key - 1
            });
            put
        })
        .collect();
    gate.open();
    blocked
        .join()
        .unwrap()
        .expect("the blocked put completes once the gate opens");
    for put in parked {
        let response = put.join().unwrap().expect("a leader at its deadline is answered");
        // The builder held the request for the deadline, and nowhere near a
        // missed-deadline stall.
        assert!(
            response.timing.queue_us >= DEADLINE_MS * 1_000,
            "waited only {}µs of a {DEADLINE_MS}ms deadline",
            response.timing.queue_us
        );
        assert!(
            response.timing.queue_us < 500_000,
            "waited {}µs — the deadline never fired?",
            response.timing.queue_us
        );
        assert!(response.timing.total_us >= response.timing.queue_us);
    }
    // The slot is idle again: a lone request runs at once.
    service.handle().put(9_009, 9).unwrap();
    let engine = Arc::clone(service.engine());
    let stats = service.shutdown();
    assert_eq!(stats.budget_expired_flushes, 2);
    assert_eq!(stats.idle_flushes, 2, "the blocked put and the lone one");
    assert_eq!(
        stats.size_triggered_flushes + stats.handover_flushes + stats.drain_flushes,
        0
    );
    assert_eq!((stats.puts, stats.timeouts), (4, 0), "one answer per put");
    assert_triggers_add_up(&stats);
    for (key, value) in [(1, 10), (2_002, 2), (3_003, 3), (9_009, 9)] {
        assert_eq!(engine.search(key).unwrap(), Some(value), "acked put {key}");
    }
}

/// Without a deadline a leader behind a running batch has no timer at all: a
/// put parked behind a batch held at the gate for 100 ms is started by the
/// hand-over when the batch ahead finishes, and its queue wait covers the
/// whole hold.
#[test]
fn a_leader_waits_for_the_hand_over_however_long_the_batch_ahead_runs() {
    const HOLD: Duration = Duration::from_millis(100);
    let (service, gate, blocked) = service_with_a_put_in_flight(config(1, 10_000), 1);
    let handle = service.handle();
    let leader = std::thread::spawn(move || handle.put(2, 20));
    wait_for(&service, "the leader reaching its builder", |stats| stats.puts == 2);
    std::thread::sleep(HOLD);
    assert_eq!(service.stats().batches_formed, 1, "the leader is still parked");
    gate.open();
    blocked.join().unwrap().expect("the blocked put completes");
    let response = leader.join().unwrap().expect("the leader is answered");
    assert!(
        response.timing.queue_us >= HOLD.as_micros() as u64,
        "queued only {}µs behind a {HOLD:?} hold",
        response.timing.queue_us
    );
    let engine = Arc::clone(service.engine());
    let stats = service.shutdown();
    assert_eq!(
        (stats.idle_flushes, stats.handover_flushes, stats.budget_expired_flushes),
        (1, 1, 0)
    );
    assert_triggers_add_up(&stats);
    assert_eq!(engine.search(2).unwrap(), Some(20));
}

/// The gate on what the benchmark's serving row measures: a request that finds
/// its slot idle runs at once. 200 lone gets and puts from one thread take well
/// under a second in total — a 50 ms timer anywhere on the idle path would cost
/// ten — and no batch leaves on a deadline.
#[test]
fn lone_requests_never_wait_for_the_budget() {
    let mut config = config(2, 64);
    config.base.wal_enabled = true;
    let service = EngineService::start(engine(config));
    let handle = service.handle();
    let started = Instant::now();
    for i in 0..100u64 {
        handle.put(i * 1_300, i).unwrap();
        assert_eq!(handle.get(i * 1_300).unwrap().value(), Some(i));
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "200 lone requests took {elapsed:?}");
    let stats = service.shutdown();
    assert_eq!(stats.budget_expired_flushes, 0);
    assert_eq!((stats.idle_flushes, stats.batches_formed), (200, 200));
}

/// Shutdown drains open builders: a request parked in a builder behind a batch
/// that cannot finish still gets its real answer (not an error) when the
/// service shuts down, and the flush is accounted as a drain.
#[test]
fn shutdown_drains_parked_requests() {
    let (service, gate, blocked) = service_with_a_put_in_flight(config(1, 10_000), 1);
    let handle = service.handle();
    let parked = std::thread::spawn(move || handle.put(77, 770));
    wait_for(&service, "the second put reaching its builder", |stats| stats.puts == 2);
    // Shut down under it. The drain takes the parked builder first and then
    // queues behind the blocked batch, so the gate opens only once it has.
    let engine = Arc::clone(service.engine());
    let stats = std::thread::scope(|scope| {
        let watcher = service.handle();
        scope.spawn(move || {
            while watcher.stats().drain_flushes == 0 {
                std::thread::yield_now();
            }
            gate.open();
        });
        service.shutdown()
    });
    let response = parked.join().unwrap().expect("drained request must succeed");
    assert!(matches!(response.body, service::ResponseBody::Done));
    blocked.join().unwrap().expect("the blocked put completes");
    assert_eq!(stats.drain_flushes, 1);
    assert_eq!(stats.idle_flushes, 1, "the blocked put");
    assert_eq!(
        stats.budget_expired_flushes + stats.size_triggered_flushes + stats.handover_flushes,
        0
    );
    // The drained put really reached the engine.
    assert_eq!(engine.search(77).unwrap(), Some(770));
}

/// After shutdown every kind of request is refused with `Closed` — and is not
/// counted: the accounting stays what `shutdown` returned.
#[test]
fn requests_after_shutdown_are_refused() {
    let engine = engine(config(2, 4));
    let service = EngineService::start(engine);
    let handle = service.handle();
    handle.put(1, 10).unwrap();
    let last = service.shutdown();
    assert!(matches!(handle.get(1), Err(ServiceError::Closed)));
    assert!(matches!(handle.put(2, 20), Err(ServiceError::Closed)));
    assert!(matches!(handle.scan(0, 10), Err(ServiceError::Closed)));
    let after = handle.stats();
    assert_eq!(after.total_requests(), 1);
    assert_eq!(format!("{after:?}"), format!("{last:?}"), "refusals were counted");
}

/// Scans bypass the builders but still observe every previously acked put, and
/// their timing is recorded like everyone else's.
#[test]
fn scans_see_acked_puts() {
    let engine = engine(config(4, 8));
    let service = EngineService::start(engine);
    let handle = service.handle();
    for key in (100..200u64).step_by(10) {
        handle.put(key, key * 2).unwrap();
    }
    let response = handle.scan(100, 200).unwrap();
    let entries: Vec<(u64, u64)> = response.entries().to_vec();
    assert_eq!(
        entries,
        (100..200u64).step_by(10).map(|k| (k, k * 2)).collect::<Vec<_>>()
    );
    let stats = service.shutdown();
    assert_eq!(stats.scans, 1);
    // The scan is timed but not counted as a coalesced batch.
    assert_eq!(stats.e2e.count(), stats.gets + stats.puts + stats.scans);
    assert_eq!(stats.batched_requests, stats.puts);
}

/// What one client knows of one of its keys: the value of its last acked put,
/// and the values of its puts that timed out — a timed-out put's batch still
/// runs, at a moment the client never learns, so any of them may be the
/// current value.
#[derive(Default)]
struct Known {
    acked: Option<u64>,
    unsure: Vec<u64>,
}

impl Known {
    fn admits(&self, value: Option<u64>) -> bool {
        value == self.acked || value.is_some_and(|v| self.unsure.contains(&v))
    }
}

/// Size triggers, deadlines and hand-overs race for the same builders: with
/// four slots per builder, six tight-looping clients and a 1 ms request
/// deadline — shorter than a put batch's shard-WAL force, which takes 2 ms of
/// wall-clock time here (a batch runs on the client that took it and the
/// simulated devices complete at once, so on one CPU nothing else would ever
/// be found executing) — a leader behind a running batch regularly reaches
/// its deadline just as a follower fills its builder or the batch ahead
/// finishes and calls it, and followers time out. Whoever wins takes the
/// builder whole: every request gets exactly one reply — its answer, or a
/// timeout the service counts — every admitted request is timed once by the
/// batch that carried it, the flush accounting adds up, and every acked put is
/// present (each client checks its own keys against a private model, in which
/// a timed-out put's value stays possible). `CRASH_SEED` replays a failing run.
#[test]
fn racing_size_and_budget_triggers_answer_every_request_once() {
    const CLIENTS: u64 = 6;
    const ROUNDS: u64 = 400;
    const KEYS_PER_CLIENT: u64 = 48;

    let (_, seed) = seeded_rng();
    let mut config = config(2, 4);
    config.base.wal_enabled = true;
    config.request_deadline_ms = Some(1);
    let slow_log = Gate::with_toll(Duration::from_millis(2));
    let engine = Arc::new(gated_engine(config, &key_sample(), &slow_log));
    let service = EngineService::start(Arc::clone(&engine));

    let clients: Vec<(BTreeMap<u64, Known>, u64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = service.handle();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (c + 1));
                    let mut model: BTreeMap<u64, Known> = BTreeMap::new();
                    let mut timeouts = 0;
                    for round in 0..ROUNDS {
                        // Keys ≡ c (mod CLIENTS), spread over both shards.
                        let key = rng.gen_range(0..KEYS_PER_CLIENT) * 2_900 + c;
                        let known = model.entry(key).or_default();
                        let put = rng.gen::<f64>() < 0.4;
                        let value = (c << 32) | round;
                        let reply = if put { handle.put(key, value) } else { handle.get(key) };
                        match reply {
                            Ok(_) if put => known.acked = Some(value),
                            Ok(got) => assert!(
                                known.admits(got.value()),
                                "seed {seed}: client {c} round {round} get {key} diverged: {:?}",
                                got.value()
                            ),
                            Err(ServiceError::Timeout) => {
                                timeouts += 1;
                                if put {
                                    known.unsure.push(value);
                                }
                            }
                            Err(e) => panic!("seed {seed}: client {c} round {round} key {key} failed: {e}"),
                        }
                    }
                    (model, timeouts)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client panicked"))
            .collect()
    });

    let stats = service.shutdown();
    assert_eq!(stats.gets + stats.puts, CLIENTS * ROUNDS, "seed {seed}");
    assert_eq!(
        stats.e2e.count(),
        CLIENTS * ROUNDS,
        "seed {seed}: one timing per admitted request"
    );
    assert_eq!(
        stats.timeouts,
        clients.iter().map(|(_, timeouts)| timeouts).sum::<u64>(),
        "seed {seed}: one reply per request"
    );
    assert_eq!(stats.errors + stats.sheds, 0, "seed {seed}");
    assert_eq!(stats.batched_requests, stats.gets + stats.puts, "seed {seed}");
    assert_triggers_add_up(&stats);
    assert!(
        stats.size_triggered_flushes > 0 && stats.budget_expired_flushes > 0,
        "seed {seed}: the two triggers never competed: {} size, {} deadline",
        stats.size_triggered_flushes,
        stats.budget_expired_flushes
    );

    eprintln!(
        "trigger race (seed {seed}): {} size, {} idle, {} hand-over, {} deadline of {} batches; {} timeouts",
        stats.size_triggered_flushes,
        stats.idle_flushes,
        stats.handover_flushes,
        stats.budget_expired_flushes,
        stats.batches_formed,
        stats.timeouts
    );

    let models: BTreeMap<u64, Known> = clients.into_iter().flat_map(|(model, _)| model).collect();
    let state: BTreeMap<u64, u64> = engine.range_search(0, u64::MAX).unwrap().into_iter().collect();
    assert!(
        state.keys().all(|key| models.contains_key(key)),
        "seed {seed}: the engine holds a key no client put"
    );
    for (key, known) in &models {
        assert!(
            known.admits(state.get(key).copied()),
            "seed {seed}: key {key} is {:?}, acked {:?}, unsure {:?}",
            state.get(key),
            known.acked,
            known.unsure
        );
    }
}

/// A request that opens a builder leads it, and a leader cannot abandon its
/// followers: when its deadline comes before the hand-over it runs its batch
/// at the deadline and is answered, instead of timing out.
#[test]
fn an_opener_with_a_short_deadline_flushes_at_the_deadline() {
    const DEADLINE_MS: u64 = 20;
    let mut config = config(1, 10_000);
    config.request_deadline_ms = Some(DEADLINE_MS);
    let (service, gate, blocked) = service_with_a_put_in_flight(config, 1);
    let handle = service.handle();
    let opener = std::thread::spawn(move || handle.put(5, 50));
    wait_for(&service, "the opener's flush at its deadline", |stats| {
        stats.budget_expired_flushes == 1
    });
    gate.open();
    let response = opener.join().unwrap().expect("an opener is answered, not timed out");
    assert!(
        response.timing.queue_us >= DEADLINE_MS * 1_000,
        "flushed after {}µs, before the {DEADLINE_MS}ms deadline",
        response.timing.queue_us
    );
    // The thread that runs a batch is answered by its own engine call, however
    // long that takes.
    blocked.join().unwrap().expect("the blocked put completes");
    let engine = Arc::clone(service.engine());
    let stats = service.shutdown();
    assert_eq!(stats.budget_expired_flushes, 1);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.drain_flushes, 0);
    assert_triggers_add_up(&stats);
    assert_eq!(engine.search(1).unwrap(), Some(10));
    assert_eq!(engine.search(5).unwrap(), Some(50));
}

/// `admission_queue_limit` bounds the requests admitted and not yet answered:
/// with one executing and one parked behind it, a third is shed at the door.
#[test]
fn requests_beyond_the_admission_limit_are_shed() {
    let mut config = config(1, 10_000);
    config.admission_queue_limit = Some(2);
    let (service, gate, blocked) = service_with_a_put_in_flight(config, 1);
    let handle = service.handle();
    let parked = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.put(2, 20))
    };
    // Nothing but the hand-over starts the parked put, and nothing finishes
    // the blocked one.
    wait_for(&service, "the second put reaching its builder", |stats| stats.puts == 2);
    assert!(matches!(handle.put(3, 30), Err(ServiceError::Overloaded)));

    // The blocked batch finishes and hands the parked put's builder to its leader.
    gate.open();
    for put in [blocked, parked] {
        put.join().unwrap().expect("admitted puts get their real answer");
    }
    let stats = service.shutdown();
    assert_eq!(stats.sheds, 1);
    assert_eq!(stats.puts, 2, "a shed request is not admitted");
    assert_eq!((stats.idle_flushes, stats.handover_flushes), (1, 1));
}
