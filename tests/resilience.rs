//! Transient-fault soak for the resilience stack (retry/backoff, checksum
//! verification and scrub, the per-shard health breaker, and clean retryable
//! rejections), driven through the public engine API over the shared
//! [`pio::fault`] harness.
//!
//! The contract under test, end to end:
//!
//! * **No acked write is ever lost** — a put that returned `Ok` survives the
//!   whole soak, including a forced shard split and a checkpoint taken while
//!   faults are armed.
//! * **No wrong data is ever returned** — every successful read yields a value
//!   that was actually written for that key (injected bit flips are caught by
//!   checksum verification, re-read, and never surface).
//! * **Blips don't become outages** — with per-op fault rates around 2%, the
//!   retry layer keeps ≥ 99% of requests succeeding.
//! * **Hard failure is contained** — a sustained fault storm opens the shard's
//!   breaker (writes rejected with a clean retryable error, reads still
//!   served from cache where possible), and the maintenance probe closes it
//!   once the device recovers.
//! * **Rot is found and healed** — a page corrupted *on the device* behind the
//!   engine's back is detected by the scrub pass and rewritten from a
//!   verified cached copy.
//!
//! The random seed comes from `CRASH_SEED` when set (CI runs the suite once
//! fixed, once fresh); every assertion message carries it for replay.

mod common;

use common::crash::{per_backend_clocks, seeded_rng, shared_clock_backends};
use engine::{EngineBuilder, EngineConfig, ShardedPioEngine};
use pio::{FaultClock, IoQueue, ReadRequest, TransientFaults, WriteRequest};
use pio_btree::PioConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Four WAL-enabled shards with a pool small enough that reads keep hitting
/// the device (checksum verification only fires on device fetches).
fn config(pool_pages: u64) -> EngineConfig {
    EngineConfig::builder()
        .shards(4)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 28)
        .base(
            PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(2)
                .pio_max(8)
                .speriod(32)
                .bcnt(64)
                .pool_pages(pool_pages)
                .wal(true)
                .build(),
        )
        .build()
}

fn seed_entries() -> Vec<(u64, u64)> {
    // Values below PUT_BASE so soak writes are always distinguishable.
    (0..8_000u64).map(|k| (k * 8, k + 1)).collect()
}

/// Soak-written values start here; bulk-loaded values stay far below.
const PUT_BASE: u64 = 1 << 40;

fn build(cfg: &EngineConfig, clock: &Arc<FaultClock>) -> ShardedPioEngine {
    EngineBuilder::new(cfg.clone())
        .topology(shared_clock_backends(cfg, clock))
        .entries(&seed_entries())
        .build()
        .expect("engine build must succeed before any fault is armed")
}

/// One client's ground truth for the keys it owns: every value it issued a put
/// for (acked *or not* — an errored put may still have applied), and the last
/// value whose put was acked.
#[derive(Default)]
struct Oracle {
    issued: BTreeMap<u64, Vec<u64>>,
    acked: BTreeMap<u64, u64>,
}

impl Oracle {
    /// Whether `value` is legal for `key` right now: an issued value no older
    /// than the last ack, or the bulk-loaded value when nothing was acked yet.
    fn plausible(&self, key: u64, value: u64) -> bool {
        let floor = self.acked.get(&key).copied();
        if value < PUT_BASE {
            // Bulk-loaded (or foreign) value: fine unless this client already
            // had a put acked for the key.
            return floor.is_none();
        }
        self.issued.get(&key).is_some_and(|vs| vs.contains(&value)) && floor.is_none_or(|f| value >= f)
    }
}

/// Outcome tallies of one soak client.
#[derive(Default)]
struct Tally {
    ok: u64,
    failed: u64,
}

/// The per-client soak loop: puts go to keys the client owns (odd keys in its
/// stripe, so they never collide with bulk-loaded even keys), validated gets
/// read its own stripe, and scans roam the whole space (validated only for
/// value-plausibility of owned keys).
#[allow(clippy::too_many_arguments)]
fn client_loop(
    engine: &ShardedPioEngine,
    client: u64,
    clients: u64,
    ops: u64,
    seed: u64,
    oracle: &mut Oracle,
    tally: &mut Tally,
    mut checkpoint_at: Option<u64>,
    mut split_at: Option<u64>,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ (client << 17));
    let span = 8 * 8_000u64;
    for op in 0..ops {
        if split_at.take_if(|at| *at == op).is_some() {
            engine
                .split_shard(0)
                .unwrap_or_else(|e| panic!("seed {seed}: forced split under faults failed: {e}"));
        }
        if checkpoint_at.take_if(|at| *at == op).is_some() {
            engine
                .checkpoint()
                .unwrap_or_else(|e| panic!("seed {seed}: checkpoint under faults failed: {e}"));
        }
        let dice: f64 = rng.gen();
        if dice < 0.4 {
            // Put to an owned odd key: stripe by client id.
            let slot: u64 = rng.gen_range(0..span / (2 * clients));
            let key = (slot * clients + client) * 2 + 1;
            let seq = oracle.issued.get(&key).map_or(0, |v| v.len() as u64);
            let value = PUT_BASE + (client << 32) + seq;
            // Issued before the call: an errored put may still apply.
            oracle.issued.entry(key).or_default().push(value);
            match engine.insert(key, value) {
                Ok(()) => {
                    oracle.acked.insert(key, value);
                    tally.ok += 1;
                }
                Err(e) => {
                    assert!(
                        !format!("{e}").contains("corrupt data") || !e.is_retryable(),
                        "seed {seed}: malformed corruption error {e}"
                    );
                    tally.failed += 1;
                }
            }
        } else if dice < 0.5 {
            let lo = rng.gen_range(0..span);
            match engine.range_search(lo, lo.saturating_add(512)) {
                Ok(entries) => {
                    for (k, v) in entries {
                        if k % (2 * clients) == client * 2 + 1 {
                            // An owned key: full plausibility check.
                            assert!(
                                oracle.plausible(k, v),
                                "seed {seed} client {client}: scan returned corrupt value {v:#x} for key {k}"
                            );
                        }
                    }
                    tally.ok += 1;
                }
                Err(_) => tally.failed += 1,
            }
        } else {
            // Validated get on an owned key (or a bulk key for variety).
            let key = if rng.gen::<bool>() {
                let slot: u64 = rng.gen_range(0..span / (2 * clients));
                (slot * clients + client) * 2 + 1
            } else {
                rng.gen_range(0..8_000u64) * 8
            };
            match engine.search(key) {
                Ok(found) => {
                    tally.ok += 1;
                    match found {
                        Some(v) => assert!(
                            key % 8 == 0 && key % 2 == 0 || oracle.plausible(key, v),
                            "seed {seed} client {client}: get returned corrupt value {v:#x} for key {key}"
                        ),
                        None => assert!(
                            !oracle.acked.contains_key(&key) && key % 8 != 0,
                            "seed {seed} client {client}: acked or bulk-loaded key {key} vanished"
                        ),
                    }
                }
                Err(_) => tally.failed += 1,
            }
        }
    }
}

// ---------------------------------------------------------------- main soak --

/// The headline soak: light transient faults (≈2% per submission, plus
/// latency spikes and read bit flips) stay armed across mixed traffic, a
/// forced shard split, and a checkpoint. Afterwards: ≥ 99% success, zero
/// acked-write loss, zero wrong values, and the stats must show the stack
/// actually worked (retries absorbed errors, checksums caught flips).
#[test]
fn transient_fault_soak_loses_nothing_and_stays_available() {
    let (_, seed) = seeded_rng();
    let cfg = config(12);
    let clock = FaultClock::new();
    let engine = build(&cfg, &clock);

    clock.arm_transient(TransientFaults {
        seed,
        read_error_rate: 0.02,
        write_error_rate: 0.02,
        spike_rate: 0.01,
        spike_us: 2_000.0,
        flip_rate: 0.01,
    });

    // Three sequential clients with disjoint put stripes (the concurrency
    // suites already hammer the engine with parallel clients; this soak's job
    // is exact per-op validation, which wants a deterministic oracle).
    let mut oracles = Vec::new();
    let mut total = Tally::default();
    for client in 0..3u64 {
        let mut oracle = Oracle::default();
        let mut tally = Tally::default();
        client_loop(
            &engine,
            client,
            3,
            1_500,
            seed,
            &mut oracle,
            &mut tally,
            (client == 1).then_some(700),
            (client == 0).then_some(500),
        );
        total.ok += tally.ok;
        total.failed += tally.failed;
        oracles.push(oracle);
    }

    // Heal, drain, and verify the final state against every client's oracle.
    clock.disarm_transient();
    for _ in 0..8 {
        if engine.maintain_once().expect("post-soak drain") == 0 {
            break;
        }
    }
    let ratio = total.ok as f64 / (total.ok + total.failed) as f64;
    assert!(
        ratio >= 0.99,
        "seed {seed}: availability {ratio:.4} < 0.99 ({} ok, {} failed)",
        total.ok,
        total.failed,
    );

    let final_state: BTreeMap<u64, u64> = engine
        .range_search(0, u64::MAX)
        .expect("final scan after healing")
        .into_iter()
        .collect();
    for (client, oracle) in oracles.iter().enumerate() {
        for (&key, &acked) in &oracle.acked {
            let got = final_state.get(&key).copied();
            assert!(
                got.is_some_and(|v| oracle.plausible(key, v) && v >= acked),
                "seed {seed} client {client}: acked write lost: key {key} acked {acked:#x}, final {got:?}"
            );
        }
    }
    engine.check_invariants().expect("invariants after soak");

    // The resilience machinery must have actually fired, not idled: faults
    // were injected, retries absorbed them, and at least one flipped read was
    // caught by checksum verification and recovered by the clean re-read.
    let counts = clock.transient_counts();
    assert!(
        counts.read_errors + counts.write_errors > 0,
        "seed {seed}: no faults injected"
    );
    assert!(counts.bit_flips > 0, "seed {seed}: no bit flips injected");
    let stats = engine.stats();
    assert!(stats.io_retries > 0, "seed {seed}: the retry layer never fired");
    assert!(
        stats.integrity.corruption_recovered > 0,
        "seed {seed}: no flipped read was caught and recovered ({:?})",
        stats.integrity,
    );
    assert_eq!(
        stats.degraded_shards, 0,
        "seed {seed}: light faults must not trip a breaker"
    );
    assert!(stats.splits >= 1, "the forced split must have committed");
    assert!(stats.checkpoints >= 1, "the mid-soak checkpoint must have committed");
}

// ------------------------------------------------------------- the breaker --

/// A sustained storm (every submission fails) opens the hit shard's breaker:
/// writes are rejected up front with a clean retryable error, reads are still
/// *attempted* (and succeed the moment the device recovers, even while the
/// breaker is open), and the next maintenance probe closes the breaker once
/// the device answers again.
#[test]
fn breaker_opens_under_a_storm_and_the_probe_closes_it() {
    let cfg = config(64);
    let clock = FaultClock::new();
    let engine = build(&cfg, &clock);
    // Everything fails: retries are exhausted, give-ups count as device
    // failures, and three consecutive ones trip the breaker.
    clock.arm_transient(TransientFaults {
        seed: 1,
        read_error_rate: 1.0,
        write_error_rate: 1.0,
        ..TransientFaults::default()
    });

    // Writes buffer in the OPQs; the storm only bites when a full queue forces
    // a flush to the device. Keep inserting until flushes fail on every shard.
    let mut write_errors = 0;
    for i in 0..6_000u64 {
        if engine.insert(i * 64 + 3, 7).is_err() {
            write_errors += 1;
        }
    }
    let stats = engine.stats();
    assert!(write_errors > 0, "a total storm must fail some writes");
    assert!(
        stats.degraded_shards >= 1,
        "the storm must trip at least one breaker: {stats:?}"
    );
    assert!(stats.breaker_opens >= 1);
    assert!(stats.io_give_ups > 0, "give-ups must be counted");

    // Degraded-shard writes are rejected up front with a retryable error that
    // names the shard — no device I/O is spent on them.
    let degraded = stats
        .shards
        .iter()
        .find(|s| s.degraded)
        .expect("a degraded shard")
        .shard;
    let key_in = stats.shards[degraded].key_lo;
    let err = engine
        .insert(key_in | 1, 9)
        .expect_err("degraded shard must reject writes");
    assert!(err.is_retryable(), "breaker rejection must be retryable: {err}");
    assert!(format!("{err}").contains("degraded"), "rejection must say why: {err}");

    // Device recovers: reads work immediately (they were never fenced), and
    // the maintenance probe — not the failing writes — closes the breaker.
    clock.disarm_transient();
    assert!(engine.search(0).expect("reads pass while breaker is open").is_some());
    assert!(
        engine.stats().degraded_shards >= 1,
        "reads alone must not close the breaker"
    );
    engine.maintain_once().expect("maintenance probe");
    let healed = engine.stats();
    assert_eq!(healed.degraded_shards, 0, "the probe must close every breaker");
    assert!(healed.breaker_closes >= 1);
    engine.insert(key_in | 1, 9).expect("writes resume after the probe");
    engine.check_invariants().expect("invariants after the storm");
}

/// The same containment for the calls a service front end actually makes: a
/// storm seen only by `insert_batch` legs opens the dying shard's breaker, a
/// batch with a sub-batch for that shard is then refused *whole* — before
/// anything is logged, so the healthy members never see it — `multi_search`
/// is still attempted, and batches resume once the probe has closed it.
#[test]
fn a_batch_only_storm_opens_the_breaker_and_degraded_batches_are_refused_whole() {
    let cfg = config(64);
    let (backends, clocks) = per_backend_clocks(&cfg);
    let engine = EngineBuilder::new(cfg.clone())
        .topology(backends)
        .entries(&seed_entries())
        .build()
        .expect("bulk load");
    // One device dies — shard 1's store and its WAL; the rest of the engine,
    // its epoch log included, stays healthy.
    let sick = 1usize;
    let storm = TransientFaults {
        seed: 1,
        read_error_rate: 1.0,
        write_error_rate: 1.0,
        ..TransientFaults::default()
    };
    clocks.stores[sick].arm_transient(storm);
    clocks.wals[sick].arm_transient(storm);
    let shards = engine.stats().shards;
    let (sick_lo, healthy_lo) = (shards[sick].key_lo, shards[0].key_lo);

    // Each batch lands on the sick shard only, where its WAL force gives up.
    let mut failed_batches = 0u64;
    while engine.stats().degraded_shards == 0 {
        assert!(failed_batches < 16, "batched failures never opened the breaker");
        let batch: Vec<(u64, u64)> = (0..8)
            .map(|j| (sick_lo + (failed_batches * 8 + j) * 2 + 1, 7))
            .collect();
        let err = engine.insert_batch(&batch).expect_err("the sick shard's leg must fail");
        assert!(!format!("{err}").contains("degraded"), "not refused yet: {err}");
        failed_batches += 1;
    }
    let stormed = engine.stats();
    assert!(
        stormed.shards[sick].degraded && stormed.degraded_shards == 1,
        "{stormed:?}"
    );
    assert_eq!(stormed.breaker_opens, 1);

    // A batch spanning the degraded shard and a healthy one is refused up
    // front, retryably, and leaves no trace on the healthy shard.
    let spanning = [(healthy_lo + 1, 9), (sick_lo + 1, 9)];
    let err = engine
        .insert_batch(&spanning)
        .expect_err("a degraded member must refuse the batch");
    assert!(err.is_retryable(), "breaker rejection must be retryable: {err}");
    assert!(format!("{err}").contains("degraded"), "rejection must say why: {err}");
    let refused = engine.stats();
    assert_eq!(refused.shards[0].batched_calls, stormed.shards[0].batched_calls);
    assert_eq!(refused.shards[0].opq_len, stormed.shards[0].opq_len);
    assert_eq!(
        refused.shards[sick].store, stormed.shards[sick].store,
        "no device I/O was spent"
    );
    assert_eq!(
        engine.multi_search(&[healthy_lo + 1]).expect("healthy shard"),
        vec![None],
        "the healthy member of a refused batch must not have applied it"
    );

    // Batched reads are attempted, not fenced: they fail on the dead device,
    // work the moment it recovers, and do not close the breaker themselves.
    let cold_key = seed_entries()
        .iter()
        .map(|&(k, _)| k)
        .rfind(|&k| k < shards[sick].key_hi);
    let cold_key = cold_key.expect("the sick shard owns bulk-loaded keys");
    let err = engine.multi_search(&[cold_key]).expect_err("the device is still dead");
    assert!(!format!("{err}").contains("degraded"), "reads are never refused: {err}");
    clocks.stores[sick].disarm_transient();
    clocks.wals[sick].disarm_transient();
    assert!(engine.multi_search(&[cold_key]).expect("reads pass while open")[0].is_some());
    assert_eq!(
        engine.stats().degraded_shards,
        1,
        "reads alone must not close the breaker"
    );

    engine.maintain_once().expect("maintenance probe");
    let healed = engine.stats();
    assert_eq!(healed.degraded_shards, 0, "the probe must close the breaker");
    assert_eq!(healed.breaker_closes, 1);
    engine.insert_batch(&spanning).expect("batches resume after the probe");
    assert_eq!(
        engine.multi_search(&[healthy_lo + 1, sick_lo + 1]).expect("read back"),
        vec![Some(9), Some(9)]
    );
    assert_eq!(engine.stats().committed_epochs, refused.committed_epochs + 1);
    engine.check_invariants().expect("invariants after the storm");
}

// ------------------------------------------------------------------- scrub --

/// A page rotted *on the device* behind the engine's back is found by the
/// scrub pass and healed from the buffer pool's verified copy — before any
/// foreground read ever sees the bad bytes.
#[test]
fn scrub_finds_and_heals_device_rot() {
    let cfg = config(256); // pool big enough to keep every page cached (heals need a clean copy)
    let clock = FaultClock::new();
    let backends = shared_clock_backends(&cfg, &clock);
    let raw_store: Arc<dyn IoQueue> = Arc::clone(&backends.shard_stores[0]);
    let engine = EngineBuilder::new(cfg.clone())
        .topology(backends)
        .entries(&seed_entries())
        .build()
        .expect("bulk load");
    engine.checkpoint().expect("quiesce before injecting rot");

    // Rot the *top* allocated page of shard 0 through the raw device queue —
    // the checksum sidecar never sees this write, exactly like media rot.
    // Bulk load lays the leaves down first (multi-page regions, which bypass
    // the pool) and the internal levels last (single-page writes, which stay
    // pooled), so the frontier page is an internal node with a pooled copy
    // for the scrub to heal from.
    let victim = engine.stats().shards[0].store.allocated - 1;
    let page_size = cfg.base.page_size;
    let offset = victim * page_size as u64;
    let ticket = raw_store
        .submit_read(&[ReadRequest::new(offset, page_size)])
        .expect("raw read");
    let mut image = raw_store.wait(ticket).expect("raw read").buffers.remove(0);
    Arc::make_mut(&mut image)[17] ^= 0x40;
    let ticket = raw_store
        .submit_write(&[WriteRequest::new(offset, &image)])
        .expect("raw write");
    raw_store.wait(ticket).expect("raw write");

    // One full scrub sweep must find the rot and heal it in place.
    let scanned = engine.scrub_once(4_096).expect("scrub sweep");
    assert!(scanned > 0, "the sweep must have verified pages");
    let stats = engine.stats();
    assert!(
        stats.integrity.scrub_corruptions >= 1,
        "scrub must detect the rotted page: {:?}",
        stats.integrity,
    );
    assert!(
        stats.integrity.scrub_healed >= 1,
        "scrub must heal from the pooled copy: {:?}",
        stats.integrity,
    );

    // The device copy is clean again: the raw bytes verify, and a full scan
    // returns exactly the bulk-loaded data.
    let ticket = raw_store
        .submit_read(&[ReadRequest::new(offset, page_size)])
        .expect("raw re-read");
    let healed = raw_store.wait(ticket).expect("raw re-read").buffers.remove(0);
    assert_ne!(healed, image, "the rotted image must have been rewritten");
    let state: BTreeMap<u64, u64> = engine
        .range_search(0, u64::MAX)
        .expect("post-heal scan")
        .into_iter()
        .collect();
    assert_eq!(state.len(), seed_entries().len());
    assert!(seed_entries().iter().all(|(k, v)| state.get(k) == Some(v)));
    engine.check_invariants().expect("invariants after heal");
}
