//! Integration: **where** a batched engine call runs, and that the place makes
//! no difference to its contract. A `multi_search`, `insert_batch` or
//! `range_search` one shard owns runs on the thread that made the call; the
//! same call spanning two shards runs on the shards' workers
//! (`engine-shard-N`), all but an `insert_batch`'s commit force, which its
//! caller makes once every leg is acked; background work — a maintenance flush pass, a
//! checkpoint — runs on the workers however many shards it touches. Seen
//! through a recording [`IoQueue`](pio::IoQueue) wrapper (which thread handed
//! each batch to which backend), never through a clock.

mod common;

use common::crash::per_backend_clocks;
use common::record::{record_shards, Recorder, Submission};
use engine::{EngineBuilder, EngineConfig, ShardedPioEngine};
use pio::{CrashPlan, TornWrite, TransientFaults};
use pio_btree::PioConfig;
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;

const PAGE: usize = 2048;

/// Two WAL-on shards; the pool holds a fraction of a shard's leaves, so a
/// spread of keys reads the device. One OPQ page ≈ 100 entries.
fn config() -> EngineConfig {
    EngineConfig::builder()
        .shards(2)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 28)
        .base(
            PioConfig::builder()
                .page_size(PAGE)
                .leaf_segments(2)
                .opq_pages(1)
                .pio_max(8)
                .speriod(32)
                .bcnt(64)
                .pool_pages(16)
                .wal(true)
                .build(),
        )
        .build()
}

/// Keys `10·k`: shard 0 owns `[0, 100_000)`, shard 1 the rest.
fn seed_entries() -> Vec<(u64, u64)> {
    (0..20_000u64).map(|k| (k * 10, k)).collect()
}

const CUT: u64 = 100_000;

/// 32 keys spread over the leaves of shard `shard`, every other one absent.
fn spread(shard: u64) -> Vec<u64> {
    (0..32u64).map(|i| shard * CUT + i * 3_000 + i % 2).collect()
}

fn engine_state(engine: &ShardedPioEngine) -> BTreeMap<u64, u64> {
    engine.range_search(0, u64::MAX).expect("scan").into_iter().collect()
}

/// Runs `calls` on a thread of its own, named `caller`, so "the calling
/// thread" is one the test harness did not choose.
fn on_a_caller_thread<R: Send>(calls: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("caller".into())
            .spawn_scoped(scope, calls)
            .expect("spawn the caller")
            .join()
            .expect("the caller's assertions")
    })
}

/// Every submission of `seen` was made by the current thread, to shard
/// `shard`'s backends only, and there was at least one.
fn assert_mine(seen: &[Submission], shard: usize, what: &str) {
    let me = std::thread::current().id();
    assert!(!seen.is_empty(), "{what}: no device I/O to judge by");
    for s in seen {
        assert_eq!(s.thread, me, "{what}: submitted off the calling thread: {s:?}");
        assert!(s.backend.ends_with(&shard.to_string()), "{what}: wrong shard: {s:?}");
    }
}

/// Every submission of `seen` to a backend of shard `i` was made by
/// `engine-shard-{i}`, and every shard of `shards` saw at least one.
fn assert_workers(seen: &[Submission], shards: &[usize], what: &str) {
    for s in seen {
        let shard = s.backend.trim_start_matches(|c: char| c.is_alphabetic());
        assert_eq!(
            s.thread_name,
            format!("engine-shard-{shard}"),
            "{what}: not on the shard's worker: {s:?}"
        );
    }
    for shard in shards {
        assert!(
            seen.iter().any(|s| s.backend.ends_with(&shard.to_string())),
            "{what}: shard {shard} did no device I/O to judge by"
        );
    }
}

fn store_writes(seen: Vec<Submission>) -> Vec<Submission> {
    seen.into_iter()
        .filter(|s| s.write && s.backend.starts_with("store"))
        .collect()
}

#[test]
fn a_call_one_shard_owns_runs_on_its_caller_and_everything_else_on_the_workers() {
    let cfg = config();
    let recorder = Recorder::new();
    let (mut backends, _clocks) = per_backend_clocks(&cfg);
    record_shards(&mut backends, &recorder);
    let engine = EngineBuilder::new(cfg)
        .entries(&seed_entries())
        .topology(backends)
        .build()
        .expect("bulk load");
    assert_eq!(engine.boundaries(), [CUT]);
    on_a_caller_thread(|| {
        recorder.take();

        // One shard owns the call: the caller's thread does the I/O.
        let found = engine.multi_search(&spread(1)).unwrap();
        assert_eq!(found.iter().filter(|v| v.is_some()).count(), 16);
        assert_mine(&recorder.take(), 1, "multi_search in shard 1");

        let batch: Vec<(u64, u64)> = (0..8u64).map(|i| (CUT + i * 20 + 1, i)).collect();
        engine.insert_batch(&batch).unwrap();
        assert_mine(&recorder.take(), 1, "insert_batch in shard 1");

        let scan = engine.range_search(40_000, 52_000).unwrap();
        assert_eq!(scan.len(), 1_200);
        assert_mine(&recorder.take(), 0, "range_search in shard 0");
        engine.range_search(CUT - 9_000, CUT).unwrap();
        assert_mine(&recorder.take(), 0, "range_search up to the cut");

        // Two shards share the call: each leg runs on its shard's worker.
        let both: Vec<u64> = spread(0).into_iter().chain(spread(1)).collect();
        engine.multi_search(&both).unwrap();
        assert_workers(&recorder.take(), &[0, 1], "multi_search across the cut");

        engine.insert_batch(&[(21, 1), (CUT + 21, 1)]).unwrap();
        // Round 1, each member's bracket, runs on its worker; round 2, the
        // coordinator's commit force, is the caller's.
        let mut seen = recorder.take();
        let commit = seen.pop().expect("the commit force");
        assert_eq!(
            (commit.backend.as_str(), commit.write, commit.thread_name.as_str()),
            ("wal0", true, "caller"),
            "{commit:?}"
        );
        assert_workers(&seen, &[0, 1], "insert_batch across the cut");

        let scan = engine.range_search(CUT - 9_000, CUT + 9_000).unwrap();
        assert_eq!(scan.len(), 1_800 + batch.len());
        assert_workers(&recorder.take(), &[0, 1], "range_search across the cut");

        // Background work stays on the workers, one dirty shard or many.
        // (Its log truncation is the caller's; the flush is what is judged.)
        let stats = engine.stats();
        assert!(stats.shards[1].opq_len > 0 && stats.shards[0].opq_len == 1);
        engine.checkpoint().unwrap();
        let flush = store_writes(recorder.take());
        assert_workers(&flush, &[0, 1], "checkpoint of both shards");
        // Past half of shard 0's queue (≈100 entries), short of filling it.
        let more: Vec<(u64, u64)> = (0..60u64).map(|i| (i * 40 + 3, i)).collect();
        engine.insert_batch(&more).unwrap();
        assert_mine(&recorder.take(), 0, "insert_batch in shard 0");
        assert_eq!(engine.maintain_once().unwrap(), 1, "shard 0 is over the threshold");
        let flush = store_writes(recorder.take());
        assert_workers(&flush, &[0], "maintenance pass over one shard");
        engine.insert_batch(&[(CUT + 5, 5)]).unwrap();
        recorder.take();
        engine.checkpoint().unwrap();
        let flush = store_writes(recorder.take());
        assert!(
            flush.iter().any(|s| s.backend == "store1"),
            "shard 1 had a queued entry"
        );
        assert_workers(&flush, &[1], "checkpoint with shard 1 dirty");
    });
    engine.check_invariants().unwrap();
}

/// Three device-class failures in a row open a shard's breaker whichever
/// thread ran the failing legs, and a degraded shard refuses a batch it would
/// have run inline before a byte reaches its log.
#[test]
fn failed_inline_searches_open_the_breaker_and_the_next_local_batch_is_refused_unlogged() {
    let cfg = config();
    let (backends, clocks) = per_backend_clocks(&cfg);
    let engine = EngineBuilder::new(cfg)
        .entries(&seed_entries())
        .topology(backends)
        .build()
        .expect("bulk load");
    clocks.stores[0].arm_transient(TransientFaults {
        seed: 1,
        read_error_rate: 1.0,
        ..TransientFaults::default()
    });
    for failures in 1..=3u64 {
        assert!(
            !engine.stats().shards[0].degraded,
            "open after {} failures",
            failures - 1
        );
        let keys: Vec<u64> = spread(0).into_iter().map(|k| k + failures * 30_000).collect();
        let err = engine.multi_search(&keys).expect_err("shard 0's device is dead");
        assert!(!err.to_string().contains("degraded"), "reads are never refused: {err}");
    }
    let stormed = engine.stats();
    assert!(
        stormed.shards[0].degraded && stormed.degraded_shards == 1,
        "{stormed:?}"
    );

    let wal_writes = clocks.wals[0].writes_seen();
    let err = engine
        .insert_batch(&[(11, 1), (31, 1)])
        .expect_err("a degraded shard refuses the batch");
    assert!(err.is_retryable() && err.to_string().contains("degraded"), "{err}");
    assert_eq!(clocks.wals[0].writes_seen(), wal_writes, "refused before any log byte");
    let refused = engine.stats();
    assert_eq!(refused.local_commits, stormed.local_commits);
    assert_eq!(refused.shards[0].opq_len, stormed.shards[0].opq_len);

    clocks.stores[0].disarm_transient();
    engine.maintain_once().expect("the probe closes the breaker");
    engine.insert_batch(&[(11, 1), (31, 1)]).expect("batches resume");
    assert_eq!(engine.multi_search(&[11, 31]).unwrap(), [Some(1), Some(1)]);
}

/// The one force of a single-shard batch, issued by the calling thread and cut
/// at every byte: after crash and recovery the batch is wholly there or wholly
/// gone, never gone again once a longer cut kept it, and there when acked.
#[test]
fn a_batch_committed_on_its_callers_thread_is_all_or_nothing_at_every_byte() {
    let cfg = config();
    let seeds: Vec<(u64, u64)> = (0..400u64).map(|k| (k * 500, k)).collect();
    let batch: Vec<(u64, u64)> = (0..24u64).map(|i| (i * 1_500 + i % 3, 9_000 + i)).collect();
    let absent: BTreeMap<u64, u64> = seeds.iter().copied().collect();
    let mut present = absent.clone();
    present.extend(batch.iter().copied());

    let build = || {
        let recorder = Recorder::new();
        let (mut backends, clocks) = per_backend_clocks(&cfg);
        record_shards(&mut backends, &recorder);
        let engine = EngineBuilder::new(cfg.clone())
            .entries(&seeds)
            .topology(backends)
            .build()
            .expect("bulk load");
        assert!(batch.iter().all(|&(k, _)| engine.shard_for(k) == 0));
        recorder.take();
        (engine, clocks, recorder)
    };
    // Acked — the force untouched — is present; it is one write of one page.
    let (engine, clocks, recorder) = build();
    engine.insert_batch(&batch).unwrap();
    assert_mine(&recorder.take(), 0, "the batch's force");
    assert_eq!(clocks.wals[0].writes_seen(), 1, "one force");
    engine.simulate_crash();
    engine.recover().unwrap();
    assert_eq!(engine_state(&engine), present, "an acked batch is present");

    let mut kept_from = None;
    for cut in 0..=PAGE {
        let (engine, clocks, recorder) = build();
        clocks.wals[0].arm(CrashPlan::at_write(0).with_torn(TornWrite {
            keep_requests: cut / PAGE,
            keep_bytes_of_next: cut % PAGE,
        }));
        engine.insert_batch(&batch).expect_err("the force is cut");
        assert_mine(&recorder.take(), 0, "the batch's cut force");
        clocks.heal_all();
        engine.simulate_crash();
        engine
            .recover()
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        let state = engine_state(&engine);
        assert!(
            state == present || state == absent,
            "cut {cut}: the batch shows in part"
        );
        assert!(
            state == present || kept_from.is_none(),
            "cut {cut}: a longer cut lost the batch"
        );
        if state == present {
            kept_from.get_or_insert(cut);
        }
        engine.check_invariants().unwrap_or_else(|e| panic!("cut {cut}: {e}"));
    }
    let kept_from = kept_from.expect("the whole page commits the batch");
    assert!(kept_from > batch.len() * 16, "kept from byte {kept_from} already");
}
