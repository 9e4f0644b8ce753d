//! A lock-order hammer. A call that spans shards locks every member tree in
//! ascending shard order before its first leg runs, so calls over overlapping
//! sets of shards can neither deadlock with each other nor with the work that
//! locks trees beside them — checkpoints, the maintenance sweeps their
//! callers run once their calls have let go, a `stats()` reader and a live
//! migration — and two calls that share two or
//! more shards end with the same winner on every shard they share. A watchdog
//! turns a deadlock into a failure instead of a hang.

use engine::{EngineConfig, ShardedPioEngine};
use pio_btree::PioConfig;
use ssd_sim::DeviceProfile;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

const ROUNDS: u64 = 600;

/// How long the whole hammer may take before it counts as deadlocked.
const WATCHDOG: Duration = Duration::from_secs(240);

/// One key per member shard of each set of shards two writers share: {0, 2},
/// {1, 2} and {0, 1, 2}. Shard `i` owns `[i * 1000, (i + 1) * 1000)`, and the
/// migration moves only the upper half of shard 1, so every key stays put.
const SETS: [&[u64]; 3] = [&[10, 2_010], &[1_020, 2_020], &[30, 1_030, 2_030]];

/// Keys no one writes, spanning the same sets, for the readers.
const STILL: [&[u64]; 3] = [&[100, 2_100], &[1_100, 2_100], &[100, 1_100, 2_100]];

/// Three WAL-on shards with a maintenance sweep due every millisecond and one
/// OPQ page each, so the writers' batches keep the flush passes busy.
fn engine() -> ShardedPioEngine {
    let mut config = EngineConfig::builder()
        .shards(3)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 30)
        .base(
            PioConfig::builder()
                .page_size(2048)
                .opq_pages(1)
                .pool_pages(64)
                .wal(true)
                .build(),
        )
        .build();
    config.maintenance_interval_ms = Some(1);
    let entries: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k, k)).collect();
    let engine = ShardedPioEngine::bulk_load(config, &entries).unwrap();
    for shard in 0..3 {
        assert_eq!(engine.shard_for(shard * 1_000), shard as usize);
    }
    engine
}

/// Every round, six writers (two per set) and three readers make one call
/// each between two barriers, while a checkpointer, a `stats()` reader and
/// one migration run free, and the calls that find a sweep due run it; after each round the
/// writers' keys of every set must agree.
fn hammer() {
    let engine = engine();
    let round_threads = 2 * SETS.len() + STILL.len();
    let barrier = Barrier::new(round_threads + 1);
    let round = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (engine, barrier, round, stop) = (&engine, &barrier, &round, &stop);
        for keys in SETS {
            for writer in 0..2u64 {
                scope.spawn(move || {
                    for r in 0..ROUNDS {
                        barrier.wait();
                        let value = r * 2 + writer;
                        let batch: Vec<(u64, u64)> = keys.iter().map(|&k| (k, value)).collect();
                        engine.insert_batch(&batch).unwrap();
                        barrier.wait();
                    }
                });
            }
        }
        for keys in STILL {
            scope.spawn(move || {
                let expected: Vec<Option<u64>> = keys.iter().map(|&k| Some(k)).collect();
                for _ in 0..ROUNDS {
                    barrier.wait();
                    assert_eq!(engine.multi_search(keys).unwrap(), expected);
                    barrier.wait();
                }
            });
        }
        let checkpointer = scope.spawn(move || {
            let mut checkpoints = 0u64;
            while !stop.load(Ordering::Relaxed) {
                engine.checkpoint().unwrap();
                checkpoints += 1;
                std::thread::yield_now();
            }
            checkpoints
        });
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                assert_eq!(engine.stats().shards.len(), 3);
                std::thread::yield_now();
            }
        });
        let migration = scope.spawn(move || {
            while round.load(Ordering::Relaxed) < ROUNDS / 4 {
                std::thread::yield_now();
            }
            engine.split_shard(1).unwrap().expect("shard 1 has keys to move")
        });

        // A disagreement is noted, not asserted at once: the rounds run out,
        // so no round thread is left at a barrier.
        let mut disagreement = None;
        for r in 0..ROUNDS {
            round.store(r, Ordering::Relaxed);
            barrier.wait(); // every round thread makes its call
            barrier.wait(); // every call has returned
            for keys in SETS {
                let values = engine.multi_search(keys).unwrap();
                if !values.iter().all(|v| v.is_some_and(|v| v / 2 == r) && *v == values[0]) {
                    disagreement.get_or_insert(format!(
                        "round {r}: the shards of {keys:?} disagree on the last batch: {values:?}"
                    ));
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        let moved = migration.join().unwrap();
        assert_eq!((moved.src, moved.dst), (1, 2));
        assert!(checkpointer.join().unwrap() > 0, "the checkpointer ran");
        assert_eq!(disagreement, None);
    });
    let stats = engine.stats();
    assert_eq!(stats.maintenance_errors, 0, "{:?}", stats.last_maintenance_error);
    assert_eq!(stats.splits, 1);
    engine.check_invariants().unwrap();
}

#[test]
fn overlapping_spanning_calls_and_background_work_never_deadlock() {
    let (done_tx, done_rx) = mpsc::channel();
    let hammer = std::thread::spawn(move || {
        hammer();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => hammer.join().unwrap(),
        // The hammer's own panic (an assertion) dropped the sender.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = hammer.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("the hammer did not finish in {WATCHDOG:?}: a deadlock, or a thread stuck at a barrier")
        }
    }
}
