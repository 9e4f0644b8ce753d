//! Elastic shard management under traffic and under crashes.
//!
//! Three layers of coverage for the `rebalance` subsystem:
//!
//! 1. **Forced migrations** — `split_shard` / `merge_shard` as deterministic
//!    primitives: boundaries move, no key is lost or duplicated, the stats
//!    counters and routing version advance, invariants hold, with and without
//!    WALs.
//! 2. **Policy end-to-end** — skewed traffic makes `rebalance_once` split the
//!    hot shard; starved pairs merge; a balanced window holds.
//! 3. **Multi-client hammer** — concurrent service clients keep reading and
//!    writing (each client checks its own writes) while the test forces
//!    splits and merges underneath them: zero request errors, exact oracle
//!    state at the end.
//! 4. **Migration crash sweep** — CRASH_SEED-randomized crash points over a
//!    deterministic workload interleaving batches with forced migrations:
//!    every recovered state must show all-or-nothing boundaries (the
//!    pre-migration or post-migration bounds, never a hybrid) and the
//!    oracle's exact key set. Plus the scripted case the sweep cannot aim at:
//!    every byte cut of the source shard's torn `MigrateCommit` force — the
//!    old boundary until the record is whole, the new one after. And a batch
//!    the source shard commits alone — no epoch — into the moving range of a
//!    migration that is live, with the crash before and after `MigrateCommit`.

mod common;

use common::crash::{crashy_engine, per_backend_clocks, seeded_rng};
use common::gate::{Gate, GateIo};
use common::record::{RecordIo, Recorder};
use engine::{EngineBuilder, EngineConfig, MoveKind, RebalanceConfig, ShardedPioEngine};
use pio::{CrashPlan, FaultClock, TornWrite};
use pio_btree::PioConfig;
use rand::Rng;
use service::EngineService;
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Four shards so merges have room away from the last shard; tiny OPQs so
/// migrations interleave with real flushes.
fn config(wal: bool) -> EngineConfig {
    EngineConfig::builder()
        .shards(4)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 28)
        .rebalance(RebalanceConfig {
            min_window_ops: 64,
            ..RebalanceConfig::default()
        })
        .base(
            PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(1)
                .pio_max(8)
                .speriod(32)
                .bcnt(64)
                .pool_pages(96)
                .wal(wal)
                .build(),
        )
        .build()
}

fn seed_entries() -> Vec<(u64, u64)> {
    (0..400u64).map(|k| (k * 16, k + 1)).collect()
}

fn build(wal: bool) -> ShardedPioEngine {
    EngineBuilder::new(config(wal))
        .entries(&seed_entries())
        .build()
        .expect("bulk load")
}

/// Engine contents as a map (includes the OPQ overlay).
fn engine_state(engine: &ShardedPioEngine) -> BTreeMap<u64, u64> {
    engine.range_search(0, u64::MAX).expect("scan").into_iter().collect()
}

// ------------------------------------------------------------ forced moves --

#[test]
fn forced_split_moves_half_the_shard_and_loses_nothing() {
    for wal in [false, true] {
        let engine = build(wal);
        let before_bounds = engine.boundaries();
        let oracle: BTreeMap<u64, u64> = seed_entries().into_iter().collect();

        let outcome = engine
            .split_shard(0)
            .expect("split must succeed")
            .expect("shard 0 holds plenty of entries");
        assert_eq!(outcome.kind, MoveKind::SplitUpper);
        assert_eq!((outcome.src, outcome.dst), (0, 1));
        assert!(outcome.moved_keys > 0, "wal={wal}: the upper half must move");
        assert_eq!(outcome.epoch.is_some(), wal, "journaled exactly when WALs exist");

        let after_bounds = engine.boundaries();
        assert!(after_bounds[0] < before_bounds[0], "wal={wal}: shard 0 shrank");
        assert_eq!(after_bounds[1..], before_bounds[1..], "only one boundary moved");
        assert_eq!(engine.routing_version(), 1);
        assert_eq!(engine_state(&engine), oracle, "wal={wal}: no key lost or duplicated");

        let stats = engine.stats();
        assert_eq!(stats.splits, 1);
        assert_eq!(stats.merges, 0);
        assert_eq!(stats.migrated_keys, outcome.moved_keys);
        assert!(!stats.active_migration, "nothing in flight after commit");
        engine.check_invariants().unwrap();

        // Point reads resolve across the new boundary.
        assert_eq!(engine.search(outcome.lo).unwrap(), Some(oracle[&outcome.lo]));
    }
}

#[test]
fn forced_merge_empties_the_source_range() {
    for wal in [false, true] {
        let engine = build(wal);
        let oracle: BTreeMap<u64, u64> = seed_entries().into_iter().collect();

        let outcome = engine
            .merge_shard(1, 2)
            .expect("merge must succeed")
            .expect("shard 1 holds entries");
        assert_eq!(outcome.kind, MoveKind::MergeAll);

        let bounds = engine.boundaries();
        assert_eq!(bounds[0], bounds[1], "wal={wal}: shard 1's range is now empty");
        assert_eq!(engine_state(&engine), oracle, "wal={wal}: exact key set preserved");
        assert_eq!(engine.stats().merges, 1);
        engine.check_invariants().unwrap();

        // The moved keys now resolve through shard 2.
        assert_eq!(engine.search(outcome.lo).unwrap(), Some(oracle[&outcome.lo]));

        // A second merge of the emptied shard is a no-op, not an error.
        assert!(engine.merge_shard(1, 2).expect("vacuous merge").is_none());
    }
}

#[test]
fn the_last_shard_can_never_be_merged_away() {
    let engine = build(false);
    let err = engine.merge_shard(3, 2).expect_err("Key::MAX must stay put");
    assert!(err.to_string().contains("invalid migration"), "{err}");
    // The sanctioned direction: fold the left neighbour into the last shard.
    let outcome = engine.merge_shard(2, 3).expect("merge into last is legal");
    assert!(outcome.is_some());
    engine.check_invariants().unwrap();
    assert_eq!(
        engine_state(&engine),
        seed_entries().into_iter().collect::<BTreeMap<_, _>>()
    );
}

#[test]
fn non_adjacent_migrations_are_rejected() {
    let engine = build(false);
    assert!(engine.merge_shard(0, 2).is_err(), "not neighbours");
    assert!(engine.merge_shard(0, 0).is_err(), "self-migration");
}

// ------------------------------------------------------------------ policy --

#[test]
fn skewed_traffic_triggers_a_policy_split() {
    let engine = build(false);
    let hot_hi = engine.boundaries()[0];
    // Hammer shard 0 only: far beyond hot_factor × fair share.
    let hot_keys: Vec<u64> = (0..512u64).map(|i| (i * 7) % hot_hi).collect();
    engine.multi_search(&hot_keys).unwrap();

    let outcome = engine
        .rebalance_once()
        .expect("rebalance must not fail")
        .expect("shard 0 is hot and must split");
    assert_eq!(outcome.src, 0);
    assert_eq!(outcome.kind, MoveKind::SplitUpper);
    engine.check_invariants().unwrap();

    // The window was consumed: with no new traffic there is nothing to do.
    assert!(engine.rebalance_once().unwrap().is_none(), "empty window holds");
}

#[test]
fn starved_neighbours_trigger_a_policy_merge() {
    let engine = build(false);
    let bounds = engine.boundaries();
    // Traffic on the outer shards only; the middle pair starves.
    let lo_keys: Vec<u64> = (0..256u64).map(|i| (i * 5) % bounds[0]).collect();
    let hi_keys: Vec<u64> = (0..256u64).map(|i| bounds[2] + (i * 5) % 64).collect();
    engine.multi_search(&lo_keys).unwrap();
    engine.multi_search(&hi_keys).unwrap();

    let outcome = engine
        .rebalance_once()
        .expect("rebalance must not fail")
        .expect("the cold middle pair must merge");
    assert_eq!(outcome.kind, MoveKind::MergeAll);
    assert!(
        outcome.src == 1 || outcome.src == 2,
        "the cold pair is (1, 2), got src {}",
        outcome.src
    );
    engine.check_invariants().unwrap();
    assert_eq!(
        engine_state(&engine),
        seed_entries().into_iter().collect::<BTreeMap<_, _>>()
    );
}

#[test]
fn balanced_traffic_holds() {
    let engine = build(false);
    // Evenly spread lookups over the whole key space.
    let keys: Vec<u64> = (0..512u64).map(|i| (i * 16) % 6400).collect();
    engine.multi_search(&keys).unwrap();
    assert!(engine.rebalance_once().unwrap().is_none());
    assert_eq!(engine.routing_version(), 0, "no boundary may have moved");
}

// ------------------------------------------------ live maintenance worker --

/// The maintenance worker's three optional cadences, switched on together and
/// left to run by themselves: under writes skewed onto shard 0 the worker must
/// — within a bounded wait — checkpoint (truncating the logs the writes grew),
/// scrub pages, and split the hot shard, all without an explicit call.
#[test]
fn the_maintenance_worker_checkpoints_scrubs_and_rebalances_unprompted() {
    let mut config = config(true);
    config.maintenance_interval_ms = Some(5);
    config.checkpoint_interval_ms = Some(10);
    config.scrub_interval_ms = Some(10);
    config.rebalance.auto = true;
    let engine = EngineBuilder::new(config)
        .entries(&seed_entries())
        .build()
        .expect("bulk load");
    let hot_hi = engine.boundaries()[0];
    let mut model: BTreeMap<u64, u64> = seed_entries().into_iter().collect();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    for round in 0u64.. {
        let batch: Vec<(u64, u64)> = (0..128u64)
            .map(|i| ((i * 7 + round) % hot_hi, round * 1_000 + i))
            .collect();
        engine.insert_batch(&batch).expect("insert_batch");
        model.extend(batch);
        let stats = engine.stats();
        if stats.checkpoints >= 1
            && stats.truncated_bytes > 0
            && stats.integrity.scrubbed_pages > 0
            && stats.splits >= 1
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the worker left a cadence unserved: {} checkpoints, {} bytes truncated, {} pages scrubbed, {} splits, \
             last error {:?}",
            stats.checkpoints,
            stats.truncated_bytes,
            stats.integrity.scrubbed_pages,
            stats.splits,
            stats.last_maintenance_error
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    assert_eq!(engine.stats().maintenance_errors, 0);
    engine.check_invariants().unwrap();
    assert_eq!(engine_state(&engine), model);
}

// ----------------------------------------------------- multi-client hammer --

/// Concurrent service clients write unique keys and re-read them while forced
/// splits and merges run underneath: no request may error, every client must
/// read its own committed writes (even mid-migration), and the final state
/// must equal the oracle exactly.
#[test]
fn service_hammer_survives_forced_splits_and_merges() {
    const CLIENTS: u64 = 6;
    const OPS: u64 = 250;

    let engine = Arc::new(build(true));
    let service = EngineService::start(Arc::clone(&engine));

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = service.handle();
            std::thread::spawn(move || {
                for seq in 0..OPS {
                    let unique = seq * CLIENTS + c;
                    // Unique keys clustered at the tail of the key space: the
                    // append region the forced splits keep cutting.
                    let key = 10_000 + unique * 3;
                    let value = key * 7 + 1;
                    handle.put(key, value).expect("puts must never error");
                    // Read-your-writes through any concurrent migration.
                    if seq % 5 == 0 {
                        let got = handle.get(key).expect("gets must never error");
                        assert_eq!(got.value(), Some(value), "client {c} lost key {key}");
                    }
                    if seq % 97 == 0 {
                        handle.scan(key, key + 300).expect("scans must never error");
                    }
                }
            })
        })
        .collect();

    // Force a migration storm while the clients hammer: splits chase the hot
    // tail, merges fold the cold low ranges, all while traffic flows.
    let mut migrations = 0u64;
    for round in 0..8 {
        std::thread::sleep(std::time::Duration::from_millis(3));
        let moved = match round % 4 {
            0 => engine.split_shard(3).expect("split under traffic"),
            1 => engine.split_shard(2).expect("split under traffic"),
            2 => engine.merge_shard(1, 2).expect("merge under traffic"),
            _ => engine.merge_shard(0, 1).expect("merge under traffic"),
        };
        migrations += u64::from(moved.is_some());
    }
    for w in workers {
        w.join().expect("client panicked");
    }

    let stats = service.shutdown();
    assert_eq!(stats.errors, 0, "no request may error during migrations");
    assert_eq!(stats.puts, CLIENTS * OPS);
    assert!(migrations >= 2, "the storm must have executed real migrations");

    // Oracle: the seed population plus every client's unique writes.
    let mut oracle: BTreeMap<u64, u64> = seed_entries().into_iter().collect();
    for unique in 0..CLIENTS * OPS {
        let key = 10_000 + unique * 3;
        oracle.insert(key, key * 7 + 1);
    }
    engine.checkpoint().unwrap();
    assert_eq!(engine_state(&engine), oracle, "exact key set after the storm");
    engine.check_invariants().unwrap();

    let engine_stats = engine.stats();
    assert!(engine_stats.routing_version >= migrations);
    assert!(engine_stats.migrated_keys > 0);
    assert!(!engine_stats.active_migration);
}

// ---------------------------------------------------- migration crash sweep --

/// One step of the deterministic crash-sweep workload.
enum Op {
    Batch(Vec<(u64, u64)>),
    Split(usize),
    Merge(usize, usize),
}

/// Batches interleaved with forced migrations: each batch lands keys across
/// the whole space (and grows the tail), so every migration moves a mix of
/// flushed and OPQ-resident entries.
fn sweep_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    let batch = |b: u64| -> Vec<(u64, u64)> {
        (0..48u64)
            .map(|i| {
                let key = if i % 3 == 0 {
                    6_400 + (b * 48 + i) * 11 // append tail
                } else {
                    (i * 131 + b * 17) % 6_400 // overwrite body
                };
                (key, b * 1_000 + i + 1)
            })
            .collect()
    };
    for (b, migration) in [
        Some(Op::Split(3)),
        Some(Op::Split(2)),
        None,
        Some(Op::Merge(1, 2)),
        Some(Op::Split(0)),
        Some(Op::Merge(0, 1)),
        None,
        Some(Op::Split(1)),
    ]
    .into_iter()
    .enumerate()
    {
        ops.push(Op::Batch(batch(b as u64)));
        if let Some(m) = migration {
            ops.push(m);
        }
    }
    ops
}

/// Applies a prefix of the sweep workload to an in-memory oracle (migrations
/// never change the key set).
fn sweep_oracle(ops: &[Op]) -> BTreeMap<u64, u64> {
    let mut model: BTreeMap<u64, u64> = seed_entries().into_iter().collect();
    for op in ops {
        if let Op::Batch(batch) = op {
            for &(k, v) in batch {
                model.insert(k, v);
            }
        }
    }
    model
}

/// Drives the sweep ops; `Err(i)` is the index of the op the crash surfaced in.
fn run_sweep(engine: &ShardedPioEngine, ops: &[Op]) -> Result<(), usize> {
    for (i, op) in ops.iter().enumerate() {
        let outcome = match op {
            Op::Batch(batch) => engine.insert_batch(batch),
            Op::Split(s) => engine.split_shard(*s).map(|_| ()),
            Op::Merge(s, d) => engine.merge_shard(*s, *d).map(|_| ()),
        };
        if outcome.is_err() {
            return Err(i);
        }
    }
    Ok(())
}

/// A migration's `MigrateCommit` is one force of its source shard's WAL.
/// Every cut of that force's page is tried: the migration rolls back on both
/// shards — the old boundary — until the cut holds the whole record, and from
/// there on the boundary swap is committed. Never a mix, and the key set never
/// changes.
#[test]
fn a_torn_decision_force_never_redrives_a_migration() {
    let cfg = config(true);
    let seeds = seed_entries();
    let oracle: BTreeMap<u64, u64> = seeds.iter().copied().collect();
    let build = || {
        let (backends, clocks) = per_backend_clocks(&cfg);
        let engine = EngineBuilder::new(cfg.clone())
            .entries(&seeds)
            .topology(backends)
            .build()
            .expect("bulk load");
        (engine, clocks)
    };
    // Profiling run: the split's writes to its source shard's WAL. The last
    // one is the MigrateCommit force.
    let (engine, clocks) = build();
    let base = clocks.wals[1].writes_seen();
    engine.split_shard(1).unwrap().expect("shard 1 has keys to move");
    let src_writes = clocks.wals[1].writes_seen() - base;
    drop(engine);

    let mut rolled_back_cuts = 0usize;
    let mut committed = false;
    for cut in 0..cfg.base.page_size {
        let (engine, clocks) = build();
        let before = engine.boundaries();
        let commit_force = clocks.wals[1].writes_seen() + src_writes - 1;
        clocks.wals[1].arm(CrashPlan::at_write(commit_force).with_torn(TornWrite {
            keep_requests: 0,
            keep_bytes_of_next: cut,
        }));
        assert!(engine.split_shard(1).is_err(), "cut {cut}");
        assert_eq!(
            clocks.wals[1].writes_seen(),
            commit_force + 1,
            "cut {cut}: the commit force is the last write"
        );
        clocks.heal_all();
        engine.simulate_crash();
        let report = engine
            .recover()
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        match (report.discarded_epochs, report.committed_migrations) {
            (1, 0) => {
                assert!(!committed, "cut {cut}: rolled back after a shorter cut committed");
                assert_eq!(engine.boundaries(), before, "cut {cut}: rolled back, old boundary");
                rolled_back_cuts += 1;
            }
            (0, 1) => {
                assert_ne!(engine.boundaries(), before, "cut {cut}: committed, new boundary");
                committed = true;
            }
            other => panic!("cut {cut}: the migration must get exactly one verdict, got {other:?}"),
        }
        engine.checkpoint().unwrap();
        assert_eq!(engine_state(&engine), oracle, "cut {cut}: key set diverged");
        engine.check_invariants().unwrap();
        if committed {
            break; // every longer cut lands the whole record too
        }
    }
    assert!(committed, "a whole commit force commits the migration");
    assert!(
        rolled_back_cuts > 8,
        "a cut inside the MigrateCommit record must roll the migration back: committed at cut {rolled_back_cuts}"
    );
}

/// A batch whose keys all lie in the moving range of a **live** migration: one
/// shard holds it, so it takes no epoch and no worker — a local bracket on the
/// source shard, run on the caller's thread and mirrored into the migration's
/// dirty log — while the migration's own copies
/// and retires sit in the migration epoch's brackets around it. The migration
/// is held mid-copy (its destination's WAL waits at a gate) while the batch is
/// acked. Crash at the source shard's `MigrateCommit` force: the migration
/// rolls back on both
/// shards, the old boundary stands, the batch is on the source. Crash after:
/// the new boundary stands and the batch moved with its range. Either way
/// every acked key reads back once, and a second restart changes nothing.
#[test]
fn a_local_batch_into_a_live_migrations_range_survives_either_verdict() {
    let cfg = config(true);
    let seeds = seed_entries();
    // Writes to the source shard's WAL from the migration's start to its end,
    // the batch's force included — counted by the committed run, which goes
    // first. The last of them is the MigrateCommit force.
    let mut src_writes = None;
    for crash_before_commit in [false, true] {
        let ctx = format!("crash_before_commit {crash_before_commit}");
        let (mut backends, clocks) = per_backend_clocks(&cfg);
        let gate = Gate::new();
        // Shard 1 splits its upper half off to shard 2.
        backends.shard_wals[2] = GateIo::wrap(Arc::clone(&backends.shard_wals[2]), &gate);
        // The source shard's log tells which thread forced the batch.
        let recorder = Recorder::new();
        backends.shard_wals[1] = RecordIo::wrap(Arc::clone(&backends.shard_wals[1]), "wal1".into(), &recorder);
        let engine = EngineBuilder::new(cfg.clone())
            .entries(&seeds)
            .topology(backends)
            .build()
            .expect("bulk load");
        let before = engine.boundaries();
        // Upper half of shard 1 = [≈2400, 3200): new keys and overwrites.
        let batch: Vec<(u64, u64)> = (0..30u64).map(|i| (2_600 + i * 12, 7_000 + i)).collect();
        assert!(batch.iter().all(|&(k, _)| engine.shard_for(k) == 1), "{ctx}");
        let mut oracle: BTreeMap<u64, u64> = seeds.iter().copied().collect();
        oracle.extend(batch.iter().copied());

        let base = clocks.wals[1].writes_seen();
        if crash_before_commit {
            let writes: u64 = src_writes.expect("the committed run goes first");
            clocks.wals[1].arm(CrashPlan::at_write(base + writes - 1));
        }
        let epochs = engine.stats().committed_epochs;
        gate.shut();
        std::thread::scope(|scope| {
            let migration = scope.spawn(|| engine.split_shard(1));
            // The copy into shard 2 is waiting at the gate: the migration is
            // live, and stays so until the batch is acked. (No `stats()` here:
            // it takes every shard's tree lock, and shard 2's is at the gate.)
            gate.wait_until_blocked(1);
            recorder.take();
            engine.insert_batch(&batch).expect("the source shard is not gated");
            // One shard owns the batch, so it ran here — and was mirrored from
            // here, under the source's tree lock — not on `engine-shard-1`.
            let forces = recorder.take();
            assert_eq!(forces.len(), 1, "{ctx}: one force: {forces:?}");
            assert_eq!(forces[0].thread, std::thread::current().id(), "{ctx}: {forces:?}");
            gate.open();
            let outcome = migration.join().unwrap();
            assert_eq!(outcome.is_err(), crash_before_commit, "{ctx}");
            if let Ok(moved) = outcome {
                let moved = moved.expect("shard 1 has keys to move");
                assert!(batch.iter().all(|&(k, _)| (moved.lo..moved.hi).contains(&k)), "{ctx}");
            }
        });
        let stats = engine.stats();
        assert_eq!((stats.committed_epochs, stats.local_commits), (epochs, 1), "{ctx}");
        if !crash_before_commit {
            src_writes = Some(clocks.wals[1].writes_seen() - base);
        }

        clocks.heal_all();
        engine.simulate_crash();
        let report = engine
            .recover()
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        assert_eq!(
            (report.discarded_epochs, report.committed_migrations),
            if crash_before_commit { (1, 0) } else { (0, 1) },
            "{ctx}"
        );
        assert_eq!(report.aborted_local(), 0, "{ctx}: the batch was acked");
        assert_eq!(engine.boundaries() == before, crash_before_commit, "{ctx}");
        assert_eq!(engine_state(&engine), oracle, "{ctx}");
        engine.check_invariants().unwrap_or_else(|e| panic!("{ctx}: {e}"));

        engine.simulate_crash();
        engine.recover().unwrap();
        engine.checkpoint().unwrap();
        assert_eq!(engine_state(&engine), oracle, "{ctx}: second restart");
        engine.check_invariants().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    }
}

/// Randomized crash points through a workload of batches and migrations: the
/// recovered boundaries must equal the pre-op or post-op bounds of the op the
/// crash landed in (all-or-nothing — never a half-moved boundary), and the
/// key set must equal the oracle with or without the in-flight batch.
#[test]
fn migration_crash_sweep_recovers_all_or_nothing_boundaries() {
    let (mut rng, seed) = seeded_rng();
    let cfg = config(true);
    let seeds = seed_entries();
    let ops = sweep_ops();

    // Profiling run: total write submissions, plus the (deterministic)
    // boundary trajectory — bounds_after[i] is the boundary vector after op i.
    let clock = FaultClock::new();
    let engine = crashy_engine(&cfg, &seeds, &clock);
    let initial_bounds = engine.boundaries();
    let base = clock.writes_seen();
    let mut bounds_after: Vec<Vec<u64>> = Vec::with_capacity(ops.len());
    for (i, _) in ops.iter().enumerate() {
        run_sweep(&engine, &ops[i..=i]).expect("clean run must not fail");
        bounds_after.push(engine.boundaries());
    }
    let total_writes = clock.writes_seen() - base;
    let migrations_in_clean_run = engine.stats().splits + engine.stats().merges;
    drop(engine);
    assert!(total_writes > 100, "workload too small: {total_writes} writes");
    assert!(
        migrations_in_clean_run >= 5,
        "the workload must execute real migrations, got {migrations_in_clean_run}"
    );

    const TRIALS: usize = 150;
    let (mut rolled_back, mut committed) = (0u64, 0u64);
    for trial in 0..TRIALS {
        let k = rng.gen_range(0u64..total_writes);
        let clock = FaultClock::new();
        let engine = crashy_engine(&cfg, &seeds, &clock);
        clock.arm(CrashPlan::at_write(clock.writes_seen() + k));
        let failed_at = run_sweep(&engine, &ops).expect_err(&format!(
            "seed {seed} trial {trial}: write {k}/{total_writes} must crash some op"
        ));

        clock.heal();
        engine.simulate_crash();
        let report = engine
            .recover()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: recovery failed: {e}"));
        committed += report.committed_migrations;

        // Boundary all-or-nothing: exactly the pre-op or post-op bounds.
        let got_bounds = engine.boundaries();
        let before = if failed_at == 0 {
            &initial_bounds
        } else {
            &bounds_after[failed_at - 1]
        };
        let after = &bounds_after[failed_at];
        // A rolled-back migration is a discarded epoch like any batch; the
        // boundary it left behind tells the two apart.
        if before != after && got_bounds == *before {
            rolled_back += 1;
        }
        assert!(
            got_bounds == *before || got_bounds == *after,
            "seed {seed} trial {trial} write {k}: hybrid boundaries after crash in op \
             {failed_at}: {got_bounds:?} is neither {before:?} nor {after:?}"
        );

        // Key set: the oracle with or without the in-flight batch.
        engine
            .checkpoint()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: checkpoint failed: {e}"));
        let got = engine_state(&engine);
        let without = sweep_oracle(&ops[..failed_at]);
        let with = sweep_oracle(&ops[..=failed_at]);
        assert!(
            got == without || got == with,
            "seed {seed} trial {trial} write {k}: key set diverged after crash in op {failed_at} \
             ({} entries vs {} without / {} with; report {report:?})",
            got.len(),
            without.len(),
            with.len(),
        );
        engine
            .check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: invariants violated: {e}"));
    }
    assert!(
        rolled_back >= 1,
        "seed {seed}: the sweep never rolled a migration back — crash points are missing the \
         migration window"
    );
    assert!(
        committed >= 1,
        "seed {seed}: the sweep never saw a committed migration survive"
    );
    eprintln!(
        "migration crash sweep (seed {seed}): {TRIALS} crashes over {total_writes} write positions \
         → {committed} committed, {rolled_back} rolled-back migrations"
    );
}
