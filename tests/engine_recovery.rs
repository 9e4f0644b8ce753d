//! Engine-level crash recovery: cross-shard batch atomicity under scripted and
//! randomized crash injection.
//!
//! The scripted tests walk the crash matrix of the epoch protocol (see the
//! `engine` crate docs): before any bracket is durable, mid fan-out, every cut
//! of the coordinator's `EpochCommit` force, and after it — plus the one rule
//! truncation adds (a commit record outlives its epoch's brackets) and epoch-id
//! continuity across real restarts. The randomized test sweeps
//! hundreds of crash points — the N-th write submission anywhere in the engine —
//! over a deterministic batched workload and verifies every recovered state
//! against an in-memory oracle: each batch is either fully present on all
//! shards or fully absent (never partial). A batch one shard holds alone takes
//! no epoch (a local bracket in that shard's log); the two kinds are
//! interleaved from two threads, and a tier-1 gate pins what each costs.

mod common;

use common::crash::{crashy_engine, per_backend_clocks, seeded_rng, EngineClocks};
use engine::{
    EngineBackends, EngineBuilder, EngineConfig, EngineManifest, ProvisionMode, RealFiles, ShardProvisioner,
    ShardedPioEngine,
};
use pio::{CrashPlan, FaultClock, FaultIo, IoQueue, IoResult, TornWrite};
use pio_btree::PioConfig;
use rand::Rng;
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Three shards, tiny OPQs (so batches overflow into flushes mid-epoch), WALs on.
fn config() -> EngineConfig {
    EngineConfig::builder()
        .shards(3)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 28)
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

/// The bulk-loaded seed population.
fn seed_entries() -> Vec<(u64, u64)> {
    (0..120u64).map(|k| (k * 25, k)).collect()
}

/// One step of the deterministic workload.
enum Op {
    Batch(Vec<(u64, u64)>),
    Checkpoint,
}

/// A deterministic mixed workload: batches span all three shards, overwrite
/// earlier batches' keys, and a mid-stream checkpoint flushes everything.
fn workload() -> Vec<Op> {
    let mut ops = Vec::new();
    for b in 0..12u64 {
        let batch: Vec<(u64, u64)> = (0..60u64)
            .map(|i| {
                let key = (i * 97 + b * 13) % 3_000;
                (key, b * 1_000 + i + 1)
            })
            .collect();
        ops.push(Op::Batch(batch));
        // Three mid-stream checkpoints: each one truncates the shard WALs, so
        // the randomized sweep's crash points also land before, during and
        // after truncation-marker writes.
        if b == 3 || b == 5 || b == 8 {
            ops.push(Op::Checkpoint);
        }
    }
    ops
}

/// Applies a prefix of the workload to an in-memory oracle.
fn oracle(seed: &[(u64, u64)], ops: &[Op]) -> BTreeMap<u64, u64> {
    let mut model: BTreeMap<u64, u64> = seed.iter().copied().collect();
    for op in ops {
        if let Op::Batch(batch) = op {
            for &(k, v) in batch {
                model.insert(k, v);
            }
        }
    }
    model
}

/// Drives the workload; returns the index of the op the crash surfaced in.
fn run_ops(engine: &ShardedPioEngine, ops: &[Op]) -> Result<(), usize> {
    for (i, op) in ops.iter().enumerate() {
        let outcome = match op {
            Op::Batch(batch) => engine.insert_batch(batch),
            Op::Checkpoint => engine.checkpoint(),
        };
        if outcome.is_err() {
            return Err(i);
        }
    }
    Ok(())
}

/// Recovered engine state as a map (the OPQ overlay is part of range_search, so
/// redone-but-unflushed entries are visible too).
fn engine_state(engine: &ShardedPioEngine) -> BTreeMap<u64, u64> {
    engine.range_search(0, u64::MAX).expect("scan").into_iter().collect()
}

/// A fresh engine over per-backend fault clocks, bulk loaded with the seeds.
fn clocked_engine() -> (ShardedPioEngine, EngineClocks) {
    let (backends, clocks) = per_backend_clocks(&config());
    let engine = EngineBuilder::new(config())
        .entries(&seed_entries())
        .topology(backends)
        .build()
        .unwrap();
    (engine, clocks)
}

/// Shard WAL writes `op` submits on `engine`, per shard.
fn wal_writes(clocks: &EngineClocks, op: impl FnOnce()) -> Vec<u64> {
    let before: Vec<u64> = clocks.wals.iter().map(|c| c.writes_seen()).collect();
    op();
    clocks
        .wals
        .iter()
        .zip(before)
        .map(|(c, b)| c.writes_seen() - b)
        .collect()
}

// --------------------------------------------------------------- crash matrix --

/// Crash before any member's bracket is durable: every member's bracket
/// force fails, so no shard log ever holds the batch and recovery finds no
/// trace of the epoch — nothing was logged before round 1.
#[test]
fn crash_before_epoch_begin_leaves_no_trace() {
    let (engine, clocks) = clocked_engine();
    let batch: Vec<(u64, u64)> = (0..30u64).map(|i| (i * 101 + 1, i + 1)).collect();
    for wal in &clocks.wals {
        wal.arm(CrashPlan::at_write(wal.writes_seen()));
    }
    assert!(engine.insert_batch(&batch).is_err());
    clocks.heal_all();
    engine.simulate_crash();
    let report = engine.recover().unwrap();
    assert_eq!(report.committed_epochs, 0);
    assert_eq!(report.discarded_epochs, 0, "the epoch never reached a log");
    engine.checkpoint().unwrap();
    assert_eq!(engine_state(&engine), oracle(&seed_entries(), &[]));
    engine.check_invariants().unwrap();
}

/// Crash mid fan-out: one shard's sub-batch is durable, another's force fails.
/// The epoch has partial acks, so recovery discards it on *every* shard — no
/// partial batch survives.
#[test]
fn crash_mid_fanout_discards_the_epoch_everywhere() {
    let (engine, clocks) = clocked_engine();
    // Keys chosen to hit all three shards (boundaries cut ~[1000, 2000)).
    let batch: Vec<(u64, u64)> = (0..30u64).map(|i| (i * 101 + 1, i + 1)).collect();
    // Kill shard 2's WAL: its bracket force fails after shards 0/1 are durable
    // (worker scheduling may interleave, but at least one other shard's force
    // succeeds, which is all the scenario needs).
    clocks.wals[2].arm(CrashPlan::at_write(clocks.wals[2].writes_seen()));
    assert!(engine.insert_batch(&batch).is_err());
    clocks.heal_all();
    engine.simulate_crash();

    let report = engine.recover().unwrap();
    assert_eq!(report.discarded_epochs, 1, "no commit record means presumed abort");
    assert!(
        report.discarded_records() > 0,
        "the durable shards' sub-batches must be dropped"
    );
    engine.checkpoint().unwrap();
    assert_eq!(
        engine_state(&engine),
        oracle(&seed_entries(), &[]),
        "no entry of the discarded batch may be visible on any shard"
    );
    engine.check_invariants().unwrap();
}

/// Crash between the last shard's durable write and `EpochCommit` — the
/// acceptance-criteria window. Round 2 is one force of the coordinator's WAL
/// (shard 0, the batch's lowest member), so the window is a *torn* commit
/// force. Every cut of that force's page is tried, from "fails outright"
/// (nothing lands) upward: while the `EpochCommit` is not whole the epoch is
/// discarded everywhere; once it is, the epoch is committed (the caller saw an
/// error, the log says otherwise — still all-or-nothing). Nothing in between:
/// there is no acks-without-commit state to re-drive.
#[test]
fn crash_between_shard_durability_and_commit_is_all_or_nothing() {
    let batch: Vec<(u64, u64)> = (0..30u64).map(|i| (i * 101 + 1, i + 1)).collect();
    let absent = oracle(&seed_entries(), &[]);
    let present = oracle(&seed_entries(), &[Op::Batch(batch.clone())]);
    // Profiling run: the batch's shard-WAL writes. The coordinator's last one
    // is the commit force; every other member forces its bracket once.
    let (engine, clocks) = clocked_engine();
    let forces = wal_writes(&clocks, || engine.insert_batch(&batch).unwrap());
    assert_eq!(&forces[1..], [1, 1], "one bracket force per participant");
    assert!(forces[0] >= 2, "the coordinator forces its bracket, then the commit");
    drop(engine);
    // Per cut: whether the batch committed.
    let mut outcomes: Vec<bool> = Vec::new();
    for cut in 0..config().base.page_size {
        let (engine, clocks) = clocked_engine();
        let commit_force = clocks.wals[0].writes_seen() + forces[0] - 1;
        clocks.wals[0].arm(CrashPlan::at_write(commit_force).with_torn(TornWrite {
            keep_requests: 0,
            keep_bytes_of_next: cut,
        }));
        assert!(engine.insert_batch(&batch).is_err(), "cut {cut}");
        assert_eq!(
            clocks.wals[0].writes_seen(),
            commit_force + 1,
            "cut {cut}: the commit force is the last write"
        );
        clocks.heal_all();
        engine.simulate_crash();

        let report = engine.recover().unwrap();
        let committed = match (report.discarded_epochs, report.committed_epochs) {
            (1, 0) => false,
            (0, 1) => true,
            other => panic!("cut {cut}: the epoch must get exactly one verdict, got {other:?}"),
        };
        engine.checkpoint().unwrap();
        assert_eq!(
            engine_state(&engine),
            if committed { present.clone() } else { absent.clone() },
            "cut {cut}: batch must be fully {}",
            if committed { "present" } else { "absent" }
        );
        engine.check_invariants().unwrap();
        outcomes.push(committed);
        if committed {
            break; // every longer cut lands the whole record too
        }
    }
    assert!(!outcomes[0], "a commit force that fails outright discards the epoch");
    assert_eq!(outcomes.last(), Some(&true), "a whole commit force commits");
    assert!(
        outcomes.len() > 8,
        "a cut inside the EpochCommit record must discard the epoch: committed at cut {}",
        outcomes.len() - 1
    );
}

/// Crash after `Commit`: normal replay, the batch is fully present.
#[test]
fn crash_after_commit_replays_the_batch() {
    let (engine, _clocks) = clocked_engine();
    let batch: Vec<(u64, u64)> = (0..30u64).map(|i| (i * 101 + 1, i + 1)).collect();
    engine.insert_batch(&batch).unwrap();
    engine.simulate_crash();
    let report = engine.recover().unwrap();
    assert_eq!(report.committed_epochs, 1);
    engine.checkpoint().unwrap();
    assert_eq!(engine_state(&engine), oracle(&seed_entries(), &[Op::Batch(batch)]));
    engine.check_invariants().unwrap();
}

/// The store of one shard dies mid-flush while the shard's log — an
/// independent backend — stays healthy: the flush's fence write fails, and so
/// do the writes of its in-process rollback. A rollback that did not land must
/// not be logged as `FlushAbort`: the store still holds the split leaves
/// without their fence, and only the undo records in the log can take them
/// back. After crash and recovery every acked key must read back.
#[test]
fn a_rollback_that_fails_is_undone_from_the_log() {
    // Dense distinct keys, all below shard 0's upper bound (≈1000), so its one
    // bulk-loaded leaf fills and a flush has to split it.
    let batches: Vec<Vec<(u64, u64)>> = (0..12u64)
        .map(|b| (0..40u64).map(|i| ((b * 40 + i) * 2 + 1, b * 100 + i)).collect())
        .collect();
    let build = clocked_engine;

    // Profiling run: the batch whose flush first splits a leaf, and shard 0's
    // store-write window during it. The window's last write is the flush's
    // fence propagation — the split halves have landed before it.
    let (engine, clocks) = build();
    let mut target = None;
    for (b, batch) in batches.iter().enumerate() {
        let first_write = clocks.stores[0].writes_seen();
        engine.insert_batch(batch).unwrap();
        if engine.stats().rollup.leaf_splits > 0 {
            target = Some((b, first_write, clocks.stores[0].writes_seen()));
            break;
        }
    }
    let (split_batch, first_write, end_write) = target.expect("the workload must split shard 0's leaf");
    assert!(
        end_write - first_write >= 2,
        "a splitting flush writes leaves, then fences"
    );
    drop(engine);

    let (engine, clocks) = build();
    for batch in &batches[..split_batch] {
        engine.insert_batch(batch).unwrap();
    }
    // Not one-shot: from the fence write on, the store fails everything —
    // the rollback's writes included.
    clocks.stores[0].arm(CrashPlan::at_write(end_write - 1));
    assert!(engine.insert_batch(&batches[split_batch]).is_err());
    assert!(clocks.stores[0].halted(), "the rollback ran against a dead store");
    assert!(!clocks.wals[0].halted(), "while the shard's log stayed healthy");

    clocks.heal_all();
    engine.simulate_crash();
    let report = engine.recover().unwrap();
    assert_eq!(
        (report.shards[0].aborted_flushes, report.shards[0].incomplete_flushes),
        (0, 1),
        "the flush was never rolled back, so recovery must undo it: {report:?}"
    );
    // The failed batch is undecided (its epoch was never acked): discarded.
    let acked: Vec<Op> = batches[..split_batch].iter().cloned().map(Op::Batch).collect();
    assert_eq!(engine_state(&engine), oracle(&seed_entries(), &acked));
    engine.check_invariants().unwrap();
    engine.checkpoint().unwrap();
    assert_eq!(engine_state(&engine), oracle(&seed_entries(), &acked));
    engine.check_invariants().unwrap();
}

// ------------------------------------------------- local commits beside epochs --

/// What the benchmark measures, as a gate: a batch one shard can commit alone
/// costs no epoch and no commit record — its shard's WAL exactly one force; a
/// batch that spans two shards costs three forces in two rounds: a bracket
/// force on each member, then the coordinator's (shard 0's) commit force.
#[test]
fn a_single_shard_batch_costs_no_epoch_and_one_force() {
    let (engine, clocks) = clocked_engine();
    // Shard 0 owns [0, ≈1000).
    let local: Vec<(u64, u64)> = (0..30u64).map(|i| (i * 31 + 1, i)).collect();
    assert!(local.iter().all(|&(k, _)| engine.shard_for(k) == 0));
    let forces = wal_writes(&clocks, || engine.insert_batch(&local).unwrap());
    let stats = engine.stats();
    assert_eq!((stats.committed_epochs, stats.local_commits), (0, 1));
    assert_eq!(forces, [1, 0, 0], "one shard-WAL force");

    let spanning: Vec<(u64, u64)> = vec![(3, 30), (1_503, 31)];
    assert_eq!((engine.shard_for(3), engine.shard_for(1_503)), (0, 1));
    let forces = wal_writes(&clocks, || engine.insert_batch(&spanning).unwrap());
    let stats = engine.stats();
    assert_eq!((stats.committed_epochs, stats.local_commits), (1, 1));
    assert_eq!(
        forces,
        [2, 1, 0],
        "two bracket forces, then the coordinator's commit force"
    );
}

/// Single-shard batches (local brackets) and two-shard batches (epochs) from
/// two threads, interleaving on shard 0's log, under per-backend fault clocks:
/// one backend — a shard WAL or a shard store, seeded — dies at
/// a seeded write, torn or clean, alone. After recovery every batch either thread saw
/// acked is wholly present, every other batch is wholly present or wholly
/// absent, and a second crash and recovery changes neither the data nor the
/// number of batches judged lost.
#[test]
fn interleaved_local_and_epoch_batches_recover_all_or_nothing() {
    const BATCHES: u64 = 24;
    const TRIALS: usize = 24;
    let (mut rng, seed) = seeded_rng();
    // Batch `b` of thread `t`: 12 keys nobody else writes. Thread 0 stays on
    // shard 0; thread 1 spans shards 0 and 1.
    let batch = |t: u64, b: u64| -> Vec<(u64, u64)> {
        (0..12u64)
            .map(|i| {
                let slot = (b * 12 + i) * 3 + 1 + t;
                let key = if t == 1 && i % 2 == 1 { 1_100 + slot } else { slot };
                (key, (t << 32) | (b << 8) | i)
            })
            .collect()
    };
    let (mut local_commits, mut epochs, mut lost) = (0u64, 0u64, 0u64);
    for trial in 0..TRIALS {
        let (engine, clocks) = clocked_engine();
        assert_eq!(
            (engine.shard_for(batch(0, BATCHES - 1)[11].0), engine.shard_for(1_101)),
            (0, 1)
        );
        // Shard 0's WAL carries both threads' brackets and every commit.
        let victim = [&clocks.wals[0], &clocks.wals[1], &clocks.wals[0], &clocks.stores[0]][trial % 4];
        let mut plan = CrashPlan::at_write(victim.writes_seen() + rng.gen_range(0u64..30));
        if trial % 3 == 0 {
            plan = plan.with_torn(TornWrite {
                keep_requests: rng.gen_range(0usize..2),
                keep_bytes_of_next: rng.gen_range(0usize..2_048),
            });
        }
        // Only the victim dies: the other backends stay healthy until the
        // crash, so whatever the survivors do about the error — roll a flush
        // back in process, abort a bracket — lands, and must agree with what
        // the victim's torn write left on its device.
        victim.arm(plan);

        // Each thread stops at its first error.
        let acked: Vec<u64> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2u64)
                .map(|t| {
                    let engine = &engine;
                    scope.spawn(move || {
                        (0..BATCHES)
                            .take_while(|&b| engine.insert_batch(&batch(t, b)).is_ok())
                            .count() as u64
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let stats = engine.stats();
        local_commits += stats.local_commits;
        epochs += stats.committed_epochs;

        clocks.heal_all();
        engine.simulate_crash();
        let ctx = format!("seed {seed} trial {trial} (acked {acked:?})");
        let report = engine
            .recover()
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        let state = engine_state(&engine);
        let mut expected: BTreeMap<u64, u64> = seed_entries().into_iter().collect();
        for t in 0..2u64 {
            for b in 0..BATCHES {
                let entries = batch(t, b);
                let present = entries.iter().filter(|&&(k, v)| state.get(&k) == Some(&v)).count();
                assert!(
                    present == entries.len() || (present == 0 && b >= acked[t as usize]),
                    "{ctx}: thread {t} batch {b}: {present} of {} entries (report {report:?})",
                    entries.len()
                );
                if present > 0 {
                    expected.extend(entries);
                }
            }
        }
        assert_eq!(state, expected, "{ctx}: keys nobody wrote");
        engine.check_invariants().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let judged_lost = report.discarded_epochs + report.aborted_local() as u64;
        lost += judged_lost;

        engine.simulate_crash();
        let again = engine
            .recover()
            .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
        assert_eq!(engine_state(&engine), state, "{ctx}: second recovery's data");
        assert_eq!(
            again.discarded_epochs + again.aborted_local() as u64,
            judged_lost,
            "{ctx}: second recovery's verdicts ({report:?} then {again:?})"
        );
    }
    assert!(
        local_commits > 0 && epochs > 0 && lost > 0,
        "seed {seed}: the sweep must commit both kinds and lose some batch: \
         {local_commits} local commits, {epochs} epochs, {lost} judged lost"
    );
}

// ------------------------------------------- commit records across truncation --

/// The one rule truncation adds: a coordinator keeps an epoch's commit record
/// while any member's WAL still holds a bracket of it. Epoch A spans all three
/// shards (coordinator: shard 0). A checkpoint truncates shard 2 past its
/// bracket, then fails writing shard 1's truncation marker — shard 1 has
/// checkpointed but still holds its bracket, below its `Checkpoint` record.
/// A second checkpoint flushes only shard 0, whose plain checkpoint cut would
/// drop `EpochCommit(A)`. Recovery asks about every surviving bracket, so A
/// must still read committed — fully present, not unwound on shard 1 alone.
#[test]
fn a_commit_outlives_the_brackets_of_its_epoch_across_truncation() {
    let a: Vec<(u64, u64)> = [5u64, 7, 1_503, 1_507, 2_503, 2_507]
        .iter()
        .map(|&k| (k, k + 1))
        .collect();
    let local: Vec<(u64, u64)> = vec![(11, 12), (13, 14)];
    let expected = oracle(&seed_entries(), &[Op::Batch(a.clone()), Op::Batch(local.clone())]);
    // Profiling run: shard 1's WAL writes during the checkpoint. The last
    // one is its truncation marker (a first truncation never compacts).
    let (engine, clocks) = clocked_engine();
    assert_eq!(
        a.iter().map(|&(k, _)| engine.shard_for(k)).collect::<Vec<_>>(),
        [0, 0, 1, 1, 2, 2]
    );
    engine.insert_batch(&a).unwrap();
    let ckpt_writes = wal_writes(&clocks, || engine.checkpoint().unwrap());
    drop(engine);

    let (engine, clocks) = clocked_engine();
    engine.insert_batch(&a).unwrap();
    let marker = clocks.wals[1].writes_seen() + ckpt_writes[1] - 1;
    clocks.wals[1].arm(CrashPlan::at_write(marker));
    assert!(engine.checkpoint().is_err(), "shard 1's truncation marker fails");
    assert_eq!(clocks.wals[1].writes_seen(), marker + 1);
    clocks.heal_all();
    let tails: Vec<u64> = engine.stats().shards.iter().map(|s| s.wal_replayable_bytes).collect();
    assert!(
        tails[2] < tails[1],
        "shard 2 truncated past its bracket, shard 1 did not: {tails:?}"
    );

    // Only shard 0 is dirty now: this checkpoint flushes and cuts it alone.
    engine.insert_batch(&local).unwrap();
    let before = engine.stats().shards[0].wal_replayable_bytes;
    engine.checkpoint().unwrap();
    assert!(
        engine.stats().shards[0].wal_replayable_bytes >= before,
        "the coordinator must keep EpochCommit(A) while shard 1 holds A's bracket"
    );

    engine.simulate_crash();
    let report = engine.recover().unwrap();
    assert_eq!((report.committed_epochs, report.discarded_epochs), (1, 0), "{report:?}");
    assert_eq!(engine_state(&engine), expected, "epoch A must be fully present");
    engine.check_invariants().unwrap();
}

/// A [`RealFiles`] directory whose shard WALs sit behind fault clocks: the
/// same files, reopened by a plain `RealFiles` after the "process" ends.
struct ClockedFiles {
    files: RealFiles,
    wals: Vec<Arc<FaultClock>>,
}

impl ShardProvisioner for ClockedFiles {
    fn provision(&self, config: &EngineConfig, mode: ProvisionMode) -> IoResult<EngineBackends> {
        let mut backends = self.files.provision(config, mode)?;
        backends.shard_wals = (backends.shard_wals.into_iter().zip(&self.wals))
            .map(|(io, clock)| Arc::new(FaultIo::new(io, Arc::clone(clock))) as Arc<dyn IoQueue>)
            .collect();
        Ok(backends)
    }

    fn load_manifest(&self) -> IoResult<Option<EngineManifest>> {
        self.files.load_manifest()
    }

    fn save_manifest(&self, manifest: &EngineManifest) -> IoResult<()> {
        self.files.save_manifest(manifest)
    }

    fn set_dirty(&self, dirty: bool) -> IoResult<()> {
        self.files.set_dirty(dirty)
    }

    fn load_dirty(&self) -> IoResult<bool> {
        self.files.load_dirty()
    }
}

/// Epoch ids continue across real restarts. A cross-shard batch X fails on
/// shard 1, leaving a discarded bracket of X's id in shard 0's WAL. Each
/// restart reopens the directory in a fresh engine — nothing in memory
/// survives — and commits another cross-shard batch; a reused id would give
/// X's stale bracket a commit record and resurrect X. X must stay discarded,
/// and a migration's id lands above every id handed out before it.
#[test]
fn epoch_ids_continue_past_a_discarded_bracket_across_restarts() {
    let dir = std::env::temp_dir().join(format!("pio-epoch-ids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let x: Vec<(u64, u64)> = vec![(5, 1), (1_505, 2)];
    let batch = |round: u64| -> Vec<(u64, u64)> { vec![(21 + round, round), (1_521 + round, round)] };
    let wals: Vec<Arc<FaultClock>> = (0..3).map(|_| FaultClock::new()).collect();
    let engine = EngineBuilder::new(config())
        .topology(ClockedFiles {
            files: RealFiles::new(&dir),
            wals: wals.clone(),
        })
        .entries(&seed_entries())
        .build()
        .unwrap();
    wals[1].arm(CrashPlan::at_write(wals[1].writes_seen()));
    assert!(engine.insert_batch(&x).is_err(), "X's bracket force fails on shard 1");
    drop(engine);

    let mut acked = vec![Op::Batch(batch(0))];
    for restart in 1..=2u64 {
        let (engine, report) = EngineBuilder::new(config())
            .topology(RealFiles::new(&dir))
            .recover()
            .unwrap();
        assert_eq!(
            report.discarded_epochs, 1,
            "restart {restart}: X's bracket survives, discarded"
        );
        assert_eq!(report.committed_epochs, restart - 1, "restart {restart}");
        // The first restart's batch: epoch 2 at the earliest.
        engine.insert_batch(&batch(restart - 1)).unwrap();
        if restart == 2 {
            acked.push(Op::Batch(batch(1)));
            let split = engine.split_shard(2).unwrap().expect("shard 2 holds entries to split");
            assert!(split.epoch.unwrap() > 3, "ids 1–3 are taken: {split:?}");
        }
        assert_eq!(
            engine_state(&engine),
            oracle(&seed_entries(), &acked),
            "restart {restart}"
        );
    }
    let (engine, report) = EngineBuilder::new(config())
        .topology(RealFiles::new(&dir))
        .recover()
        .unwrap();
    assert_eq!(
        (
            report.discarded_epochs,
            report.committed_epochs,
            report.committed_migrations
        ),
        (1, 2, 1)
    );
    assert_eq!(engine_state(&engine), oracle(&seed_entries(), &acked), "X stays absent");
    engine.check_invariants().unwrap();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------- truncation crash sweep --

/// Every write position inside a log-truncating checkpoint, plus torn-write
/// variants of those positions: the crash lands before, during and after the
/// truncation-marker writes on every shard WAL (the shared clock counts every
/// backend's submissions). All data was acked
/// before the checkpoint started, so NOTHING may be lost: a half-truncated log
/// must recover exactly like an untruncated one.
#[test]
fn crash_points_inside_checkpoint_truncation_lose_nothing() {
    let cfg = config();
    let seeds = seed_entries();
    let ops = workload();
    let expected = oracle(&seeds, &ops);

    // Profiling run: count the writes of the final checkpoint, which both
    // flushes every dirty shard and truncates all three logs.
    let clock = FaultClock::new();
    let engine = crashy_engine(&cfg, &seeds, &clock);
    run_ops(&engine, &ops).expect("clean run must not fail");
    let before = clock.writes_seen();
    engine.checkpoint().expect("profiling checkpoint");
    let ckpt_writes = clock.writes_seen() - before;
    drop(engine);
    assert!(
        ckpt_writes >= 8,
        "the checkpoint must write flush pages AND truncation markers: {ckpt_writes}"
    );

    // Sweep every position at least once; keep going with torn-write variants
    // (a prefix of the marker page survives) until >= 150 points ran.
    let trials = (ckpt_writes as usize).max(150);
    for t in 0..trials {
        let k = (t as u64) % ckpt_writes;
        let clock = FaultClock::new();
        let engine = crashy_engine(&cfg, &seeds, &clock);
        run_ops(&engine, &ops).expect("clean prefix must not fail");
        let mut plan = CrashPlan::at_write(clock.writes_seen() + k);
        if t >= ckpt_writes as usize {
            plan = plan.with_torn(TornWrite {
                keep_requests: 0,
                keep_bytes_of_next: t % 97,
            });
        }
        clock.arm(plan);
        // The checkpoint may or may not surface the injected error (a crash
        // after its last write succeeds); either way the on-disk state is the
        // armed cut.
        let _ = engine.checkpoint();
        clock.heal();
        engine.simulate_crash();
        let report = engine
            .recover()
            .unwrap_or_else(|e| panic!("trial {t} (ckpt write {k}): recovery failed: {e}"));
        assert_eq!(
            engine_state(&engine),
            expected,
            "trial {t} (ckpt write {k}): acked data lost or resurrected across a \
             half-truncated log (report {report:?})"
        );
        engine
            .check_invariants()
            .unwrap_or_else(|e| panic!("trial {t} (ckpt write {k}): invariants violated: {e}"));
    }
}

// ---------------------------------------------------------- randomized sweep --

/// ≥ 200 randomized crash points over the full workload: the crash fires at the
/// k-th write submission *anywhere* in the engine (shard stores, shard WALs),
/// and every recovered state must equal the oracle either with or
/// without the batch that was in flight — on every shard.
#[test]
fn randomized_crash_points_recover_all_or_nothing() {
    let (mut rng, seed) = seeded_rng();
    let cfg = config();
    let seeds = seed_entries();
    let ops = workload();

    // Profiling run: count the workload's total write submissions.
    let clock = FaultClock::new();
    let engine = crashy_engine(&cfg, &seeds, &clock);
    let base = clock.writes_seen();
    run_ops(&engine, &ops).expect("clean run must not fail");
    let total_writes = clock.writes_seen() - base;
    drop(engine);
    assert!(total_writes > 100, "workload too small to be interesting");

    const TRIALS: usize = 220;
    let mut crashes = 0usize;
    // Outcome tallies: the sweep must actually exercise the protocol's paths,
    // not just crash before anything interesting happens.
    let (mut discarded, mut committed, mut unwound) = (0u64, 0u64, 0usize);
    for trial in 0..TRIALS {
        let k = rng.gen_range(0u64..total_writes);
        let clock = FaultClock::new();
        let engine = crashy_engine(&cfg, &seeds, &clock);
        clock.arm(CrashPlan::at_write(clock.writes_seen() + k));
        let failed_at = run_ops(&engine, &ops).expect_err(&format!(
            "seed {seed} trial {trial}: write {k}/{total_writes} must crash some op"
        ));
        crashes += 1;

        clock.heal();
        engine.simulate_crash();
        let report = engine
            .recover()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: recovery failed: {e}"));
        engine
            .checkpoint()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: post-recovery checkpoint failed: {e}"));

        discarded += report.discarded_epochs;
        committed += report.committed_epochs;
        unwound += report.shards.iter().map(|r| r.unwound_flushes).sum::<usize>();

        let got = engine_state(&engine);
        let without = oracle(&seeds, &ops[..failed_at]);
        let with = oracle(&seeds, &ops[..=failed_at]);
        assert!(
            got == without || got == with,
            "seed {seed} trial {trial} write {k}: recovered state is a partial batch \
             (crashed op {failed_at}; {} entries recovered vs {} without / {} with; report {report:?})",
            got.len(),
            without.len(),
            with.len(),
        );
        engine
            .check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: invariants violated: {e}"));
    }
    assert!(crashes >= 200, "every trial must inject a crash: {crashes}/{TRIALS}");
    assert!(
        discarded >= 1,
        "seed {seed}: the sweep never discarded an epoch — crash points are not reaching the fan-out window"
    );
    assert!(
        committed >= 1,
        "seed {seed}: the sweep never saw a committed epoch survive a crash"
    );
    eprintln!(
        "crash sweep (seed {seed}): {crashes} crashes over {total_writes} write positions → \
         {committed} committed, {discarded} discarded epochs, {unwound} flushes unwound"
    );
}
