// The rollback and recovery tests of `tree::tests`: a flush that fails part
// way and is undone in process, and a crash that recovery undoes from the
// log. Included by `tree/tests.rs` rather than made a module of its own, so
// that every test keeps its name.

use pio::{CrashPlan, FaultClock, FaultIo};

/// Builds a tree whose store is wrapped in the shared [`pio::fault`] harness
/// (nothing armed yet) and returns it with the clock that scripts failures.
pub(super) fn failing_tree(config: PioConfig, entries: &[(Key, Value)]) -> (PioBTree, Arc<FaultClock>) {
    let clock = FaultClock::new();
    let faulty = Arc::new(FaultIo::new(
        Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 30)),
        Arc::clone(&clock),
    ));
    let store = Arc::new(CachedStore::new(
        PageStore::new(faulty as Arc<dyn pio::IoQueue>, config.page_size),
        config.pool_pages,
        WritePolicy::WriteThrough,
    ));
    let tree = PioBTree::bulk_load(store, entries, config).unwrap();
    (tree, clock)
}

/// Arms a transient failure of the `skip`-th upcoming write submission
/// (0 = the very next one) — the old inline `FailingIo` semantics.
pub(super) fn fail_write_in(clock: &FaultClock, skip: u64) {
    clock.arm(CrashPlan::at_write(clock.writes_seen() + skip).transient());
}

#[test]
fn failed_flush_rolls_back_in_process() {
    let config = PioConfig {
        pio_max: 4, // several chunks per bupdate
        opq_pages: 4,
        bcnt: 120,
        ..small_config()
    };
    let entries: Vec<(Key, Value)> = (0..4_000u64).map(|k| (k * 3, k)).collect();
    let (mut t, failing) = failing_tree(config, &entries);

    // Scattered updates so the batch spans many leaves (multi-chunk bupdate).
    let mut model: BTreeMap<Key, Value> = entries.iter().copied().collect();
    for k in (0..4_000u64).step_by(37) {
        t.update(k * 3, k + 1_000_000).unwrap();
        model.insert(k * 3, k + 1_000_000);
    }
    let queued = t.opq_len();
    assert!(queued > 100, "batch must exceed bcnt-sized chunks");

    // Fail the second write submission: chunk 0 applies, a later chunk fails.
    fail_write_in(&failing, 1);
    let err = t.flush_once().unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    // The failed batch is back in the queue and every queued update is still
    // visible through the OPQ overlay.
    assert_eq!(t.opq_len(), queued);
    for (&k, &v) in model.iter().step_by(53) {
        assert_eq!(t.search(k).unwrap(), Some(v), "key {k}");
    }
    // The on-disk tree was rolled back to its pre-flush state: structurally
    // sound and holding exactly the bulk-loaded entries.
    assert_eq!(t.check_invariants().unwrap(), 4_000);

    // The failure was one-shot: the retried flush lands the same batch.
    t.checkpoint().unwrap();
    assert_eq!(t.opq_len(), 0);
    for (&k, &v) in model.iter().step_by(29) {
        assert_eq!(t.search(k).unwrap(), Some(v), "key {k} after retry");
    }
    t.check_invariants().unwrap();
}

#[test]
fn crash_after_failed_flush_and_successful_retry_recovers_cleanly() {
    // A flush fails and is rolled back in process (FlushAbort logged), the
    // retry succeeds, and THEN the process crashes. Recovery must not replay
    // the aborted flush's undo preimages over the retry's durable pages.
    let config = PioConfig {
        pio_max: 4,
        opq_pages: 4,
        bcnt: 120,
        wal_enabled: true,
        ..small_config()
    };
    let entries: Vec<(Key, Value)> = (0..4_000u64).map(|k| (k * 3, k)).collect();
    let (mut t, failing) = failing_tree(config, &entries);
    // bulk_load does not attach a WAL itself (PioBTree::create does): attach one.
    t.attach_wal(storage::Wal::new(
        Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
        0,
        2048,
    ));

    let mut model: BTreeMap<Key, Value> = entries.iter().copied().collect();
    for k in (0..4_000u64).step_by(37) {
        t.update(k * 3, k + 1_000_000).unwrap();
        model.insert(k * 3, k + 1_000_000);
    }
    fail_write_in(&failing, 1);
    t.flush_once().unwrap_err();
    // Retry lands the whole queue durably.
    t.checkpoint().unwrap();
    assert_eq!(t.opq_len(), 0);

    // Crash and recover: the aborted flush must be skipped, not undone.
    t.simulate_crash();
    let report = t.recover().unwrap();
    assert_eq!(report.aborted_flushes, 1, "the failed flush was marked aborted");
    assert_eq!(
        report.incomplete_flushes, 0,
        "aborted flush must not be treated as incomplete"
    );
    for (&k, &v) in model.iter().step_by(31) {
        assert_eq!(t.search(k).unwrap(), Some(v), "key {k} after crash recovery");
    }
    t.checkpoint().unwrap();
    t.check_invariants().unwrap();
}

#[test]
fn failed_flush_frees_rolled_back_allocations() {
    let config = PioConfig {
        pio_max: 4,
        opq_pages: 8,
        bcnt: 512,
        ..small_config()
    };
    let (mut t, failing) = failing_tree(config, &[]);
    for k in 0..500u64 {
        if t.opq_len() + 1 >= t.opq_capacity() {
            break;
        }
        t.insert(k, k).unwrap();
    }
    let allocated_before = t.store().store().stats().allocated;
    let freed_before = t.store().store().stats().freed;
    fail_write_in(&failing, 1);
    t.flush_once().unwrap_err();
    let stats = t.store().store().stats();
    let leaked = (stats.allocated - allocated_before) - (stats.freed - freed_before);
    assert_eq!(leaked, 0, "every page the failed flush allocated must be freed again");
}

#[test]
fn failed_flush_with_splits_restores_root_and_lsmap() {
    let config = PioConfig {
        pio_max: 4,
        opq_pages: 8,
        bcnt: 512,
        ..small_config()
    };
    // A dense insert burst into a small tree (its single leaf cannot hold the
    // batch) forces leaf splits during the flush that fails.
    let (mut t, failing) = failing_tree(config, &[]);
    let height_before = t.height();
    for k in 0..500u64 {
        // Stay below the OPQ-full trigger: enqueue only.
        if t.opq_len() + 1 >= t.opq_capacity() {
            break;
        }
        t.insert(k, k).unwrap();
    }
    let queued = t.opq_len();
    // Fail the fence-propagation write, after the split leaf regions landed.
    fail_write_in(&failing, 1);
    let err = t.flush_once().unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(t.opq_len(), queued, "batch restored");
    assert_eq!(t.height(), height_before, "root growth rolled back");
    assert_eq!(t.check_invariants().unwrap(), 0, "no partial leaf state survives");
    // Retry succeeds and the data is intact.
    t.checkpoint().unwrap();
    assert_eq!(t.count_entries().unwrap(), queued as u64);
    t.check_invariants().unwrap();
}

/// A crash tears the page write of an append-path flush and recovery runs
/// in the same process, without `simulate_crash`: the checksum sidecar
/// still holds the sum of the image the crash interrupted, so the torn
/// page fails verification. The logical undo must read it anyway — below
/// the verifying layer — and repair it, not report `Corruption`.
#[test]
fn in_process_recovery_repairs_a_torn_append_page() {
    let config = PioConfig {
        pio_max: 4,
        opq_pages: 4,
        bcnt: 120,
        ..small_config()
    };
    let entries: Vec<(Key, Value)> = (0..4_000u64).map(|k| (k * 3, k)).collect();
    let (mut t, store_clock) = failing_tree(config, &entries);
    let wal_clock = attach_faulty_wal(&mut t, 2048);
    let mut model: BTreeMap<Key, Value> = entries.iter().copied().collect();
    for k in (0..4_000u64).step_by(37) {
        t.update(k * 3, k + 1_000_000).unwrap();
        model.insert(k * 3, k + 1_000_000);
    }
    t.force_wal().unwrap();

    // The flush's first store write: two segment pages land whole, the
    // third only up to its header — the new record count over the old
    // records — and the process dies (the log with it).
    store_clock.arm(
        CrashPlan::at_write(store_clock.writes_seen()).with_torn(pio::TornWrite {
            keep_requests: 2,
            keep_bytes_of_next: 5,
        }),
    );
    let store_died = Arc::clone(&store_clock);
    wal_clock.arm(CrashPlan::on_payload(move |_| store_died.tripped()));
    t.flush_once().unwrap_err();
    assert_eq!(t.stats().leaf_appends, 4, "the torn batch was an append-path chunk");
    store_clock.heal();
    wal_clock.heal();
    // No pooled copy of the old image to fall back on (as after eviction).
    t.store().drop_cache();
    assert!(
        t.check_invariants().is_err(),
        "the torn page must fail verification until recovery repairs it"
    );

    let report = t.recover().unwrap();
    assert_eq!(report.incomplete_flushes, 1);
    assert_eq!(
        report.undone_pages, 4,
        "every appended-to page of the chunk is cut back"
    );
    // Every page verifies again and holds exactly the loaded entries.
    t.store().drop_cache();
    assert_eq!(t.check_invariants().unwrap(), 4_000);
    t.checkpoint().unwrap();
    for (&k, &v) in model.iter().step_by(17) {
        assert_eq!(t.search(k).unwrap(), Some(v), "key {k}");
    }
    t.check_invariants().unwrap();
}

/// Attaches a WAL whose backend is wrapped in the fault harness, returning
/// the clock that scripts WAL-write failures.
fn attach_faulty_wal(tree: &mut PioBTree, page_size: usize) -> Arc<FaultClock> {
    let clock = FaultClock::new();
    let faulty = Arc::new(FaultIo::new(
        Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
        Arc::clone(&clock),
    ));
    tree.attach_wal(Wal::new(faulty, 0, page_size));
    clock
}

#[test]
fn recovery_stops_cleanly_at_a_torn_wal_tail() {
    let config = PioConfig {
        opq_pages: 4,
        ..small_config()
    };
    let mut t = tree_with(config);
    let wal_clock = attach_faulty_wal(&mut t, 2048);
    // A durable prefix of 50 inserts...
    for k in 0..50u64 {
        t.insert(k, k).unwrap();
    }
    t.force_wal().unwrap();
    // ...then 30 more whose force is torn mid-record: only a prefix of the
    // page image reaches the device.
    for k in 50..80u64 {
        t.insert(k, k).unwrap();
    }
    // Tear the force inside the new records: the first page keeps the durable
    // prefix plus ~3 of the new records, and the record after the cut is
    // half-written.
    let cut = t.wal().unwrap().durable_lsn() as usize + 100;
    assert!(cut < 2048, "cut must fall inside the first page");
    wal_clock.arm(
        pio::CrashPlan::at_write(wal_clock.writes_seen()).with_torn(pio::TornWrite {
            keep_requests: 0,
            keep_bytes_of_next: cut,
        }),
    );
    assert!(t.force_wal().is_err());
    wal_clock.heal();
    t.simulate_crash();

    let report = t.recover().unwrap();
    assert!(report.torn_tail, "the torn force must be detected");
    let redone = report.redone;
    assert!(
        (50..80).contains(&redone),
        "a prefix of the torn force is salvaged: {redone}"
    );
    t.checkpoint().unwrap();
    // Exactly the salvaged prefix survives — nothing after the torn record.
    for k in 0..80u64 {
        let expect = (k < redone as u64).then_some(k);
        assert_eq!(t.search(k).unwrap(), expect, "key {k}");
    }
    t.check_invariants().unwrap();
}

#[test]
fn recover_with_discards_exactly_the_filtered_epochs() {
    let config = PioConfig {
        opq_pages: 4,
        wal_enabled: true,
        ..small_config()
    };
    let mut t = tree_with(config);
    let b1: Vec<(Key, Value)> = (0..20u64).map(|k| (k * 2, k)).collect();
    let b2: Vec<(Key, Value)> = (0..15u64).map(|k| (k * 2 + 1, k + 100)).collect();
    t.apply(&inserts(&b1), Some(7)).unwrap();
    t.apply(&inserts(&b2), Some(8)).unwrap();
    t.simulate_crash();
    let report = t.recover_with(&mut |epoch| epoch == 7).unwrap();
    assert_eq!(report.redone, 20, "kept epoch is replayed");
    assert_eq!(report.discarded, 15, "discarded epoch is dropped");
    t.checkpoint().unwrap();
    for &(k, v) in &b1 {
        assert_eq!(t.search(k).unwrap(), Some(v), "kept key {k}");
    }
    for &(k, _) in &b2 {
        assert_eq!(t.search(k).unwrap(), None, "discarded key {k}");
    }
    t.check_invariants().unwrap();
}

#[test]
fn discarding_a_flushed_epoch_unwinds_the_flush() {
    // The discarded epoch's batch overfills the OPQ, so part of it is flushed
    // *into the tree* before the crash: discarding the epoch must unwind that
    // completed flush (restoring its preimages) and re-queue the surviving
    // records it covered.
    let config = PioConfig {
        opq_pages: 1, // capacity ~120 < the 150-entry batch below
        wal_enabled: true,
        ..small_config()
    };
    let seed: Vec<(Key, Value)> = (0..500u64).map(|k| (k * 2, k)).collect();
    let mut t = tree_with(config);
    // Rebuild over the seed entries so the flush touches populated leaves.
    t = {
        let store = Arc::clone(t.store());
        let mut fresh = PioBTree::bulk_load(store, &seed, t.config().clone()).unwrap();
        fresh.attach_wal(Wal::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
            0,
            2048,
        ));
        fresh
    };
    // A non-epoch single op logged before the batch, with a key inside the
    // range the flush will cover: the unwind must re-queue (not lose) it.
    t.update(100, 4242).unwrap();
    let net_before = {
        let s = t.store().store().stats();
        s.allocated - s.freed
    };
    let batch: Vec<(Key, Value)> = (0..150u64).map(|k| (k * 2 + 1, k + 1_000)).collect();
    t.apply(&inserts(&batch), Some(3)).unwrap();
    assert!(t.stats().bupdates >= 1, "the batch must have overflowed into a flush");
    assert!(
        t.stats().leaf_splits >= 1,
        "the dense batch must split leaves (so the unwind has allocations to reclaim)"
    );

    t.simulate_crash();
    let report = t.recover_with(&mut |_| false).unwrap();
    assert!(report.unwound_flushes >= 1, "the poisoned flush must be unwound");
    assert_eq!(report.discarded, 150);
    assert!(report.redone >= 1, "the non-epoch update survives");
    // The unwound flush completed normally (no in-process rollback ever
    // ran), so its split allocations are reclaimed solely by recovery's
    // FlushAlloc sweep — nothing may leak across the crash.
    let net_after = {
        let s = t.store().store().stats();
        s.allocated - s.freed
    };
    assert_eq!(
        net_after, net_before,
        "every page the unwound flush allocated must be back on the free list"
    );
    t.checkpoint().unwrap();
    for &(k, v) in &seed {
        let expect = if k == 100 { 4242 } else { v };
        assert_eq!(t.search(k).unwrap(), Some(expect), "seed key {k}");
    }
    for &(k, _) in &batch {
        assert_eq!(t.search(k).unwrap(), None, "discarded key {k}");
    }
    assert_eq!(t.check_invariants().unwrap(), 500);
}

/// A crash between a durable `BatchBegin` and its `BatchEnd` leaves an open
/// bracket in the log. Recovery must close it durably: otherwise every
/// record logged *after* recovery (until the next bracket) would be
/// misattributed to the dead epoch — and silently dropped by the next
/// recovery.
#[test]
fn recovery_closes_a_stale_epoch_bracket() {
    let config = PioConfig {
        opq_pages: 1, // the 150-entry batch overflows into a flush mid-epoch
        ..small_config()
    };
    let batch: Vec<(Key, Value)> = (0..150u64).map(|k| (k * 3 + 1, k + 500)).collect();
    let run = |crash_at: Option<u64>| -> (PioBTree, Arc<FaultClock>, IoResult<storage::Lsn>) {
        let mut t = tree_with(config.clone());
        let wal_clock = attach_faulty_wal(&mut t, 2048);
        if let Some(at) = crash_at {
            wal_clock.arm(pio::CrashPlan::at_write(at));
        }
        let outcome = t.apply(&inserts(&batch), Some(11));
        (t, wal_clock, outcome)
    };
    // Profiling run: the batch's final WAL write carries the BatchEnd.
    let (_, clean_clock, outcome) = run(None);
    outcome.unwrap();
    let final_write = clean_clock.writes_seen() - 1;

    let (mut t, wal_clock, outcome) = run(Some(final_write));
    outcome.unwrap_err();
    wal_clock.heal();
    t.simulate_crash();
    let first = t.recover_with(&mut |_| false).unwrap();
    assert!(first.discarded > 0, "the bracketed records must be discarded");

    // Post-recovery operations belong to no epoch; a second crash+recovery
    // (still discarding epoch 11) must not swallow them.
    t.insert(999_999, 77).unwrap();
    t.checkpoint().unwrap();
    t.simulate_crash();
    let second = t.recover_with(&mut |_| false).unwrap();
    assert_eq!(
        second.discarded, first.discarded,
        "no post-recovery record may be misattributed to the stale epoch"
    );
    t.checkpoint().unwrap();
    assert_eq!(
        t.search(999_999).unwrap(),
        Some(77),
        "the post-recovery insert survives"
    );
    for &(k, _) in &batch {
        assert_eq!(t.search(k).unwrap(), None, "discarded key {k}");
    }
    t.check_invariants().unwrap();
}

#[test]
fn undoing_a_flush_that_grew_the_root_rewinds_the_root() {
    // One giant flush splits the single leaf into 120+ leaves and the root
    // itself, then crashes on the very last WAL write (the FlushEnd force):
    // every node write including the new root is durable, but the flush is
    // incomplete. Recovery must rewind the root/height from the FlushRoot
    // record and re-drive the whole batch.
    let config = PioConfig {
        opq_pages: 512, // hold the whole batch without an auto flush
        bcnt: 30_000,
        wal_enabled: false, // replaced by the faulty WAL below
        ..small_config()
    };
    let run = |crash_at: Option<u64>| -> (PioBTree, Arc<FaultClock>, IoResult<()>) {
        let mut t = tree_with(config.clone());
        let wal_clock = attach_faulty_wal(&mut t, 2048);
        for k in 0..30_000u64 {
            t.insert(k, k + 7).unwrap();
        }
        if let Some(at) = crash_at {
            wal_clock.arm(pio::CrashPlan::at_write(at));
        }
        let outcome = t.flush_once();
        (t, wal_clock, outcome)
    };
    // Profiling run: the flush's final WAL write is the FlushEnd force.
    let (_, clean_clock, outcome) = run(None);
    outcome.unwrap();
    let flush_end_write = clean_clock.writes_seen() - 1;

    let (mut t, wal_clock, outcome) = run(Some(flush_end_write));
    let err = outcome.unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    let height_before = 2;
    wal_clock.heal();
    t.simulate_crash();

    let report = t.recover().unwrap();
    assert_eq!(report.incomplete_flushes, 1);
    assert_eq!(t.height(), height_before, "root growth rewound");
    assert_eq!(t.check_invariants().unwrap(), 0, "pre-flush tree restored");
    assert_eq!(report.redone, 30_000, "the whole batch re-drives");
    // The failed flush's allocations were reclaimed once by the in-process
    // rollback and once more by recovery's FlushAlloc sweep; the free list
    // must hold each page once (idempotent free), or the re-driven
    // checkpoint below would hand one page to two nodes.
    t.checkpoint().unwrap();
    assert!(t.height() > height_before, "the re-driven flush grows the tree again");
    for k in (0..30_000u64).step_by(997) {
        assert_eq!(t.search(k).unwrap(), Some(k + 7), "key {k}");
    }
    t.check_invariants().unwrap();
}
