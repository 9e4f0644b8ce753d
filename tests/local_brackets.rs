//! Integration: the local-bracket recovery rule of a single tree. A batch one
//! shard commits alone runs between `BatchBegin { LOCAL_EPOCH }` and its close;
//! recovery decides it from the shard's own log: **committed iff the
//! commit-close (`BatchEnd`) is durable**, aborted — dropped, and durably
//! closed as aborted — otherwise. Every case compares the recovered tree with
//! a naive `BTreeMap` oracle after every step; `CRASH_SEED` seeds the sweep
//! and is printed in every assertion.

mod common;

use common::crash::seeded_rng;
use pio::{CrashPlan, FaultClock, FaultIo, IoQueue, SimPsyncIo, TornWrite};
use pio_btree::{OpEntry, PioBTree, PioConfig, LOCAL_EPOCH};
use rand::Rng;
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{CachedStore, PageStore, Wal, WritePolicy};

const PAGE: usize = 2048;
type Model = BTreeMap<u64, u64>;

/// What the tree was loaded with: 60 keys, so every case starts from a tree
/// whose pages recovery must leave alone.
fn loaded() -> Vec<(u64, u64)> {
    (0..60u64).map(|k| (k * 1_000, k)).collect()
}

/// A WAL-on tree over `loaded()`, store and WAL each behind their own clock.
/// `opq_pages = 8` holds any batch of the sweep without a flush; `1` (≈ 100
/// entries) makes a 40-entry batch behind 90 queued entries flush mid-bracket.
fn tree_on(store_clock: &Arc<FaultClock>, wal_clock: &Arc<FaultClock>, opq_pages: usize) -> PioBTree {
    let config = PioConfig::builder()
        .page_size(PAGE)
        .leaf_segments(2)
        .opq_pages(opq_pages)
        .pio_max(8)
        .speriod(32)
        .bcnt(64)
        .pool_pages(64)
        .build();
    let faulty = |bytes, clock: &Arc<FaultClock>| -> Arc<dyn IoQueue> {
        Arc::new(FaultIo::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, bytes)),
            Arc::clone(clock),
        ))
    };
    let store = Arc::new(CachedStore::new(
        PageStore::new(faulty(1 << 26, store_clock), PAGE),
        64,
        WritePolicy::WriteThrough,
    ));
    let mut tree = PioBTree::bulk_load(store, &loaded(), config).unwrap();
    tree.attach_wal(Wal::new(faulty(16 << 20, wal_clock), 0, PAGE));
    tree
}

fn tree(wal_clock: &Arc<FaultClock>) -> PioBTree {
    tree_on(&FaultClock::new(), wal_clock, 8)
}

fn inserts(entries: &[(u64, u64)]) -> Vec<OpEntry> {
    entries.iter().map(|&(k, v)| OpEntry::insert(k, v)).collect()
}

fn state(tree: &mut PioBTree) -> Model {
    tree.range_search(0, u64::MAX).unwrap().into_iter().collect()
}

fn with(base: &Model, entries: &[(u64, u64)]) -> Model {
    let mut model = base.clone();
    model.extend(entries.iter().copied());
    model
}

/// Crash + recover; returns the number of local brackets found aborted.
fn restart(tree: &mut PioBTree, ctx: &str) -> usize {
    tree.simulate_crash();
    let report = tree.recover().unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    tree.check_invariants()
        .unwrap_or_else(|e| panic!("{ctx}: invariants after recovery: {e}"));
    report.aborted_local
}

/// The sweep. For seeded batches of 1–200 entries, the single force of the
/// batch's bracket is cut at **every byte**. Against the oracle, after
/// recovery: the batch is wholly present or wholly absent; absent while the
/// cut ends before the commit-close begins, present once it covers the close,
/// and never absent again as the cut grows; the verdict the report gives
/// matches the data; a second crash and recovery gives the same tree and the
/// same verdict; entries written after recovering survive the next crash
/// (they are not attributed to the aborted bracket). An acked batch — the
/// uncut force — is always present.
#[test]
fn a_local_bracket_commits_iff_its_close_is_durable() {
    let (mut rng, seed) = seeded_rng();
    let base: Model = loaded().into_iter().collect();
    let after: Vec<(u64, u64)> = vec![(7, 70), (500_500, 5)];
    for len in [1usize, rng.gen_range(2..21), rng.gen_range(21..201)] {
        // Keys off the loaded grid, a few of them overwriting loaded keys.
        let batch: Vec<(u64, u64)> = (0..len as u64)
            .map(|i| {
                (
                    rng.gen_range(0..60u64) * 1_000 + (i % 7) * rng.gen_range(0..2u64),
                    9_000 + i,
                )
            })
            .collect();
        let committed = with(&base, &batch);

        // Profile the clean run: the bracket is one force, one write request
        // over the pages holding LSNs [page base of `begin`, `end`); its last
        // record is the close.
        let clock = FaultClock::new();
        let mut clean = tree(&clock);
        let begin = clean.wal().unwrap().next_lsn();
        let writes = clock.writes_seen();
        let end = clean.apply(&inserts(&batch), Some(LOCAL_EPOCH)).unwrap();
        assert_eq!(clock.writes_seen(), writes + 1, "seed {seed} len {len}: one force");
        assert_eq!(restart(&mut clean, "clean run"), 0);
        assert_eq!(
            state(&mut clean),
            committed,
            "seed {seed} len {len}: an acked batch is present"
        );
        let records = clean.wal().unwrap().recover_scan().unwrap().records;
        let (opened_lsn, close_lsn) = (records[1].lsn, records.last().unwrap().lsn);
        assert_eq!(records[0].lsn, begin, "the bracket's open is its first record");
        let page_base = begin - begin % PAGE as u64;

        let mut seen_present = false;
        for cut in 0..=(end - page_base) as usize {
            let ctx = format!("seed {seed} len {len} cut {cut}");
            let clock = FaultClock::new();
            let mut tree = tree(&clock);
            clock.arm(CrashPlan::at_write(clock.writes_seen()).with_torn(TornWrite {
                keep_requests: 0,
                keep_bytes_of_next: cut,
            }));
            assert!(tree.apply(&inserts(&batch), Some(LOCAL_EPOCH)).is_err(), "{ctx}");
            clock.heal();

            let aborted = restart(&mut tree, &ctx);
            let recovered = state(&mut tree);
            let present = recovered == committed;
            assert!(present || recovered == base, "{ctx}: the batch shows in part");
            let landed = page_base + cut as u64;
            // A bracket whose open never landed is no bracket at all.
            assert!(
                aborted == 0 || (!present && landed > begin),
                "{ctx}: report and data disagree"
            );
            assert!(
                aborted == 1 || present || landed < opened_lsn,
                "{ctx}: an open bracket went unreported"
            );
            if landed <= close_lsn {
                assert!(!present, "{ctx}: committed without a byte of its close");
            }
            if landed >= end {
                assert!(present, "{ctx}: the whole close is durable");
            }
            assert!(present || !seen_present, "{ctx}: a longer cut lost the commit");
            seen_present |= present;

            // The verdict is durable: the next restart reads it, not the crash.
            assert_eq!(restart(&mut tree, &ctx), aborted, "{ctx}: second recovery's verdict");
            assert_eq!(state(&mut tree), recovered, "{ctx}: second recovery's tree");
            // And the bracket is closed: later records are not its records.
            tree.apply(&inserts(&after), None).unwrap();
            tree.force_wal().unwrap();
            assert_eq!(restart(&mut tree, &ctx), aborted, "{ctx}: third recovery's verdict");
            assert_eq!(
                state(&mut tree),
                with(&recovered, &after),
                "{ctx}: entries after recovery"
            );
        }
        assert!(seen_present, "seed {seed} len {len}: the full cut commits");
    }
}

/// A flush that completes *inside* an open local bracket — the OPQ fills
/// mid-batch — and then the crash, before the close is durable: the flush
/// applied records of an aborted bracket, so recovery unwinds it; the batch is
/// absent, everything acked before it is there.
#[test]
fn a_flush_completed_inside_an_aborted_bracket_is_unwound() {
    let earlier: Vec<(u64, u64)> = (0..90u64).map(|i| (i * 650 + 3, i)).collect();
    let batch: Vec<(u64, u64)> = (0..40u64).map(|i| (i * 1_400 + 5, 100 + i)).collect();
    let acked = with(&loaded().into_iter().collect(), &earlier);

    // Profiling run: the bracket's last WAL write is its closing force.
    let run = |crash_at_last_of: Option<u64>| {
        let (store_clock, wal_clock) = (FaultClock::new(), FaultClock::new());
        let mut tree = tree_on(&store_clock, &wal_clock, 1);
        tree.apply(&inserts(&earlier), None).unwrap();
        tree.force_wal().unwrap();
        let before = (wal_clock.writes_seen(), tree.stats().bupdates);
        if let Some(writes) = crash_at_last_of {
            wal_clock.arm(CrashPlan::at_write(before.0 + writes - 1));
        }
        let outcome = tree.apply(&inserts(&batch), Some(LOCAL_EPOCH));
        assert_eq!(outcome.is_err(), crash_at_last_of.is_some());
        assert!(tree.stats().bupdates > before.1, "the batch must overflow the OPQ");
        wal_clock.heal();
        (tree, wal_clock.writes_seen() - before.0)
    };
    let (_, writes) = run(None);
    assert!(writes >= 2, "flush forces, then the closing force");
    let (mut tree, _) = run(Some(writes));

    tree.simulate_crash();
    let report = tree.recover().unwrap();
    assert_eq!(report.aborted_local, 1);
    assert!(
        report.unwound_flushes >= 1,
        "the completed flush is poisoned: {report:?}"
    );
    // (Those the flush's own forces made durable; the rest died unforced.)
    assert!(
        (1..=batch.len()).contains(&report.discarded),
        "the durable records of the batch are dropped: {report:?}"
    );
    tree.check_invariants().unwrap();
    assert_eq!(state(&mut tree), acked);
    assert_eq!(restart(&mut tree, "second recovery"), 1);
    assert_eq!(state(&mut tree), acked);
}

/// `apply` fails mid-batch in process (an injected store write fault under the
/// flush the batch triggers): the bracket is closed as aborted on the spot,
/// and nothing of it replays after a crash — though the failed flush left the
/// applied prefix queued in the process that crashed.
#[test]
fn a_batch_that_failed_in_process_never_replays() {
    let earlier: Vec<(u64, u64)> = (0..90u64).map(|i| (i * 650 + 3, i)).collect();
    let batch: Vec<(u64, u64)> = (0..40u64).map(|i| (i * 1_400 + 5, 100 + i)).collect();
    let acked = with(&loaded().into_iter().collect(), &earlier);
    let (store_clock, wal_clock) = (FaultClock::new(), FaultClock::new());
    let mut tree = tree_on(&store_clock, &wal_clock, 1);
    tree.apply(&inserts(&earlier), None).unwrap();
    tree.force_wal().unwrap();
    // The first store write from here on is the mid-batch flush's.
    store_clock.arm(CrashPlan::at_write(store_clock.writes_seen()).transient());
    assert!(tree.apply(&inserts(&batch), Some(LOCAL_EPOCH)).is_err());
    assert!(store_clock.tripped());
    assert_ne!(
        state(&mut tree),
        acked,
        "the applied prefix is queued until the restart"
    );

    assert_eq!(restart(&mut tree, "after the failed batch"), 1);
    assert_eq!(state(&mut tree), acked);
    // A retry after the restart commits; the old verdict stands beside it.
    tree.apply(&inserts(&batch), Some(LOCAL_EPOCH)).unwrap();
    assert_eq!(restart(&mut tree, "after the retry"), 1);
    assert_eq!(state(&mut tree), with(&acked, &batch));
}

/// A committed local bracket and an undecided cross-shard epoch on the same
/// shard, the same key in both, in either order: the epoch's verdict is the
/// engine's, the local write survives regardless, and where both survive the
/// shard log's order decides the value.
#[test]
fn local_brackets_and_epochs_share_a_log_in_log_order() {
    const EPOCH: u64 = 7;
    let base: Model = loaded().into_iter().collect();
    let of_epoch = [(1_000u64, 111u64), (1_001, 112)];
    let local = [(1_000u64, 222u64), (2_002, 223)];
    for epoch_first in [true, false] {
        for keep in [false, true] {
            let mut tree = tree(&FaultClock::new());
            let mut expected = base.clone();
            let steps: [(&[(u64, u64)], u64); 2] = if epoch_first {
                [(&of_epoch, EPOCH), (&local, LOCAL_EPOCH)]
            } else {
                [(&local, LOCAL_EPOCH), (&of_epoch, EPOCH)]
            };
            for (entries, bracket) in steps {
                tree.apply(&inserts(entries), Some(bracket)).unwrap();
                if bracket == LOCAL_EPOCH || keep {
                    expected.extend(entries.iter().copied());
                }
            }
            tree.simulate_crash();
            let mut asked = Vec::new();
            let report = tree
                .recover_with(&mut |epoch| {
                    asked.push(epoch);
                    keep
                })
                .unwrap();
            let ctx = format!("epoch_first {epoch_first} keep {keep}");
            assert_eq!(asked, [EPOCH], "{ctx}: a local bracket's verdict is nobody's to give");
            assert_eq!(report.aborted_local, 0, "{ctx}");
            assert_eq!(report.discarded, if keep { 0 } else { of_epoch.len() }, "{ctx}");
            assert_eq!(state(&mut tree), expected, "{ctx}");
        }
    }
}

/// Checkpoint and truncation between local brackets: a closed local bracket
/// pins nothing, so the whole log below the checkpoint goes, and the next
/// bracket recovers from the short log.
#[test]
fn local_brackets_pin_no_log() {
    let mut tree = tree(&FaultClock::new());
    let first: Vec<(u64, u64)> = (0..50u64).map(|i| (i * 900 + 1, i)).collect();
    let second: Vec<(u64, u64)> = (0..50u64).map(|i| (i * 900 + 2, i)).collect();
    tree.apply(&inserts(&first), Some(LOCAL_EPOCH)).unwrap();
    let logged = tree.wal_replayable_bytes();
    let checkpoint = tree.checkpoint().unwrap();
    let dropped = tree.truncate_wal(checkpoint).unwrap();
    assert!(
        dropped >= logged,
        "everything below the checkpoint is dropped: {dropped} of {logged}"
    );
    tree.apply(&inserts(&second), Some(LOCAL_EPOCH)).unwrap();

    tree.simulate_crash();
    let report = tree.recover().unwrap();
    assert_eq!((report.aborted_local, report.discarded), (0, 0));
    assert_eq!(report.redone, second.len(), "only the second bracket is in the log");
    let expected = with(&with(&loaded().into_iter().collect(), &first), &second);
    assert_eq!(state(&mut tree), expected);
}
