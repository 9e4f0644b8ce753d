//! Integration: crash recovery across flushes — deterministic cases plus a
//! randomized crash-point sweep — and multi-threaded use of the concurrent
//! index variants.

mod common;

use btree::{ConcurrentBTree, InternalView};
use common::crash::seeded_rng;
use parking_lot::Mutex;
use pio::{CrashPlan, FaultClock, FaultIo, IoQueue, SimPsyncIo, TornWrite};
use pio_btree::{LogRecord, OpEntry, PioBTree, PioConfig, PioLeaf};
use rand::Rng;
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{CachedStore, PageImage, PageStore, Wal, WritePolicy};

fn recoverable_config() -> PioConfig {
    PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(2)
        .pio_max(16)
        .speriod(32)
        .bcnt(64)
        .pool_pages(64)
        .wal(true)
        .build()
}

#[test]
fn committed_operations_survive_a_crash_mid_stream() {
    let mut tree = PioBTree::create(DeviceProfile::P300, 1 << 30, recoverable_config()).unwrap();
    // Phase 1: a workload large enough to trigger several OPQ flushes.
    for k in 0..3_000u64 {
        tree.insert(k, k + 7).unwrap();
    }
    // Phase 2: a tail of operations that stays queued, but whose redo records are
    // forced (commit).
    tree.checkpoint().unwrap();
    for k in 10_000..10_050u64 {
        tree.insert(k, k).unwrap();
    }
    tree.delete(1_500).unwrap();
    tree.update(2_000, 42).unwrap();
    if let Err(e) = tree.recover() {
        panic!("recover should not fail before crash: {e}");
    }
    // Force the commit records, then crash.
    tree.checkpoint().unwrap();
    for k in 20_000..20_020u64 {
        tree.insert(k, k).unwrap();
    }
    // (these last 20 are forced by the next flush-force inside recover-test below)
    let lost = tree.simulate_crash();
    assert!(lost <= 20);

    let report = tree.recover().unwrap();
    assert!(report.skipped_flushed > 0, "flushed operations must be recognised");
    // Everything that was checkpointed must be present.
    assert_eq!(tree.search(100).unwrap(), Some(107));
    assert_eq!(tree.search(10_020).unwrap(), Some(10_020));
    assert_eq!(tree.search(1_500).unwrap(), None);
    assert_eq!(tree.search(2_000).unwrap(), Some(42));
    tree.checkpoint().unwrap();
    tree.check_invariants().unwrap();
}

#[test]
fn repeated_crash_recover_cycles_converge() {
    let mut tree = PioBTree::create(DeviceProfile::F120, 1 << 30, recoverable_config()).unwrap();
    for round in 0..5u64 {
        for k in 0..500u64 {
            tree.insert(round * 10_000 + k, k).unwrap();
        }
        tree.checkpoint().unwrap();
        tree.simulate_crash();
        tree.recover().unwrap();
    }
    // All five rounds must be visible.
    for round in 0..5u64 {
        assert_eq!(tree.search(round * 10_000 + 123).unwrap(), Some(123), "round {round}");
    }
    tree.check_invariants().unwrap();
}

/// One step of the deterministic single-tree workload.
#[derive(Debug, Clone, Copy)]
enum TreeOp {
    Insert(u64, u64),
    Delete(u64),
    Update(u64, u64),
    /// An explicit bupdate (on top of the OPQ-full automatic ones).
    Flush,
    /// Forces the WAL: every op before this one is acked durable.
    Commit,
}

/// A deterministic mix of inserts, deletes, updates and explicit flushes over a
/// small key space (so deletes and updates hit existing keys).
fn tree_workload() -> Vec<TreeOp> {
    let mut ops = Vec::new();
    for i in 0..900u64 {
        let key = (i * 67 + 13) % 800;
        ops.push(match i % 7 {
            5 => TreeOp::Delete(key),
            6 => TreeOp::Update(key, i + 10_000),
            _ => TreeOp::Insert(key, i + 1),
        });
        // Explicit flushes on top of the OPQ-full automatic ones (capacity
        // ~100, so several batches overflow between these).
        if i % 130 == 129 {
            ops.push(TreeOp::Flush);
        }
    }
    ops
}

/// In-memory models of every workload prefix: `snapshots[p]` is the state after
/// the first `p` ops.
fn prefix_snapshots(ops: &[TreeOp]) -> Vec<BTreeMap<u64, u64>> {
    prefix_snapshots_over(&[], ops)
}

/// [`prefix_snapshots`] over a bulk-loaded population.
fn prefix_snapshots_over(loaded: &[(u64, u64)], ops: &[TreeOp]) -> Vec<BTreeMap<u64, u64>> {
    let mut snapshots = Vec::with_capacity(ops.len() + 1);
    let mut model: BTreeMap<u64, u64> = loaded.iter().copied().collect();
    snapshots.push(model.clone());
    for op in ops {
        match *op {
            TreeOp::Insert(k, v) | TreeOp::Update(k, v) => {
                model.insert(k, v);
            }
            TreeOp::Delete(k) => {
                model.remove(&k);
            }
            TreeOp::Flush | TreeOp::Commit => {}
        }
        snapshots.push(model.clone());
    }
    snapshots
}

/// Builds a WAL-enabled tree whose store *and* WAL backends share `clock`.
fn crashy_tree(clock: &Arc<FaultClock>) -> PioBTree {
    crashy_tree_on(clock, clock, &[])
}

/// Builds a WAL-enabled tree bulk-loaded with `entries`, its store backend on
/// `store_clock` and its WAL backend on `wal_clock`.
fn crashy_tree_on(store_clock: &Arc<FaultClock>, wal_clock: &Arc<FaultClock>, entries: &[(u64, u64)]) -> PioBTree {
    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(1) // capacity ~100: the workload overflows into auto flushes
        .pio_max(8)
        .speriod(32)
        .bcnt(64)
        .pool_pages(64)
        .build();
    let store_io = Arc::new(FaultIo::new(
        Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 28)),
        Arc::clone(store_clock),
    ));
    let store = Arc::new(CachedStore::new(
        PageStore::new(store_io as Arc<dyn IoQueue>, 2048),
        64,
        WritePolicy::WriteThrough,
    ));
    let mut tree = PioBTree::bulk_load(store, entries, config).unwrap();
    let wal_io = Arc::new(FaultIo::new(
        Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
        Arc::clone(wal_clock),
    ));
    tree.attach_wal(Wal::new(wal_io, 0, 2048));
    tree
}

/// Applies the workload; returns the index of the op the crash surfaced in.
fn run_tree_ops(tree: &mut PioBTree, ops: &[TreeOp]) -> Result<(), usize> {
    for (i, op) in ops.iter().enumerate() {
        let outcome = match *op {
            TreeOp::Insert(k, v) => tree.insert(k, v),
            TreeOp::Delete(k) => tree.delete(k),
            TreeOp::Update(k, v) => tree.update(k, v),
            TreeOp::Flush => tree.flush_once(),
            TreeOp::Commit => tree.force_wal().map(|_| ()),
        };
        if outcome.is_err() {
            return Err(i);
        }
    }
    Ok(())
}

/// Randomized crash points over interleaved inserts/deletes/updates/flushes on
/// a single tree: whatever write the crash lands on, the recovered state must
/// equal the workload applied up to *some* op prefix — committed work is never
/// lost, half-applied flushes never show (complements the deterministic cases
/// above).
#[test]
fn randomized_tree_crash_points_recover_to_an_op_prefix() {
    let (mut rng, seed) = seeded_rng();
    let ops = tree_workload();
    let snapshots = prefix_snapshots(&ops);

    // Profiling run: total write submissions of the clean workload.
    let clock = FaultClock::new();
    let mut tree = crashy_tree(&clock);
    let base = clock.writes_seen();
    run_tree_ops(&mut tree, &ops).expect("clean run must not fail");
    let total_writes = clock.writes_seen() - base;
    drop(tree);
    assert!(total_writes > 40, "workload too small: {total_writes} writes");

    const TRIALS: usize = 60;
    let mut incomplete = 0usize;
    for trial in 0..TRIALS {
        let k = rng.gen_range(0u64..total_writes);
        let clock = FaultClock::new();
        let mut tree = crashy_tree(&clock);
        clock.arm(CrashPlan::at_write(clock.writes_seen() + k));
        let failed_at = run_tree_ops(&mut tree, &ops).expect_err(&format!(
            "seed {seed} trial {trial}: write {k}/{total_writes} must crash some op"
        ));

        clock.heal();
        tree.simulate_crash();
        let report = tree
            .recover()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: recovery failed: {e}"));
        incomplete += report.incomplete_flushes;
        tree.checkpoint()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: post-recovery checkpoint failed: {e}"));

        let state: BTreeMap<u64, u64> = tree.range_search(0, u64::MAX).unwrap().into_iter().collect();
        // The recovered state must be the workload applied up to some prefix no
        // longer than the crashed op (ops after the crash never ran).
        let matched = snapshots[..=(failed_at + 1).min(snapshots.len() - 1)]
            .iter()
            .rposition(|model| *model == state);
        assert!(
            matched.is_some(),
            "seed {seed} trial {trial} write {k}: recovered state ({} entries, crashed op {failed_at}, \
             report {report:?}) matches no op prefix",
            state.len(),
        );
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: invariants violated: {e}"));
    }
    assert!(
        incomplete >= 1,
        "seed {seed}: no trial crashed mid-flush — the sweep is not reaching the undo path"
    );
}

// ------------------------------------------------------- the logical append undo --

/// The population and workload of the append-undo sweep: thirty-four bulk-loaded
/// leaves with free slots and a scattered stream of new keys, updates and
/// deletes that never fills one — every flush appends a few records to many
/// leaves, so (nearly) every page write of a flush is an append-path segment
/// write. A `Commit` every eight ops acks everything before it.
fn append_workload() -> (Vec<(u64, u64)>, Vec<TreeOp>) {
    let loaded: Vec<(u64, u64)> = (0..4_800u64).map(|k| (k * 10, k)).collect();
    let mut ops = Vec::new();
    for i in 0..1_200u64 {
        let slot = (i * 7_919 + 3) % 4_800;
        ops.push(match i % 7 {
            5 => TreeOp::Delete(slot * 10),
            6 => TreeOp::Update(slot * 10, i + 10_000),
            _ => TreeOp::Insert(slot * 10 + 1 + i % 9, i + 1),
        });
        if i % 8 == 7 {
            ops.push(TreeOp::Commit);
        }
    }
    (loaded, ops)
}

/// Crashes — clean cuts and torn writes alike — landed on the *store* writes
/// of append-path flushes, whose durable undo is a record count, not a page
/// image: recovery must rebuild every pre-image from whatever mix of old and
/// new bytes the crash left. The recovered tree equals the workload applied
/// up to some op prefix, never shorter than the last acked `Commit`.
#[test]
fn crashes_on_append_path_page_writes_recover_to_an_acked_prefix() {
    let (mut rng, seed) = seeded_rng();
    let (loaded, ops) = append_workload();
    let snapshots = prefix_snapshots_over(&loaded, &ops);

    // Profiling run: the store's write submissions, and proof that the
    // workload is what it claims to be.
    let (store_clock, wal_clock) = (FaultClock::new(), FaultClock::new());
    let mut tree = crashy_tree_on(&store_clock, &wal_clock, &loaded);
    let base = store_clock.writes_seen();
    run_tree_ops(&mut tree, &ops).expect("clean run must not fail");
    let store_writes = store_clock.writes_seen() - base;
    let stats = tree.stats();
    drop(tree);
    assert!(
        stats.leaf_appends >= 100 && stats.leaf_appends >= 10 * stats.leaf_rewrites,
        "the workload must live on the append path: {stats:?}"
    );
    assert!(store_writes > 20, "workload too small: {store_writes} store writes");

    const TRIALS: usize = 80;
    let (mut undone_pages, mut torn_trials) = (0usize, 0usize);
    for trial in 0..TRIALS {
        let k = rng.gen_range(0u64..store_writes);
        let (store_clock, wal_clock) = (FaultClock::new(), FaultClock::new());
        let mut tree = crashy_tree_on(&store_clock, &wal_clock, &loaded);
        let mut plan = CrashPlan::at_write(store_clock.writes_seen() + k);
        if trial % 4 != 0 {
            // A torn batch: some whole segment pages land, the next one only
            // up to a random byte (inside the header, the kept records, the
            // appended records or the zero tail).
            plan = plan.with_torn(TornWrite {
                keep_requests: rng.gen_range(0usize..8),
                keep_bytes_of_next: rng.gen_range(0usize..2_048),
            });
            torn_trials += 1;
        }
        store_clock.arm(plan);
        // The process dies as one: the first log write after the store crash
        // fails too (otherwise the survivor would log a `FlushAbort` for a
        // rollback whose writes all failed).
        let store_died = Arc::clone(&store_clock);
        wal_clock.arm(CrashPlan::on_payload(move |_| store_died.tripped()));
        let failed_at = run_tree_ops(&mut tree, &ops).expect_err(&format!(
            "seed {seed} trial {trial}: store write {k}/{store_writes} must crash some op"
        ));
        let acked = ops[..failed_at]
            .iter()
            .rposition(|op| matches!(op, TreeOp::Commit))
            .map_or(0, |i| i + 1);

        store_clock.heal();
        wal_clock.heal();
        tree.simulate_crash();
        let report = tree
            .recover()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} store write {k}: recovery failed: {e}"));
        undone_pages += report.undone_pages;
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} store write {k}: invariants after undo: {e}"));
        tree.checkpoint().unwrap_or_else(|e| {
            panic!("seed {seed} trial {trial} store write {k}: post-recovery checkpoint failed: {e}")
        });

        let state: BTreeMap<u64, u64> = tree.range_search(0, u64::MAX).unwrap().into_iter().collect();
        let last = (failed_at + 1).min(snapshots.len() - 1);
        assert!(
            snapshots[acked..=last].contains(&state),
            "seed {seed} trial {trial} store write {k}: recovered state ({} entries, crashed op {failed_at}, \
             report {report:?}) matches no op prefix in [{acked}, {last}] — an acked entry was lost or a \
             half-applied flush shows",
            state.len(),
        );
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} store write {k}: invariants violated: {e}"));
    }
    assert!(
        undone_pages >= TRIALS && torn_trials >= TRIALS / 2,
        "seed {seed}: the sweep must exercise the undo of appended pages ({undone_pages} pages undone, \
         {torn_trials} torn trials)"
    );
}

/// A WAL-on tree whose whole population is one bulk-loaded leaf (2 segments
/// of 102 records) and whose flushes are all explicit: the OPQ holds any batch
/// the scripted tests queue, and one `flush_once` takes all of it.
fn one_leaf_tree(loaded: &[(u64, u64)]) -> PioBTree {
    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(8)
        .bcnt(512)
        .pio_max(8)
        .speriod(32)
        .pool_pages(64)
        .build();
    let sim = |bytes| Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, bytes));
    let store = Arc::new(CachedStore::new(
        PageStore::new(sim(1 << 26), 2048),
        64,
        WritePolicy::WriteThrough,
    ));
    let mut tree = PioBTree::bulk_load(store, loaded, config).unwrap();
    tree.attach_wal(Wal::new(sim(16 << 20), 0, 2048));
    tree
}

/// All pages of `tree`'s store, read below the cache.
fn raw_pages(tree: &PioBTree) -> Vec<PageImage> {
    let store = tree.store().store();
    (0..store.high_water_pages())
        .map(|p| store.read_page(p).unwrap())
        .collect()
}

/// The chain case. Flush A *appends* an epoch's records to a leaf; flush B
/// *rewrites* the same leaf on the full path (the region shrinks and
/// re-sorts). Recovery discards the epoch, which poisons A, so the suffix
/// {A, B} unwinds newest-first: B's pre-images put back the region as A left
/// it, and only then can A's logical undo — which reads the page — cut the
/// segment back to its old record count. Exact against the oracle, and a
/// second recovery over the same log changes nothing.
#[test]
fn a_logical_undo_composes_under_a_newer_full_path_rewrite() {
    // One leaf of 100 records: 2 free slots in its first segment.
    let loaded: Vec<(u64, u64)> = (0..100u64).map(|k| (k * 10, k)).collect();
    let mut tree = one_leaf_tree(&loaded);
    let mut oracle: BTreeMap<u64, u64> = loaded.iter().copied().collect();
    let loaded_pages = raw_pages(&tree);
    // The single leaf is the first region the bulk load allocated.
    let leaf = loaded_pages.iter().position(|page| PioLeaf::is_segment(page)).unwrap();

    // Flush A: 60 epoch-5 inserts, appended — 2 into the first segment, 58
    // spilling into the (until now empty) second.
    let doomed: Vec<OpEntry> = (0..60u64).map(|k| OpEntry::insert(k * 10 + 5, k + 500)).collect();
    tree.apply(&doomed, Some(5)).unwrap();
    tree.flush_once().unwrap();
    assert_eq!((tree.stats().leaf_appends, tree.stats().leaf_rewrites), (1, 0));
    // Flush B: 50 updates outside any epoch. 160 + 50 records overflow the
    // leaf, so it takes the full path and shrinks to 160 sorted records.
    for k in 0..50u64 {
        tree.update(k * 10, k + 9_000).unwrap();
        oracle.insert(k * 10, k + 9_000);
    }
    tree.flush_once().unwrap();
    assert_eq!((tree.stats().leaf_appends, tree.stats().leaf_rewrites), (1, 1));
    assert_eq!(tree.stats().leaf_splits, 0, "the shrunken leaf must fit again");

    tree.simulate_crash();
    let first = tree.recover_with(&mut |epoch| epoch != 5).unwrap();
    assert_eq!(first.unwound_flushes, 2, "A is poisoned, B unwinds with it: {first:?}");
    assert_eq!(first.discarded, 60);
    assert_eq!(first.redone, 50, "B's surviving updates are re-queued");
    assert_eq!(tree.check_invariants().unwrap(), 100);
    let after_first = raw_pages(&tree);
    assert!(
        after_first[leaf] == loaded_pages[leaf],
        "the appended-to segment is back to its loaded image, byte for byte"
    );
    assert!(
        after_first[leaf + 1].iter().all(|&b| b == 0),
        "the segment the append spilled into is a never-written page again"
    );

    // Recovering again — same log, same verdict — must be a fixed point.
    tree.simulate_crash();
    let second = tree.recover_with(&mut |epoch| epoch != 5).unwrap();
    assert_eq!(
        (second.unwound_flushes, second.discarded, second.redone),
        (first.unwound_flushes, first.discarded, first.redone)
    );
    assert!(
        raw_pages(&tree) == after_first,
        "a second recovery must not change a page"
    );

    tree.checkpoint().unwrap();
    let state: BTreeMap<u64, u64> = tree.range_search(0, u64::MAX).unwrap().into_iter().collect();
    assert_eq!(state, oracle, "updates kept, epoch 5 gone");
    tree.check_invariants().unwrap();
}

/// Format compatibility: a log written before the logical undo record existed
/// holds a full page pre-image (tag 4) for an appended segment too, and must
/// keep recovering exactly as it did — the pre-image goes back byte for byte.
#[test]
fn an_old_format_append_preimage_still_recovers() {
    let loaded: Vec<(u64, u64)> = (0..40u64).map(|k| (k * 10, k)).collect();
    let mut tree = one_leaf_tree(&loaded);
    let before = raw_pages(&tree);
    // The single leaf is the first region the bulk load allocated.
    let leaf = before.iter().position(|page| PioLeaf::is_segment(page)).unwrap() as u64;
    let preimage = before[leaf as usize].clone();

    // The old binary's flush 1, by hand: redo records, FlushStart, the tag-4
    // pre-image of the appended segment — forced — and then the segment write
    // itself. The crash comes before FlushEnd.
    let added: Vec<OpEntry> = (0..20u64).map(|k| OpEntry::insert(k * 10 + 3, k + 700)).collect();
    let wal = tree.wal().unwrap();
    for (tx, entry) in added.iter().enumerate() {
        wal.append(
            &LogRecord::LogicalRedo {
                tx: tx as u64 + 1,
                entry: *entry,
            }
            .encode(),
        );
    }
    wal.append(
        &LogRecord::FlushStart {
            flush_id: 1,
            key_lo: added[0].key,
            key_hi: added[19].key,
            hi_ties: 1,
        }
        .encode(),
    );
    let undo = LogRecord::FlushUndo {
        flush_id: 1,
        page: leaf,
        preimage: preimage.to_vec(),
    };
    assert_eq!(undo.encode()[0], 4, "the old format's tag");
    wal.append(&undo.encode());
    wal.force().unwrap();
    let mut records = PioLeaf::decode(leaf, &preimage, 1, 2048).unwrap().records;
    records.extend(&added);
    let mut appended = vec![0u8; 2048];
    PioLeaf::encode_segment_into(&records, &mut appended);
    tree.store().write_page(leaf, appended.into()).unwrap();

    tree.simulate_crash();
    let report = tree.recover().unwrap();
    assert_eq!((report.incomplete_flushes, report.undone_pages), (1, 1), "{report:?}");
    assert_eq!(report.redone, 20, "the interrupted flush's batch is re-queued");
    assert!(raw_pages(&tree) == before, "the pre-image goes back byte for byte");

    tree.checkpoint().unwrap();
    let state: BTreeMap<u64, u64> = tree.range_search(0, u64::MAX).unwrap().into_iter().collect();
    let oracle: BTreeMap<u64, u64> = loaded
        .iter()
        .copied()
        .chain(added.iter().map(|e| (e.key, e.value)))
        .collect();
    assert_eq!(state, oracle);
    tree.check_invariants().unwrap();
}

// ------------------------------------------------- one undo, two ways to reach it --

/// Everything a failed flush must leave as it found it.
#[derive(Debug, PartialEq)]
struct TreeState {
    /// Every page reachable from the root, byte for byte, read below the cache.
    pages: BTreeMap<u64, PageImage>,
    root: u64,
    height: usize,
    /// Pages the store has handed out and not taken back.
    allocated_minus_freed: u64,
    /// Live entries in the on-disk tree (`check_invariants`, OPQ excluded).
    flushed_entries: u64,
    /// A full-range scan, OPQ overlay included.
    scan: Vec<(u64, u64)>,
}

fn tree_state(tree: &mut PioBTree) -> TreeState {
    let segments = tree.config().leaf_segments as u64;
    let mut pages = BTreeMap::new();
    let mut level = vec![tree.root_page()];
    for _ in 1..tree.height() {
        let mut children = Vec::new();
        for &page in &level {
            let image = tree.store().store().read_page(page).unwrap();
            children.extend(InternalView::new(page, &image).unwrap().children());
            pages.insert(page, image);
        }
        level = children;
    }
    for &leaf in &level {
        for page in leaf..leaf + segments {
            pages.insert(page, tree.store().store().read_page(page).unwrap());
        }
    }
    let store = tree.store().store().stats();
    TreeState {
        pages,
        root: tree.root_page(),
        height: tree.height(),
        allocated_minus_freed: store.allocated - store.freed,
        flushed_entries: tree.check_invariants().unwrap(),
        scan: tree.range_search(0, u64::MAX).unwrap(),
    }
}

/// A tree on tiny pages (so one flush splits leaves, splits the root and
/// grows the tree) with a seeded batch queued and its redo records forced:
/// dense traffic on the lower leaves (full path, splits), a trickle on the
/// upper ones (append path). Store and WAL sit on separate fault clocks.
fn tree_with_a_queued_flush(seed: u64) -> (PioBTree, Arc<FaultClock>, Arc<FaultClock>) {
    use rand::{rngs::StdRng, SeedableRng};
    let config = PioConfig::builder()
        .page_size(256)
        .leaf_segments(2)
        .opq_pages(64)
        .bcnt(1_024)
        .pio_max(2)
        .speriod(16)
        .pool_pages(64)
        .build();
    let (store_clock, wal_clock) = (FaultClock::new(), FaultClock::new());
    let faulty = |bytes, clock: &Arc<FaultClock>| -> Arc<dyn IoQueue> {
        Arc::new(FaultIo::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, bytes)),
            Arc::clone(clock),
        ))
    };
    let store = Arc::new(CachedStore::new(
        PageStore::new(faulty(1 << 26, &store_clock), 256),
        64,
        WritePolicy::WriteThrough,
    ));
    let loaded: Vec<(u64, u64)> = (0..120u64).map(|k| (k * 100, k)).collect();
    let mut tree = PioBTree::bulk_load(store, &loaded, config).unwrap();
    tree.attach_wal(Wal::new(faulty(16 << 20, &wal_clock), 0, 256));
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..360u64 {
        let key = rng.gen_range(0..5_000u64);
        match rng.gen_range(0..10u32) {
            0 => tree.delete(key / 100 * 100).unwrap(),
            1 => tree.update(key / 100 * 100, i + 7_000).unwrap(),
            _ => tree.insert(key, i + 1_000).unwrap(),
        }
    }
    for i in 0..6u64 {
        tree.insert(5_750 + i * 1_100, i).unwrap();
    }
    tree.force_wal().unwrap();
    (tree, store_clock, wal_clock)
}

/// In-process rollback and crash undo are one function over one journal
/// (`undo_flush`), reached two ways. For every store write of one flush that
/// appends, splits leaves, splits the root and grows the tree: path A fails
/// that write once and lets the flush roll itself back; path B crashes an
/// identical twin at the same write (store and log die together) and
/// recovers it from its WAL. Both must land exactly on the pre-flush state.
#[test]
fn in_process_rollback_and_crash_undo_agree_at_every_flush_write() {
    let (_, seed) = seeded_rng();

    // Profiling run: the pre-flush state, and the flush's store-write window.
    let (mut tree, store_clock, _) = tree_with_a_queued_flush(seed);
    let before = tree_state(&mut tree);
    let first_write = store_clock.writes_seen();
    let stats_before = tree.stats();
    tree.flush_once().unwrap();
    let writes = store_clock.writes_seen() - first_write;
    let stats = tree.stats();
    assert_eq!(tree.opq_len(), 0, "seed {seed}: one flush must take the whole queue");
    assert!(
        stats.leaf_appends > stats_before.leaf_appends,
        "seed {seed}: no append-path leaf"
    );
    assert!(
        stats.leaf_splits > 0 && stats.internal_splits > 0,
        "seed {seed}: {stats:?}"
    );
    assert!(
        stats.height_growths > 0,
        "seed {seed}: the flush must grow the root (height {} -> {}, {stats:?})",
        before.height,
        tree.height()
    );
    assert!(writes >= 5, "seed {seed}: only {writes} store writes to fail");

    for k in 0..writes {
        // Path A: the write fails once; the flush rolls itself back.
        let (mut a, store_clock, _) = tree_with_a_queued_flush(seed);
        store_clock.arm(CrashPlan::at_write(first_write + k).transient());
        a.flush_once().unwrap_err();
        let rolled_back = tree_state(&mut a);

        // Path B: the process dies at the same write; recovery undoes the flush.
        let (mut b, store_clock, wal_clock) = tree_with_a_queued_flush(seed);
        store_clock.arm(CrashPlan::at_write(first_write + k));
        let store_died = Arc::clone(&store_clock);
        wal_clock.arm(CrashPlan::on_payload(move |_| store_died.tripped()));
        b.flush_once().unwrap_err();
        store_clock.heal();
        wal_clock.heal();
        b.simulate_crash();
        let report = b.recover().unwrap();
        assert_eq!(report.incomplete_flushes, 1, "seed {seed} write {k}: {report:?}");
        let recovered = tree_state(&mut b);

        assert!(
            rolled_back == before,
            "seed {seed} write {k}/{writes}: the in-process rollback left the tree changed"
        );
        assert!(
            recovered == before,
            "seed {seed} write {k}/{writes}: crash recovery did not restore the pre-flush tree ({report:?})"
        );
    }
    eprintln!(
        "flush-undo differential (seed {seed}): {writes} failed writes × 2 paths over {} reachable pages",
        before.pages.len()
    );
}

/// The force that carries a flush's `FlushEnd` — its last log write — torn at
/// every byte with the store healthy: every page of the flush is written, and
/// from some cut on the record is whole on the device although the call
/// failed. The flush must stand as it is (no rollback, no `FlushAbort`), so
/// that pages and log agree whichever way recovery judges it: everything acked
/// before the flush reads back. Then the same force failing once in a process
/// that lives on: nothing is lost in process, and nothing after the next crash.
#[test]
fn a_failed_flush_end_force_leaves_the_flush_for_recovery_to_judge() {
    const PAGE: usize = 256;
    let (_, seed) = seeded_rng();

    // Profiling run: the acked state, and the flush's log writes (in pages).
    let (mut tree, _, wal_clock) = tree_with_a_queued_flush(seed);
    let acked = tree.range_search(0, u64::MAX).unwrap();
    let first_force = wal_clock.writes_seen();
    let forces: Arc<std::sync::Mutex<Vec<usize>>> = Arc::default();
    let seen = Arc::clone(&forces);
    wal_clock.arm(CrashPlan::on_payload(move |reqs| {
        seen.lock().unwrap().push(reqs.len());
        false
    }));
    tree.flush_once().unwrap();
    let forces = std::mem::take(&mut *forces.lock().unwrap());
    assert!(
        forces.len() >= 2,
        "seed {seed}: `FlushStart`'s force, then `FlushEnd`'s"
    );
    let last_force = first_force + forces.len() as u64 - 1;
    let last_force_bytes = forces.last().unwrap() * PAGE;

    let (mut completed, mut undone) = (0usize, 0usize);
    for cut in 0..=last_force_bytes {
        let ctx = format!("seed {seed} cut {cut}/{last_force_bytes}");
        let (mut tree, store_clock, wal_clock) = tree_with_a_queued_flush(seed);
        wal_clock.arm(CrashPlan::at_write(last_force).with_torn(TornWrite {
            keep_requests: cut / PAGE,
            keep_bytes_of_next: cut % PAGE,
        }));
        let store_writes = store_clock.writes_seen();
        tree.flush_once().expect_err(&ctx);
        assert!(wal_clock.tripped(), "{ctx}");
        let flush_writes = store_clock.writes_seen() - store_writes;
        wal_clock.heal();
        tree.simulate_crash();
        let report = tree.recover().unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        assert_eq!(report.aborted_flushes, 0, "{ctx}: a written flush is not rolled back");
        completed += usize::from(report.incomplete_flushes == 0);
        undone += report.incomplete_flushes;
        assert_eq!(tree.range_search(0, u64::MAX).unwrap(), acked, "{ctx}: {report:?}");
        tree.check_invariants().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        if cut == 0 {
            // No rollback: the failed flush wrote what the clean one writes.
            let (mut clean, store_clock, _) = tree_with_a_queued_flush(seed);
            let before = store_clock.writes_seen();
            clean.flush_once().unwrap();
            assert_eq!(flush_writes, store_clock.writes_seen() - before, "{ctx}");
        }
    }
    assert!(
        completed > 0 && undone > 0,
        "seed {seed}: the sweep must leave `FlushEnd` whole ({completed}) and cut ({undone})"
    );

    // The process lives on: the flush stays applied, its `FlushEnd` rides the
    // next force, and a crash after that finds a completed flush.
    let (mut tree, _, wal_clock) = tree_with_a_queued_flush(seed);
    wal_clock.arm(CrashPlan::at_write(last_force).transient());
    tree.flush_once().unwrap_err();
    assert_eq!(
        tree.opq_len(),
        0,
        "seed {seed}: the batch is in the pages, not back in the queue"
    );
    assert_eq!(
        tree.range_search(0, u64::MAX).unwrap(),
        acked,
        "seed {seed}: in process"
    );
    tree.force_wal().unwrap();
    tree.simulate_crash();
    let report = tree.recover().unwrap();
    assert_eq!(
        (report.incomplete_flushes, report.aborted_flushes),
        (0, 0),
        "seed {seed}: {report:?}"
    );
    assert_eq!(
        tree.range_search(0, u64::MAX).unwrap(),
        acked,
        "seed {seed}: after the crash"
    );
    tree.check_invariants().unwrap();
}

// ----------------------------------------------- truncation under an open bracket --

/// A truncation pin is not enough to unwind a flush. While an epoch's bracket
/// is undecided, a checkpoint flushes the epoch's records together with older
/// unbracketed ones; if the log were then cut down to the bracket's
/// `BatchBegin` and the epoch discarded, recovery would unwind that flush and
/// re-queue "the records it covered" from a log that no longer holds the older
/// ones — acked writes lost. So while a pin lies below the cut, truncation
/// does not advance at all; once the epoch is decided it does, and recovery
/// replays only the tail. Trial 0 is the plain recipe; the rest draw how many
/// unbracketed writes come before and after the bracket opens (≈100 entries
/// fill the OPQ, so larger draws flush on their own before, inside or after
/// the bracket) and whether an earlier checkpoint already moved the log's
/// start.
#[test]
fn truncation_waits_for_a_bracket_that_opened_below_the_cut() {
    const EPOCH: u64 = 9;
    let (mut rng, seed) = seeded_rng();
    let loaded: Vec<(u64, u64)> = (0..60u64).map(|k| (k * 1_000, k)).collect();
    let ops =
        |entries: &[(u64, u64)]| -> Vec<OpEntry> { entries.iter().map(|&(k, v)| OpEntry::insert(k, v)).collect() };
    for trial in 0..16 {
        let (before, inside, after, early_checkpoint) = match trial {
            0 => (40, 20, 0, false),
            _ => (
                rng.gen_range(0..150usize),
                rng.gen_range(1..80usize),
                rng.gen_range(0..150usize),
                rng.gen_range(0..2u32) == 1,
            ),
        };
        // Unique values; keys from a small space, so the groups overwrite each other.
        let mut value = 10_000u64;
        let mut draw = |n: usize| -> Vec<(u64, u64)> {
            (0..n)
                .map(|_| {
                    value += 1;
                    (rng.gen_range(0..600u64) * 100, value)
                })
                .collect()
        };
        let (before, of_epoch, after) = (draw(before), draw(inside), draw(after));
        for keep in [false, true] {
            let ctx = format!(
                "seed {seed} trial {trial} keep {keep} ({} + {} in the bracket + {}, early checkpoint {early_checkpoint})",
                before.len(),
                of_epoch.len(),
                after.len()
            );
            let mut model: BTreeMap<u64, u64> = loaded.iter().copied().collect();
            model.extend(before.iter().copied());
            if keep {
                model.extend(of_epoch.iter().copied());
            }
            model.extend(after.iter().copied());

            let mut tree = crashy_tree_on(&FaultClock::new(), &FaultClock::new(), &loaded);
            let (early, late) = before.split_at(if early_checkpoint { before.len() / 2 } else { 0 });
            tree.apply(&ops(early), None).unwrap();
            if early_checkpoint {
                let cut = tree.checkpoint().unwrap();
                tree.truncate_wal(cut).unwrap();
            }
            tree.apply(&ops(late), None).unwrap();
            tree.apply(&ops(&of_epoch), Some(EPOCH)).unwrap();
            tree.apply(&ops(&after), None).unwrap();
            let cut = tree.checkpoint().unwrap();
            assert_eq!(
                tree.truncate_wal(cut).unwrap(),
                0,
                "{ctx}: cut below an undecided bracket"
            );
            if keep {
                // Decided: the pin is gone, the log goes, recovery is bounded.
                tree.resolve_epoch(EPOCH);
                assert!(tree.truncate_wal(cut).unwrap() > 0, "{ctx}: nothing pins the log now");
                assert!(
                    tree.wal_replayable_bytes() < 2_048,
                    "{ctx}: only the checkpoint is left"
                );
            }
            tree.simulate_crash();
            let report = tree
                .recover_with(&mut |epoch| {
                    assert_eq!(epoch, EPOCH, "{ctx}");
                    keep
                })
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            let state: BTreeMap<u64, u64> = tree.range_search(0, u64::MAX).unwrap().into_iter().collect();
            let lost: Vec<_> = model.iter().filter(|&(k, v)| state.get(k) != Some(v)).take(5).collect();
            assert!(state == model, "{ctx}: lost or stale {lost:?} ({report:?})");
            tree.check_invariants().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
    }
}

// ------------------------------------------------------------- one write entry --

/// `apply(ops, None)` is `insert_batch`: nothing is forced (LSN 0), and queue,
/// counters and contents come out the same.
#[test]
fn apply_without_an_epoch_equals_insert_batch() {
    let config = PioConfig::builder().page_size(2048).opq_pages(1).bcnt(64).build();
    let entries: Vec<(u64, u64)> = (0..300u64).map(|k| (k * 7 % 1_000, k)).collect();
    let ops: Vec<OpEntry> = entries.iter().map(|&(k, v)| OpEntry::insert(k, v)).collect();
    let mut batched = PioBTree::create(DeviceProfile::F120, 1 << 28, config.clone()).unwrap();
    let mut applied = PioBTree::create(DeviceProfile::F120, 1 << 28, config).unwrap();
    batched.insert_batch(&entries).unwrap();
    assert_eq!(applied.apply(&ops, None).unwrap(), 0);
    assert!(batched.stats().bupdates > 0, "the batch must overflow into flushes");
    assert_eq!(applied.opq_len(), batched.opq_len());
    assert_eq!(applied.stats(), batched.stats());
    assert_eq!(applied.dirty_ops(), batched.dirty_ops());
    assert_eq!(
        applied.range_search(0, u64::MAX).unwrap(),
        batched.range_search(0, u64::MAX).unwrap()
    );
}

/// `apply(ops, Some(epoch))` brackets the batch once and forces once.
#[test]
fn apply_with_an_epoch_writes_one_bracket_and_forces_once() {
    let wal_clock = FaultClock::new();
    let mut tree = crashy_tree_on(&FaultClock::new(), &wal_clock, &[]);
    let ops: Vec<OpEntry> = (0..40u64)
        .map(|k| match k % 3 {
            0 => OpEntry::delete(k),
            1 => OpEntry::update(k, k + 1),
            _ => OpEntry::insert(k, k),
        })
        .collect();
    let forces_before = wal_clock.writes_seen();
    let durable = tree.apply(&ops, Some(9)).unwrap();
    assert_eq!(
        wal_clock.writes_seen() - forces_before,
        1,
        "one force for the whole bracket"
    );
    let wal = tree.wal().unwrap();
    assert_eq!(durable, wal.durable_lsn());
    assert_eq!(wal.pending_records(), 0, "nothing of the batch is left unforced");
    let records: Vec<LogRecord> = wal
        .scan()
        .unwrap()
        .records
        .iter()
        .map(|r| LogRecord::decode(&r.payload).unwrap())
        .collect();
    assert_eq!(records.first(), Some(&LogRecord::BatchBegin { epoch: 9 }));
    assert_eq!(records.last(), Some(&LogRecord::BatchEnd { epoch: 9 }));
    let logical = records
        .iter()
        .filter(|r| matches!(r, LogRecord::LogicalRedo { .. }))
        .count();
    assert_eq!((records.len(), logical), (ops.len() + 2, ops.len()));
    assert_eq!(
        (tree.stats().inserts, tree.stats().updates, tree.stats().deletes),
        (13, 13, 14)
    );
}

#[test]
fn concurrent_trees_serve_many_threads() {
    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(4)
        .pio_max(32)
        .speriod(64)
        .bcnt(256)
        .pool_pages(128)
        .build();
    // The paper's simple scheme (Section 4): one lock around the whole tree.
    let pio = Arc::new(Mutex::new(
        PioBTree::create(DeviceProfile::Iodrive, 1 << 30, config).unwrap(),
    ));
    let io = Arc::new(pio::SimPsyncIo::with_profile(DeviceProfile::Iodrive, 1 << 30));
    let store = Arc::new(storage::CachedStore::new(
        storage::PageStore::new(io, 2048),
        128,
        storage::WritePolicy::WriteBack,
    ));
    let blink = Arc::new(ConcurrentBTree::new(btree::BPlusTree::new(store).unwrap()));

    let mut handles = Vec::new();
    for thread in 0..6u64 {
        let pio = Arc::clone(&pio);
        let blink = Arc::clone(&blink);
        handles.push(std::thread::spawn(move || {
            for i in 0..400u64 {
                let key = thread * 100_000 + i;
                pio.lock().insert(key, i).unwrap();
                blink.insert(key, i).unwrap();
                if i % 10 == 0 {
                    assert_eq!(pio.lock().search(key).unwrap(), Some(i));
                    assert_eq!(blink.search(key).unwrap(), Some(i));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    pio.lock().checkpoint().unwrap();
    blink.flush().unwrap();
    // Cross-check both concurrent structures agree after the storm.
    for thread in 0..6u64 {
        let keys: Vec<u64> = (0..400).step_by(37).map(|i| thread * 100_000 + i).collect();
        let a = pio.lock().multi_search(&keys).unwrap();
        let b = blink.concurrent_search(&keys).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|r| r.is_some()));
    }
}
