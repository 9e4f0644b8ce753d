//! The paper's psync call (Section 2, Fig. 3) carries at most `PioMax`
//! requests, and its cost model (Section 3.5) charges every call as one. This
//! suite holds a PIO B-tree to that rule on every store submission, read or
//! write, through each kind of write the tree makes: bulk load, flushes whose
//! appends spill into the next segment, leaf splits and a root growth, a
//! flush that fails and is rolled back, and a crash and its recovery — at
//! `PioMax` 4, 8 and 64.
//!
//! The store's device is wrapped in a [`RecordIo`] (outermost, so it sees
//! every submission the tree makes, failed ones too) over the fault harness.
//! The WAL lives on a device of its own and is not held to the rule. Key sets
//! and fault points come from `CRASH_SEED` (see `common::crash`), which every
//! assertion message carries.

mod common;

use common::crash::seeded_rng;
use common::record::{RecordIo, Recorder};
use pio::{CrashPlan, FaultClock, FaultIo, IoQueue, SimPsyncIo};
use pio_btree::{PioBTree, PioConfig};
use rand::rngs::StdRng;
use rand::Rng;
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{CachedStore, PageStore, Wal, WritePolicy};

const PIO_MAX: [usize; 3] = [4, 8, 64];
const PAGE: usize = 1024;

/// 1 KiB pages filled to 40 %: a bulk-loaded leaf holds 40 entries, less
/// than its first segment's 50, so appends spill into the second, and an
/// internal node holds 25 children, so [`loaded`]'s bulk load builds an
/// internal level of more than 64 nodes.
fn config(pio_max: usize) -> PioConfig {
    PioConfig::builder()
        .page_size(PAGE)
        .leaf_segments(2)
        .opq_pages(4)
        .pio_max(pio_max)
        .fill_factor(0.4)
        .pool_pages(8_192)
        .build()
}

/// `n` entries, keys a multiple of 8, so that odd keys are new.
fn entries(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| (k * 8, k)).collect()
}

/// A tree over a recorded, fault-injected store, its WAL, and what it must
/// hold.
struct Probe {
    tree: PioBTree,
    recorder: Arc<Recorder>,
    clock: Arc<FaultClock>,
    model: BTreeMap<u64, u64>,
    pio_max: usize,
    ctx: String,
}

impl Probe {
    /// Bulk loads `entries` at `pio_max` and attaches a WAL on its own device.
    fn new(pio_max: usize, entries: &[(u64, u64)], seed: u64) -> Self {
        let clock = FaultClock::new();
        let recorder = Recorder::new();
        let device: Arc<dyn IoQueue> = Arc::new(FaultIo::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 30)),
            Arc::clone(&clock),
        ));
        let config = config(pio_max);
        let store = Arc::new(CachedStore::new(
            PageStore::new(RecordIo::wrap(device, "store".into(), &recorder), PAGE),
            config.pool_pages,
            WritePolicy::WriteThrough,
        ));
        let mut tree = PioBTree::bulk_load(store, entries, config).unwrap();
        tree.attach_wal(Wal::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
            0,
            PAGE,
        ));
        Self {
            tree,
            recorder,
            clock,
            model: entries.iter().copied().collect(),
            pio_max,
            ctx: format!("CRASH_SEED={seed} PioMax {pio_max}"),
        }
    }

    /// Asserts that every store submission since the last check carried
    /// `1..=PioMax` requests. Returns the requests of its writes.
    fn check(&self, step: &str) -> usize {
        let calls = self.recorder.take();
        for call in &calls {
            assert!(
                (1..=self.pio_max).contains(&call.requests),
                "{}, {step}: a {} call of {} requests",
                self.ctx,
                if call.write { "write" } else { "read" },
                call.requests
            );
        }
        calls.iter().filter(|c| c.write).map(|c| c.requests).sum()
    }

    /// Inserts `keys` (values `key + 1`), queued only.
    fn insert(&mut self, keys: impl IntoIterator<Item = u64>) {
        for key in keys {
            self.tree.insert(key, key + 1).unwrap();
            self.model.insert(key, key + 1);
        }
    }

    /// The tree holds exactly the model, and its invariants; the reads that
    /// prove it are held to the rule too.
    fn verify(&mut self, step: &str) {
        let found: BTreeMap<u64, u64> = self.tree.range_search(0, u64::MAX).unwrap().into_iter().collect();
        assert!(
            found == self.model,
            "{}, {step}: the tree lost or gained entries",
            self.ctx
        );
        self.tree.checkpoint().unwrap();
        assert_eq!(
            self.tree.check_invariants().unwrap(),
            self.model.len() as u64,
            "{}, {step}",
            self.ctx
        );
        self.check(&format!("{step}, verifying"));
    }
}

/// A bulk-loaded tree of 80 k entries: 2,000 leaves under an internal level
/// of 80 nodes.
fn loaded(pio_max: usize, seed: u64) -> Probe {
    let probe = Probe::new(pio_max, &entries(80_000), seed);
    let written = probe.check("bulk load");
    assert!(written > 2_000 + 80, "{}: bulk load wrote {written} pages", probe.ctx);
    probe
}

/// `n` new (odd) keys drawn from 40 neighbouring leaves at a random spot of
/// [`loaded`]'s key space.
fn clustered_keys(rng: &mut StdRng, n: usize) -> Vec<u64> {
    let span = 40 * 40 * 8;
    let lo = rng.gen_range(0..80_000 * 8 - span);
    (0..n).map(|_| (lo + rng.gen_range(0..span)) | 1).collect()
}

/// A store write among the first calls of a flush of [`clustered_keys`]'
/// 200 keys: one of its first 32 leaves' chunks.
fn early_write(rng: &mut StdRng, clock: &FaultClock, pio_max: usize) -> u64 {
    clock.writes_seen() + rng.gen_range(0..(32 / pio_max).max(1) as u64)
}

#[test]
fn bulk_load_writes_in_calls_of_at_most_pio_max() {
    let (_, seed) = seeded_rng();
    for pio_max in PIO_MAX {
        loaded(pio_max, seed).verify("bulk load");
    }
}

#[test]
fn flushes_that_spill_and_split_leaves_keep_to_pio_max() {
    let (mut rng, seed) = seeded_rng();
    for pio_max in PIO_MAX {
        let mut p = loaded(pio_max, seed);
        let before = p.tree.stats();
        p.insert(clustered_keys(&mut rng, 4_000));
        p.tree.checkpoint().unwrap();
        let stats = p.tree.stats();
        assert!(stats.leaf_appends > before.leaf_appends, "{}", p.ctx);
        assert!(stats.leaf_splits > before.leaf_splits, "{}", p.ctx);
        let written = p.check("flushes");
        assert!(written > pio_max, "{}: the flushes wrote {written} pages", p.ctx);
        p.verify("flushes");
    }
}

#[test]
fn a_root_growth_keeps_to_pio_max() {
    let (mut rng, seed) = seeded_rng();
    for pio_max in PIO_MAX {
        // 25 leaves under the root: splitting them past the root's 64
        // children grows the tree.
        let mut p = Probe::new(pio_max, &entries(1_000), seed);
        p.check("bulk load");
        let height = p.tree.height();
        p.insert((0..30_000).map(|_| rng.gen_range(0..8_000u64)));
        p.tree.checkpoint().unwrap();
        assert!(p.tree.height() > height, "{}: the root did not grow", p.ctx);
        p.check("root growth");
        p.verify("root growth");
    }
}

#[test]
fn a_rolled_back_flush_keeps_to_pio_max() {
    let (mut rng, seed) = seeded_rng();
    for pio_max in PIO_MAX {
        let mut p = loaded(pio_max, seed);
        p.insert(clustered_keys(&mut rng, 200));
        // One of the flush's store writes fails, once: the flush is undone in
        // process.
        let at = early_write(&mut rng, &p.clock, pio_max);
        p.clock.arm(CrashPlan::at_write(at).transient());
        p.tree.flush_once().unwrap_err();
        assert!(p.clock.tripped(), "{}", p.ctx);
        p.check("rolled-back flush");
        p.verify("retried flush");
    }
}

#[test]
fn a_crash_and_recovery_keep_to_pio_max() {
    let (mut rng, seed) = seeded_rng();
    for pio_max in PIO_MAX {
        let mut p = loaded(pio_max, seed);
        p.insert(clustered_keys(&mut rng, 200));
        p.tree.force_wal().unwrap();
        // The store dies at one of the flush's store writes.
        let at = early_write(&mut rng, &p.clock, pio_max);
        p.clock.arm(CrashPlan::at_write(at));
        p.tree.flush_once().unwrap_err();
        p.tree.simulate_crash();
        p.clock.heal();
        p.check("crash");
        let report = p.tree.recover().unwrap();
        assert!(report.undone_pages > 0, "{}: recovery undid nothing", p.ctx);
        p.check("recovery");
        p.verify("recovery");
    }
}
