//! Integration: the three design principles of Section 2.2, measured end-to-end
//! through the public APIs (device → psync layer → index).

use btree::bulk_load;
use pio::{Discipline, IoQueue, ReadRequest, SimPsyncIo};
use pio_btree::{PioBTree, PioConfig};
use ssd_sim::DeviceProfile;
use std::sync::Arc;
use storage::{CachedStore, PageStore, WritePolicy};

fn entries(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| (k * 3, k)).collect()
}

/// Principle 1 — large I/O granularity: reading an 8 KiB leaf as one request costs
/// far less than reading its four 2 KiB pages one at a time.
#[test]
fn principle_1_large_granularity() {
    let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30));
    let one_large = {
        let (_, b) = io.psync_read(&[ReadRequest::new(0, 8192)]).unwrap();
        b.elapsed_us
    };
    let four_small: f64 = (0..4)
        .map(|i| {
            let (_, b) = io.psync_read(&[ReadRequest::new(i * 2048, 2048)]).unwrap();
            b.elapsed_us
        })
        .sum();
    assert!(
        one_large < four_small / 1.5,
        "one 8 KiB request ({one_large:.0} us) must beat four serial 2 KiB requests ({four_small:.0} us)"
    );
}

/// Principle 2 — high outstanding-I/O level: MPSearch over a key batch costs far less
/// simulated time than the same lookups one at a time on the same tree.
#[test]
fn principle_2_outstanding_io_in_the_index() {
    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(1)
        .pio_max(64)
        .pool_pages(8)
        .build();
    let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 4 << 30));
    let store = Arc::new(CachedStore::new(PageStore::new(io, 2048), 8, WritePolicy::WriteThrough));
    let mut tree = PioBTree::bulk_load(store, &entries(200_000), config).unwrap();

    let keys: Vec<u64> = (0..256u64).map(|i| (i * 2_654_435_761) % 600_000).collect();
    tree.store().drop_cache();
    let start = tree.io_elapsed_us();
    let batched = tree.multi_search(&keys).unwrap();
    let mpsearch_us = tree.io_elapsed_us() - start;

    tree.store().drop_cache();
    let start = tree.io_elapsed_us();
    let mut singles = Vec::new();
    for &k in &keys {
        singles.push(tree.search(k).unwrap());
    }
    let single_us = tree.io_elapsed_us() - start;

    assert_eq!(batched, singles, "MPSearch must return the same answers");
    assert!(
        mpsearch_us * 2.0 < single_us,
        "MPSearch ({mpsearch_us:.0} us) must be at least 2x cheaper than {single_us:.0} us"
    );
}

/// Principle 2, write side: the PIO B-tree's batched updates beat the conventional
/// B+-tree driven by synchronous I/O on the same device profile.
#[test]
fn principle_2_batched_updates_beat_the_baseline() {
    let n = 150_000u64;
    // Baseline B+-tree on a synchronous-I/O store with a small pool.
    let sync_io = Arc::new(SimPsyncIo::new(DeviceProfile::F120.build(), 4 << 30, Discipline::Sync));
    let bt_store = Arc::new(CachedStore::new(
        PageStore::new(sync_io, 2048),
        64,
        WritePolicy::WriteBack,
    ));
    let mut bt = bulk_load(bt_store, &entries(n), 0.7).unwrap();

    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(16)
        .pio_max(64)
        .pool_pages(48)
        .build();
    let pio_io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 4 << 30));
    let pio_store = Arc::new(CachedStore::new(
        PageStore::new(pio_io, 2048),
        48,
        WritePolicy::WriteThrough,
    ));
    let mut pio = PioBTree::bulk_load(pio_store, &entries(n), config).unwrap();

    let inserts: Vec<u64> = (0..20_000u64).map(|i| (i * 48_271) % (n * 6)).collect();
    let start = bt.store().io_elapsed_us();
    for (i, &k) in inserts.iter().enumerate() {
        bt.insert(k, i as u64).unwrap();
    }
    bt.store().flush().unwrap();
    let bt_us = bt.store().io_elapsed_us() - start;

    let start = pio.io_elapsed_us();
    for (i, &k) in inserts.iter().enumerate() {
        pio.insert(k, i as u64).unwrap();
    }
    pio.checkpoint().unwrap();
    let pio_us = pio.io_elapsed_us() - start;

    assert!(
        pio_us * 2.0 < bt_us,
        "batched updates ({pio_us:.0} us) must be at least 2x cheaper than the baseline ({bt_us:.0} us)"
    );
    // And the data must actually be there.
    for &k in inserts.iter().step_by(997) {
        assert!(pio.search(k).unwrap().is_some());
    }
}

/// Principle 3 — no mingled reads and writes: the PIO B-tree never mixes kinds within
/// one psync call, which the device statistics make observable (every batch is
/// homogeneous).
#[test]
fn principle_3_no_mingled_read_writes() {
    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(4)
        .pio_max(32)
        .pool_pages(32)
        .build();
    let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 2 << 30));
    let store = Arc::new(CachedStore::new(
        PageStore::new(io, 2048),
        32,
        WritePolicy::WriteThrough,
    ));
    let mut tree = PioBTree::bulk_load(store, &entries(50_000), config).unwrap();
    for k in 0..30_000u64 {
        tree.insert(k * 7 % 400_000, k).unwrap();
    }
    tree.checkpoint().unwrap();
    let io_stats = tree.store().store().io().io_stats();
    // Homogeneous batches: the number of psync calls equals read batches + write
    // batches, and both kinds were exercised.
    assert!(io_stats.reads > 0 && io_stats.writes > 0);
    assert_eq!(
        io_stats.batches,
        tree.store().store().stats().read_batches + tree.store().store().stats().write_batches,
        "every psync call is either a read batch or a write batch, never mixed"
    );
}
