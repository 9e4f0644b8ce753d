//! A tier-1 gate on what `BENCHMARK.json` measures as `allocs_per_op`: heap
//! allocations of the warm read path and of the insert + flush cycle, counted
//! by this binary's own global allocator.
//!
//! The counter is process-wide (the engine's shard workers allocate on their
//! own threads), so this file holds exactly **one** test: nothing else may run
//! in the binary while a window is counted.

use engine::{EngineConfig, ShardedPioEngine};
use pio_btree::{PioBTree, PioConfig};
use ssd_sim::DeviceProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storage::{CachedStore, PageStore, WritePolicy};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts every allocation request
/// (`alloc`, `alloc_zeroed`, `realloc`) — the definition `perf/src/alloc.rs` uses.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation requests the whole process makes while `work` runs.
fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    work();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The benchmark's tree shape: 4 KiB pages, 2-segment leaves, `opq_pages = 8`,
/// `PioMax = 64`.
fn tree_config(wal: bool) -> PioConfig {
    PioConfig::builder()
        .page_size(4096)
        .leaf_segments(2)
        .opq_pages(8)
        .pio_max(64)
        .pool_pages(1024)
        .wal(wal)
        .build()
}

/// Two shards with a pool that holds every internal node and a leaf cache
/// that holds every leaf.
fn engine_config(wal: bool) -> EngineConfig {
    EngineConfig::builder()
        .shards(2)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(1 << 30)
        .base(tree_config(wal))
        .leaf_cache_bytes(64 << 20)
        .build()
}

const ENTRIES: u64 = 100_000;

fn preload() -> Vec<(u64, u64)> {
    (0..ENTRIES).map(|i| (i * 16, i)).collect()
}

/// A cheap deterministic stream of uniform keys, generated outside the windows.
fn uniform_keys(calls: usize, per_call: usize) -> Vec<Vec<u64>> {
    let mut x = 0x5EED_A110Cu64;
    (0..calls)
        .map(|_| {
            (0..per_call)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % ENTRIES) * 16
                })
                .collect()
        })
        .collect()
}

#[test]
fn warm_reads_and_the_flush_cycle_stay_within_their_allocation_budgets() {
    // ---- point_hot's shape: a warm `multi_search(64)` through the engine ----------
    let engine = ShardedPioEngine::bulk_load(engine_config(false), &preload()).unwrap();
    let every_key: Vec<u64> = (0..ENTRIES).map(|i| i * 16).collect();
    for chunk in every_key.chunks(4096) {
        engine.multi_search(chunk).unwrap(); // warms every leaf region
    }
    let batches = uniform_keys(200, 64);
    let mut answered = 0usize;
    let allocations = allocations_during(|| {
        for keys in &batches {
            answered += engine.multi_search(keys).unwrap().iter().flatten().count();
        }
    });
    assert_eq!(answered, 200 * 64, "every preloaded key is found");
    let per_call = allocations as f64 / batches.len() as f64;
    println!("engine multi_search(64), warm: {per_call:.1} allocations per call");
    assert!(
        per_call < 64.0,
        "a warm multi_search(64) must allocate less than once per key: {per_call:.1} per call"
    );
    // ---- serve_mixed's shape: the same call with every key in one shard ------------
    // It runs on this thread, so what it allocates is the tree's share: the
    // partition, the boxed legs, the reply channel and the scatter are gone.
    let cut = engine.boundaries()[0];
    assert_eq!(cut % 16, 0, "a boundary is a preloaded key, so `k % cut` is one too");
    let owned: Vec<Vec<u64>> = batches
        .iter()
        .map(|keys| keys.iter().map(|k| k % cut).collect())
        .collect();
    assert!(owned.iter().flatten().all(|&k| engine.shard_for(k) == 0));
    let allocations = allocations_during(|| {
        for keys in &owned {
            answered += engine.multi_search(keys).unwrap().iter().flatten().count();
        }
    });
    assert_eq!(answered, 2 * 200 * 64, "every preloaded key is found");
    let per_owned_call = allocations as f64 / owned.len() as f64;
    println!("engine multi_search(64), warm, one shard: {per_owned_call:.1} allocations per call");
    assert!(
        per_owned_call + 6.0 <= per_call,
        "64 keys one shard owns must save the hand-off's allocations: {per_owned_call:.1} vs {per_call:.1} across two"
    );
    drop(engine);

    // ---- a point search of a cached key on one tree --------------------------------
    let mut config = tree_config(false);
    config.leaf_cache_pages = 16 * 1024;
    let device = Arc::new(pio::SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30));
    let store = CachedStore::new(
        PageStore::new(device, 4096),
        config.pool_pages,
        WritePolicy::WriteThrough,
    );
    let store = Arc::new(store);
    let mut tree = PioBTree::bulk_load(store, &preload(), config).unwrap();
    assert_eq!(tree.search(160).unwrap(), Some(10)); // warms the leaf
    let allocations = allocations_during(|| {
        for _ in 0..100 {
            assert_eq!(tree.search(160).unwrap(), Some(10));
        }
    });
    println!(
        "PioBTree::search, cached: {:.2} allocations per call",
        allocations as f64 / 100.0
    );
    assert!(
        allocations <= 100 * SEARCH_ALLOCATIONS,
        "a cached point search allocates at most {SEARCH_ALLOCATIONS} times: {allocations} in 100 calls"
    );

    // ---- write_flush's shape: `insert_batch(64)` with WAL, epochs and OPQ flushes ---
    let engine = ShardedPioEngine::bulk_load(engine_config(true), &preload()).unwrap();
    let batches: Vec<Vec<(u64, u64)>> = uniform_keys(300, 64)
        .into_iter()
        .map(|keys| keys.into_iter().map(|k| (k + 1, k)).collect())
        .collect();
    for batch in &batches[..100] {
        engine.insert_batch(batch).unwrap(); // the first flushes size the scratch
    }
    let bupdates_before = engine.stats().rollup.bupdates;
    let allocations = allocations_during(|| {
        for batch in &batches[100..] {
            engine.insert_batch(batch).unwrap();
        }
    });
    assert!(
        engine.stats().rollup.bupdates > bupdates_before,
        "the window covers flushes"
    );
    let per_entry = allocations as f64 / (200.0 * 64.0);
    println!("engine insert_batch(64) + flushes: {per_entry:.2} allocations per entry");
    assert!(
        per_entry <= FLUSH_CYCLE_ALLOCATIONS_AT_PARENT,
        "the insert + flush cycle must not allocate more per entry than before shared images: {per_entry:.2}"
    );

    // ---- a put the service coalesced alone: one entry, one shard, no hand-off ------
    let cut = engine.boundaries()[0];
    let calls = |entries_of: &dyn Fn(u64) -> Vec<(u64, u64)>| {
        let batches: Vec<_> = (0..100u64).map(entries_of).collect();
        allocations_during(|| {
            for batch in &batches {
                engine.insert_batch(batch).unwrap();
            }
        }) as f64
            / 100.0
    };
    let local = calls(&|i| vec![(i * 16 + 2, i)]);
    let spanning = calls(&|i| vec![(i * 16 + 3, i), (cut + i * 16 + 3, i)]);
    println!("engine insert_batch: {local:.1} allocations for 1 entry in one shard, {spanning:.1} for 2 in two");
    assert!(
        local < spanning,
        "a batch one shard owns must allocate less than one that crosses to two workers: {local:.1} vs {spanning:.1}"
    );
}

/// What a cached point search may allocate: the read ticket's slot vector and
/// the image vector it returns — nothing that grows with the leaf.
const SEARCH_ALLOCATIONS: u64 = 3;

/// Allocations per inserted entry of the cycle above at the commit before the
/// read path shared its images, measured with this very test (where the warm
/// `multi_search(64)` took 410.9 per call and the cached search 8.06).
const FLUSH_CYCLE_ALLOCATIONS_AT_PARENT: f64 = 4.74;
