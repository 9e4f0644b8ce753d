//! A tier-1 gate on what `BENCHMARK.json` measures as `allocs_per_op`: heap
//! allocations of the warm read path, of the cold read path through the
//! cache, of bupdate's full path, of the insert + flush cycle and of a
//! service get and put, counted by this binary's own global allocator.
//! `BENCHMARK.json` counts them in a release build, and so does CI
//! (`cargo test --release --test alloc_gate`).
//!
//! The counter is process-wide — it counts every thread's allocations — so
//! this file holds exactly **one** test: nothing else may run in the binary
//! while a window is counted.

use engine::{EngineConfig, ShardedPioEngine};
use pio::IoQueue;
use pio_btree::{PioBTree, PioConfig};
use service::EngineService;
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

/// Allocations and region reads per cold `multi_search(64)` on one tree of
/// `entries` entries whose internal nodes stay in the pool and whose leaf
/// budget adds 1,024 pages to it — far fewer than its leaves, so every call
/// reads most of its leaves from the device. Counted over 200 calls after 100
/// that warm the pool and the spares.
fn cold_multi_search(entries: u64) -> (f64, f64) {
    let mut config = tree_config(false);
    config.leaf_cache_pages = 1024;
    let device = Arc::new(pio::SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30));
    let store = CachedStore::new(
        PageStore::new(Arc::clone(&device) as Arc<dyn IoQueue>, 4096),
        config.pool_pages,
        WritePolicy::WriteThrough,
    );
    let preload: Vec<(u64, u64)> = (0..entries).map(|i| (i * 16, i)).collect();
    let mut tree = PioBTree::bulk_load(Arc::new(store), &preload, config).unwrap();
    // Every `stride`-th preloaded key, so the calls spread over every leaf.
    let stride = entries / ENTRIES;
    let batches: Vec<Vec<u64>> = uniform_keys(300, 64)
        .into_iter()
        .map(|keys| keys.into_iter().map(|k| k * stride).collect())
        .collect();
    let (warm_up, measured) = batches.split_at(100);
    for keys in warm_up {
        tree.multi_search(keys).unwrap();
    }
    let reads_before = device.io_stats().reads;
    let mut answered = 0usize;
    let allocations = allocations_during(|| {
        for keys in measured {
            answered += tree.multi_search(keys).unwrap().iter().flatten().count();
        }
    });
    assert_eq!(answered, measured.len() * 64, "every preloaded key is found");
    let calls = measured.len() as f64;
    let regions = (device.io_stats().reads - reads_before) as f64 / calls;
    assert!(
        regions > 32.0,
        "the window reads leaves from the device: {regions:.1} regions per call"
    );
    (allocations as f64 / calls, regions)
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
        per_call <= CROSS_SHARD_CALL_ALLOCATIONS,
        "a warm multi_search(64) across two shards allocates at most {CROSS_SHARD_CALL_ALLOCATIONS} \
         times: {per_call:.1} per call"
    );
    // ---- serve_mixed's shape: the same call with every key in one shard ------------
    // It skips the fan-out, so what it allocates is the tree's share: the
    // partition, the lock list, the per-shard results and the scatter are gone.
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
        "64 keys one shard owns must save the fan-out's allocations: {per_owned_call:.1} vs {per_call:.1} across two"
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

    // ---- point_cold's shape: `multi_search(64)` on one tree, most leaves cold ------
    // Each miss's admission evicts an image nobody holds, which becomes a
    // spare; the next call's misses read into the spares. The pool's and the
    // leaf budget's 2,048 pages together hold about a third of this tree's
    // leaves, so a call still reads most of its leaves from the device.
    let (per_call, regions) = cold_multi_search(12 * ENTRIES);
    println!(
        "PioBTree::multi_search(64), cold leaves through the leaf budget: {per_call:.1} allocations \
         per call for {regions:.1} regions read"
    );
    assert!(
        per_call <= COLD_CALL_ALLOCATIONS,
        "a cold multi_search(64) whose misses evict allocates at most {COLD_CALL_ALLOCATIONS} times, \
         nothing per region: {per_call:.1} per call for {regions:.1} regions"
    );

    // ---- bupdate's full path: full leaves shrunk and split --------------------------
    // Every leaf is loaded to capacity, so the first flush that reaches a leaf
    // reads its whole region, shrinks it (the updates' old records go) and
    // splits it (the inserts do not fit). What a region costs must not grow
    // with the records in it.
    let mut config = tree_config(false);
    config.fill_factor = 1.0;
    let device = Arc::new(pio::SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30));
    let store = CachedStore::new(
        PageStore::new(device, 4096),
        config.pool_pages,
        WritePolicy::WriteThrough,
    );
    let mut tree = PioBTree::bulk_load(Arc::new(store), &preload(), config).unwrap();
    let leaf_cap = pio_btree::PioLeaf::capacity(2, 4096) as u64;
    // Per leaf of `leaf_cap` preloaded keys: four updates and four new keys.
    let step = leaf_cap / 4;
    let ops: Vec<pio_btree::OpEntry> = (0..ENTRIES)
        .step_by(step as usize)
        .flat_map(|i| {
            [
                pio_btree::OpEntry::update(i * 16, i + 1),
                pio_btree::OpEntry::insert(i * 16 + 8, i),
            ]
        })
        .collect();
    let before = tree.stats();
    let allocations = allocations_during(|| {
        tree.apply(&ops, None).unwrap();
        tree.checkpoint().unwrap();
    });
    let after = tree.stats();
    let regions = (after.leaf_rewrites - before.leaf_rewrites) as f64;
    let (shrinks, splits) = (after.shrinks - before.shrinks, after.leaf_splits - before.leaf_splits);
    println!(
        "bupdate full path: {:.1} allocations per rewritten region ({regions} regions, {shrinks} shrinks, {splits} splits)",
        allocations as f64 / regions
    );
    assert!(
        regions * 2.0 > (ENTRIES / leaf_cap) as f64 && shrinks as f64 == regions && splits > 0,
        "the window drives most leaves through the full path, shrinking and splitting: \
         {regions} regions, {shrinks} shrinks, {splits} splits"
    );
    assert!(
        allocations as f64 <= regions * REGION_REWRITE_ALLOCATIONS,
        "a full-path rewrite allocates at most {REGION_REWRITE_ALLOCATIONS} times per region: \
         {allocations} for {regions} regions"
    );
    assert_eq!(tree.count_entries().unwrap(), ENTRIES + ops.len() as u64 / 2);
    drop(tree);

    // ---- write_flush's shape: `insert_batch(64)` with WAL, epochs and OPQ flushes ---
    let engine = Arc::new(ShardedPioEngine::bulk_load(engine_config(true), &preload()).unwrap());
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
        per_entry <= FLUSH_CYCLE_ALLOCATIONS,
        "the insert + flush cycle allocates at most {FLUSH_CYCLE_ALLOCATIONS} times per entry: {per_entry:.2}"
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
        "a batch one shard owns must allocate less than one that spans two shards: {local:.1} vs {spanning:.1}"
    );
    assert!(
        local <= LOCAL_PUT_ALLOCATIONS,
        "a one-entry batch one shard owns allocates at most {LOCAL_PUT_ALLOCATIONS} times: {local:.1}"
    );

    // ---- serve_mixed's shape: one client's gets, then its puts, through the service -
    // Every key is in shard 0, so each request is a batch of one that its own
    // thread runs: what is counted is the request's path, nothing else's.
    let service = EngineService::start(Arc::clone(&engine));
    let client = service.handle();
    let gets: Vec<u64> = uniform_keys(1, 1_000).concat().into_iter().map(|k| k % cut).collect();
    let puts: Vec<u64> = gets.iter().map(|k| k + 5).collect();
    assert!(gets.iter().chain(&puts).all(|&k| engine.shard_for(k) == 0));
    for &key in &gets[..100] {
        client.put(key + 4, key).unwrap(); // the reply slot, the builders' vectors
    }
    for &key in &gets {
        client.get(key).unwrap(); // every leaf the window reads
    }
    let mut found = 0usize;
    let get_allocations = allocations_during(|| {
        for &key in &gets {
            found += usize::from(client.get(key).unwrap().value() == Some(key / 16));
        }
    });
    assert_eq!(found, gets.len(), "every preloaded key is found");
    let put_allocations = allocations_during(|| {
        for &key in &puts {
            client.put(key, key).unwrap();
        }
    });
    let (per_get, per_put) = (
        get_allocations as f64 / gets.len() as f64,
        put_allocations as f64 / puts.len() as f64,
    );
    println!("service, one client in one shard: {per_get:.2} allocations per get, {per_put:.2} per put");
    assert!(
        per_get <= SERVICE_GET_ALLOCATIONS,
        "a service get allocates at most {SERVICE_GET_ALLOCATIONS} times: {per_get:.2}"
    );
    assert!(
        per_put <= SERVICE_PUT_ALLOCATIONS,
        "a service put allocates at most {SERVICE_PUT_ALLOCATIONS} times: {per_put:.2}"
    );
}

/// What a warm `multi_search(64)` across two shards may allocate: the
/// partition's count and key buffer, the fan-out's work, lock and result
/// lists, the two a tree's `multi_search` makes per shard, and the result —
/// no boxed jobs and no reply channels, since the legs run on the caller
/// (measured: 10.0; 17.1 while they ran on one worker thread per shard).
const CROSS_SHARD_CALL_ALLOCATIONS: f64 = 12.0;

/// What a cached point search may allocate: the read ticket's slot vector and
/// the image vector it returns — nothing that grows with the leaf.
const SEARCH_ALLOCATIONS: u64 = 3;

/// What a cold `multi_search(64)` may allocate besides the images of the
/// regions it reads: the result, the read ticket's slot and miss lists, the
/// device batch's request and image lists — a fixed few per call, nothing more
/// per region. The misses are admitted, and their admissions' evictions free
/// images nobody holds, which the next misses read into, so no region costs
/// an image (measured: 11.2 per call for 44.6 regions, 50 before the spares).
const COLD_CALL_ALLOCATIONS: f64 = 16.0;

/// What the insert + flush cycle may allocate per inserted entry (measured:
/// 0.57, since a flushed page is one image shared from the encoder to the
/// device and the cache, a leaf shrinks in place, the images the cache and
/// the retry layer let go of are reused, and `insert_batch` sizes each
/// member's sub-batch once; 0.71 before the last two).
const FLUSH_CYCLE_ALLOCATIONS: f64 = 0.7;

/// What a one-entry `insert_batch` one shard owns may allocate: its one
/// operation vector and the WAL force's write through the device stack
/// (measured: 6.0).
const LOCAL_PUT_ALLOCATIONS: f64 = 8.0;

/// What a service get may allocate: the engine call's result and the read
/// ticket — the reply slot, the builder and the pipeline's ring are kept
/// (measured: 2.0).
const SERVICE_GET_ALLOCATIONS: f64 = 3.0;

/// What a service put may allocate: the engine's operation vector and the WAL
/// force's write through the device stack, whose retry copy reuses a spare
/// image (measured: 5.0; 6.0 while every force's copy was a new image).
const SERVICE_PUT_ALLOCATIONS: f64 = 7.0;

/// What bupdate's full path may allocate per rewritten leaf region when every
/// region splits: the region read, its two undo pre-images, the shrink's sort
/// buffer, the split's upper half, the two encoded halves, the fence's path,
/// and a share of the chunk's lists and of the parents' rewrite — a constant,
/// where resolving a leaf through a map costs one node per few records
/// (measured: 12.8; 82.9 while a shrink resolved through a `BTreeMap` and
/// every written image was copied on its way down).
const REGION_REWRITE_ALLOCATIONS: f64 = 16.0;
