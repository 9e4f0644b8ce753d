//! Figure 9: point-search time as a function of the buffer-pool size, B+-tree versus
//! PIO B-tree, on Iodrive, P300 and F120.
//!
//! Setup (Section 4.1.1, scaled): the trees are bulk loaded, the workload is
//! search-only, the B+-tree node size is chosen by the utility/cost measure (eq. 3)
//! and the PIO B-tree uses 2 KiB internal nodes with an 8 KiB asymmetric leaf. The
//! paper sweeps the pool from 1 MiB to 16 MiB against an ~8 GiB index; this
//! reproduction scales the index down and sweeps the pool over the equivalent
//! fraction of the index so the pool still caches only the upper tree levels.
//!
//! Paper expectation: PIO B-tree is 1.35–1.5× faster than the B+-tree across pool
//! sizes (cheaper internal-node misses + a single large leaf read per search), with
//! the gap narrowing as the pool grows large enough to cache all internal levels.
//!
//! Both trees live on the store's one cache, swept in size: the B+-tree's
//! nodes, and the PIO B-tree's internal nodes and leaf pages — every page of
//! a leaf a search reads is an entry of the pool, whatever its size.
//!
//! Self-assertion (the CI gate of that cache): per device, `btree_ms` never
//! grows as `pool_bytes` grows.

use pio_bench::{ratio, scaled, setup, us, Table};
use pio_btree::cost::optimal_btree_node_size;
use pio_btree::PioConfig;
use ssd_sim::{DeviceProfile, SsdDevice};

fn main() {
    let n = setup::initial_entries() * 4;
    let key_space = n * 4;
    let searches = scaled(10_000);
    // The paper's 1 MiB … 16 MiB pools against an 8 GiB index, scaled to our tree.
    let pool_sweep: Vec<u64> = vec![32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10];

    let mut table = Table::new(
        "fig09",
        "Figure 9: search-only elapsed simulated time (ms) vs buffer pool size",
        &["device", "pool_bytes", "btree_node", "btree_ms", "pio_ms", "speedup"],
    );

    for profile in DeviceProfile::experiment_trio() {
        // eq. (3): pick the B+-tree node size by utility/cost on this device.
        let mut probe = SsdDevice::new(profile.build());
        let node_size = optimal_btree_node_size(&mut probe, &[2048, 4096, 8192], 0xF1609);

        // Build each tree once and sweep the pool size over it.
        let mut bt = setup::build_btree(profile, node_size, pool_sweep[0], n);
        let config = PioConfig::builder()
            .page_size(2048)
            .leaf_segments(4)
            .opq_pages(1)
            .pool_pages(pool_sweep[0] / 2048)
            .pio_max(64)
            .build();
        let mut pt = setup::build_pio(profile, config, n);

        let mut smaller_pool_ms = f64::INFINITY;
        for &pool_bytes in &pool_sweep {
            bt.store().resize_pool(pool_bytes / node_size as u64).unwrap();
            bt.store().drop_cache();
            pt.store().resize_pool(pool_bytes / 2048).unwrap();
            pt.store().drop_cache();

            let mut state = 0x5EEDu64;
            let mut next_key = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % key_space
            };
            let start = bt.store().io_elapsed_us();
            for _ in 0..searches {
                bt.search(next_key()).unwrap();
            }
            let btree_ms = (bt.store().io_elapsed_us() - start) / 1e3;
            // LRU is a stack algorithm: over one reference string from a cold
            // start, a larger pool holds a superset of a smaller one's pages,
            // so the misses — one blocking node read each — can only shrink.
            assert!(
                btree_ms <= smaller_pool_ms * (1.0 + 1e-9),
                "{}: B+-tree search time grew with the pool: {btree_ms} ms at {pool_bytes} B after {smaller_pool_ms} ms",
                profile.name()
            );
            smaller_pool_ms = btree_ms;

            let mut state = 0x5EEDu64;
            let mut next_key = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % key_space
            };
            let start = pt.io_elapsed_us();
            for _ in 0..searches {
                pt.search(next_key()).unwrap();
            }
            let pio_ms = (pt.io_elapsed_us() - start) / 1e3;

            table.row(vec![
                profile.name().to_string(),
                pool_bytes.to_string(),
                node_size.to_string(),
                us(btree_ms),
                us(pio_ms),
                ratio(btree_ms, pio_ms),
            ]);
        }
    }
    table.finish();
    println!("\nfig09 done.");
}
