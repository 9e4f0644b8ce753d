//! Figure 11: PIO B-tree insert and search elapsed time as a function of the OPQ
//! size, with the rest of the memory budget given to the buffer pool (plus the
//! B+-tree reference that gets the whole budget as its buffer pool).
//!
//! Paper expectation: even a one-page OPQ makes inserts 4–8× faster than the B+-tree;
//! growing the OPQ keeps improving inserts (up to ~28×) while the shrinking buffer
//! pool slowly degrades searches.
//!
//! The OPQ and the buffer share one budget of `M` pages (Eq. (9)): the pool
//! holds the `M − O` pages the OPQ leaves, and every page of the tree — each
//! internal node and each leaf page — is an entry of it, so a growing OPQ
//! leaves fewer leaves resident for the searches.
//!
//! Acceptance (asserted): per device, the PIO B-tree's insert time does not
//! increase as the OPQ grows, and stays below the B+-tree's at every OPQ size;
//! and its search time at the largest OPQ is at least 1.1× that at a
//! one-page OPQ — the paper's trade-off.

use pio_bench::{scaled, setup, us, Table};
use pio_btree::PioConfig;
use ssd_sim::DeviceProfile;

fn main() {
    let n = setup::initial_entries();
    let key_space = setup::key_space();
    let inserts = scaled(60_000);
    let searches = scaled(20_000);
    // Scaled stand-in for the paper's 16 MiB budget on a 4 KiB page basis.
    let memory_budget_pages: u64 = 128; // 2 KiB pages -> 256 KiB, keeping the paper's pool-to-index ratio
    let opq_sweep: Vec<usize> = vec![1, 8, 32, 96, 120];

    let mut table = Table::new(
        "fig11",
        "Figure 11: PIO B-tree insert/search elapsed simulated time (ms) vs OPQ size",
        &["device", "opq_pages", "insert_ms", "search_ms"],
    );

    for profile in DeviceProfile::experiment_trio() {
        // Reference: the baseline B+-tree with the whole budget as buffer pool.
        let mut bt = setup::build_btree(profile, 2048, memory_budget_pages * 2048, n);
        let mut state = 1u64;
        let mut next_key = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % key_space
        };
        let start = bt.store().io_elapsed_us();
        for i in 0..inserts {
            bt.insert(next_key(), i as u64).unwrap();
        }
        bt.store().flush().unwrap();
        let bt_insert_ms = (bt.store().io_elapsed_us() - start) / 1e3;
        let start = bt.store().io_elapsed_us();
        for _ in 0..searches {
            bt.search(next_key()).unwrap();
        }
        let bt_search_ms = (bt.store().io_elapsed_us() - start) / 1e3;
        table.row(vec![
            profile.name().to_string(),
            "btree-ref".to_string(),
            us(bt_insert_ms),
            us(bt_search_ms),
        ]);

        let mut previous_insert_ms = f64::INFINITY;
        let mut search_ms_at = Vec::new();
        for &opq in &opq_sweep {
            let pool = memory_budget_pages.saturating_sub(opq as u64).max(1);
            let config = PioConfig::builder()
                .page_size(2048)
                .leaf_segments(4)
                .opq_pages(opq)
                .pool_pages(pool)
                .pio_max(64)
                .bcnt(5_000)
                .speriod(5_000)
                .build();
            let mut pt = setup::build_pio(profile, config, n);
            let mut state = 1u64;
            let mut next_key = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % key_space
            };
            let start = pt.io_elapsed_us();
            for i in 0..inserts {
                pt.insert(next_key(), i as u64).unwrap();
            }
            pt.checkpoint().unwrap();
            let insert_ms = (pt.io_elapsed_us() - start) / 1e3;
            let start = pt.io_elapsed_us();
            for _ in 0..searches {
                pt.search(next_key()).unwrap();
            }
            let search_ms = (pt.io_elapsed_us() - start) / 1e3;
            table.row(vec![
                profile.name().to_string(),
                opq.to_string(),
                us(insert_ms),
                us(search_ms),
            ]);
            assert!(
                insert_ms <= previous_insert_ms,
                "{}: insert time must not grow with the OPQ: {insert_ms:.1} ms at {opq} pages, {previous_insert_ms:.1} ms before",
                profile.name()
            );
            assert!(
                insert_ms < bt_insert_ms,
                "{}: a {opq}-page OPQ must insert faster than the B+-tree: {insert_ms:.1} vs {bt_insert_ms:.1} ms",
                profile.name()
            );
            previous_insert_ms = insert_ms;
            search_ms_at.push(search_ms);
            if opq == 1 {
                println!(
                    "  {}: insert speedup over B+-tree with a 1-page OPQ = {:.1}x",
                    profile.name(),
                    bt_insert_ms / insert_ms
                );
            }
        }
        let (smallest, largest) = (search_ms_at[0], search_ms_at[search_ms_at.len() - 1]);
        assert!(
            largest >= 1.1 * smallest,
            "{}: the shrinking pool must slow searches: {largest:.1} ms at a {}-page OPQ vs {smallest:.1} ms at {}",
            profile.name(),
            opq_sweep[opq_sweep.len() - 1],
            opq_sweep[0]
        );
    }
    table.finish();
    println!("\nfig11 done.");
}
