//! Figure 13: the TPC-C index trace (Section 4.2).
//!
//! * (a) single process: total elapsed time split by operation type, B+-tree versus
//!   PIO B-tree, on F120, Iodrive and P300. Configuration follows the paper: 4 MiB of
//!   memory (scaled), 4 KiB nodes, PIO leaf size fixed at 1 segment, OPQ of 20 pages.
//! * (b) 1–16 emulated client threads: concurrent B-link tree versus PIO B-tree.
//!   Concurrency is emulated round-by-round on one thread: the point searches of
//!   the threads in one round are outstanding together (batched traversal — an
//!   MPSearch for the PIO B-tree), while update operations go through each tree's
//!   normal write path.
//!
//! Paper expectation: PIO B-tree is 1.25–1.49× faster overall in (a) — with most of
//! the gain on inserts (5.7–6.2×) and range searches (1.9–2.1×) — and 1.17–1.49×
//! faster than the B-link tree in (b) at every thread count.

use btree::ConcurrentBTree;
use pio_bench::{ratio, scaled, setup, us, Table};
use pio_btree::{PioBTree, PioConfig};
use ssd_sim::DeviceProfile;
use workload::{TpccConfig, TpccTraceGenerator, TraceOp};

fn pio_config(pool_pages: u64) -> PioConfig {
    PioConfig::builder()
        .page_size(4096)
        .leaf_segments(1)
        .opq_pages(20)
        .pool_pages(pool_pages)
        .pio_max(64)
        .bcnt(5_000)
        .speriod(5_000)
        .build()
}

fn main() {
    let relations = 8usize;
    let total_initial = setup::initial_entries();
    let trace_len = scaled(60_000);
    let pool_pages: u64 = 128; // scaled stand-in for the paper's 4 MiB budget (split over 8 relations)
    let generator = TpccTraceGenerator::new(0xF1613, TpccConfig::default());
    let initial = generator.initial_keys(total_initial);
    let trace = TpccTraceGenerator::new(0xF1613, TpccConfig::default()).generate(trace_len);

    // ------------------------------------------------------------------- part (a) --
    let mut table = Table::new(
        "fig13a",
        "Figure 13(a): TPC-C trace, single process, elapsed simulated time (ms) by op type",
        &[
            "device",
            "index",
            "search_ms",
            "insert_ms",
            "range_ms",
            "delete_ms",
            "total_ms",
            "speedup",
        ],
    );
    for profile in DeviceProfile::experiment_trio() {
        // One tree per index relation, as in the paper (8 index files).
        let mut btrees: Vec<btree::BPlusTree> = initial
            .iter()
            .map(|keys| {
                let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
                let store = pio_bench::build_store(
                    profile,
                    4096,
                    pool_pages / relations as u64,
                    storage::WritePolicy::WriteBack,
                    64 << 30,
                );
                btree::bulk_load(store, &entries, 0.7).expect("bulk load")
            })
            .collect();
        let mut piotrees: Vec<pio_btree::PioBTree> = initial
            .iter()
            .map(|keys| {
                let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
                let store = pio_bench::build_store(
                    profile,
                    4096,
                    pool_pages / relations as u64,
                    storage::WritePolicy::WriteThrough,
                    64 << 30,
                );
                pio_btree::PioBTree::bulk_load(store, &entries, pio_config(pool_pages / relations as u64))
                    .expect("bulk load")
            })
            .collect();

        let mut bt_time = [0.0f64; 4]; // search, insert, range, delete
        let mut pio_time = [0.0f64; 4];
        for op in &trace {
            let r = op.relation();
            let bt = &mut btrees[r];
            let pt = &mut piotrees[r];
            match *op {
                TraceOp::Search { key, .. } => {
                    let t = bt.store().io_elapsed_us();
                    bt.search(key).unwrap();
                    bt_time[0] += bt.store().io_elapsed_us() - t;
                    let t = pt.io_elapsed_us();
                    pt.search(key).unwrap();
                    pio_time[0] += pt.io_elapsed_us() - t;
                }
                TraceOp::Insert { key, value, .. } => {
                    let t = bt.store().io_elapsed_us();
                    bt.insert(key, value).unwrap();
                    bt_time[1] += bt.store().io_elapsed_us() - t;
                    let t = pt.io_elapsed_us();
                    pt.insert(key, value).unwrap();
                    pio_time[1] += pt.io_elapsed_us() - t;
                }
                TraceOp::RangeSearch { lo, hi, .. } => {
                    let t = bt.store().io_elapsed_us();
                    bt.range_search(lo, hi).unwrap();
                    bt_time[2] += bt.store().io_elapsed_us() - t;
                    let t = pt.io_elapsed_us();
                    pt.range_search(lo, hi).unwrap();
                    pio_time[2] += pt.io_elapsed_us() - t;
                }
                TraceOp::Delete { key, .. } => {
                    let t = bt.store().io_elapsed_us();
                    bt.delete(key).unwrap();
                    bt_time[3] += bt.store().io_elapsed_us() - t;
                    let t = pt.io_elapsed_us();
                    pt.delete(key).unwrap();
                    pio_time[3] += pt.io_elapsed_us() - t;
                }
            }
        }
        for (i, bt) in btrees.iter_mut().enumerate() {
            let t = bt.store().io_elapsed_us();
            bt.store().flush().unwrap();
            bt_time[1] += bt.store().io_elapsed_us() - t;
            let pt = &mut piotrees[i];
            let t = pt.io_elapsed_us();
            pt.checkpoint().unwrap();
            pio_time[1] += pt.io_elapsed_us() - t;
        }
        let bt_total: f64 = bt_time.iter().sum();
        let pio_total: f64 = pio_time.iter().sum();
        table.row(vec![
            profile.name().into(),
            "btree".into(),
            us(bt_time[0] / 1e3),
            us(bt_time[1] / 1e3),
            us(bt_time[2] / 1e3),
            us(bt_time[3] / 1e3),
            us(bt_total / 1e3),
            "1.00".into(),
        ]);
        table.row(vec![
            profile.name().into(),
            "pio-btree".into(),
            us(pio_time[0] / 1e3),
            us(pio_time[1] / 1e3),
            us(pio_time[2] / 1e3),
            us(pio_time[3] / 1e3),
            us(pio_total / 1e3),
            ratio(bt_total, pio_total),
        ]);
        if pio_total >= bt_total {
            println!(
                "  WARN: PIO B-tree did not win the TPC-C trace on {} ({:.1} vs {:.1} ms)",
                profile.name(),
                pio_total / 1e3,
                bt_total / 1e3
            );
        }
    }
    table.finish();

    // ------------------------------------------------------------------- part (b) --
    let mut table = Table::new(
        "fig13b",
        "Figure 13(b): TPC-C trace, emulated client threads, elapsed simulated time (ms)",
        &["device", "threads", "blink_ms", "pio_ms", "speedup"],
    );
    for profile in DeviceProfile::experiment_trio() {
        for &threads in &[1usize, 2, 4, 8, 16] {
            // Concurrent B-link-tree stand-in.
            let blink: Vec<ConcurrentBTree> = initial
                .iter()
                .map(|keys| {
                    let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
                    let store = pio_bench::build_store(
                        profile,
                        4096,
                        pool_pages / relations as u64,
                        storage::WritePolicy::WriteBack,
                        64 << 30,
                    );
                    ConcurrentBTree::new(btree::bulk_load(store, &entries, 0.7).expect("bulk load"))
                })
                .collect();
            let mut pio: Vec<PioBTree> = initial
                .iter()
                .map(|keys| {
                    let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
                    let store = pio_bench::build_store(
                        profile,
                        4096,
                        pool_pages / relations as u64,
                        storage::WritePolicy::WriteThrough,
                        64 << 30,
                    );
                    PioBTree::bulk_load(store, &entries, pio_config(pool_pages / relations as u64)).expect("bulk load")
                })
                .collect();

            // Round-based replay: each round takes `threads` consecutive trace ops;
            // the round's point searches per relation run as one outstanding batch.
            let blink_io = || {
                blink
                    .iter()
                    .map(|t| t.with_tree(|x| x.store().io_elapsed_us()))
                    .sum::<f64>()
            };
            let before = blink_io();
            for round in trace.chunks(threads) {
                let mut searches: Vec<Vec<u64>> = vec![Vec::new(); relations];
                for op in round {
                    match *op {
                        TraceOp::Search { relation, key } => searches[relation].push(key),
                        TraceOp::Insert { relation, key, value } => blink[relation].insert(key, value).unwrap(),
                        TraceOp::Delete { relation, key } => {
                            blink[relation].delete(key).unwrap();
                        }
                        TraceOp::RangeSearch { relation, lo, hi } => {
                            blink[relation].range_search(lo, hi).unwrap();
                        }
                    }
                }
                for (r, keys) in searches.iter().enumerate() {
                    if !keys.is_empty() {
                        blink[r].concurrent_search(keys).unwrap();
                    }
                }
            }
            for t in &blink {
                t.flush().unwrap();
            }
            let blink_ms = (blink_io() - before) / 1e3;

            let pio_io = |trees: &[PioBTree]| trees.iter().map(|t| t.io_elapsed_us()).sum::<f64>();
            let before = pio_io(&pio);
            for round in trace.chunks(threads) {
                let mut searches: Vec<Vec<u64>> = vec![Vec::new(); relations];
                for op in round {
                    match *op {
                        TraceOp::Search { relation, key } => searches[relation].push(key),
                        TraceOp::Insert { relation, key, value } => pio[relation].insert(key, value).unwrap(),
                        TraceOp::Delete { relation, key } => pio[relation].delete(key).unwrap(),
                        TraceOp::RangeSearch { relation, lo, hi } => {
                            pio[relation].range_search(lo, hi).unwrap();
                        }
                    }
                }
                for (r, keys) in searches.iter().enumerate() {
                    if !keys.is_empty() {
                        pio[r].multi_search(keys).unwrap();
                    }
                }
            }
            for t in &mut pio {
                t.checkpoint().unwrap();
            }
            let pio_ms = (pio_io(&pio) - before) / 1e3;

            table.row(vec![
                profile.name().into(),
                threads.to_string(),
                us(blink_ms),
                us(pio_ms),
                ratio(blink_ms, pio_ms),
            ]);
        }
    }
    table.finish();
    println!("\nfig13 done.");
}
