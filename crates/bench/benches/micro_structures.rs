//! Micro-benchmarks of the in-memory building blocks (real CPU time, not simulated
//! time): OPQ appends and sorting, node and leaf (de)serialisation, and the shrink
//! operation.
//!
//! The offline build environment has no criterion, so this is a plain
//! `harness = false` timing harness: each case is run for a fixed number of
//! iterations and the mean wall-clock time per iteration is reported as a
//! [`Table`] like every other bench target.

use pio_bench::{scaled, Table};
use pio_btree::{OpEntry, OperationQueue, PioLeaf};
use std::time::Instant;

/// Times `iters` runs of `f` (with a fresh input from `setup` each run) and returns
/// the mean per-iteration time in nanoseconds. The closure's result is passed
/// through `std::hint::black_box` so the optimiser cannot discard the work. Use
/// only for cases that genuinely need a fresh input per run — the per-iteration
/// timer pair is itself tens of nanoseconds of overhead.
fn time_batched<T, R>(iters: usize, mut setup: impl FnMut() -> T, mut f: impl FnMut(T) -> R) -> f64 {
    // One warm-up run outside the measurement.
    std::hint::black_box(f(setup()));
    let mut total_ns = 0u128;
    for _ in 0..iters {
        let input = setup();
        let start = Instant::now();
        let out = f(input);
        total_ns += start.elapsed().as_nanos();
        std::hint::black_box(out);
    }
    total_ns as f64 / iters as f64
}

/// Times `iters` back-to-back runs of `f` under a single timer and returns the mean
/// per-iteration time in nanoseconds — for nanosecond-scale cases where a timer
/// read per iteration would dominate the measurement.
fn time_loop<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let iters = scaled(20).max(5);
    let mut table = Table::new(
        "micro",
        "CPU micro-benchmarks of the in-memory structures (mean ns/iteration)",
        &["case", "ns"],
    );

    // --- OPQ ---------------------------------------------------------------------
    let ns = time_batched(
        iters,
        || OperationQueue::with_capacity(100_000, 5_000),
        |mut q| {
            for i in 0..10_000u64 {
                q.append(OpEntry::insert((i * 2_654_435_761) % 1_000_003, i));
            }
            q
        },
    );
    table.row(vec!["opq_append_10k_speriod_5000".into(), format!("{ns:.0}")]);

    let mut q = OperationQueue::with_capacity(100_000, 1_000);
    for i in 0..50_000u64 {
        q.append(OpEntry::insert(i * 3, i));
    }
    q.sort_and_merge();
    let ns = time_loop(iters * 100, || q.lookup(std::hint::black_box(75_000)));
    table.row(vec!["opq_lookup_hit".into(), format!("{ns:.0}")]);

    // --- Node codecs -------------------------------------------------------------
    let internal = btree::InternalNode {
        keys: (0..200u64).collect(),
        children: (0..201u64).collect(),
    };
    let ns = time_loop(iters * 10, || internal.encode(4096));
    table.row(vec!["internal_encode_4k".into(), format!("{ns:.0}")]);
    let image = internal.encode(4096);
    let ns = time_loop(iters * 10, || btree::Node::decode(0, &image));
    table.row(vec!["internal_decode_4k".into(), format!("{ns:.0}")]);

    // --- PIO leaf codecs and shrink ----------------------------------------------
    let mut leaf = PioLeaf::new(4);
    leaf.append(&(0..300u64).map(|i| OpEntry::insert(i, i)).collect::<Vec<_>>());
    let ns = time_loop(iters * 10, || leaf.encode(2048));
    table.row(vec!["pio_leaf_encode_4x2k".into(), format!("{ns:.0}")]);
    let leaf_image = leaf.encode(2048);
    let ns = time_loop(iters * 10, || PioLeaf::decode(0, &leaf_image, 4, 2048));
    table.row(vec!["pio_leaf_decode_4x2k".into(), format!("{ns:.0}")]);

    let ns = time_batched(
        iters,
        || {
            let mut l = PioLeaf::new(4);
            l.append(
                &(0..300u64)
                    .map(|i| {
                        if i % 3 == 0 {
                            OpEntry::delete(i / 3)
                        } else {
                            OpEntry::insert(i, i)
                        }
                    })
                    .collect::<Vec<_>>(),
            );
            l
        },
        |mut l| {
            l.shrink();
            l
        },
    );
    table.row(vec!["pio_leaf_shrink".into(), format!("{ns:.0}")]);

    table.finish();
    println!("\nmicro_structures done.");
}
