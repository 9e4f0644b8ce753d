//! Figure 4 (a, b, c): psync I/O versus "parallel processing" (one thread per
//! outstanding I/O).
//!
//! * (a) mixed read/write bandwidth in a **shared file**: the per-file POSIX
//!   write-ordering lock serialises the threads' synchronous writes, so psync I/O
//!   wins clearly;
//! * (b) the same workload with **separate files** per thread: both methods perform
//!   alike;
//! * (c) context switches for 1 M (scaled) 4 KiB reads: thread-per-I/O pays an order
//!   of magnitude more switches than psync I/O.
//!
//! Each round of (a) and (b) is a read/write mix. The threads serve it in its
//! interleaved order. psync I/O issues its reads as one batch and then its writes
//! as another (Principle 3: group reads apart from writes), so a psync round
//! costs one read batch plus one write batch.

use pio::{Discipline, FileLayout, IoQueue, ReadRequest, SimPsyncIo, WriteRequest};
use pio_bench::{mib, scaled, Table};
use ssd_sim::{DeviceProfile, SsdRequest};

const CAP: u64 = 8 << 30;

/// Builds the Figure-4 mixed workload: an even read/write split with random offsets
/// in a 4 GiB file, `outstd` requests per round.
fn mixed_rounds(outstd: usize, rounds: usize, seed: u64) -> Vec<Vec<SsdRequest>> {
    let mut state = seed.max(1);
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..rounds)
        .map(|_| {
            (0..outstd)
                .map(|i| {
                    let offset = (rand() % ((4u64 << 30) / 4096)) * 4096;
                    if i % 2 == 0 {
                        SsdRequest::read(offset, 4096)
                    } else {
                        SsdRequest::write(offset, 4096)
                    }
                })
                .collect()
        })
        .collect()
}

fn bandwidth_for(profile: DeviceProfile, outstd: usize, rounds: usize, layout: Option<FileLayout>) -> f64 {
    let workload = mixed_rounds(outstd, rounds, 0xF1604 ^ outstd as u64);
    let total_bytes = workload.iter().map(|round| round.len() as u64 * 4096).sum::<u64>();
    let total_us = match layout {
        None => {
            let io = SimPsyncIo::with_profile(profile, CAP);
            let payload = [0u8; 4096];
            let mut total_us = 0.0;
            for round in &workload {
                let reads: Vec<ReadRequest> = round
                    .iter()
                    .filter(|r| r.kind.is_read())
                    .map(|r| ReadRequest::new(r.offset, r.len as usize))
                    .collect();
                let writes: Vec<WriteRequest> = round
                    .iter()
                    .filter(|r| r.kind.is_write())
                    .map(|r| WriteRequest::new(r.offset, &payload[..r.len as usize]))
                    .collect();
                let (_, read) = io.psync_read(&reads).expect("in-bounds");
                let write = io.psync_write(&writes).expect("in-bounds");
                total_us += read.elapsed_us + write.elapsed_us;
            }
            total_us
        }
        Some(layout) => {
            let io = SimPsyncIo::new(profile.build(), CAP, Discipline::Threads(layout));
            for round in &workload {
                io.serve_interleaved(round);
            }
            // Each round starts where the last one left the clock, which
            // started at zero: the clock is the rounds' summed time.
            io.device_time_us()
        }
    };
    (total_bytes as f64 / (1024.0 * 1024.0)) / (total_us / 1e6)
}

fn main() {
    let levels = [2usize, 4, 8, 16, 32, 64, 128, 256];
    let rounds = scaled(30);
    let trio = DeviceProfile::experiment_trio();

    // Parts (a) and (b).
    for (suffix, layout, title) in [
        ("a", FileLayout::SharedFile, "shared file"),
        ("b", FileLayout::SeparateFiles, "separate files"),
    ] {
        let mut headers = vec!["outstd".to_string()];
        for p in &trio {
            headers.push(format!("{} psync", p.name()));
            headers.push(format!("{} thread", p.name()));
        }
        let mut table = Table::new(
            &format!("fig04{suffix}"),
            &format!("Figure 4({suffix}): psync vs thread-per-I/O bandwidth (MiB/s), {title}"),
            &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        let mut psync_curves = Vec::new();
        let mut thread_curves = Vec::new();
        for profile in &trio {
            psync_curves.push(
                levels
                    .iter()
                    .map(|&l| bandwidth_for(*profile, l, rounds, None))
                    .collect::<Vec<_>>(),
            );
            thread_curves.push(
                levels
                    .iter()
                    .map(|&l| bandwidth_for(*profile, l, rounds, Some(layout)))
                    .collect::<Vec<_>>(),
            );
        }
        for (i, &lvl) in levels.iter().enumerate() {
            let mut row = vec![lvl.to_string()];
            for d in 0..trio.len() {
                row.push(mib(psync_curves[d][i]));
                row.push(mib(thread_curves[d][i]));
            }
            table.row(row);
        }
        table.finish();
        for (d, profile) in trio.iter().enumerate() {
            let p = psync_curves[d][5];
            let t = thread_curves[d][5];
            println!(
                "  {} at OutStd 64: psync {:.1} MiB/s vs threads {:.1} MiB/s",
                profile.name(),
                p,
                t
            );
            match layout {
                FileLayout::SharedFile => assert!(p > t, "psync must win in a shared file on {}", profile.name()),
                FileLayout::SeparateFiles => assert!(
                    (p / t) < 1.5 && (t / p) < 1.5,
                    "psync and threads must be comparable with separate files on {}",
                    profile.name()
                ),
            }
        }
    }

    // Part (c): context switches for a large read-only workload.
    let total_reads = scaled(100_000);
    let mut table = Table::new(
        "fig04c",
        "Figure 4(c): context switches vs outstanding I/O level (scaled 4 KiB read workload)",
        &["outstd", "psync", "parallel_processing"],
    );
    for &outstd in &[1usize, 2, 4, 8, 16, 32] {
        let psync = SimPsyncIo::with_profile(DeviceProfile::P300, CAP);
        let threaded = SimPsyncIo::new(
            DeviceProfile::P300.build(),
            CAP,
            Discipline::Threads(FileLayout::SharedFile),
        );
        let rounds = total_reads / outstd;
        for r in 0..rounds {
            let reqs: Vec<ReadRequest> = (0..outstd)
                .map(|i| ReadRequest::new(((r * outstd + i) as u64 * 4096) % CAP, 4096))
                .collect();
            psync.psync_read(&reqs).unwrap();
            threaded.psync_read(&reqs).unwrap();
        }
        table.row(vec![
            outstd.to_string(),
            psync.io_stats().context_switches.to_string(),
            threaded.io_stats().context_switches.to_string(),
        ]);
        if outstd == 32 {
            assert!(
                threaded.io_stats().context_switches >= 10 * psync.io_stats().context_switches,
                "threads must pay an order of magnitude more context switches at OutStd 32"
            );
        }
    }
    table.finish();
    println!("\nfig04 done.");
}
