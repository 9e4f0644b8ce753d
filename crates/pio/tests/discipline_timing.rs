//! Pins the simulated timing of every host discipline.
//!
//! A fixed script of submissions runs through psync I/O, synchronous I/O and
//! thread-per-I/O (shared file and separate files) on the P300 and F120
//! profiles. Every completion's `elapsed_us` and the device clock at the end
//! must equal the values below bit for bit, so any change to how a discipline
//! turns a submission into device time shows up here as one diff.

use pio::{Discipline, FileLayout, IoQueue, ReadRequest, SimPsyncIo, WriteRequest};
use ssd_sim::{DeviceProfile, SsdRequest};

const CAP: u64 = 64 << 20;
const PROFILES: [DeviceProfile; 2] = [DeviceProfile::P300, DeviceProfile::F120];

/// Request `i` of a batch based at `base`: 2, 4 or 8 KiB, every other one off
/// a flash-page boundary.
fn shape(base: u64, i: u64) -> (u64, usize) {
    (base + i * 24_576 + (i % 2) * 512, 2048 << (i % 3))
}

fn payloads(base: u64, n: u64) -> Vec<(u64, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let (offset, len) = shape(base, i);
            (offset, vec![i as u8 + 1; len])
        })
        .collect()
}

fn submit_writes(io: &dyn IoQueue, payloads: &[(u64, Vec<u8>)]) -> pio::Ticket {
    let reqs: Vec<WriteRequest> = payloads.iter().map(|(o, d)| WriteRequest::new(*o, d)).collect();
    io.submit_write(&reqs).unwrap()
}

fn submit_reads(io: &dyn IoQueue, base: u64, n: u64) -> pio::Ticket {
    let reqs: Vec<ReadRequest> = (0..n)
        .map(|i| {
            let (offset, len) = shape(base, i);
            ReadRequest::new(offset, len)
        })
        .collect();
    io.submit_read(&reqs).unwrap()
}

/// The `elapsed_us` of a write batch submitted and waited alone.
fn write_batch(io: &dyn IoQueue, base: u64, n: u64) -> f64 {
    let ticket = submit_writes(io, &payloads(base, n));
    io.wait(ticket).unwrap().stats.elapsed_us
}

/// The `elapsed_us` of a read batch submitted and waited alone.
fn read_batch(io: &dyn IoQueue, base: u64, n: u64) -> f64 {
    let ticket = submit_reads(io, base, n);
    io.wait(ticket).unwrap().stats.elapsed_us
}

/// Figure 4's mixed round: 4 KiB reads and writes alternating, scattered.
fn mixed_round() -> Vec<SsdRequest> {
    (0..24u64)
        .map(|i| {
            let offset = (i * 7_919 % 64) * 36_864;
            if i % 2 == 0 {
                SsdRequest::read(offset, 4096)
            } else {
                SsdRequest::write(offset, 4096)
            }
        })
        .collect()
}

fn assert_pinned(discipline: &str, profile: DeviceProfile, observed: &[f64], pinned: &[f64]) {
    assert_eq!(observed, pinned, "{discipline} on {}", profile.name());
}

#[test]
fn psync_timing_is_pinned() {
    let pinned: [&[f64]; 2] = [
        &[588.48, 338.24, 669.2, 260.24, 1595.92],
        &[
            831.8400000000005,
            407.9200000000018,
            938.3199999999995,
            314.3200000000011,
            2178.0800000000017,
        ],
    ];
    for (profile, pinned) in PROFILES.into_iter().zip(pinned) {
        let io = SimPsyncIo::with_profile(profile, CAP);
        let mut observed = vec![write_batch(&io, 0, 10), read_batch(&io, 0, 14)];
        // Two tickets in flight together, reaped out of submission order.
        let reads = submit_reads(&io, 1 << 20, 9);
        let writes = submit_writes(&io, &payloads(2 << 20, 7));
        observed.push(io.wait(writes).unwrap().stats.elapsed_us);
        observed.push(io.wait(reads).unwrap().stats.elapsed_us);
        observed.push(io.device_time_us());
        assert_pinned("psync", profile, &observed, pinned);
    }
}

#[test]
fn sync_timing_is_pinned() {
    let pinned: [&[f64]; 2] = [
        &[1142.16, 1533.1999999999996, 2675.3599999999997],
        &[1388.8800000000008, 2147.999999999998, 3536.879999999999],
    ];
    for (profile, pinned) in PROFILES.into_iter().zip(pinned) {
        let io = SimPsyncIo::new(profile.build(), CAP, Discipline::Sync);
        let observed = [read_batch(&io, 0, 9), write_batch(&io, 1 << 20, 5), io.device_time_us()];
        assert_pinned("sync", profile, &observed, pinned);
    }
}

/// A write batch, then a mixed round that starts where the batch left the
/// device clock.
fn threads_script(layout: FileLayout, pinned: [&[f64]; 2]) {
    for (profile, pinned) in PROFILES.into_iter().zip(pinned) {
        let io = SimPsyncIo::new(profile.build(), CAP, Discipline::Threads(layout));
        let write = write_batch(&io, 0, 6);
        io.serve_interleaved(&mixed_round());
        assert_pinned("threads", profile, &[write, io.device_time_us()], pinned);
    }
}

#[test]
fn threads_shared_file_timing_is_pinned() {
    threads_script(
        FileLayout::SharedFile,
        [&[1855.44, 6973.199999999995], &[2596.3199999999993, 9501.599999999995]],
    );
}

#[test]
fn threads_separate_files_timing_is_pinned() {
    threads_script(
        FileLayout::SeparateFiles,
        [&[528.48, 1096.72], &[759.84, 1503.3600000000022]],
    );
}
