//! Submission/completion I/O in action: two shards' batches overlapped on ONE
//! shared simulated device, driven by a single thread.
//!
//! The sharded engine gives every shard its own simulated device (the paper's
//! Figure 4(b) separate-files layout). This demo shows the other deployment the
//! `IoQueue` redesign enables: both shards submit to the *same* device, their
//! batches share one scheduling window with a common start time (Figure 4(a)'s
//! shared host interface), and one driver thread reaps completions as they land —
//! no blocking calls, no thread per shard.
//!
//! ```sh
//! cargo run --release --example io_queue_demo
//! ```

use pio::{IoQueue, ReadRequest, SimPsyncIo, TryComplete, WriteRequest};
use ssd_sim::DeviceProfile;

const BATCH: usize = 16;
const PAGE: usize = 4096;
/// Byte offset where shard B's pages live on the shared device.
const SHARD_B_BASE: u64 = 512 * 1024 * 1024;

fn shard_reads(base: u64) -> Vec<ReadRequest> {
    (0..BATCH as u64)
        .map(|i| ReadRequest::new(base + i * PAGE as u64, PAGE))
        .collect()
}

fn main() {
    // One shared device; both shards' data lives on it.
    let device = SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30);
    for (shard, base) in [(b'A', 0u64), (b'B', SHARD_B_BASE)] {
        let writes: Vec<(u64, Vec<u8>)> = (0..BATCH as u64)
            .map(|i| (base + i * PAGE as u64, vec![shard; PAGE]))
            .collect();
        let reqs: Vec<WriteRequest> = writes.iter().map(|(o, d)| WriteRequest::new(*o, d)).collect();
        device.psync_write(&reqs).expect("load shard data");
    }
    let loaded_us = device.device_time_us();

    // --- The event-driven part: submit both shards' batches, then reap. --------
    let ticket_a = device.submit_read(&shard_reads(0)).expect("submit shard A");
    let ticket_b = device.submit_read(&shard_reads(SHARD_B_BASE)).expect("submit shard B");
    println!(
        "submitted: shard A ticket #{}, shard B ticket #{} (both in flight)",
        ticket_a.id(),
        ticket_b.id()
    );

    // Poll both tickets from this one thread; the simulator reports them ready in
    // landing order, exactly like reaping an io_uring / io_getevents queue.
    let mut outstanding = vec![(b'A', ticket_a), (b'B', ticket_b)];
    let mut latencies = Vec::new();
    while !outstanding.is_empty() {
        let mut still_pending = Vec::new();
        for (shard, ticket) in outstanding {
            match device.try_complete(ticket).expect("poll") {
                TryComplete::Ready(done) => {
                    assert!(done.buffers.iter().all(|b| b.iter().all(|&byte| byte == shard)));
                    println!(
                        "  reaped shard {}: {} pages, latency {:.1} µs (from the shared window start)",
                        shard as char,
                        done.buffers.len(),
                        done.stats.elapsed_us
                    );
                    latencies.push(done.stats.elapsed_us);
                }
                TryComplete::Pending(t) => still_pending.push((shard, t)),
            }
        }
        outstanding = still_pending;
    }
    let overlapped_us = device.device_time_us() - loaded_us;

    // --- The same work, submitted strictly one batch after the other. ----------
    let serial_device = SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30);
    let mut serial_us = 0.0;
    for base in [0, SHARD_B_BASE] {
        let (_, stats) = serial_device.psync_read(&shard_reads(base)).expect("serial read");
        serial_us += stats.elapsed_us;
    }

    // --- And what a lone shard pays when it has the device to itself. ----------
    let lone_device = SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30);
    let (_, lone) = lone_device.psync_read(&shard_reads(0)).expect("lone read");

    println!("\nshared-device accounting ({} pages per shard):", BATCH);
    println!("  one shard alone            {:>8.1} µs", lone.elapsed_us);
    println!("  both shards, serial        {:>8.1} µs", serial_us);
    println!(
        "  both shards, overlapped    {:>8.1} µs  (group makespan)",
        overlapped_us
    );
    println!(
        "  overlap win                {:>8.2}x  vs serial submission",
        serial_us / overlapped_us
    );
    println!(
        "  contention cost            {:>8.2}x  vs having the device alone",
        overlapped_us / lone.elapsed_us
    );
    assert!(
        overlapped_us < serial_us,
        "the shared window must beat serial submission"
    );
    assert!(
        overlapped_us > lone.elapsed_us,
        "two shards on one device must contend (shared channels + host interface)"
    );
    println!("\nio_queue_demo done.");
}
