//! Integration: the submission/completion redesign of the I/O layer.
//!
//! * **Equivalence property**: on every simulated backend, `submit_*` followed by
//!   an immediate `wait` is observably identical to the blocking
//!   `psync_read`/`psync_write` calls (which are now a shim over exactly that
//!   pair) — same buffers, same per-batch [`pio::BatchStats`], same cumulative
//!   [`pio::IoStats`]. Randomised request batches, seeded and deterministic.
//! * **Overlap semantics**: tickets submitted while others are in flight share a
//!   scheduling window with a common start time, so the group's makespan beats
//!   strictly serial submission, and completions can be reaped in any order,
//!   each keeping its own latency.
//! * **Pipeline equivalence**: the tree's depth-N ticket pipelines
//!   (`locate_leaves`, `multi_search`, `range_search`) return exactly the
//!   blocking (depth-1) results — same values, same request counts — at any
//!   depth, on every simulated backend; only the timing moves.
//! * **Drain discipline**: when a backend dies mid-pipeline (random read or
//!   write submission indices via `pio::fault`), every in-flight ticket is
//!   reaped before the error surfaces — nothing is left in flight — and the
//!   tree stays consistent and usable.

use pio::{
    CrashPlan, Discipline, FaultClock, FaultIo, FileLayout, IoQueue, PartitionIo, ReadRequest, SimPsyncIo, WriteRequest,
};
use pio_btree::mpsearch::{locate_leaves, Descent};
use pio_btree::{PioBTree, PioConfig, PipelineDepth};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssd_sim::DeviceProfile;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use storage::{CachedStore, PageStore, WritePolicy};

const CAPACITY: u64 = 64 * 1024 * 1024;

/// `(offset, payload)` write descriptors of one randomised round.
type WriteSpec = Vec<(u64, Vec<u8>)>;
/// `(offset, len)` read descriptors of one randomised round.
type ReadSpec = Vec<(u64, usize)>;

/// One randomised round: a write batch and a read batch over the same pages.
fn random_batches(rng: &mut StdRng) -> (WriteSpec, ReadSpec) {
    let n = rng.gen_range(1..24usize);
    let writes: Vec<(u64, Vec<u8>)> = (0..n)
        .map(|_| {
            let page = rng.gen_range(0..(CAPACITY / 8192)) * 8192;
            let len = 512usize << rng.gen_range(0..4u32); // 512..4096
            let fill = rng.gen_range(1..256u64) as u8;
            (page, vec![fill; len])
        })
        .collect();
    let reads: Vec<(u64, usize)> = writes.iter().map(|(o, d)| (*o, d.len())).collect();
    (writes, reads)
}

/// Drives two identical backends — one through the blocking psync shim, one
/// through explicit submit+wait — and asserts they are observably identical.
fn assert_blocking_equals_ticketed<B: IoQueue>(make: impl Fn() -> B, rounds: usize, seed: u64) {
    let blocking = make();
    let ticketed = make();
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..rounds {
        let (writes, reads) = random_batches(&mut rng);
        let wr: Vec<WriteRequest> = writes.iter().map(|(o, d)| WriteRequest::new(*o, d)).collect();
        let rr: Vec<ReadRequest> = reads.iter().map(|&(o, l)| ReadRequest::new(o, l)).collect();

        let w_blocking = blocking.psync_write(&wr).expect("blocking write");
        let w_ticketed = ticketed
            .wait(ticketed.submit_write(&wr).expect("submit write"))
            .expect("wait write");
        assert_eq!(w_blocking, w_ticketed.stats, "write stats diverged in round {round}");

        let (bufs_blocking, r_blocking) = blocking.psync_read(&rr).expect("blocking read");
        let c = ticketed
            .wait(ticketed.submit_read(&rr).expect("submit read"))
            .expect("wait read");
        assert_eq!(bufs_blocking, c.buffers, "read buffers diverged in round {round}");
        assert_eq!(r_blocking, c.stats, "read stats diverged in round {round}");
    }
    assert_eq!(
        blocking.io_stats(),
        ticketed.io_stats(),
        "cumulative stats diverged after {rounds} rounds"
    );
}

#[test]
fn submit_wait_equals_blocking_on_sim_psync() {
    assert_blocking_equals_ticketed(|| SimPsyncIo::with_profile(DeviceProfile::P300, CAPACITY), 40, 0xA11CE);
}

#[test]
fn submit_wait_equals_blocking_on_sim_sync() {
    assert_blocking_equals_ticketed(
        || SimPsyncIo::new(DeviceProfile::F120.build(), CAPACITY, Discipline::Sync),
        25,
        0xB0B,
    );
}

#[test]
fn submit_wait_equals_blocking_on_sim_threaded_shared_file() {
    assert_blocking_equals_ticketed(
        || {
            SimPsyncIo::new(
                DeviceProfile::P300.build(),
                CAPACITY,
                Discipline::Threads(FileLayout::SharedFile),
            )
        },
        25,
        0xCAFE,
    );
}

#[test]
fn submit_wait_equals_blocking_on_sim_threaded_separate_files() {
    assert_blocking_equals_ticketed(
        || {
            SimPsyncIo::new(
                DeviceProfile::P300.build(),
                CAPACITY,
                Discipline::Threads(FileLayout::SeparateFiles),
            )
        },
        25,
        0xD00D,
    );
}

/// Interleaved tickets: data stays correct when several batches are in flight and
/// completions are reaped out of submission order.
#[test]
fn interleaved_tickets_return_correct_buffers() {
    let io = SimPsyncIo::with_profile(DeviceProfile::P300, CAPACITY);
    let mut rng = StdRng::seed_from_u64(7);
    // Three disjoint page sets, written up front.
    let sets: Vec<Vec<(u64, Vec<u8>)>> = (0..3u64)
        .map(|set| {
            (0..16u64)
                .map(|i| {
                    let offset = (set * 1_000 + i) * 8192;
                    (offset, vec![rng.gen_range(1..256u64) as u8; 4096])
                })
                .collect()
        })
        .collect();
    for set in &sets {
        let wr: Vec<WriteRequest> = set.iter().map(|(o, d)| WriteRequest::new(*o, d)).collect();
        io.psync_write(&wr).unwrap();
    }
    // Submit all three read batches before reaping any, then reap in reverse.
    let tickets: Vec<_> = sets
        .iter()
        .map(|set| {
            let rr: Vec<ReadRequest> = set.iter().map(|(o, d)| ReadRequest::new(*o, d.len())).collect();
            io.submit_read(&rr).unwrap()
        })
        .collect();
    for (set, ticket) in sets.iter().zip(tickets).rev() {
        let done = io.wait(ticket).unwrap();
        for ((_, expected), got) in set.iter().zip(&done.buffers) {
            assert_eq!(&expected[..], &got[..]);
        }
    }
}

/// The shared-window contention model: N batches submitted together cost less
/// device time than the same N batches submitted strictly one after the other,
/// but more than a single batch (contention is not free).
#[test]
fn overlapped_submission_beats_serial_submission() {
    // 8 requests per batch: three batches fit in one NCQ window (depth 32), so
    // the shared window can genuinely overlap them. Full-depth batches would fill
    // whole windows on their own and serialise window after window.
    let reqs = |base: u64| -> Vec<ReadRequest> { (0..8).map(|i| ReadRequest::new(base + i * 4096, 4096)).collect() };

    let overlapped = SimPsyncIo::with_profile(DeviceProfile::P300, CAPACITY);
    let t1 = overlapped.submit_read(&reqs(0)).unwrap();
    let t2 = overlapped.submit_read(&reqs(1 << 20)).unwrap();
    let t3 = overlapped.submit_read(&reqs(2 << 20)).unwrap();
    for t in [t1, t2, t3] {
        overlapped.wait(t).unwrap();
    }
    let window_us = overlapped.device_time_us();

    let serial = SimPsyncIo::with_profile(DeviceProfile::P300, CAPACITY);
    for base in [0u64, 1 << 20, 2 << 20] {
        let t = serial.submit_read(&reqs(base)).unwrap();
        serial.wait(t).unwrap();
    }
    let serial_us = serial.device_time_us();

    let single = SimPsyncIo::with_profile(DeviceProfile::P300, CAPACITY);
    let t = single.submit_read(&reqs(0)).unwrap();
    single.wait(t).unwrap();
    let single_us = single.device_time_us();

    assert!(
        window_us < serial_us,
        "overlap must beat serial: window {window_us} vs serial {serial_us}"
    );
    assert!(
        window_us > single_us,
        "contention is not free: window {window_us} vs single batch {single_us}"
    );
}

// ---------------------------------------------------------------------------
// Pipeline equivalence: depth-N ticket pipelines ≡ the blocking descent.
// ---------------------------------------------------------------------------

/// Builds a PIO B-tree over `io` with the given pipeline depth (small pages and
/// `PioMax` so a modest tree spans several levels and many chunks per call).
fn pipeline_tree(io: Arc<dyn IoQueue>, depth: PipelineDepth, entries: &[(u64, u64)]) -> PioBTree {
    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(2)
        .pio_max(4)
        .speriod(64)
        .bcnt(128)
        .pool_pages(512)
        .pipeline_depth(depth)
        .build();
    let store = Arc::new(CachedStore::new(
        PageStore::new(io, config.page_size),
        config.pool_pages,
        WritePolicy::WriteThrough,
    ));
    PioBTree::bulk_load(store, entries, config).expect("bulk load")
}

/// A named backend constructor of the equivalence sweep.
type BackendMaker = (&'static str, Box<dyn Fn() -> Arc<dyn IoQueue>>);

/// Pipelined `locate_leaves`/`multi_search`/`range_search` at random depths must
/// return exactly the blocking (depth-1) results — values, located leaves — and
/// send the device exactly the same requests: equal reads, read bytes,
/// batches, writes and write bytes, on every simulated backend. Every psync
/// call names distinct pieces, so no page is fetched twice while a read of it
/// is in flight. Depths and key sets come from `CRASH_SEED` (default
/// `0xDEE9`).
#[test]
fn pipelined_tree_paths_match_blocking_on_all_sim_backends() {
    let entries: Vec<(u64, u64)> = (0..6_000u64).map(|k| (k * 5, k)).collect();
    let backends: Vec<BackendMaker> = vec![
        (
            "psync",
            Box::new(|| Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, CAPACITY)) as Arc<dyn IoQueue>),
        ),
        (
            "sync",
            Box::new(|| {
                Arc::new(SimPsyncIo::new(DeviceProfile::F120.build(), CAPACITY, Discipline::Sync)) as Arc<dyn IoQueue>
            }),
        ),
        (
            "threaded-shared",
            Box::new(|| {
                Arc::new(SimPsyncIo::new(
                    DeviceProfile::P300.build(),
                    CAPACITY,
                    Discipline::Threads(FileLayout::SharedFile),
                )) as Arc<dyn IoQueue>
            }),
        ),
        (
            "threaded-separate",
            Box::new(|| {
                Arc::new(SimPsyncIo::new(
                    DeviceProfile::P300.build(),
                    CAPACITY,
                    Discipline::Threads(FileLayout::SeparateFiles),
                )) as Arc<dyn IoQueue>
            }),
        ),
    ];
    let seed: u64 = std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDEE9);
    let mut rng = StdRng::seed_from_u64(seed);
    for (name, make) in &backends {
        let blocking_io = make();
        let pipelined_io = make();
        let mut blocking = pipeline_tree(Arc::clone(&blocking_io), PipelineDepth::Fixed(1), &entries);
        let depth = rng.gen_range(2..9usize);
        let mut pipelined = pipeline_tree(Arc::clone(&pipelined_io), PipelineDepth::Fixed(depth), &entries);
        assert_eq!(pipelined.pipeline_depth(), depth);
        blocking_io.reset_io_stats();
        pipelined_io.reset_io_stats();

        for round in 0..12 {
            let keys: Vec<u64> = (0..rng.gen_range(1..200usize))
                .map(|_| rng.gen_range(0..35_000u64))
                .collect();
            assert_eq!(
                blocking.multi_search(&keys).unwrap(),
                pipelined.multi_search(&keys).unwrap(),
                "CRASH_SEED={seed} {name}: multi_search diverged at depth {depth} in round {round}"
            );
            let lo = rng.gen_range(0..30_000u64);
            let hi = lo + rng.gen_range(1..4_000u64);
            assert_eq!(
                blocking.range_search(lo, hi).unwrap(),
                pipelined.range_search(lo, hi).unwrap(),
                "CRASH_SEED={seed} {name}: range_search diverged at depth {depth} in round {round}"
            );
        }
        // The descent itself, compared directly (sorted keys, cold-ish pool not
        // required: both trees share the same cache behaviour).
        let keys: Vec<u64> = (0..500u64).map(|i| i * 59 % 35_000).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let (mut a, mut b) = (Descent::default(), Descent::default());
        let a_whole = locate_leaves(
            blocking.store(),
            blocking.root_page(),
            blocking.height() - 1,
            &sorted,
            4,
            1,
            &mut a,
        )
        .unwrap();
        let b_whole = locate_leaves(
            pipelined.store(),
            pipelined.root_page(),
            pipelined.height() - 1,
            &sorted,
            4,
            depth,
            &mut b,
        )
        .unwrap();
        assert_eq!(
            (a, a_whole),
            (b, b_whole),
            "CRASH_SEED={seed} {name}: locate_leaves diverged at depth {depth}"
        );
        let (b, p) = (blocking_io.io_stats(), pipelined_io.io_stats());
        assert_eq!(
            (b.reads, b.read_bytes, b.batches, b.writes, b.write_bytes),
            (p.reads, p.read_bytes, p.batches, p.writes, p.write_bytes),
            "CRASH_SEED={seed} {name} at depth {depth}: {b:?} vs {p:?}"
        );
    }
}

/// Counts the tickets in flight (submitted − reaped) on the way to the wrapped
/// queue, and the read requests among them with their high-water mark.
struct DepthProbe {
    inner: Arc<dyn IoQueue>,
    /// Ticket id → its read requests (0 for a write).
    per_ticket: Mutex<HashMap<u64, usize>>,
    reads: Mutex<(usize, usize)>, // (current, max)
}

impl DepthProbe {
    fn new(inner: Arc<dyn IoQueue>) -> Self {
        Self {
            inner,
            per_ticket: Mutex::default(),
            reads: Mutex::default(),
        }
    }

    fn track(&self, ticket: pio::IoResult<pio::Ticket>, reads: usize) -> pio::IoResult<pio::Ticket> {
        let ticket = ticket?;
        if !ticket.is_empty_batch() {
            self.per_ticket.lock().unwrap().insert(ticket.id(), reads);
            let mut r = self.reads.lock().unwrap();
            r.0 += reads;
            r.1 = r.1.max(r.0);
        }
        Ok(ticket)
    }

    fn untrack(&self, id: u64) {
        if let Some(n) = self.per_ticket.lock().unwrap().remove(&id) {
            self.reads.lock().unwrap().0 -= n;
        }
    }

    fn max_outstanding_reads(&self) -> usize {
        self.reads.lock().unwrap().1
    }

    fn tickets_in_flight(&self) -> usize {
        self.per_ticket.lock().unwrap().len()
    }
}

impl IoQueue for DepthProbe {
    fn submit_read(&self, reqs: &[ReadRequest]) -> pio::IoResult<pio::Ticket> {
        self.track(self.inner.submit_read(reqs), reqs.len())
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> pio::IoResult<pio::Ticket> {
        self.track(self.inner.submit_write(reqs), 0)
    }

    fn wait(&self, ticket: pio::Ticket) -> pio::IoResult<pio::Completion> {
        let id = ticket.id();
        let done = self.inner.wait(ticket);
        self.untrack(id);
        done
    }

    fn io_stats(&self) -> pio::IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }

    fn queue_depth_hint(&self) -> Option<usize> {
        self.inner.queue_depth_hint()
    }
}

/// The acceptance property of the pipelined descent: the blocking descent's
/// psync calls, overlapped (fewer idle-start groups — blocking waits — than
/// the blocking baseline), while never holding more than
/// `PioMax · (treeHeight − 1)` node reads in flight, whatever the configured
/// depth.
#[test]
fn pipelined_locate_leaves_overlaps_within_the_paper_buffer_bound() {
    // Small pages → a tall tree (≥ 2 internal levels) from a modest load. A
    // one-page pool keeps every descent read on the device, so the group/batch
    // accounting is free of cache interplay.
    let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, CAPACITY));
    let probe = Arc::new(DepthProbe::new(sim));
    let config = PioConfig::builder()
        .page_size(256)
        .leaf_segments(2)
        .opq_pages(2)
        .pio_max(4)
        .speriod(64)
        .bcnt(128)
        .pool_pages(1)
        // Far deeper than the level count: the descent must cap it.
        .pipeline_depth(PipelineDepth::Fixed(64))
        .build();
    let store = Arc::new(CachedStore::new(
        PageStore::new(Arc::clone(&probe) as Arc<dyn IoQueue>, config.page_size),
        config.pool_pages,
        WritePolicy::WriteThrough,
    ));
    let entries: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k * 3, k)).collect();
    let pio_max = config.pio_max;
    let tree = PioBTree::bulk_load(store, &entries, config).expect("bulk load");
    let internal_levels = tree.height() - 1;
    assert!(internal_levels >= 2, "the fixture must have at least 2 internal levels");

    let keys: Vec<u64> = (0..2_000u64).map(|i| i * 31 % 60_000).collect();
    let mut sorted = keys;
    sorted.sort_unstable();

    // Blocking baseline: one idle-start group per psync batch.
    let run = |depth: usize| {
        tree.store().drop_cache();
        let before = tree.store().store().io().io_stats();
        let mut located = Descent::default();
        let whole = locate_leaves(
            tree.store(),
            tree.root_page(),
            internal_levels,
            &sorted,
            pio_max,
            depth,
            &mut located,
        )
        .unwrap();
        assert!(!whole, "a one-page pool holds no level");
        let after = tree.store().store().io().io_stats();
        (
            located,
            after.batches - before.batches,
            after.reads - before.reads,
            after.overlap_groups - before.overlap_groups,
        )
    };
    let (blocking, blocking_batches, blocking_reads, blocking_groups) = run(1);
    assert_eq!(
        blocking_groups, blocking_batches,
        "psync-per-batch blocks on every batch"
    );

    // Pipelined run: the same result from the same psync calls, strictly
    // fewer blocking waits, bounded buffers.
    let (pipelined, batches, reads, pipelined_groups) = run(64);
    assert_eq!(pipelined, blocking);
    assert_eq!(
        (batches, reads),
        (blocking_batches, blocking_reads),
        "the pipeline submits exactly the blocking run's batches"
    );
    assert!(
        pipelined_groups < blocking_groups,
        "the pipelined descent must block less: {pipelined_groups} groups vs blocking {blocking_groups}"
    );
    assert!(
        probe.max_outstanding_reads() <= pio_max * internal_levels,
        "in-flight node reads ({}) exceed the PioMax · (treeHeight − 1) bound ({})",
        probe.max_outstanding_reads(),
        pio_max * internal_levels
    );
}

// ---------------------------------------------------------------------------
// Drain discipline under injected faults.
// ---------------------------------------------------------------------------

/// Kills the backend at random read/write submission indices mid-pipeline and
/// asserts every in-flight ticket was drained and the tree stays consistent
/// and usable.
#[test]
fn faulted_pipelines_drain_every_inflight_ticket() {
    let clock = FaultClock::new();
    let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, CAPACITY));
    let faulty: Arc<dyn IoQueue> = Arc::new(FaultIo::new(sim, Arc::clone(&clock)));
    let probe = Arc::new(DepthProbe::new(Arc::new(PartitionIo::new(faulty, 0, CAPACITY))));
    let config = PioConfig::builder()
        .page_size(2048)
        .leaf_segments(2)
        .opq_pages(2)
        .pio_max(4)
        .speriod(64)
        .bcnt(128)
        .pool_pages(64) // small pool → the descent really reads
        .pipeline_depth(PipelineDepth::Fixed(6))
        .build();
    let store = Arc::new(CachedStore::new(
        PageStore::new(Arc::clone(&probe) as Arc<dyn IoQueue>, config.page_size),
        config.pool_pages,
        WritePolicy::WriteThrough,
    ));
    let entries: Vec<(u64, u64)> = (0..4_000u64).map(|k| (k * 3, k)).collect();
    let mut tree = PioBTree::bulk_load(store, &entries, config).expect("bulk load");
    assert_eq!(probe.tickets_in_flight(), 0, "bulk load must drain its write ring");

    let probe_keys: Vec<u64> = (0..300u64).map(|i| i * 41 % 12_000).collect();

    // Measure how many read submissions one multi_search costs, to aim inside it.
    tree.store().drop_cache();
    let reads_before = clock.reads_seen();
    tree.multi_search(&probe_keys).unwrap();
    let reads_per_call = clock.reads_seen() - reads_before;
    assert!(reads_per_call > 4, "the workload must span several read submissions");

    let mut rng = StdRng::seed_from_u64(0xFA_07);
    let mut read_failures = 0;
    for _ in 0..25 {
        // Transient kill of a random read submission inside the call.
        let k = rng.gen_range(0..reads_per_call);
        tree.store().drop_cache();
        clock.arm(CrashPlan::at_read(clock.reads_seen() + k).transient());
        let result = tree.multi_search(&probe_keys);
        clock.disarm();
        if result.is_err() {
            read_failures += 1;
        }
        assert_eq!(
            probe.tickets_in_flight(),
            0,
            "a failed multi_search (read {k}) must drain every in-flight ticket"
        );
        // The read path mutates nothing: the tree must answer correctly next.
        assert_eq!(tree.search(3 * 7).unwrap(), Some(7));
    }
    assert!(read_failures > 0, "at least some injected read faults must fire");

    // Write-path kills: fail random write submissions inside a flush. The
    // in-process rollback restores the tree, nothing leaks, and the retry lands.
    let mut write_failures = 0;
    for trial in 0..10u64 {
        for j in 0..200u64 {
            let k = (trial * 211 + j * 7) % 12_000;
            if tree.opq_len() + 1 >= tree.opq_capacity() {
                break;
            }
            tree.update(k * 3 % 12_000, k + 1).unwrap();
        }
        let k = rng.gen_range(0..6);
        clock.arm(CrashPlan::at_write(clock.writes_seen() + k).transient());
        let result = tree.checkpoint();
        clock.disarm();
        if result.is_err() {
            write_failures += 1;
        }
        assert_eq!(
            probe.tickets_in_flight(),
            0,
            "a failed flush (write {k}) must drain every in-flight ticket"
        );
        // Whatever happened, the retry must land the whole queue durably.
        tree.checkpoint().unwrap();
        tree.check_invariants().unwrap();
    }
    assert!(write_failures > 0, "at least some injected write faults must fire");

    // A full (non-transient) kill mid-pipeline: everything drains, and after
    // heal the tree keeps working.
    tree.store().drop_cache();
    clock.arm(CrashPlan::at_read(clock.reads_seen() + 2));
    let err = tree.multi_search(&probe_keys).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(probe.tickets_in_flight(), 0, "halt must not leak tickets");
    clock.heal();
    tree.check_invariants().unwrap();
    // The write trials may have updated key 21: multi_search must agree with
    // point search, whatever the current value is.
    let expected = tree.search(21).unwrap();
    assert_eq!(tree.multi_search(&[21]).unwrap(), vec![expected]);
}

/// Completions can be reaped out of landing order: the big batch, which lands
/// last, is waited on first, and each completion keeps its own latency.
#[test]
fn wait_reaps_out_of_landing_order() {
    let io = SimPsyncIo::with_profile(DeviceProfile::P300, CAPACITY);
    let small = io.submit_read(&[ReadRequest::new(0, 2048)]).unwrap();
    let big: Vec<ReadRequest> = (0..48).map(|i| ReadRequest::new((i + 10) * 4096, 4096)).collect();
    let big = io.submit_read(&big).unwrap();
    let big = io.wait(big).unwrap();
    assert_eq!(big.buffers.len(), 48);
    let small = io.wait(small).unwrap();
    assert_eq!(small.buffers.len(), 1);
    assert!(
        small.stats.elapsed_us < big.stats.elapsed_us,
        "the small batch lands first: {} vs {} µs",
        small.stats.elapsed_us,
        big.stats.elapsed_us
    );
    assert_eq!(
        io.io_stats().elapsed_us,
        big.stats.elapsed_us,
        "the group's makespan is charged once"
    );
}
