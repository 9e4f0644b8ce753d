//! The simulated SSD device: NCQ batch service with channel- and package-level
//! parallelism.

use crate::config::SsdConfig;
use crate::request::{IoKind, SsdRequest};

/// Result of servicing one batch of requests (one or more NCQ windows).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Wall time (simulated µs) between batch submission and completion of the last
    /// request in the batch.
    pub elapsed_us: f64,
    /// Per-request latency (simulated µs) relative to the batch submission instant,
    /// in the same order as the submitted slice.
    pub latencies_us: Vec<f64>,
    /// Total bytes transferred by the batch.
    pub bytes: u64,
}

impl BatchResult {
    /// The maximum per-request latency in µs.
    pub fn max_latency_us(&self) -> f64 {
        self.latencies_us.iter().cloned().fold(0.0, f64::max)
    }
}

/// Per-resource state tracked while servicing a scheduling window.
#[derive(Debug, Clone, Copy, Default)]
struct ChannelState {
    /// Time at which the channel data bus becomes free.
    bus_free_us: f64,
    /// Kind of the last operation that used the bus (for the read/write switch penalty).
    last_kind: Option<IoKind>,
}

/// A discrete-event flash SSD simulator.
///
/// The device keeps a simulated clock in microseconds that only moves forward;
/// every call to [`SsdDevice::submit_batch`] services the batch starting at the
/// current simulated time and advances the clock by the batch's elapsed time.
/// Callers that keep batches in flight schedule them with
/// [`SsdDevice::service_batch_at`] or a [`WindowScheduler`] and move the clock
/// with [`SsdDevice::advance_clock_to`].
#[derive(Debug, Clone)]
pub struct SsdDevice {
    config: SsdConfig,
    now_us: f64,
}

impl SsdDevice {
    /// Creates a device from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`SsdConfig::validate`].
    pub fn new(config: SsdConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SsdConfig: {e}");
        }
        Self { config, now_us: 0.0 }
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Current simulated time in µs.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Advances the simulated clock to `t_us` (a no-op if the clock is already at
    /// or past it). Drivers that schedule in-flight batches with
    /// [`SsdDevice::service_batch_at`] use this to move the timeline past a drained
    /// scheduling window.
    pub fn advance_clock_to(&mut self, t_us: f64) {
        if t_us > self.now_us {
            self.now_us = t_us;
        }
    }

    /// Services `requests` as one submission: the requests are treated as queued
    /// together (split into NCQ windows of `ncq_depth`), the simulated clock advances
    /// by the elapsed time, and per-request latencies are returned.
    ///
    /// An empty batch returns a zero result and does not advance the clock.
    pub fn submit_batch(&mut self, requests: &[SsdRequest]) -> BatchResult {
        let result = self.service_batch_at(self.now_us, requests);
        self.now_us += result.elapsed_us;
        result
    }

    /// Computes the service schedule for a batch starting at simulated time
    /// `start_us`, without touching the device clock. Equivalent to
    /// feeding the batch through a fresh [`WindowScheduler`] (see there for the
    /// timing model).
    pub fn service_batch_at(&self, start_us: f64, requests: &[SsdRequest]) -> BatchResult {
        if requests.is_empty() {
            return BatchResult {
                elapsed_us: 0.0,
                latencies_us: Vec::new(),
                bytes: 0,
            };
        }
        let mut scheduler = self.window_scheduler(start_us);
        let mut latencies = Vec::with_capacity(requests.len());
        let mut bytes = 0u64;
        for req in requests {
            latencies.push(scheduler.push(req) - start_us);
            bytes += req.len;
        }
        BatchResult {
            elapsed_us: scheduler.frontier_us() - start_us,
            latencies_us: latencies,
            bytes,
        }
    }

    /// Creates an incremental scheduler over this device's geometry, starting its
    /// first NCQ window at `start_us`. Drivers that keep a long-lived in-flight
    /// window (ticketed submission) extend it request by request in O(pages) each,
    /// instead of re-running [`SsdDevice::service_batch_at`] over an
    /// ever-growing batch, and [`WindowScheduler::restart`] it for the next
    /// group instead of creating another.
    pub fn window_scheduler(&self, start_us: f64) -> WindowScheduler {
        WindowScheduler::new(self.config.clone(), start_us)
    }
}

/// An incremental, request-by-request scheduler over one device timeline window
/// group.
///
/// The model (identical to what [`SsdDevice::service_batch_at`] computes — that
/// method is implemented on top of this scheduler):
/// * each request is decomposed into flash-page operations placed on
///   `(channel, package)` by the striping layout;
/// * a **read** occupies its package for `cell_read_us`, then the channel bus for
///   the page transfer;
/// * a **write** occupies the channel bus for the transfer, then its package for
///   `cell_program_us` (the bus is released during programming — the
///   write-interleaving effect described in Section 2.1);
/// * consecutive bus operations of different kinds on the same channel pay
///   `rw_switch_penalty_us` (read/write interference, Figure 3(c));
/// * every completed page crosses the shared host interface, which serialises
///   transfers at `host_us_per_kb` and caps aggregate bandwidth;
/// * each request pays `controller_overhead_us` once;
/// * requests beyond `ncq_depth` are serviced in subsequent windows.
///
/// Because requests are scheduled greedily in submission order, pushing more
/// requests never changes the completion time of earlier ones — which is what
/// lets ticketed backends keep a window open while completions are reaped.
///
/// A driver that opens one window group after another keeps one scheduler and
/// [`WindowScheduler::restart`]s it at each group's start: the restarted
/// scheduler is exactly what [`WindowScheduler::new`] returns, and it reuses
/// its buffers instead of allocating them again.
#[derive(Debug, Clone)]
pub struct WindowScheduler {
    config: SsdConfig,
    channels: Vec<ChannelState>,
    /// Per-package free time, channel-major: package `pk` of channel `ch` is
    /// entry `ch * packages_per_channel + pk`.
    packages: Vec<f64>,
    host_free_us: f64,
    /// Start of the *current* NCQ window (advances as windows fill).
    window_start_us: f64,
    /// Completion frontier: when the latest-finishing request ends.
    window_end_us: f64,
    /// Requests scheduled into the current NCQ window so far.
    in_window: usize,
}

impl WindowScheduler {
    /// Creates a scheduler for `config`'s geometry whose first window starts at
    /// `start_us`.
    pub fn new(config: SsdConfig, start_us: f64) -> Self {
        let mut scheduler = Self {
            channels: vec![ChannelState::default(); config.channels],
            packages: vec![0.0; config.total_packages()],
            config,
            host_free_us: 0.0,
            window_start_us: 0.0,
            window_end_us: 0.0,
            in_window: 0,
        };
        scheduler.restart(start_us);
        scheduler
    }

    /// Forgets everything scheduled so far and starts a new first window at
    /// `start_us`: afterwards the scheduler is exactly what
    /// [`WindowScheduler::new`] returns for its geometry and `start_us`, and
    /// nothing was allocated.
    pub fn restart(&mut self, start_us: f64) {
        self.channels.fill(ChannelState {
            bus_free_us: start_us,
            last_kind: None,
        });
        self.packages.fill(0.0);
        self.host_free_us = start_us;
        self.window_start_us = start_us;
        self.window_end_us = start_us;
        self.in_window = 0;
    }

    /// The completion frontier so far: the absolute time the latest scheduled
    /// request finishes (equals the start time while nothing is scheduled).
    pub fn frontier_us(&self) -> f64 {
        self.window_end_us
    }

    /// Schedules one more request and returns its absolute completion time.
    pub fn push(&mut self, req: &SsdRequest) -> f64 {
        self.push_after(req, f64::NEG_INFINITY)
    }

    /// Schedules one more request that cannot *start* before `floor_us`, and
    /// returns its absolute completion time.
    ///
    /// The floor models submission causality for pipelined drivers: a driver
    /// that reaps a completion and only then submits its next batch cannot have
    /// had that batch queued on the device any earlier — so the batch's requests
    /// must not be scheduled before the observed completion time. A shallow
    /// pipeline therefore keeps the device queue shallow (late floors leave
    /// channels idle), while a deep pipeline pushes its floors into the past and
    /// fills the NCQ window — which is exactly the depth-vs-throughput curve of
    /// Figure 3. Like [`WindowScheduler::push`], pushing never changes the
    /// completion time of an earlier request.
    pub fn push_after(&mut self, req: &SsdRequest, floor_us: f64) -> f64 {
        let cfg = &self.config;
        if self.in_window == cfg.ncq_depth {
            // NCQ window full: the next window begins when this one has drained.
            self.window_start_us = self.window_end_us;
            self.in_window = 0;
        }
        let window_start = self.window_start_us.max(floor_us);
        let first_page = req.offset / cfg.flash_page_bytes;
        let n_pages = cfg.pages_spanned(req.offset, req.len);
        let page_kb = cfg.flash_page_bytes as f64 / 1024.0;
        let mut req_done = window_start;

        for p in 0..n_pages {
            let (ch, pk) = cfg.locate_page(first_page + p);
            let chan = &mut self.channels[ch];
            let pkg = &mut self.packages[ch * cfg.packages_per_channel + pk];
            let pkg_free = *pkg;
            let mut switch = 0.0;
            if let Some(last) = chan.last_kind {
                if last != req.kind {
                    switch = cfg.rw_switch_penalty_us;
                }
            }
            let transfer_us = page_kb * cfg.channel_us_per_kb;
            let flash_done;
            match req.kind {
                IoKind::Read => {
                    // cell read on the package, then bus transfer out.
                    let cell_start = pkg_free.max(window_start);
                    let cell_end = cell_start + cfg.cell_read_us;
                    let bus_start = cell_end.max(chan.bus_free_us) + switch;
                    let bus_end = bus_start + transfer_us;
                    chan.bus_free_us = bus_end;
                    *pkg = bus_end;
                    flash_done = bus_end;
                }
                IoKind::Write => {
                    // bus transfer in, then programming on the package
                    // (bus is free while the package programs).
                    let bus_start = chan.bus_free_us.max(pkg_free).max(window_start) + switch;
                    let bus_end = bus_start + transfer_us;
                    chan.bus_free_us = bus_end;
                    let program_end = bus_end + cfg.cell_program_us;
                    *pkg = program_end;
                    flash_done = program_end;
                }
            }
            chan.last_kind = Some(req.kind);

            // Host interface transfer (serialised across the whole device).
            let host_start = flash_done.max(self.host_free_us);
            let host_end = host_start + page_kb * cfg.host_us_per_kb;
            self.host_free_us = host_end;
            if host_end > req_done {
                req_done = host_end;
            }
        }

        // The controller charges a fixed per-command processing cost on top of
        // the flash and host-interface schedule.
        req_done += cfg.controller_overhead_us;
        if req_done > self.window_end_us {
            self.window_end_us = req_done;
        }
        self.in_window += 1;
        req_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::DeviceProfile;

    fn dev() -> SsdDevice {
        SsdDevice::new(DeviceProfile::P300.build())
    }

    #[test]
    fn empty_batch_is_free() {
        let mut d = dev();
        let r = d.submit_batch(&[]);
        assert_eq!(r.elapsed_us, 0.0);
        assert_eq!(r.bytes, 0);
        assert_eq!(d.now_us(), 0.0);
    }

    #[test]
    fn single_read_latency_is_positive_and_clock_advances() {
        let mut d = dev();
        let r = d.submit_batch(&[SsdRequest::read(0, 4096)]);
        assert!(r.elapsed_us > 0.0);
        assert_eq!(r.latencies_us.len(), 1);
        assert!((d.now_us() - r.elapsed_us).abs() < 1e-9);
        assert_eq!(r.bytes, 4096);
    }

    #[test]
    fn advance_clock_to_only_moves_forward() {
        let mut d = dev();
        d.advance_clock_to(100.0);
        assert_eq!(d.now_us(), 100.0);
        d.advance_clock_to(50.0);
        assert_eq!(d.now_us(), 100.0);
        let r = d.submit_batch(&[SsdRequest::read(0, 4096)]);
        assert_eq!(d.now_us(), 100.0 + r.elapsed_us);
    }

    /// Elapsed time of `reqs` issued one at a time, each its own submission.
    fn serial_us(d: &mut SsdDevice, reqs: &[SsdRequest]) -> f64 {
        reqs.iter()
            .map(|r| d.submit_batch(std::slice::from_ref(r)).elapsed_us)
            .sum()
    }

    #[test]
    fn batched_reads_are_faster_than_serial_reads() {
        let reqs: Vec<SsdRequest> = (0..16).map(|i| SsdRequest::read(i * 4096, 4096)).collect();
        let mut d1 = dev();
        let batched = d1.submit_batch(&reqs);
        let serial = serial_us(&mut dev(), &reqs);
        assert!(
            batched.elapsed_us < serial / 2.0,
            "channel-level parallelism should give a large speedup: batched={} serial={}",
            batched.elapsed_us,
            serial
        );
    }

    #[test]
    fn batched_writes_are_faster_than_serial_writes() {
        let reqs: Vec<SsdRequest> = (0..16).map(|i| SsdRequest::write(i * 4096, 4096)).collect();
        let mut d1 = dev();
        let batched = d1.submit_batch(&reqs);
        let serial = serial_us(&mut dev(), &reqs);
        assert!(batched.elapsed_us < serial / 2.0);
    }

    #[test]
    fn large_request_latency_grows_sublinearly() {
        // Package-level parallelism: doubling the request size must not double the
        // latency (Figure 2 of the paper).
        let mut d = dev();
        let small = d.submit_batch(&[SsdRequest::read(0, 2048)]).elapsed_us;
        let mut d = dev();
        let large = d.submit_batch(&[SsdRequest::read(0, 16 * 1024)]).elapsed_us;
        assert!(
            large < small * 8.0,
            "16 KiB read ({large} µs) should cost much less than 8× a 2 KiB read ({small} µs)"
        );
    }

    #[test]
    fn writes_are_slower_than_reads() {
        let mut d = dev();
        let read = d.submit_batch(&[SsdRequest::read(0, 4096)]).elapsed_us;
        let mut d = dev();
        let write = d.submit_batch(&[SsdRequest::write(0, 4096)]).elapsed_us;
        assert!(write > read, "asymmetric read/write latency expected");
    }

    #[test]
    fn interleaved_mix_is_slower_than_grouped_mix() {
        // Figure 3(c): alternating read/write suffers from interference compared to
        // n reads followed by n writes.
        let n = 32u64;
        let mut interleaved = Vec::new();
        let mut grouped = Vec::new();
        for i in 0..n {
            interleaved.push(SsdRequest::read(i * 8192, 4096));
            interleaved.push(SsdRequest::write(i * 8192 + 4096, 4096));
        }
        for i in 0..n {
            grouped.push(SsdRequest::read(i * 8192, 4096));
        }
        for i in 0..n {
            grouped.push(SsdRequest::write(i * 8192 + 4096, 4096));
        }
        let mut d1 = dev();
        let ti = d1.submit_batch(&interleaved).elapsed_us;
        let mut d2 = dev();
        let tg = d2.submit_batch(&grouped).elapsed_us;
        assert!(tg < ti, "grouped mix ({tg} µs) should beat interleaved mix ({ti} µs)");
    }

    #[test]
    fn bandwidth_saturates_with_outstanding_level() {
        // Bandwidth must increase substantially from OutStd 1 to 32 and then flatten
        // rather than keep growing unboundedly (host interface cap).
        let bw = |outstd: u64| {
            let mut d = dev();
            let reqs: Vec<SsdRequest> = (0..outstd).map(|i| SsdRequest::read(i * 4096, 4096)).collect();
            // repeat to smooth out the first window
            let mut total_bytes = 0u64;
            let mut total_us = 0.0;
            for rep in 0..8 {
                let shifted: Vec<SsdRequest> = reqs
                    .iter()
                    .map(|r| SsdRequest::new(r.kind, r.offset + rep * 1_000_000, r.len))
                    .collect();
                let res = d.submit_batch(&shifted);
                total_bytes += res.bytes;
                total_us += res.elapsed_us;
            }
            (total_bytes as f64 / (1024.0 * 1024.0)) / (total_us / 1e6)
        };
        let bw1 = bw(1);
        let bw32 = bw(32);
        let bw64 = bw(64);
        assert!(bw32 > bw1 * 4.0, "OutStd 32 ({bw32}) should be >4x OutStd 1 ({bw1})");
        assert!(bw64 < bw32 * 2.0, "bandwidth should saturate: {bw64} vs {bw32}");
    }

    #[test]
    fn latencies_reported_for_every_request() {
        let mut d = dev();
        let reqs: Vec<SsdRequest> = (0..100).map(|i| SsdRequest::read(i * 4096, 4096)).collect();
        let r = d.submit_batch(&reqs);
        assert_eq!(r.latencies_us.len(), 100);
        assert!(r.latencies_us.iter().all(|&l| l > 0.0 && l <= r.max_latency_us()));
    }

    /// A scheduler that has already scheduled work and was then restarted
    /// completes every request at bit-for-bit the time a fresh one does: a
    /// seeded mix of reads and writes at assorted offsets and lengths, under
    /// nonzero floors, past the NCQ depth.
    #[test]
    fn restarted_scheduler_matches_a_fresh_one() {
        let d = dev();
        let mut x = 0x5EED_5C4Eu64;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut mix = |n: usize| -> Vec<(SsdRequest, f64)> {
            (0..n)
                .map(|_| {
                    let offset = rand(1 << 24);
                    let len = 1 + rand(64 * 1024);
                    let req = if rand(3) == 0 {
                        SsdRequest::write(offset, len)
                    } else {
                        SsdRequest::read(offset, len)
                    };
                    let floor = [f64::NEG_INFINITY, 0.0, 1_250.5, 40_000.0][rand(4) as usize];
                    (req, floor)
                })
                .collect()
        };
        let n = 3 * d.config().ncq_depth + 5;
        let mut used = d.window_scheduler(17.0);
        for (req, floor) in mix(n) {
            used.push_after(&req, floor);
        }
        for start in [0.0, 333.25, 9_876.5] {
            let batch = mix(n);
            used.restart(start);
            let mut fresh = d.window_scheduler(start);
            for (i, (req, floor)) in batch.iter().enumerate() {
                let (a, b) = (used.push_after(req, *floor), fresh.push_after(req, *floor));
                assert_eq!(a.to_bits(), b.to_bits(), "start {start}, request {i}: {a} vs {b}");
            }
            assert_eq!(used.frontier_us().to_bits(), fresh.frontier_us().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "invalid SsdConfig")]
    #[allow(clippy::field_reassign_with_default)]
    fn invalid_config_panics() {
        let mut cfg = SsdConfig::default();
        cfg.channels = 0;
        let _ = SsdDevice::new(cfg);
    }
}
