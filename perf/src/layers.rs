//! The metric tables and how each number is derived.
//!
//! End-to-end metrics come from the untraced pass; per-layer metrics from the
//! traced pass. Every layer is measured from outside: public stats read before
//! and after a window, the benchmark's own timers around public calls, and its
//! `MeteredIo` wrappers. The names here are the ones `BENCHMARK.json` lists
//! (`check.py smoke` compares the two).

use crate::metered::MeterCounts;
use crate::run::{median, quantile, Window};
use crate::setup::{Kind, Rig, Spec, ENTRY_BYTES, PAGE_SIZE};
use engine::EngineStats;
use pio::{IoQueue, IoStats};
use service::ServiceStats;

pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("call_p50_us", "us"),
    ("modeled_us_per_op", "us"),
    ("read_amplification", "B/B"),
    ("write_amplification", "B/B"),
    ("space_bytes_per_entry", "B"),
    ("allocs_per_op", "count"),
    ("peak_rss_mb", "MiB"),
];

pub const PER_LAYER: [(&str, &str); 86] = [
    ("device.sim_us_per_op", "us"),
    ("device.read_bytes_per_op", "B"),
    ("device.write_bytes_per_op", "B"),
    ("service.batch_occupancy", "count"),
    ("service.budget_flush_share", "fraction"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.batch_service_p50_us", "us"),
    ("service.batch_service_p99_us", "us"),
    ("service.e2e_p99_us", "us"),
    ("service.get_p50_us", "us"),
    ("service.put_p50_us", "us"),
    ("service.get_p99_us", "us"),
    ("service.put_p99_us", "us"),
    ("service.reply_overhead_p50_us", "us"),
    ("service.errors", "count"),
    ("service.sheds", "count"),
    ("service.timeouts", "count"),
    ("engine.calls", "count"),
    ("engine.busy_s", "s"),
    ("engine.cpu_us_per_op", "us"),
    ("engine.call_p99_us", "us"),
    ("engine.sim_call_p50_us", "us"),
    ("engine.sim_call_p99_us", "us"),
    ("engine.overlap_factor", "ratio"),
    ("engine.shard_batch_occupancy", "count"),
    ("engine.overhead_us_per_op", "us"),
    ("engine.committed_epochs", "count"),
    ("engine.checkpoints", "count"),
    ("engine.checkpoint_busy_s", "s"),
    ("engine.checkpoint_sim_p99_us", "us"),
    ("engine.maintenance_flushes", "count"),
    ("engine.truncated_bytes", "B"),
    ("engine.replayable_log_bytes_end", "B"),
    ("engine.recover_s", "s"),
    ("engine.recovery_replayed_records", "count"),
    ("engine.io_retries", "count"),
    ("engine.degraded_shards", "count"),
    ("core.leg_cpu_us_per_op", "us"),
    ("core.leg_call_p50_us", "us"),
    ("core.leg_call_p99_us", "us"),
    ("core.leg_sim_us_per_op", "us"),
    ("core.inner_tier_hit_rate", "fraction"),
    ("core.inner_tier_rebuilds", "count"),
    ("core.inner_tier_retries", "count"),
    ("core.bupdates", "count"),
    ("core.ops_per_bupdate", "count"),
    ("core.append_share", "fraction"),
    ("core.leaf_splits", "count"),
    ("core.internal_splits", "count"),
    ("core.shrinks", "count"),
    ("core.height_end", "count"),
    ("core.opq_fill_end", "fraction"),
    ("storage.pool_hit_rate", "fraction"),
    ("storage.pool_evictions_per_op", "count"),
    ("storage.leaf_cache_hit_rate", "fraction"),
    ("storage.leaf_cache_evictions_per_op", "count"),
    ("storage.scan_bypasses_per_call", "count"),
    ("storage.page_reads_per_op", "count"),
    ("storage.page_writes_per_op", "count"),
    ("storage.read_batches_per_call", "count"),
    ("storage.write_batches_per_call", "count"),
    ("storage.pages_allocated", "count"),
    ("storage.pages_freed", "count"),
    ("storage.verify_failures", "count"),
    ("storage.wal_bytes_per_op", "B"),
    ("storage.wal_forces_per_call", "count"),
    ("pio.read_batches_per_call", "count"),
    ("pio.write_batches_per_call", "count"),
    ("pio.reqs_per_read_batch", "count"),
    ("pio.reqs_per_write_batch", "count"),
    ("pio.bytes_per_read_req", "B"),
    ("pio.inflight_tickets_mean", "count"),
    ("pio.overlap_group_share", "fraction"),
    ("pio.sim_wait_p50_us", "us"),
    ("pio.sim_wait_p99_us", "us"),
    ("pio.host_us_per_op", "us"),
    ("pio.retries", "count"),
    ("pio.give_ups", "count"),
    ("ssd-sim.host_us_per_op", "us"),
    ("ssd-sim.replay_us_per_req", "us"),
    ("ssd-sim.busy_share", "fraction"),
    ("ssd-sim.bandwidth_mib_s", "MiB/s"),
    ("ssd-sim.reqs_per_batch", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// `a / b`, or 0 when nothing was counted.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Public counters read at a window boundary.
pub struct Counters {
    pub engine: EngineStats,
    pub sched_us: f64,
    /// Device-wide: store, WAL and epoch-log queues are partitions of it.
    pub device: IoStats,
    pub device_time_us: f64,
    /// Bytes written to, and write batches (forces) on, the log queues.
    pub log_bytes: u64,
    pub log_batches: u64,
    pub service: Option<ServiceStats>,
}

impl Counters {
    pub fn capture(rig: &Rig, service: Option<ServiceStats>) -> Self {
        let logs: Vec<IoStats> = rig.logs.iter().map(|q| q.io_stats()).collect();
        Counters {
            engine: rig.engine.stats(),
            sched_us: rig.engine.scheduled_io_us(),
            device: rig.device.io_stats(),
            device_time_us: rig.device.device_time_us(),
            log_bytes: logs.iter().map(|s| s.write_bytes).sum(),
            log_batches: logs.iter().map(|s| s.batches).sum(),
            service,
        }
    }

    /// The readings kept in the trace file.
    pub fn trace_values(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("engine.scheduled_io_us", self.sched_us),
            ("engine.total_io_us", self.engine.total_io_us),
            ("engine.batched_ops", self.engine.batched_ops as f64),
            ("engine.committed_epochs", self.engine.committed_epochs as f64),
            ("engine.checkpoints", self.engine.checkpoints as f64),
            ("device.reads", self.device.reads as f64),
            ("device.writes", self.device.writes as f64),
            ("device.read_bytes", self.device.read_bytes as f64),
            ("device.write_bytes", self.device.write_bytes as f64),
            ("device.batches", self.device.batches as f64),
            ("device.time_us", self.device_time_us),
            ("log.write_bytes", self.log_bytes as f64),
        ]
    }

    fn live_pages(&self) -> u64 {
        self.engine
            .shards
            .iter()
            .map(|s| s.store.allocated - s.store.freed)
            .sum()
    }
}

/// What was read when the counted segments of the untraced window ended.
pub struct Counted {
    pub ops: u64,
    pub allocs: u64,
    /// The oracle's count of live entries.
    pub live_entries: u64,
    pub peak_rss_mib: f64,
}

/// The nine end-to-end metrics of one untraced window. `before` and `after`
/// bracket its counted segments; the timings are over all of `window`.
pub fn end_to_end(
    setup_s: f64,
    window: &Window,
    before: &Counters,
    after: &Counters,
    counted: &Counted,
) -> Vec<(&'static str, f64)> {
    let ops = counted.ops as f64;
    let user_bytes = ops * ENTRY_BYTES as f64;
    let host_ops_per_s = median(&window.seg_ops_per_s);
    let sim_us_per_op = (after.sched_us - before.sched_us) / ops;
    let space = after.live_pages() * PAGE_SIZE as u64 + after.engine.replayable_log_bytes();
    vec![
        ("setup_s", setup_s),
        ("host_ops_per_s", host_ops_per_s),
        ("call_p50_us", median(&window.seg_call_p50_us)),
        // What a caller would wait were the simulated device real: the host's
        // time per op plus the device schedule's, which the simulator does not
        // make the host wait for. Never 0, unlike simulated time alone.
        ("modeled_us_per_op", 1e6 / host_ops_per_s + sim_us_per_op),
        // Bytes moved per byte handed to (or taken from) the caller: 1 when the
        // device moved nothing, so the hot workload flags any I/O it grows.
        (
            "read_amplification",
            1.0 + (after.device.read_bytes - before.device.read_bytes) as f64 / user_bytes,
        ),
        (
            "write_amplification",
            1.0 + (after.device.write_bytes - before.device.write_bytes) as f64 / user_bytes,
        ),
        ("space_bytes_per_entry", space as f64 / counted.live_entries as f64),
        ("allocs_per_op", counted.allocs as f64 / ops),
        ("peak_rss_mb", counted.peak_rss_mib),
    ]
}

/// What the legs and the final checks of a traced run measured.
#[derive(Default)]
pub struct Extras {
    /// Untraced reference window's CPU per op (same rig, tracer off).
    pub reference_cpu_us_per_op: f64,
    pub leg_cpu_us_per_op: f64,
    pub leg_call_p50_us: f64,
    pub leg_call_p99_us: f64,
    pub leg_sim_us_per_op: f64,
    pub replay_us_per_req: f64,
    /// `write_flush`'s crash + recover check, which follows the window.
    pub recover_s: f64,
    pub recovery_replayed_records: u64,
    pub spans: usize,
}

/// The per-layer metrics of one traced window. `device` and `partitions` are
/// the meters' counts over the window.
pub fn per_layer(
    spec: &Spec,
    window: &Window,
    before: &Counters,
    after: &Counters,
    device: &MeterCounts,
    partitions: &MeterCounts,
    extras: &Extras,
) -> Vec<(&'static str, f64)> {
    let w = &window.all;
    let ops = w.ops as f64;
    let (e0, e1) = (&before.engine, &after.engine);
    let d = |f: fn(&EngineStats) -> u64| (f(e1) - f(e0)) as f64;
    let sum = |stats: &EngineStats, f: fn(&engine::ShardSnapshot) -> u64| stats.shards.iter().map(f).sum::<u64>();
    let ds = |f: fn(&engine::ShardSnapshot) -> u64| (sum(e1, f) - sum(e0, f)) as f64;
    let sched_us = after.sched_us - before.sched_us;
    let read_bytes = (after.device.read_bytes - before.device.read_bytes) as f64;
    let write_bytes = (after.device.write_bytes - before.device.write_bytes) as f64;
    let device_time_us = after.device_time_us - before.device_time_us;

    // Engine calls: the driver's own for the direct workloads; behind the
    // service only the batches it formed are visible.
    let svc = before.service.as_ref().zip(after.service.as_ref());
    let dsvc = |f: fn(&ServiceStats) -> u64| svc.map_or(0.0, |(s0, s1)| (f(s1) - f(s0)) as f64);
    let batches_formed = dsvc(|s| s.batches_formed);
    let batched_requests = dsvc(|s| s.batched_requests);
    let (calls, busy_s) = if spec.kind == Kind::Serve {
        // Σ over requests of their batch's service time ÷ occupancy ≈ Σ over batches.
        let occupancy = per(batched_requests, batches_formed);
        (batches_formed, per(w.service_us.iter().sum::<f64>(), occupancy) / 1e6)
    } else {
        (w.call_us.len() as f64, w.call_us.iter().sum::<f64>() / 1e6)
    };
    let checkpoint_wall: Vec<f64> = w.checkpoints.iter().map(|c| c.0).collect();
    let checkpoint_sim: Vec<f64> = w.checkpoints.iter().map(|c| c.1).collect();

    let tier_hits = d(|e| e.rollup.inner_tier_hits);
    let tier_misses = d(|e| e.rollup.inner_tier_misses);
    let bupdates = d(|e| e.rollup.bupdates);
    let appends = d(|e| e.rollup.leaf_appends);
    let rewrites = d(|e| e.rollup.leaf_rewrites);
    let pool_hits = ds(|s| s.pool.hits);
    let pool_misses = ds(|s| s.pool.misses);
    let leaf_hits = d(|e| e.leaf_cache.hits);
    let leaf_misses = d(|e| e.leaf_cache.misses);
    let cpu_us_per_op = window.cpu_us_per_op();

    vec![
        ("device.sim_us_per_op", sched_us / ops),
        ("device.read_bytes_per_op", read_bytes / ops),
        ("device.write_bytes_per_op", write_bytes / ops),
        ("service.batch_occupancy", per(batched_requests, batches_formed)),
        (
            "service.budget_flush_share",
            per(dsvc(|s| s.budget_expired_flushes), batches_formed),
        ),
        ("service.queue_wait_p50_us", median(&w.queue_us)),
        ("service.queue_wait_p99_us", quantile(&w.queue_us, 0.99)),
        ("service.batch_service_p50_us", median(&w.service_us)),
        ("service.batch_service_p99_us", quantile(&w.service_us, 0.99)),
        ("service.e2e_p99_us", quantile(&w.total_us, 0.99)),
        ("service.get_p50_us", median(&w.get_us)),
        ("service.put_p50_us", median(&w.put_us)),
        ("service.get_p99_us", quantile(&w.get_us, 0.99)),
        ("service.put_p99_us", quantile(&w.put_us, 0.99)),
        ("service.reply_overhead_p50_us", median(&w.reply_overhead_us)),
        ("service.errors", dsvc(|s| s.errors)),
        ("service.sheds", dsvc(|s| s.sheds)),
        ("service.timeouts", dsvc(|s| s.timeouts)),
        ("engine.calls", calls),
        ("engine.busy_s", busy_s),
        ("engine.cpu_us_per_op", extras.reference_cpu_us_per_op),
        ("engine.call_p99_us", quantile(&w.call_us, 0.99)),
        ("engine.sim_call_p50_us", median(&w.sim_call_us)),
        ("engine.sim_call_p99_us", quantile(&w.sim_call_us, 0.99)),
        ("engine.overlap_factor", per(e1.total_io_us - e0.total_io_us, sched_us)),
        (
            "engine.shard_batch_occupancy",
            per(d(|e| e.batched_ops), d(|e| e.batched_calls)),
        ),
        (
            "engine.overhead_us_per_op",
            extras.reference_cpu_us_per_op - extras.leg_cpu_us_per_op,
        ),
        ("engine.committed_epochs", d(|e| e.committed_epochs)),
        ("engine.checkpoints", d(|e| e.checkpoints)),
        ("engine.checkpoint_busy_s", checkpoint_wall.iter().sum::<f64>() / 1e6),
        ("engine.checkpoint_sim_p99_us", quantile(&checkpoint_sim, 0.99)),
        ("engine.maintenance_flushes", d(|e| e.maintenance_flushes)),
        ("engine.truncated_bytes", d(|e| e.truncated_bytes)),
        ("engine.replayable_log_bytes_end", e1.replayable_log_bytes() as f64),
        ("engine.recover_s", extras.recover_s),
        (
            "engine.recovery_replayed_records",
            extras.recovery_replayed_records as f64,
        ),
        ("engine.io_retries", d(|e| e.io_retries)),
        ("engine.degraded_shards", e1.degraded_shards as f64),
        ("core.leg_cpu_us_per_op", extras.leg_cpu_us_per_op),
        ("core.leg_call_p50_us", extras.leg_call_p50_us),
        ("core.leg_call_p99_us", extras.leg_call_p99_us),
        ("core.leg_sim_us_per_op", extras.leg_sim_us_per_op),
        ("core.inner_tier_hit_rate", per(tier_hits, tier_hits + tier_misses)),
        ("core.inner_tier_rebuilds", d(|e| e.rollup.inner_tier_rebuilds)),
        ("core.inner_tier_retries", d(|e| e.rollup.inner_tier_retries)),
        ("core.bupdates", bupdates),
        ("core.ops_per_bupdate", per(d(|e| e.rollup.opq_appends), bupdates)),
        ("core.append_share", per(appends, appends + rewrites)),
        ("core.leaf_splits", d(|e| e.rollup.leaf_splits)),
        ("core.internal_splits", d(|e| e.rollup.internal_splits)),
        ("core.shrinks", d(|e| e.rollup.shrinks)),
        (
            "core.height_end",
            e1.shards.iter().map(|s| s.height).max().unwrap_or(0) as f64,
        ),
        (
            "core.opq_fill_end",
            per(e1.queued_ops as f64, sum(e1, |s| s.opq_capacity as u64) as f64),
        ),
        ("storage.pool_hit_rate", per(pool_hits, pool_hits + pool_misses)),
        ("storage.pool_evictions_per_op", ds(|s| s.pool.evictions) / ops),
        ("storage.leaf_cache_hit_rate", per(leaf_hits, leaf_hits + leaf_misses)),
        (
            "storage.leaf_cache_evictions_per_op",
            d(|e| e.leaf_cache.evictions) / ops,
        ),
        (
            "storage.scan_bypasses_per_call",
            per(d(|e| e.leaf_cache.scan_bypasses), calls),
        ),
        ("storage.page_reads_per_op", ds(|s| s.store.page_reads) / ops),
        ("storage.page_writes_per_op", ds(|s| s.store.page_writes) / ops),
        (
            "storage.read_batches_per_call",
            per(ds(|s| s.store.read_batches), calls),
        ),
        (
            "storage.write_batches_per_call",
            per(ds(|s| s.store.write_batches), calls),
        ),
        ("storage.pages_allocated", ds(|s| s.store.allocated)),
        ("storage.pages_freed", ds(|s| s.store.freed)),
        ("storage.verify_failures", d(|e| e.integrity.corruption_detected)),
        (
            "storage.wal_bytes_per_op",
            (after.log_bytes - before.log_bytes) as f64 / ops,
        ),
        (
            "storage.wal_forces_per_call",
            per((after.log_batches - before.log_batches) as f64, calls),
        ),
        ("pio.read_batches_per_call", per(partitions.read_batches as f64, calls)),
        (
            "pio.write_batches_per_call",
            per(partitions.write_batches as f64, calls),
        ),
        (
            "pio.reqs_per_read_batch",
            per(partitions.read_reqs as f64, partitions.read_batches as f64),
        ),
        (
            "pio.reqs_per_write_batch",
            per(partitions.write_reqs as f64, partitions.write_batches as f64),
        ),
        (
            "pio.bytes_per_read_req",
            per(partitions.read_bytes as f64, partitions.read_reqs as f64),
        ),
        (
            "pio.inflight_tickets_mean",
            per(partitions.inflight_sum as f64, partitions.batches() as f64),
        ),
        (
            "pio.overlap_group_share",
            per(
                (after.device.overlap_groups - before.device.overlap_groups) as f64,
                (after.device.batches - before.device.batches) as f64,
            ),
        ),
        ("pio.sim_wait_p50_us", median(&partitions.sim_wait_us)),
        ("pio.sim_wait_p99_us", quantile(&partitions.sim_wait_us, 0.99)),
        // Partition wrappers minus the device wrapper below them.
        (
            "pio.host_us_per_op",
            (partitions.host_ns as f64 - device.host_ns as f64) / 1e3 / ops,
        ),
        ("pio.retries", d(|e| e.io_retries)),
        ("pio.give_ups", d(|e| e.io_give_ups)),
        ("ssd-sim.host_us_per_op", device.host_ns as f64 / 1e3 / ops),
        ("ssd-sim.replay_us_per_req", extras.replay_us_per_req),
        ("ssd-sim.busy_share", per(device_time_us, sched_us)),
        (
            "ssd-sim.bandwidth_mib_s",
            per((read_bytes + write_bytes) / (1 << 20) as f64, device_time_us / 1e6),
        ),
        (
            "ssd-sim.reqs_per_batch",
            per((device.read_reqs + device.write_reqs) as f64, device.batches() as f64),
        ),
        (
            "trace.overhead_pct",
            100.0 * (cpu_us_per_op - extras.reference_cpu_us_per_op) / extras.reference_cpu_us_per_op,
        ),
        ("trace.spans", extras.spans as f64),
    ]
}
