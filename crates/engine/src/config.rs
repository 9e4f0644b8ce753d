//! Configuration of the sharded PIO engine.

use pio_btree::PioConfig;
use ssd_sim::DeviceProfile;

/// All tunable parameters of a [`crate::ShardedPioEngine`].
///
/// The buffer-pool budget is a **total** for the whole engine: `base.pool_pages`
/// is divided across the shards, so sweeping the shard count at a fixed
/// configuration compares equal-memory deployments (the pool is where the memory
/// is — megabytes of cached internal nodes). `base.opq_pages`, by contrast, is
/// **per shard**: every shard owns a full-size operation queue, because the whole
/// point of sharding is to multiply the independent OPQ/psync streams, and an OPQ
/// page is tiny (a few KiB of entries) next to the pool. Halving per-shard OPQs as
/// shards grow would shrink every bupdate batch and squander the NCQ window the
/// paper's Figure 3 is built on.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of key-range shards (≥ 1).
    pub shards: usize,
    /// Device profile each shard's store simulates a partition of.
    pub profile: DeviceProfile,
    /// Addressable bytes of each shard's store.
    pub shard_capacity_bytes: u64,
    /// Addressable bytes of each shard's WAL device (the engine keeps no log
    /// of its own: cross-shard commit records live in the shard WALs). Only used when `base.wal_enabled` is set; must be a
    /// multiple of `base.page_size` (the WAL is laid out in whole pages) and large
    /// enough to hold a meaningful log (at least 64 pages).
    pub wal_capacity_bytes: u64,
    /// Per-tree configuration template. `pool_pages` is the engine-wide total
    /// (divided by `shards` when each tree is built); `opq_pages` is per shard.
    pub base: PioConfig,
    /// Wall-clock interval between maintenance sweeps in milliseconds. Once
    /// this much time has passed since the last sweep ended, the next data
    /// call to end runs one on its caller (see the `maintenance` module).
    /// `None` runs no sweep (maintenance then only happens through explicit
    /// [`crate::ShardedPioEngine::maintain_once`] calls — the deterministic
    /// mode used by tests and benches).
    pub maintenance_interval_ms: Option<u64>,
    /// Interval of the checkpoint tick in milliseconds: the first maintenance
    /// sweep after this much time has passed since the last tick runs a full
    /// [`crate::ShardedPioEngine::checkpoint`] (incremental flush + manifest
    /// sync + log truncation). `None` (the default) runs no automatic
    /// checkpoints — callers checkpoint explicitly. Requires
    /// [`EngineConfig::maintenance_interval_ms`] to be set (the sweeps drive
    /// the cadence).
    pub checkpoint_interval_ms: Option<u64>,
    /// Maximum requests a per-shard batch builder accumulates before the
    /// request that fills it runs it. Must be at least 1; `1` is the
    /// request-at-a-time baseline (every request flushes immediately,
    /// size-triggered). Values beyond the per-shard OPQ capacity waste no
    /// correctness but stop buying psync width, so keep it near `PioMax`.
    pub max_batch_size: usize,
    /// Knobs of the elastic shard rebalancer (see [`crate::rebalance`]).
    pub rebalance: RebalanceConfig,
    /// Ignored and not validated: internal nodes are cached in the pool under
    /// `base.pool_pages`, and a descent walks it before any I/O. The
    /// field stays only because the frozen benchmark harness still sets it;
    /// it goes with the next change to that harness.
    pub inner_tier_bytes: Option<u64>,
    /// Engine-wide leaf budget in bytes, divided across shards (at least one
    /// page each): each shard's share is added to its pool's budget
    /// ([`pio_btree::PioConfig::leaf_cache_pages`]) — a size, not a mode:
    /// leaf pages are leaf entries with or without it. `None` (the default)
    /// adds nothing; `Some(0)` is rejected; must be a multiple of
    /// `base.page_size`.
    pub leaf_cache_bytes: Option<u64>,
    /// Interval of the checksum scrub in milliseconds: the first maintenance
    /// sweep after this much time has passed since the last tick re-reads and
    /// verifies a bounded slice of each shard's checksummed pages, healing rot
    /// from clean pooled copies where possible. `None` (the default) runs no
    /// scrub; requires [`EngineConfig::maintenance_interval_ms`] (the sweeps
    /// drive the cadence).
    pub scrub_interval_ms: Option<u64>,
    /// Per-request deadline of the service front end in milliseconds: a
    /// request waiting on a batch another client thread runs fails with a
    /// retryable timeout when its reply does not arrive within this budget,
    /// instead of blocking its client forever; a request leading its own batch
    /// behind a running one stops waiting for the hand-over at the deadline
    /// and runs its batch. The only timed wait in the service.
    /// `None` (the default) waits indefinitely; `Some(0)` is rejected.
    pub request_deadline_ms: Option<u64>,
    /// Bound of the service front end's admission, in requests: while this
    /// many are admitted and not yet answered (parked in builders or riding an
    /// engine call), new requests are shed immediately with a retryable
    /// *overloaded* error instead of stretching every waiting request's
    /// latency without bound. `None` (the default) admits everything;
    /// `Some(0)` is rejected.
    pub admission_queue_limit: Option<usize>,
}

/// Resubmissions the resilient wrapper around every engine queue allows a
/// psync batch that failed with a *retryable* error (`EINTR`-class
/// transients), with exponential backoff, before the attempt is abandoned.
const RETRY_LIMIT: u32 = 3;

/// Deadline of one logical I/O attempt in microseconds: once the backoff
/// accrued across retries would exceed this budget, the resilient wrapper gives
/// up even if `RETRY_LIMIT` is not yet exhausted. Bounds the tail latency a
/// stuck device can inflict on one request.
const IO_DEADLINE_US: u64 = 50_000;

/// Policy knobs of the elastic shard rebalancer (the [`crate::rebalance`]
/// module). Validated as part of [`EngineConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// When set, every maintenance sweep ends with one rebalance decision
    /// cycle, on the caller that runs the sweep (so it only takes effect
    /// together with [`EngineConfig::maintenance_interval_ms`]). Off by default: tests and
    /// benches drive [`crate::ShardedPioEngine::rebalance_once`] explicitly.
    pub auto: bool,
    /// Minimum operations the observation window must carry before the policy
    /// acts at all — below this there is too little signal to distinguish
    /// skew from noise. Must be at least 1.
    pub min_window_ops: u64,
    /// A shard is *hot* (split candidate) when its routed-op share exceeds
    /// this multiple of the fair share (`total / shards`). Must be above 1.0 —
    /// at or below it, the fair share itself would be "hot" and the balancer
    /// would oscillate.
    pub hot_factor: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            auto: false,
            min_window_ops: 1024,
            hot_factor: 2.0,
        }
    }
}

impl RebalanceConfig {
    /// Validates the rebalancer knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_window_ops == 0 {
            return Err("rebalance.min_window_ops must be at least 1 (0 would act on an empty window)".into());
        }
        if !(self.hot_factor > 1.0 && self.hot_factor.is_finite()) {
            return Err(format!(
                "rebalance.hot_factor ({}) must be a finite value above 1.0 — at or below the \
                 fair share the balancer would split perfectly balanced shards",
                self.hot_factor
            ));
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            profile: DeviceProfile::P300,
            shard_capacity_bytes: 8 << 30,
            wal_capacity_bytes: 256 << 20,
            base: PioConfig::default(),
            maintenance_interval_ms: None,
            checkpoint_interval_ms: None,
            max_batch_size: 64,
            rebalance: RebalanceConfig::default(),
            inner_tier_bytes: None,
            leaf_cache_bytes: None,
            scrub_interval_ms: None,
            request_deadline_ms: None,
            admission_queue_limit: None,
        }
    }
}

impl EngineConfig {
    /// Starts a builder pre-loaded with the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// The per-shard tree configuration: the engine-wide pool budget is divided
    /// evenly across the shards (each shard keeps at least one page so a tiny
    /// budget still yields a valid tree); the OPQ size passes through unchanged —
    /// each shard owns its own full-size queue.
    pub fn shard_config(&self) -> PioConfig {
        let shards = self.shards.max(1) as u64;
        let page = self.base.page_size as u64;
        let mut cfg = self.base.clone();
        cfg.pool_pages = (self.base.pool_pages / shards).max(1);
        // The engine-level leaf-cache budget is authoritative: it overrides
        // whatever the base template carries, including its 0 default.
        if let Some(bytes) = self.leaf_cache_bytes {
            cfg.leaf_cache_pages = (bytes / page / shards).max(1);
        }
        cfg
    }

    /// The retry policy every engine queue — each shard's store and WAL — is
    /// wrapped with ([`pio::ResilientIo`]). Backoff on the
    /// simulated backends is *accounted, not slept*: it is charged into the
    /// completion's simulated latency, so retries cost simulated time without
    /// stalling the calling thread.
    pub fn retry_policy() -> pio::RetryPolicy {
        pio::RetryPolicy {
            retry_limit: RETRY_LIMIT,
            deadline_us: IO_DEADLINE_US,
            ..pio::RetryPolicy::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be at least 1".into());
        }
        if self.maintenance_interval_ms == Some(0) {
            return Err("maintenance_interval_ms must be at least 1 (0 would sweep at the end of every call)".into());
        }
        if self.checkpoint_interval_ms == Some(0) {
            return Err("checkpoint_interval_ms must be at least 1 (0 would checkpoint on every sweep)".into());
        }
        if self.checkpoint_interval_ms.is_some() && self.maintenance_interval_ms.is_none() {
            return Err(
                "checkpoint_interval_ms requires maintenance_interval_ms — the maintenance sweeps \
                 drive the checkpoint cadence"
                    .into(),
            );
        }
        if self.scrub_interval_ms == Some(0) {
            return Err("scrub_interval_ms must be at least 1 (0 would scrub on every sweep)".into());
        }
        if self.scrub_interval_ms.is_some() && self.maintenance_interval_ms.is_none() {
            return Err(
                "scrub_interval_ms requires maintenance_interval_ms — the maintenance sweeps \
                 drive the scrub cadence"
                    .into(),
            );
        }
        if self.request_deadline_ms == Some(0) {
            return Err(
                "request_deadline_ms must be at least 1 when set — a zero deadline times every \
                 request out before the engine can touch it; use None to wait indefinitely"
                    .into(),
            );
        }
        if self.admission_queue_limit == Some(0) {
            return Err(
                "admission_queue_limit must be at least 1 when set — a zero bound sheds every \
                 request at admission; use None for an unbounded queue"
                    .into(),
            );
        }
        if self.max_batch_size == 0 {
            return Err("max_batch_size must be at least 1 (1 is the request-at-a-time baseline)".into());
        }
        self.rebalance.validate()?;
        let page = self.base.page_size as u64;
        if let Some(bytes) = self.leaf_cache_bytes {
            if bytes == 0 {
                return Err(
                    "leaf_cache_bytes must be non-zero when set — a zero budget caches nothing; \
                            use None to disable it explicitly"
                        .into(),
                );
            }
            if !bytes.is_multiple_of(page) {
                return Err(format!(
                    "leaf_cache_bytes ({bytes}) must be a multiple of base.page_size ({page}) — the \
                     budget is carved into whole pages per shard"
                ));
            }
        }
        if self.base.wal_enabled {
            if !self.wal_capacity_bytes.is_multiple_of(page) {
                return Err(format!(
                    "wal_capacity_bytes ({}) must be a multiple of base.page_size ({page}) — the WAL is laid out in whole pages",
                    self.wal_capacity_bytes
                ));
            }
            if self.wal_capacity_bytes < 64 * page {
                return Err(format!(
                    "wal_capacity_bytes ({}) must hold at least 64 pages of {page} bytes",
                    self.wal_capacity_bytes
                ));
            }
        }
        self.base.validate()
    }
}

/// Builder for [`EngineConfig`].
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the simulated device profile.
    pub fn profile(mut self, profile: DeviceProfile) -> Self {
        self.config.profile = profile;
        self
    }

    /// Sets the per-shard store capacity in bytes.
    pub fn shard_capacity_bytes(mut self, bytes: u64) -> Self {
        self.config.shard_capacity_bytes = bytes;
        self
    }

    /// Sets each shard's WAL-device capacity in bytes (must be a multiple of
    /// the page size).
    pub fn wal_capacity_bytes(mut self, bytes: u64) -> Self {
        self.config.wal_capacity_bytes = bytes;
        self
    }

    /// Sets the per-tree configuration template (`pool_pages` is the engine-wide
    /// total; `opq_pages` is per shard).
    pub fn base(mut self, base: PioConfig) -> Self {
        self.config.base = base;
        self
    }

    /// Runs a maintenance sweep on a caller once this many milliseconds have
    /// passed since the last one ended.
    pub fn maintenance_interval_ms(mut self, ms: u64) -> Self {
        self.config.maintenance_interval_ms = Some(ms);
        self
    }

    /// Enables the checkpoint tick with the given period (the maintenance
    /// sweeps run it: also set
    /// [`EngineConfigBuilder::maintenance_interval_ms`]).
    pub fn checkpoint_interval_ms(mut self, ms: u64) -> Self {
        self.config.checkpoint_interval_ms = Some(ms);
        self
    }

    /// Sets the service front end's batch-size flush trigger.
    pub fn max_batch_size(mut self, requests: usize) -> Self {
        self.config.max_batch_size = requests;
        self
    }

    /// Sets [`EngineConfig::inner_tier_bytes`], which is ignored (kept for
    /// the frozen benchmark harness).
    pub fn inner_tier_bytes(mut self, bytes: u64) -> Self {
        self.config.inner_tier_bytes = Some(bytes);
        self
    }

    /// Sets the engine-wide scan-resistant leaf-cache budget in bytes (must be
    /// a non-zero multiple of the page size; skip the call to leave it off).
    pub fn leaf_cache_bytes(mut self, bytes: u64) -> Self {
        self.config.leaf_cache_bytes = Some(bytes);
        self
    }

    /// Enables the checksum scrub with the given period (the maintenance
    /// sweeps run it: also set
    /// [`EngineConfigBuilder::maintenance_interval_ms`]).
    pub fn scrub_interval_ms(mut self, ms: u64) -> Self {
        self.config.scrub_interval_ms = Some(ms);
        self
    }

    /// Sets the service front end's per-request deadline in milliseconds.
    pub fn request_deadline_ms(mut self, ms: u64) -> Self {
        self.config.request_deadline_ms = Some(ms);
        self
    }

    /// Bounds the service front end's admitted-and-unanswered requests
    /// (requests beyond the bound are shed with a retryable overloaded error).
    pub fn admission_queue_limit(mut self, requests: usize) -> Self {
        self.config.admission_queue_limit = Some(requests);
        self
    }

    /// Replaces the elastic-rebalancer knobs wholesale.
    pub fn rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.config.rebalance = rebalance;
        self
    }

    /// Lets every maintenance sweep run the rebalancer (only effective
    /// together with a maintenance interval).
    pub fn auto_rebalance(mut self, auto: bool) -> Self {
        self.config.rebalance.auto = auto;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`EngineConfig::validate`]).
    pub fn build(self) -> EngineConfig {
        if let Err(e) = self.config.validate() {
            panic!("invalid EngineConfig: {e}");
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn shard_config_divides_the_pool_but_not_the_opq() {
        let base = PioConfig::builder().pool_pages(1024).opq_pages(8).build();
        let cfg = EngineConfig::builder().shards(4).base(base).build();
        let per_shard = cfg.shard_config();
        assert_eq!(per_shard.pool_pages, 256);
        assert_eq!(per_shard.opq_pages, 8, "every shard owns a full-size OPQ");
    }

    #[test]
    fn tiny_pool_budgets_keep_at_least_one_page() {
        let base = PioConfig::builder().pool_pages(2).opq_pages(1).build();
        let cfg = EngineConfig::builder().shards(8).base(base).build();
        let per_shard = cfg.shard_config();
        assert_eq!(per_shard.pool_pages, 1);
        assert_eq!(per_shard.opq_pages, 1);
    }

    #[test]
    fn memory_budgets_divide_across_shards_and_override_the_base() {
        let cfg = EngineConfig::builder()
            .shards(4)
            .inner_tier_bytes(4096 * 64)
            .leaf_cache_bytes(4096 * 128)
            .build();
        let per_shard = cfg.shard_config();
        assert_eq!(per_shard.leaf_cache_pages, 32);
        // The ignored inner-tier budget passes nothing on to the trees.
        assert_eq!(per_shard.inner_tier_pages, 0);
        // The engine budget is authoritative over the base template.
        let base = PioConfig::builder().leaf_cache_pages(999).build();
        let cfg = EngineConfig::builder()
            .shards(2)
            .base(base)
            .leaf_cache_bytes(4096 * 8)
            .build();
        assert_eq!(cfg.shard_config().leaf_cache_pages, 4);
        // An unset budget leaves the base template alone (the default stays off).
        let cfg = EngineConfig::default();
        assert_eq!(cfg.shard_config().leaf_cache_pages, 0);
        // A tiny budget still pins at least one page per shard.
        let cfg = EngineConfig::builder().shards(8).leaf_cache_bytes(4096).build();
        assert_eq!(cfg.shard_config().leaf_cache_pages, 1);
    }

    #[test]
    fn degenerate_memory_budgets_are_rejected() {
        let config = EngineConfig {
            leaf_cache_bytes: Some(0),
            ..EngineConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.contains("leaf_cache_bytes must be non-zero"), "{err}");
        assert!(err.contains("use None"), "{err}");
        let config = EngineConfig {
            leaf_cache_bytes: Some(4096 * 2 + 1),
            ..EngineConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.contains("multiple of base.page_size"), "{err}");
        let config = EngineConfig {
            leaf_cache_bytes: Some(4096 * 64),
            ..EngineConfig::default()
        };
        assert!(config.validate().is_ok());
        // The ignored inner-tier budget is not validated: any value passes.
        for inner_tier_bytes in [Some(0), Some(4096 * 2 + 1)] {
            let config = EngineConfig {
                inner_tier_bytes,
                ..EngineConfig::default()
            };
            assert!(config.validate().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "invalid EngineConfig")]
    fn zero_shards_panics() {
        let _ = EngineConfig::builder().shards(0).build();
    }

    #[test]
    fn wal_capacity_is_validated_against_the_page_size() {
        // 4 KiB pages, WAL enabled (the capacity is only used — and therefore
        // only validated — when the engine logs).
        let wal_config = |wal_capacity_bytes: u64| EngineConfig {
            wal_capacity_bytes,
            base: PioConfig {
                wal_enabled: true,
                ..PioConfig::default()
            },
            ..EngineConfig::default()
        };
        assert!(
            wal_config(4096 * 64).validate().is_ok(),
            "exactly 64 pages is the floor"
        );
        assert!(wal_config(4096 * 64 + 1)
            .validate()
            .unwrap_err()
            .contains("multiple of base.page_size"));
        assert!(wal_config(4096 * 63)
            .validate()
            .unwrap_err()
            .contains("at least 64 pages"));
        // Without the WAL the capacity is never used: any value is accepted.
        let config = EngineConfig {
            wal_capacity_bytes: 0,
            ..EngineConfig::default()
        };
        assert!(config.validate().is_ok(), "no WAL, no WAL device to size");
    }

    #[test]
    fn zero_pipeline_depth_is_rejected_with_a_clear_error() {
        let config = EngineConfig {
            base: PioConfig {
                pipeline_depth: pio_btree::PipelineDepth::Fixed(0),
                ..PioConfig::default()
            },
            ..EngineConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.contains("pipeline_depth must be at least 1"), "{err}");
    }

    #[test]
    fn degenerate_service_knobs_are_rejected() {
        let config = EngineConfig {
            max_batch_size: 0,
            ..EngineConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.contains("max_batch_size must be at least 1"), "{err}");
        // The request-at-a-time baseline is legal.
        let config = EngineConfig {
            max_batch_size: 1,
            ..EngineConfig::default()
        };
        assert!(config.validate().is_ok());
    }

    #[test]
    fn degenerate_rebalance_knobs_are_rejected() {
        let with = |rebalance: RebalanceConfig| EngineConfig {
            rebalance,
            ..EngineConfig::default()
        };
        let err = with(RebalanceConfig {
            hot_factor: 1.0,
            ..RebalanceConfig::default()
        })
        .validate()
        .unwrap_err();
        assert!(err.contains("hot_factor"), "{err}");
        let err = with(RebalanceConfig {
            min_window_ops: 0,
            ..RebalanceConfig::default()
        })
        .validate()
        .unwrap_err();
        assert!(err.contains("min_window_ops"), "{err}");
        assert!(with(RebalanceConfig::default()).validate().is_ok());
    }

    #[test]
    fn checkpoint_knobs_are_validated() {
        // A zero interval is as degenerate as a zero maintenance interval.
        let config = EngineConfig {
            maintenance_interval_ms: Some(5),
            checkpoint_interval_ms: Some(0),
            ..EngineConfig::default()
        };
        assert!(config.validate().unwrap_err().contains("checkpoint_interval_ms"));
        // The checkpoint cadence rides on the maintenance sweeps.
        let config = EngineConfig {
            maintenance_interval_ms: None,
            checkpoint_interval_ms: Some(100),
            ..EngineConfig::default()
        };
        assert!(config
            .validate()
            .unwrap_err()
            .contains("requires maintenance_interval_ms"));
        let config = EngineConfig {
            maintenance_interval_ms: Some(5),
            checkpoint_interval_ms: Some(100),
            ..EngineConfig::default()
        };
        assert!(config.validate().is_ok());
    }

    #[test]
    fn resilience_knobs_are_validated() {
        let config = EngineConfig {
            maintenance_interval_ms: Some(5),
            scrub_interval_ms: Some(0),
            ..EngineConfig::default()
        };
        assert!(config.validate().unwrap_err().contains("scrub_interval_ms"));
        let config = EngineConfig {
            maintenance_interval_ms: None,
            scrub_interval_ms: Some(50),
            ..EngineConfig::default()
        };
        assert!(config
            .validate()
            .unwrap_err()
            .contains("requires maintenance_interval_ms"));
        let config = EngineConfig {
            request_deadline_ms: Some(0),
            ..EngineConfig::default()
        };
        assert!(config.validate().unwrap_err().contains("request_deadline_ms"));
        let config = EngineConfig {
            admission_queue_limit: Some(0),
            ..EngineConfig::default()
        };
        assert!(config.validate().unwrap_err().contains("admission_queue_limit"));
        let config = EngineConfig::builder()
            .maintenance_interval_ms(5)
            .scrub_interval_ms(50)
            .request_deadline_ms(250)
            .admission_queue_limit(128)
            .build();
        assert_eq!(config.request_deadline_ms, Some(250));
        let policy = EngineConfig::retry_policy();
        assert_eq!(policy.retry_limit, RETRY_LIMIT);
        assert_eq!(policy.deadline_us, IO_DEADLINE_US);
    }

    #[test]
    fn zero_maintenance_interval_is_rejected() {
        let config = EngineConfig {
            maintenance_interval_ms: Some(0),
            ..EngineConfig::default()
        };
        assert!(config.validate().unwrap_err().contains("every call"));
        assert!(EngineConfig {
            maintenance_interval_ms: Some(1),
            ..EngineConfig::default()
        }
        .validate()
        .is_ok());
    }
}
