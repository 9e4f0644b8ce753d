//! Configuration of a PIO B-tree instance.

/// How many batches the tree's pipelined hot paths keep in flight at once.
///
/// The paper's Figure 3 shows device bandwidth climbing with the number of
/// outstanding requests until the NCQ window is full; a tree that holds only
/// two batches in flight flat-lines well short of that on a deep-queue device.
/// `Auto` (the default) derives the depth from the backend at construction
/// time: the backend's [`pio::IoQueue::queue_depth_hint`] (its NCQ depth, or
/// worker count for the file pool) divided by `PioMax` — enough in-flight
/// `PioMax`-sized batches to fill the device queue — clamped to `[2, 16]`
/// (2 keeps the historic double buffering as the floor; 16 bounds the buffer
/// memory at 16 batches). A backend with no hint resolves to 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineDepth {
    /// Derive the depth from the backend's queue-depth hint (see above).
    #[default]
    Auto,
    /// Hold exactly this many batches in flight (≥ 1; 1 is fully blocking,
    /// 2 is the historic double buffering).
    Fixed(usize),
}

/// All tunable parameters of a [`crate::PioBTree`].
///
/// Defaults follow the synthetic-workload setup of Section 4.1: `PioMax = 64`,
/// `speriod = 5000`, `bcnt = 5000`, 4 KiB pages, leaf nodes of 2 segments and a
/// 1-page OPQ (the smallest configuration the paper shows already beating the
/// B+-tree by 4–8×).
#[derive(Debug, Clone, PartialEq)]
pub struct PioConfig {
    /// Page size in bytes — the size of an internal node and of one Leaf Segment.
    pub page_size: usize,
    /// Leaf node size `L` in segments (pages).
    pub leaf_segments: usize,
    /// Operation-queue size `O` in pages.
    pub opq_pages: usize,
    /// Maximum number of I/Os submitted per psync call (`PioMax`).
    pub pio_max: usize,
    /// OPQ sort period (`speriod`): the unsorted tail is merged every this many
    /// appends.
    pub speriod: usize,
    /// Batch count (`bcnt`): number of OPQ entries processed per bupdate invocation.
    pub bcnt: usize,
    /// Buffer-pool capacity in pages (internal-node cache).
    pub pool_pages: u64,
    /// Fill factor used when bulk loading.
    pub fill_factor: f64,
    /// Whether write-ahead logging (and therefore crash recovery) is enabled.
    pub wal_enabled: bool,
    /// Depth of the ticket pipelines in the batched hot paths (multi-search
    /// leaf fetch, bupdate prefetch, bulk-load writes, the `locate_leaves`
    /// descent): how many `PioMax`-bounded batches stay in flight at once.
    pub pipeline_depth: PipelineDepth,
    /// Ignored and not validated: internal nodes are cached in the page class
    /// under [`PioConfig::pool_pages`], and a descent walks it before any I/O.
    /// The field stays only because the frozen benchmark harness still sets
    /// it; it goes with the next change to that harness.
    pub inner_tier_pages: u64,
    /// Page budget of the scan-resistant region class of the tree's store
    /// ([`storage::CachedStore::set_leaf_cache`]); 0 (the default) disables it
    /// and leaf-region reads always go to the device.
    pub leaf_cache_pages: u64,
}

impl Default for PioConfig {
    fn default() -> Self {
        Self {
            page_size: 4096,
            leaf_segments: 2,
            opq_pages: 1,
            pio_max: 64,
            speriod: 5000,
            bcnt: 5000,
            pool_pages: 1024,
            fill_factor: 0.7,
            wal_enabled: false,
            pipeline_depth: PipelineDepth::Auto,
            inner_tier_pages: 0,
            leaf_cache_pages: 0,
        }
    }
}

impl PioConfig {
    /// Starts a builder pre-loaded with the defaults.
    pub fn builder() -> PioConfigBuilder {
        PioConfigBuilder::default()
    }

    /// Leaf node size in bytes.
    pub fn leaf_bytes(&self) -> usize {
        self.page_size * self.leaf_segments
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_size < 128 || !self.page_size.is_power_of_two() {
            return Err("page_size must be a power of two of at least 128 bytes".into());
        }
        if self.leaf_segments == 0 {
            return Err("leaf_segments must be at least 1".into());
        }
        if self.pio_max == 0 {
            return Err("pio_max must be at least 1".into());
        }
        if self.bcnt == 0 {
            return Err("bcnt must be at least 1".into());
        }
        if !(0.1..=1.0).contains(&self.fill_factor) {
            return Err("fill_factor must be in (0.1, 1.0]".into());
        }
        if self.pipeline_depth == PipelineDepth::Fixed(0) {
            return Err(
                "pipeline_depth must be at least 1 (1 = blocking, 2 = double buffering; \
                 use Auto to derive it from the device's queue depth)"
                    .into(),
            );
        }
        Ok(())
    }

    /// Resolves the configured [`PipelineDepth`] against a backend's
    /// [`pio::IoQueue::queue_depth_hint`]: `Fixed` passes through; `Auto`
    /// keeps `hint / PioMax` batches in flight (rounded up) so the in-flight
    /// request count covers the device queue, clamped to `[2, 16]`, and falls
    /// back to 2 (double buffering) when the backend reports no hint.
    pub fn resolve_pipeline_depth(&self, queue_depth_hint: Option<usize>) -> usize {
        match self.pipeline_depth {
            PipelineDepth::Fixed(depth) => depth.max(1),
            PipelineDepth::Auto => match queue_depth_hint {
                Some(hint) => hint.div_ceil(self.pio_max.max(1)).clamp(2, 16),
                None => 2,
            },
        }
    }
}

/// Builder for [`PioConfig`].
#[derive(Debug, Clone, Default)]
pub struct PioConfigBuilder {
    config: PioConfig,
}

impl PioConfigBuilder {
    /// Sets the page size (internal node / Leaf Segment size) in bytes.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.config.page_size = bytes;
        self
    }

    /// Sets the leaf node size in segments.
    pub fn leaf_segments(mut self, segments: usize) -> Self {
        self.config.leaf_segments = segments;
        self
    }

    /// Sets the OPQ size in pages.
    pub fn opq_pages(mut self, pages: usize) -> Self {
        self.config.opq_pages = pages;
        self
    }

    /// Sets `PioMax`.
    pub fn pio_max(mut self, pio_max: usize) -> Self {
        self.config.pio_max = pio_max;
        self
    }

    /// Sets the OPQ sort period.
    pub fn speriod(mut self, speriod: usize) -> Self {
        self.config.speriod = speriod;
        self
    }

    /// Sets the batch count.
    pub fn bcnt(mut self, bcnt: usize) -> Self {
        self.config.bcnt = bcnt;
        self
    }

    /// Sets the buffer-pool capacity in pages.
    pub fn pool_pages(mut self, pages: u64) -> Self {
        self.config.pool_pages = pages;
        self
    }

    /// Sets the bulk-load fill factor.
    pub fn fill_factor(mut self, fill: f64) -> Self {
        self.config.fill_factor = fill;
        self
    }

    /// Enables or disables write-ahead logging.
    pub fn wal(mut self, enabled: bool) -> Self {
        self.config.wal_enabled = enabled;
        self
    }

    /// Sets the ticket-pipeline depth policy of the batched hot paths.
    pub fn pipeline_depth(mut self, depth: PipelineDepth) -> Self {
        self.config.pipeline_depth = depth;
        self
    }

    /// Sets the scan-resistant leaf-region cache budget in pages (0 disables
    /// it).
    pub fn leaf_cache_pages(mut self, pages: u64) -> Self {
        self.config.leaf_cache_pages = pages;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`PioConfig::validate`]).
    pub fn build(self) -> PioConfig {
        if let Err(e) = self.config.validate() {
            panic!("invalid PioConfig: {e}");
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_the_paper() {
        let c = PioConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.pio_max, 64);
        assert_eq!(c.speriod, 5000);
        assert_eq!(c.bcnt, 5000);
    }

    #[test]
    fn builder_sets_every_field() {
        let c = PioConfig::builder()
            .page_size(2048)
            .leaf_segments(4)
            .opq_pages(16)
            .pio_max(32)
            .speriod(100)
            .bcnt(200)
            .pool_pages(64)
            .fill_factor(0.9)
            .wal(true)
            .leaf_cache_pages(512)
            .build();
        assert_eq!(c.page_size, 2048);
        assert_eq!(c.leaf_segments, 4);
        assert_eq!(c.opq_pages, 16);
        assert_eq!(c.pio_max, 32);
        assert_eq!(c.speriod, 100);
        assert_eq!(c.bcnt, 200);
        assert_eq!(c.pool_pages, 64);
        assert!(c.wal_enabled);
        assert_eq!(c.leaf_cache_pages, 512);
        assert_eq!(c.leaf_bytes(), 8192);
    }

    #[test]
    #[should_panic(expected = "invalid PioConfig")]
    fn invalid_page_size_panics() {
        let _ = PioConfig::builder().page_size(1000).build();
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_catches_each_field() {
        let mut c = PioConfig::default();
        c.leaf_segments = 0;
        assert!(c.validate().is_err());
        let mut c = PioConfig::default();
        c.pio_max = 0;
        assert!(c.validate().is_err());
        let mut c = PioConfig::default();
        c.bcnt = 0;
        assert!(c.validate().is_err());
        let mut c = PioConfig::default();
        c.fill_factor = 1.5;
        assert!(c.validate().is_err());
        let mut c = PioConfig::default();
        c.pipeline_depth = PipelineDepth::Fixed(0);
        let err = c.validate().unwrap_err();
        assert!(err.contains("pipeline_depth must be at least 1"), "{err}");
    }

    #[test]
    fn pipeline_depth_resolution() {
        // Fixed passes through untouched.
        let c = PioConfig {
            pipeline_depth: PipelineDepth::Fixed(5),
            ..PioConfig::default()
        };
        assert_eq!(c.resolve_pipeline_depth(Some(1024)), 5);
        assert_eq!(c.resolve_pipeline_depth(None), 5);

        // Auto: ceil(hint / PioMax), clamped to [2, 16]; no hint → 2.
        let c = PioConfig {
            pio_max: 8,
            ..PioConfig::default()
        };
        assert_eq!(c.resolve_pipeline_depth(Some(32)), 4);
        assert_eq!(c.resolve_pipeline_depth(Some(33)), 5, "rounded up");
        assert_eq!(c.resolve_pipeline_depth(Some(8)), 2, "floor keeps double buffering");
        assert_eq!(c.resolve_pipeline_depth(Some(1)), 2);
        assert_eq!(c.resolve_pipeline_depth(Some(4096)), 16, "cap bounds buffer memory");
        assert_eq!(c.resolve_pipeline_depth(None), 2);
    }
}
