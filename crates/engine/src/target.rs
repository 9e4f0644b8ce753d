//! The [`workload::IndexTarget`] implementation, so the workload generators can
//! drive the engine directly.

use crate::sharded::ShardedPioEngine;
use pio::IoError;
use workload::IndexTarget;

impl IndexTarget for ShardedPioEngine {
    type Error = IoError;

    fn insert(&mut self, key: u64, value: u64) -> Result<(), IoError> {
        ShardedPioEngine::insert(self, key, value)
    }

    fn delete(&mut self, key: u64) -> Result<(), IoError> {
        ShardedPioEngine::delete(self, key)
    }

    fn update(&mut self, key: u64, value: u64) -> Result<(), IoError> {
        ShardedPioEngine::update(self, key, value)
    }

    fn search(&mut self, key: u64) -> Result<Option<u64>, IoError> {
        ShardedPioEngine::search(self, key)
    }

    fn range_search(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>, IoError> {
        ShardedPioEngine::range_search(self, lo, hi)
    }

    fn multi_search(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>, IoError> {
        ShardedPioEngine::multi_search(self, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use pio_btree::PioConfig;
    use ssd_sim::DeviceProfile;
    use workload::{replay, KeyDistribution, MixSpec, OperationGenerator};

    #[test]
    fn generated_workload_drives_the_engine() {
        let config = EngineConfig::builder()
            .shards(4)
            .profile(DeviceProfile::F120)
            .shard_capacity_bytes(1 << 30)
            .base(
                PioConfig::builder()
                    .page_size(2048)
                    .leaf_segments(2)
                    .opq_pages(4)
                    .pio_max(16)
                    .speriod(50)
                    .bcnt(100)
                    .pool_pages(256)
                    .build(),
            )
            .build();
        let mut engine = ShardedPioEngine::create(config, &(0..10_000u64).collect::<Vec<_>>()).unwrap();
        let mix = MixSpec {
            insert: 0.5,
            delete: 0.05,
            update: 0.05,
            range_search: 0.05,
            range_span: 50,
        };
        let mut generator = OperationGenerator::new(7, 10_000, KeyDistribution::Uniform, mix);
        let ops = generator.generate(3_000);
        let stats = replay(&mut engine, &ops, 32).unwrap();
        assert_eq!(stats.total_ops(), 3_000);
        assert!(stats.inserts > 1_000);
        assert!(stats.search_batches > 0);
        engine.checkpoint().unwrap();
        engine.check_invariants().unwrap();
    }
}
