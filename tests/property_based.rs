//! Randomised model-based tests over the core data structures and the end-to-end
//! index behaviour.
//!
//! These were originally written with proptest; the offline build environment has
//! no crates.io access, so each property is exercised with a deterministic
//! xorshift-driven generator over many seeded cases instead. Failures print the
//! offending seed so a case can be replayed in isolation.

use std::collections::BTreeMap;
use std::sync::Arc;

use btree::BPlusTree;
use pio::{IoQueue, SimPsyncIo, WriteRequest};
use pio_btree::{OpEntry, OperationQueue, PioBTree, PioConfig, PioLeaf};
use ssd_sim::{DeviceProfile, SsdDevice, SsdRequest};
use storage::{CachedStore, PageStore, WritePolicy};

/// Deterministic xorshift64* generator for the test cases.
///
/// Deliberately self-contained rather than using the vendored `rand` shim: these
/// model-based tests are the safety net for the whole index stack, and keeping
/// their randomness independent means a bug in the shim cannot silently skew the
/// workloads the index is judged against.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

/// One random update-type operation for the model-based tests.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Delete(u64),
    Update(u64, u64),
}

/// Draws an operation with the 3:1:1 insert/delete/update weighting the original
/// proptest strategy used.
fn random_op(g: &mut Gen, key_space: u64) -> Op {
    let key = g.below(key_space);
    match g.below(5) {
        0..=2 => Op::Insert(key, g.next()),
        3 => Op::Delete(key),
        _ => Op::Update(key, g.next()),
    }
}

fn random_ops(g: &mut Gen, key_space: u64, lo: u64, hi: u64) -> Vec<Op> {
    let n = g.range(lo, hi) as usize;
    (0..n).map(|_| random_op(g, key_space)).collect()
}

fn make_store(page_size: usize) -> Arc<CachedStore> {
    let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 30));
    Arc::new(CachedStore::new(
        PageStore::new(io, page_size),
        64,
        WritePolicy::WriteThrough,
    ))
}

/// The OPQ behaves like an ordered multimap resolver: lookups agree with replaying
/// the operations into a BTreeMap, regardless of sort period and capacity.
#[test]
fn opq_lookup_matches_replay() {
    for seed in 0..32u64 {
        let mut g = Gen::new(0xA11CE ^ seed);
        let ops = random_ops(&mut g, 64, 1, 300);
        let speriod = g.range(1, 40) as usize;
        let mut q = OperationQueue::with_capacity(10_000, speriod);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    q.append(OpEntry::insert(k, v));
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    q.append(OpEntry::delete(k));
                    model.remove(&k);
                }
            }
        }
        for k in 0..64u64 {
            let expected = model.get(&k).copied();
            let got = q.lookup(k).unwrap_or(None);
            assert_eq!(got, expected, "seed {seed}, key {k}");
        }
    }
}

/// A PIO leaf's resolve/shrink agrees with replaying its records in order, and
/// encode/decode round-trips exactly.
#[test]
fn pio_leaf_shrink_matches_replay() {
    for seed in 0..32u64 {
        let mut g = Gen::new(0xB0B ^ (seed << 8));
        let ops = random_ops(&mut g, 128, 1, 200);
        let mut leaf = PioLeaf::new(8);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    leaf.append(&[OpEntry::insert(k, v)]);
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    leaf.append(&[OpEntry::delete(k)]);
                    model.remove(&k);
                }
            }
        }
        let decoded = PioLeaf::decode(0, &leaf.encode(2048), 8, 2048).unwrap();
        assert_eq!(decoded, leaf, "seed {seed}: encode/decode must round-trip");
        leaf.shrink();
        assert_eq!(leaf.len(), model.len(), "seed {seed}");
        for (k, v) in &model {
            assert_eq!(leaf.lookup(*k), Some(Some(*v)), "seed {seed}, key {k}");
        }
    }
}

/// Whatever is written through the psync layer is read back identically,
/// regardless of how requests are grouped into batches.
#[test]
fn psync_round_trip_any_grouping() {
    for seed in 0..32u64 {
        let mut g = Gen::new(0xC0FFEE ^ seed);
        let n_pages = g.range(1, 40) as usize;
        let pages: Vec<(u64, Vec<u8>)> = (0..n_pages)
            .map(|_| {
                let slot = g.below(512);
                let len = g.range(32, 64) as usize;
                let data: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
                (slot, data)
            })
            .collect();
        let chunk = g.range(1, 16) as usize;

        let io = SimPsyncIo::with_profile(DeviceProfile::P300, 16 << 20);
        // Last write to an offset wins; write in batches of `chunk`.
        for group in pages.chunks(chunk) {
            let reqs: Vec<WriteRequest> = group
                .iter()
                .map(|(slot, data)| WriteRequest::new(slot * 4096, data))
                .collect();
            io.psync_write(&reqs).unwrap();
        }
        let mut expected: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (slot, data) in &pages {
            expected.insert(*slot, data.clone());
        }
        for (slot, data) in &expected {
            let got = io.read_at(slot * 4096, data.len()).unwrap();
            assert_eq!(&got[..], data, "seed {seed}, slot {slot}");
        }
    }
}

/// The simulated device never reports negative or non-finite times and always
/// reports one latency per request.
#[test]
fn device_times_are_sane() {
    for seed in 0..32u64 {
        let mut g = Gen::new(0xDE5 ^ (seed << 4));
        let n = g.range(1, 64) as usize;
        let sim_reqs: Vec<SsdRequest> = (0..n)
            .map(|_| {
                let offset = g.below(1_000_000) * 2048;
                let bytes = g.range(1, 64) * 512;
                if g.below(2) == 0 {
                    SsdRequest::read(offset, bytes)
                } else {
                    SsdRequest::write(offset, bytes)
                }
            })
            .collect();
        let mut dev = SsdDevice::new(DeviceProfile::Vertex2.build());
        let res = dev.submit_batch(&sim_reqs);
        assert_eq!(res.latencies_us.len(), sim_reqs.len(), "seed {seed}");
        assert!(res.elapsed_us.is_finite() && res.elapsed_us > 0.0, "seed {seed}");
        assert!(
            res.latencies_us.iter().all(|&l| l.is_finite() && l > 0.0),
            "seed {seed}"
        );
        assert!(res.max_latency_us() <= res.elapsed_us + 1e-9, "seed {seed}");
    }
}

/// End-to-end: the PIO B-tree and the baseline B+-tree agree with each other and
/// with the model after an arbitrary operation sequence (flushed and queued).
#[test]
fn trees_agree_with_the_model() {
    for seed in 0..8u64 {
        let mut g = Gen::new(0x7EE5 ^ (seed << 16));
        let ops = random_ops(&mut g, 800, 50, 400);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut bt = BPlusTree::new(make_store(2048)).unwrap();
        let config = PioConfig::builder()
            .page_size(2048)
            .leaf_segments(2)
            .opq_pages(1)
            .pio_max(8)
            .speriod(16)
            .bcnt(32)
            .pool_pages(32)
            .build();
        let mut pio = PioBTree::bulk_load(make_store(2048), &[], config).unwrap();

        for op in &ops {
            match *op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    model.insert(k, v);
                    bt.insert(k, v).unwrap();
                    pio.insert(k, v).unwrap();
                }
                Op::Delete(k) => {
                    model.remove(&k);
                    bt.delete(k).unwrap();
                    pio.delete(k).unwrap();
                }
            }
        }
        pio.checkpoint().unwrap();
        for k in (0..800u64).step_by(13) {
            let expected = model.get(&k).copied();
            assert_eq!(bt.search(k).unwrap(), expected, "seed {seed}, btree key {k}");
            assert_eq!(pio.search(k).unwrap(), expected, "seed {seed}, pio key {k}");
        }
        let model_range: Vec<(u64, u64)> = model.range(100..300).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(pio.range_search(100, 300).unwrap(), model_range, "seed {seed}");
        assert_eq!(bt.range_search(100, 300).unwrap(), model_range, "seed {seed}");
    }
}
