//! Segment fences (see [`crate::LsMap`]) through everything that sets or
//! drops them, against a `BTreeMap` oracle.

use super::*;

/// Every read path against `oracle`, with the pool warm and then dropped, and
/// the tree's invariants — a fenced leaf held to its image among them.
fn assert_reads_match(t: &mut PioBTree, oracle: &BTreeMap<Key, Value>, rand: &mut impl FnMut(u64) -> u64, ctx: &str) {
    let span = oracle.keys().next_back().map_or(1, |&k| k + 100);
    for pool in ["warm", "cold"] {
        if pool == "cold" {
            t.store().drop_cache();
        }
        let keys: Vec<Key> = (0..120).map(|_| rand(span)).collect();
        let expected: Vec<Option<Value>> = keys.iter().map(|k| oracle.get(k).copied()).collect();
        assert_eq!(
            t.multi_search(&keys).unwrap(),
            expected,
            "{ctx}, {pool} pool: multi_search"
        );
        for (k, e) in keys.iter().zip(&expected).take(8) {
            assert_eq!(t.search(*k).unwrap(), *e, "{ctx}, {pool} pool: search({k})");
        }
        let lo = rand(span);
        let hi = lo + rand(span / 4);
        let in_range: Vec<(Key, Value)> = oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(
            t.range_search(lo, hi).unwrap(),
            in_range,
            "{ctx}: range_search({lo}, {hi})"
        );
    }
    t.check_invariants().unwrap();
}

/// Segment fences against a `BTreeMap` oracle through everything that sets
/// or drops them, on a seeded stream at two and four segments per leaf: a
/// bulk load fences every leaf; a trickle of scattered updates takes the
/// append path, which drops the fences of the leaves it touches; a dense
/// burst fills leaves until bupdate's full path shrinks and splits them,
/// which fences them again; a flush that fails part-way is rolled back, and
/// its LSMap restore drops what it set; a crash drops every fence, and the
/// flushes after recovery set them again. After every phase each read path
/// answers as the oracle does, and `check_invariants` holds every fenced leaf
/// to its image.
#[test]
fn segment_fences_differential_against_a_btreemap_oracle() {
    let seed: u64 = std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_FE9C);
    let mut x = seed | 1;
    let mut rand = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    for segments in [2, 4] {
        let config = PioConfig {
            pio_max: 4,
            opq_pages: 8,
            bcnt: 120,
            leaf_segments: segments,
            leaf_cache_pages: 16,
            ..small_config()
        };
        let entries: Vec<(Key, Value)> = (0..3_000u64).map(|k| (k * 8, k)).collect();
        let (mut t, failing) = failing_tree(config, &entries);
        t.attach_wal(Wal::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 << 20)),
            0,
            2048,
        ));
        let mut oracle: BTreeMap<Key, Value> = entries.iter().copied().collect();
        let ctx = |phase: &str| format!("CRASH_SEED={seed} L={segments}: {phase}");
        assert_eq!(t.lsmap.fenced_leaves(), t.lsmap.len(), "a bulk load fences every leaf");
        assert_reads_match(&mut t, &oracle, &mut rand, &ctx("bulk loaded"));
        assert!(t.stats().segment_reads > 0, "{}", ctx("no single-segment read"));

        let mut split_flushes = 0;
        for round in 0..3 {
            let ctx = |phase: &str| ctx(&format!("round {round}, {phase}"));
            // Appends: a few updates per leaf, each leaf far from full.
            let (fenced, appends) = (t.lsmap.fenced_leaves(), t.stats().leaf_appends);
            for _ in 0..40 {
                let key = rand(3_000) * 8;
                let value = rand(1 << 40);
                t.update(key, value).unwrap();
                oracle.insert(key, value);
            }
            t.checkpoint().unwrap();
            assert!(t.stats().leaf_appends > appends, "{}", ctx("no append"));
            assert!(t.lsmap.fenced_leaves() < fenced, "{}", ctx("appends dropped no fence"));
            assert_reads_match(&mut t, &oracle, &mut rand, &ctx("after appends"));

            // Shrinks and splits: a dense burst into one stretch of keys, with
            // deletes that the shrink cancels, flushed a batch at a time. A
            // flush that splits leaves every part it made fenced: no job of
            // that flush can target a leaf the flush made.
            let base = rand(2_000) * 8;
            for i in 0..600 {
                let key = base + rand(1_000);
                if i % 5 == 0 {
                    t.delete(key).unwrap();
                    oracle.remove(&key);
                } else {
                    t.insert(key, i).unwrap();
                    oracle.insert(key, i);
                }
            }
            while t.opq_len() > 0 {
                let known = leaf_ids(&t);
                let splits = t.stats().leaf_splits;
                t.flush_once().unwrap();
                let made: Vec<PageId> = leaf_ids(&t).into_iter().filter(|leaf| !known.contains(leaf)).collect();
                assert_eq!(
                    made.len() as u64,
                    t.stats().leaf_splits - splits,
                    "{}",
                    ctx("a leaf per split")
                );
                assert!(
                    made.iter().all(|&leaf| t.lsmap.fences(leaf).is_some()),
                    "{}",
                    ctx("a split part without fences")
                );
                split_flushes += (!made.is_empty()) as usize;
            }
            assert_reads_match(&mut t, &oracle, &mut rand, &ctx("after splits"));

            // A flush that fails after its first chunk's writes is rolled
            // back: the leaves it touched come back without fences, and the
            // batch is still answered from the queue. One batch of scattered
            // keys, so that it spans several chunks.
            let fenced = t.lsmap.fenced_leaves();
            for _ in 0..t.config().bcnt {
                let key = rand(3_000) * 8 + rand(2) * 4;
                let value = rand(1 << 40);
                t.insert(key, value).unwrap();
                oracle.insert(key, value);
            }
            fail_write_in(&failing, 1);
            let err = t.flush_once().unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert!(
                t.lsmap.fenced_leaves() <= fenced,
                "{}",
                ctx("a rolled-back flush kept fences")
            );
            assert_reads_match(&mut t, &oracle, &mut rand, &ctx("after a rolled-back flush"));
            t.checkpoint().unwrap();
            assert_reads_match(&mut t, &oracle, &mut rand, &ctx("after the retry"));

            // A crash drops every fence; the leaves the recovered queue's
            // flushes rewrite (each the full path: the LSMap knows nothing)
            // get theirs back.
            for _ in 0..60 {
                let key = rand(30_000);
                t.insert(key, round).unwrap();
                oracle.insert(key, round);
            }
            t.force_wal().unwrap();
            t.simulate_crash();
            assert!(t.lsmap.is_empty(), "{}", ctx("a crash kept the LSMap"));
            t.recover().unwrap();
            assert_reads_match(&mut t, &oracle, &mut rand, &ctx("after recovery"));
            t.checkpoint().unwrap();
            assert!(t.lsmap.fenced_leaves() > 0, "{}", ctx("no fence after recovery"));
            assert_reads_match(&mut t, &oracle, &mut rand, &ctx("after recovery's flushes"));
        }
        assert!(split_flushes > 0, "{}", ctx("no flush split a leaf"));
    }
}

/// The first page of every leaf, in key order, read from the internal nodes.
fn leaf_ids(t: &PioBTree) -> Vec<PageId> {
    let mut level = vec![t.root];
    for _ in 0..t.internal_levels() {
        level = level
            .iter()
            .flat_map(|&page| {
                InternalView::new(page, &t.store.read_page(page).unwrap())
                    .unwrap()
                    .to_owned()
                    .children
            })
            .collect();
    }
    level
}

/// A fence that does not match its leaf's image fails `check_invariants`,
/// so every test that calls it catches a stale one.
#[test]
#[should_panic(expected = "stale segment fences")]
fn check_invariants_catches_a_stale_fence() {
    let entries: Vec<(Key, Value)> = (0..3_000u64).map(|k| (k * 8, k)).collect();
    let store = Arc::new(CachedStore::new(
        PageStore::new(Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 28)), 2048),
        64,
        WritePolicy::WriteThrough,
    ));
    let mut t = PioBTree::bulk_load(store, &entries, small_config()).unwrap();
    t.check_invariants().unwrap();
    let root = InternalView::new(t.root, &t.store.read_page(t.root).unwrap())
        .unwrap()
        .to_owned();
    let leaf = root.children[1];
    let fences: Vec<Key> = t.lsmap.fences(leaf).unwrap().collect();
    assert_eq!(fences.len(), 1, "a full bulk-loaded leaf of two segments has one fence");
    t.lsmap.set_sorted(leaf, [fences[0] + 8]);
    let _ = t.check_invariants();
}
