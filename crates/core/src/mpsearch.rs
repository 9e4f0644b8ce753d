//! MPSearch: multi-path traversal of the internal levels (Section 3.1.1),
//! and the one read driver of every level.
//!
//! Given a *set* of keys (or a key range), the traversal proceeds level by
//! level from the root: a level's distinct nodes, in key order, are fetched
//! with psync calls of at most `PioMax` nodes each, and the next level's
//! nodes are what those nodes route the keys to. The paper formulates this
//! recursively (depth-first over `PioMax`-sized pointer sets); this module
//! uses the equivalent breadth-first formulation.
//!
//! Every level of a descent, the leaf level included, is read by the one
//! read driver, `io::read_regions`: it sends a list of regions in psync calls
//! of at most `PioMax` regions, up to `pipeline_depth` of them in flight.
//!
//! One level visitor does every internal level of both descents. It first
//! takes the level's nodes from the store's pool, under one cache lock and
//! without I/O, for as long as every node so far is resident — a warm tree
//! holds all internal nodes, and its descents never leave this loop. From the
//! first node that is not resident, the rest of the level goes to the
//! driver. The depth is capped at `treeHeight − 1`, so the calls in flight
//! never hold more than the paper's `PioMax · (treeHeight − 1)` node pages.
//! Passing `pipeline_depth = 1` recovers the fully blocking descent. Both
//! descents report whether the page class held every node (no node was read
//! through the store).
//!
//! The descents here only walk the *internal* levels. What a leaf read names
//! and what it does with the images is the caller's, because point search,
//! prange search and bupdate each treat the leaf level differently; each
//! reads it through `read_regions`.

use crate::io::read_regions;
use btree::{InternalView, Key};
use pio::{IoResult, TicketRing};
use storage::{AccessHint, CachedReadTicket, CachedStore, PageClass, PageId};

/// The result of one descent over a sorted key set: per key the target leaf
/// and its root-to-parent path, the paths in **one** flat array (`levels`
/// steps per key) so that a descent allocates nothing per key — and nothing at
/// all when it stays in the pool and its buffers are reused (the tree
/// keeps one as scratch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Descent {
    levels: usize,
    /// While a descent runs, each key's node at the current level;
    /// afterwards its leaf.
    leaves: Vec<PageId>,
    steps: Vec<(PageId, usize)>,
    /// The current level's distinct nodes, in key order.
    nodes: Vec<PageId>,
}

impl Descent {
    /// Starts a descent of `keys` keys through `levels` internal levels: every
    /// key stands at `root`.
    fn reset(&mut self, levels: usize, keys: usize, root: PageId) {
        self.levels = levels;
        self.leaves.clear();
        self.leaves.resize(keys, root);
        self.steps.clear();
        self.steps.resize(keys * levels, (root, 0));
    }

    /// First page of the leaf responsible for key `i`.
    pub fn leaf(&self, i: usize) -> PageId {
        self.leaves[i]
    }

    /// Key `i`'s root-to-parent path: `(internal node page, child index
    /// taken)` for every internal level, starting at the root.
    pub fn path(&self, i: usize) -> &[(PageId, usize)] {
        &self.steps[i * self.levels..(i + 1) * self.levels]
    }
}

/// The one level visitor: hands `visit` every node of the level
/// `nodes[..width]` in order, with its parsed form. `visit` may append the
/// next level's nodes to `nodes` behind the level. Nodes come from the page
/// class while every one so far is resident; the rest of the level is read
/// through the store in psync calls of `pio_max` nodes, `ring`'s depth of
/// them in flight. Returns whether the pool held the whole level.
fn visit_level(
    store: &CachedStore,
    nodes: &mut Vec<PageId>,
    width: usize,
    pio_max: usize,
    ring: &mut TicketRing<CachedReadTicket>,
    mut visit: impl FnMut(&mut Vec<PageId>, PageId, InternalView<'_>),
) -> IoResult<bool> {
    let mut resident = 0;
    {
        let mut pages = store.resident_pages();
        while resident < width {
            let page = nodes[resident];
            let Some(image) = pages.get(page) else {
                break;
            };
            visit(nodes, page, InternalView::new(page, &image)?);
            resident += 1;
        }
    }
    if resident == width {
        return Ok(true);
    }
    let rest: Vec<(PageId, u64)> = nodes[resident..width].iter().map(|&page| (page, 1)).collect();
    read_regions(
        store,
        &rest,
        PageClass::Inner,
        AccessHint::Point,
        pio_max,
        ring,
        |call, images| {
            for (&(page, _), image) in rest[call].iter().zip(&images) {
                visit(nodes, page, InternalView::new(page, image)?);
            }
            Ok(())
        },
    )?;
    Ok(false)
}

/// Descends the internal levels for every key in `keys` (which must be
/// sorted), reading at most `pio_max` nodes per psync call and up to
/// `pipeline_depth` calls in flight (see the [module docs](self)). Fills `out`
/// with one row per key, in input order. Returns whether the pool held
/// every node of the descent.
pub fn locate_leaves(
    store: &CachedStore,
    root: PageId,
    internal_levels: usize,
    keys: &[Key],
    pio_max: usize,
    pipeline_depth: usize,
    out: &mut Descent,
) -> IoResult<bool> {
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
    // A degenerate single-node tree has no level to descend: every key
    // lands on the root page.
    out.reset(internal_levels, keys.len(), root);
    // No more calls in flight than levels: the paper's buffer bound.
    let mut ring = TicketRing::new(pipeline_depth.min(internal_levels));
    let Descent {
        levels,
        leaves,
        steps,
        nodes,
    } = out;
    let mut resident = true;
    for level in 0..internal_levels {
        // Keys are sorted, so the keys standing at one node are a run.
        nodes.clear();
        nodes.extend_from_slice(leaves);
        nodes.dedup();
        let mut i = 0;
        let width = nodes.len();
        resident &= visit_level(store, nodes, width, pio_max, &mut ring, |_, page, node| {
            while i < keys.len() && leaves[i] == page {
                let child_idx = node.child_for(keys[i]);
                steps[i * *levels + level] = (page, child_idx);
                leaves[i] = node.child(child_idx);
                i += 1;
            }
        })?;
    }
    // Scratch only: keep its capacity, not its pages, so that equal descents
    // compare equal.
    nodes.clear();
    Ok(resident)
}

/// Descends the internal levels for a key range `[lo, hi)` like
/// [`locate_leaves`] and returns the first pages of every leaf node whose key
/// space intersects the range, in key order, beside whether the pool
/// held every node of the descent.
pub fn locate_leaves_in_range(
    store: &CachedStore,
    root: PageId,
    internal_levels: usize,
    lo: Key,
    hi: Key,
    pio_max: usize,
    pipeline_depth: usize,
) -> IoResult<(Vec<PageId>, bool)> {
    if lo >= hi {
        return Ok((Vec::new(), true));
    }
    // No more calls in flight than levels: the paper's buffer bound.
    let mut ring = TicketRing::new(pipeline_depth.min(internal_levels));
    // One level's nodes sit at the front, the next level's are appended
    // behind them.
    let mut frontier = vec![root];
    let mut resident = true;
    for _level in 0..internal_levels {
        let width = frontier.len();
        resident &= visit_level(store, &mut frontier, width, pio_max, &mut ring, |next, _, node| {
            // None on a node whose rotted keys are out of order.
            next.extend((node.child_for(lo)..=node.child_for(hi - 1)).map(|i| node.child(i)));
        })?;
        frontier.drain(..width);
    }
    Ok((frontier, resident))
}

#[cfg(test)]
mod tests {
    use super::*;
    use btree::{InternalNode, LeafNode, Node};
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use std::sync::Arc;
    use storage::{PageStore, WritePolicy};

    /// Builds a tiny two-internal-level tree by hand:
    /// root -> [n0 (keys < 100), n1 (keys >= 100)] -> 4 leaves (placeholder pages).
    fn build_fixture() -> (Arc<CachedStore>, PageId, Vec<PageId>) {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 64 * 1024 * 1024));
        let store = Arc::new(CachedStore::new(
            PageStore::new(io, 2048),
            64,
            WritePolicy::WriteThrough,
        ));
        let leaves: Vec<PageId> = (0..4).map(|_| store.allocate()).collect();
        for &l in &leaves {
            store.write_page(l, LeafNode::default().encode(2048)).unwrap();
        }
        let n0 = store.allocate();
        let n1 = store.allocate();
        let root = store.allocate();
        store
            .write_page(
                n0,
                Node::Internal(InternalNode {
                    keys: vec![50],
                    children: vec![leaves[0], leaves[1]],
                })
                .encode(2048),
            )
            .unwrap();
        store
            .write_page(
                n1,
                Node::Internal(InternalNode {
                    keys: vec![150],
                    children: vec![leaves[2], leaves[3]],
                })
                .encode(2048),
            )
            .unwrap();
        store
            .write_page(
                root,
                Node::Internal(InternalNode {
                    keys: vec![100],
                    children: vec![n0, n1],
                })
                .encode(2048),
            )
            .unwrap();
        (store, root, leaves)
    }

    /// [`locate_leaves`] into a fresh [`Descent`].
    fn locate(store: &CachedStore, root: PageId, levels: usize, keys: &[Key], pio_max: usize, depth: usize) -> Descent {
        let mut out = Descent::default();
        locate_leaves(store, root, levels, keys, pio_max, depth, &mut out).unwrap();
        out
    }

    /// [`locate_leaves_in_range`]'s leaves.
    fn range(store: &CachedStore, root: PageId, lo: Key, hi: Key, pio_max: usize, depth: usize) -> Vec<PageId> {
        locate_leaves_in_range(store, root, 2, lo, hi, pio_max, depth)
            .unwrap()
            .0
    }

    #[test]
    fn locate_leaves_routes_keys_correctly() {
        let (store, root, leaves) = build_fixture();
        let keys = vec![10, 60, 120, 200];
        let locs = locate(&store, root, 2, &keys, 64, 2);
        assert_eq!(locs.leaves.len(), 4);
        assert_eq!(locs.leaf(0), leaves[0]);
        assert_eq!(locs.leaf(1), leaves[1]);
        assert_eq!(locs.leaf(2), leaves[2]);
        assert_eq!(locs.leaf(3), leaves[3]);
        // Paths record the root and the level-1 node with the child index taken.
        assert_eq!(locs.path(0).len(), 2);
        assert_eq!(locs.path(0)[0].0, root);
        assert_eq!(locs.path(0)[0].1, 0);
        assert_eq!(locs.path(3)[1].1, 1);
    }

    #[test]
    fn locate_leaves_batches_internal_reads() {
        let (store, root, _) = build_fixture();
        store.drop_cache();
        let before = store.store().stats().read_batches;
        let keys = vec![10, 60, 120, 200];
        locate(&store, root, 2, &keys, 64, 2);
        let batches = store.store().stats().read_batches - before;
        // One batch for the root level, one for level 1 (not one per key).
        assert_eq!(batches, 2);
    }

    #[test]
    fn pio_max_one_degenerates_to_sequential_but_stays_correct() {
        let (store, root, leaves) = build_fixture();
        let keys = vec![10, 60, 120, 200];
        let locs = locate(&store, root, 2, &keys, 1, 1);
        let got: Vec<PageId> = (0..keys.len()).map(|i| locs.leaf(i)).collect();
        assert_eq!(got, leaves);
    }

    #[test]
    fn every_pipeline_depth_agrees_with_the_blocking_descent() {
        let (store, root, _) = build_fixture();
        let keys = vec![10, 40, 60, 90, 120, 160, 200, 250];
        let blocking = locate(&store, root, 2, &keys, 2, 1);
        for depth in [2usize, 3, 8] {
            store.drop_cache();
            let pipelined = locate(&store, root, 2, &keys, 2, depth);
            assert_eq!(pipelined, blocking, "depth {depth}");
            store.drop_cache();
            let ranged_blocking = range(&store, root, 0, 1_000, 1, 1);
            let ranged = range(&store, root, 0, 1_000, 1, depth);
            assert_eq!(ranged, ranged_blocking, "range depth {depth}");
        }
    }

    #[test]
    fn pipelined_descent_overlaps_chunks_on_the_device() {
        let (store, root, _) = build_fixture();
        // Two keys that diverge at level 1 (n0 vs n1): with `PioMax` 1 and
        // depth 2 the read of n1 is submitted while the read of n0 is still
        // in flight, so they share one overlap group.
        let keys = vec![10, 120];
        store.drop_cache();
        let io_before = store.store().io().io_stats();
        locate(&store, root, 2, &keys, 1, 2);
        let io_after = store.store().io().io_stats();
        let batches = io_after.batches - io_before.batches;
        let groups = io_after.overlap_groups - io_before.overlap_groups;
        assert!(
            groups < batches,
            "pipelined descent must overlap batches: {groups} groups for {batches} batches"
        );
        assert_eq!(io_after.reads - io_before.reads, 3, "root + n0 + n1, no duplicates");
    }

    /// A descent counts a pool hit per node and reports whether the page
    /// class held them all. A level that starts resident reads the rest
    /// through the store, which counts the misses. A tree of no internal
    /// level lands every key on the root.
    #[test]
    fn resident_walk_counts_only_resident_pages() {
        let (store, root, leaves) = build_fixture();
        let keys = vec![10, 60, 120, 200];
        let mut walked = Descent::default();
        let before = store.pool_stats();
        assert!(locate_leaves(&store, root, 2, &keys, 64, 2, &mut walked).unwrap());
        let after = store.pool_stats();
        assert_eq!(
            (after.hits - before.hits, after.misses),
            (3, before.misses),
            "root, n0, n1"
        );
        assert_eq!(
            locate_leaves_in_range(&store, root, 2, 60, 160, 64, 2).unwrap(),
            (leaves[1..].to_vec(), true)
        );

        // n0 resident, n1 not: level 1 starts in the pool and finishes
        // through the store.
        store.drop_cache();
        store.read_pages(&[root, walked.path(0)[1].0]).unwrap();
        let before = store.pool_stats();
        let mut mixed = Descent::default();
        assert!(!locate_leaves(&store, root, 2, &keys, 64, 2, &mut mixed).unwrap());
        let after = store.pool_stats();
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (2, 1));
        assert_eq!(mixed, walked);
        assert_eq!(
            locate_leaves_in_range(&store, root, 2, 60, 160, 64, 2).unwrap(),
            (leaves[1..].to_vec(), true),
            "the store admitted n1"
        );

        store.drop_cache();
        assert_eq!(
            locate_leaves_in_range(&store, root, 2, 60, 160, 64, 2).unwrap(),
            (leaves[1..].to_vec(), false)
        );

        assert!(locate_leaves(&store, root, 0, &keys, 64, 2, &mut walked).unwrap());
        assert!((0..keys.len()).all(|i| walked.leaf(i) == root && walked.path(i).is_empty()));
    }

    #[test]
    fn empty_key_set_is_a_noop() {
        let (store, root, _) = build_fixture();
        assert!(locate(&store, root, 2, &[], 8, 2).leaves.is_empty());
    }

    #[test]
    fn range_descent_selects_only_overlapping_leaves() {
        let (store, root, leaves) = build_fixture();
        // Range entirely inside leaf 1 ([50, 100)).
        assert_eq!(range(&store, root, 60, 70, 8, 2), vec![leaves[1]]);
        // Range spanning leaves 1..3.
        assert_eq!(
            range(&store, root, 60, 160, 8, 2),
            vec![leaves[1], leaves[2], leaves[3]]
        );
        // Whole key space.
        assert_eq!(range(&store, root, 0, 1_000, 8, 2), leaves);
        // Empty range.
        assert!(range(&store, root, 70, 70, 8, 2).is_empty());
    }
}
