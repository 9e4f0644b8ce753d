//! MPSearch: multi-path traversal of the internal levels (Section 3.1.1).
//!
//! Given a *set* of keys (or a key range), the traversal proceeds level by level from
//! the root: all internal nodes needed by the key set at one level are fetched with a
//! single psync call, bounded by `PioMax` outstanding requests. The paper formulates
//! this recursively (depth-first over `PioMax`-sized pointer sets); this module uses
//! the equivalent breadth-first formulation — keys are processed in `PioMax`-sized
//! groups and each group's frontier is fetched in one call — which bounds the
//! buffer requirement to the same `PioMax · (treeHeight − 1)` pages.
//!
//! The descent is **pipelined** through the ticketed store tier: up to
//! `pipeline_depth` node batches stay in flight at once, so the level-ℓ read of
//! chunk `k+1` is already on the device while chunk `k` decodes — chunks ride the
//! queue as a wavefront instead of blocking one psync per level per chunk. The
//! lookahead is capped at `treeHeight − 1` in-flight batches, which preserves the
//! paper's `PioMax · (treeHeight − 1)` buffer bound: the pipeline never holds more
//! node pages than the blocking formulation's worst case. Passing
//! `pipeline_depth = 1` recovers the fully blocking descent.
//!
//! Internal nodes are cached in the store's page class, and a warm tree holds
//! all of them, so the tree first tries the **resident walk**
//! (`walk_resident`, `walk_resident_range`): the same level-by-level
//! descent over the page class alone, under one cache lock, with no ticket
//! and no I/O. It gives up at the first node that is not resident, and the
//! wavefront takes the whole call.
//!
//! The functions here only walk the *internal* levels; reading the leaf nodes (and,
//! for bupdate, writing them back) is the caller's job, because point search, prange
//! search and bupdate each treat the leaf level differently.

use btree::{InternalView, Key};
use pio::ring::run_pipeline;
use pio::{IoResult, TicketRing};
use std::collections::HashSet;
use storage::{AccessHint, CachedReadTicket, CachedStore, PageId, PageImage};

/// The result of one descent over a sorted key set: per key the target leaf
/// and its root-to-parent path, the paths in **one** flat array (`levels`
/// steps per key) so that a descent allocates nothing per key — and nothing at
/// all when its buffers are reused (the tree keeps one as scratch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Descent {
    levels: usize,
    /// While a descent runs, each key's node at its chunk's current level;
    /// afterwards its leaf.
    leaves: Vec<PageId>,
    steps: Vec<(PageId, usize)>,
}

impl Descent {
    /// Starts a descent of `keys` keys through `levels` internal levels: every
    /// key stands at `root`.
    pub(crate) fn reset(&mut self, levels: usize, keys: usize, root: PageId) {
        self.levels = levels;
        self.leaves.clear();
        self.leaves.resize(keys, root);
        self.steps.clear();
        self.steps.resize(keys * levels, (root, 0));
    }

    /// Records that key `i` took child `child_idx` of node `page` at `level`,
    /// which leads to `child`.
    pub(crate) fn step(&mut self, i: usize, level: usize, page: PageId, child_idx: usize, child: PageId) {
        self.steps[i * self.levels + level] = (page, child_idx);
        self.leaves[i] = child;
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

/// One `PioMax`-sized run of keys riding the pipeline: which keys, and how
/// many internal levels they have descended. Where each key stands and the
/// path it took live in the caller's [`Descent`].
#[derive(Clone, Copy)]
struct ChunkDescent {
    start: usize,
    end: usize,
    level: usize,
}

/// One in-flight wavefront entry: a chunk, the ticket of its current-level
/// read, and the one-page regions that ticket fetched, in ticket order — the
/// chunk's distinct nodes minus those another in-flight entry was already
/// reading (deferred to the pool — see [`submit_level`]).
struct InflightLevel {
    chunk: ChunkDescent,
    ticket: CachedReadTicket,
    fetched: Vec<(PageId, u64)>,
}

/// Completes every in-flight ticket of a failed pipeline, discarding results —
/// no submission may outlive the call that issued it.
fn drain(store: &CachedStore, ring: &mut TicketRing<InflightLevel>) {
    ring.drain_with(|entry| {
        let _ = store.complete_read(entry.ticket);
    });
}

/// Submits one chunk's current-level read into the wavefront: its distinct
/// nodes — keys are sorted, so equal nodes are adjacent in `frontier`. Pages
/// some other in-flight entry is already fetching are *deferred* rather than
/// re-read: the fetching entry sits ahead in the FIFO, so by the time this
/// entry is decoded its completion has installed the page in the pool (cold
/// starts would otherwise read the root once per in-flight chunk). On a
/// submission error the ring is drained before the error is returned.
fn submit_level(
    store: &CachedStore,
    chunk: ChunkDescent,
    frontier: &[PageId],
    in_flight_pages: &mut HashSet<PageId>,
    ring: &mut TicketRing<InflightLevel>,
) -> IoResult<()> {
    let mut fetched: Vec<(PageId, u64)> = Vec::new();
    let mut previous = None;
    for &page in &frontier[chunk.start..chunk.end] {
        if previous != Some(page) && !in_flight_pages.contains(&page) {
            fetched.push((page, 1));
        }
        previous = Some(page);
    }
    match store.submit_read(&fetched, AccessHint::Point) {
        Ok(ticket) => {
            in_flight_pages.extend(fetched.iter().map(|&(p, _)| p));
            ring.push(InflightLevel { chunk, ticket, fetched });
            Ok(())
        }
        Err(e) => {
            drain(store, ring);
            Err(e)
        }
    }
}

/// Takes one chunk one level down over its completed read, in lock step: the
/// chunk's keys are sorted, so each distinct node serves one run of them, and
/// the fetched images arrive in the order of those runs. A node the ticket did
/// not fetch was deferred to the pool (its fetching entry completed earlier; a
/// pool too small to retain it falls back to a blocking read).
fn descend_level(
    store: &CachedStore,
    ChunkDescent { start, end, level }: ChunkDescent,
    fetched: &[(PageId, u64)],
    images: &[PageImage],
    keys: &[Key],
    out: &mut Descent,
) -> IoResult<()> {
    let mut fetched = fetched.iter().zip(images).peekable();
    let mut i = start;
    while i < end {
        let page = out.leaf(i);
        let deferred;
        let image: &[u8] = match fetched.next_if(|&(&(p, _), _)| p == page) {
            Some((_, image)) => image,
            None => {
                deferred = store.read_page(page)?;
                &deferred
            }
        };
        i = descend_run(&InternalView::new(page, image)?, page, level, keys, i, end, out);
    }
    Ok(())
}

/// Takes the run of keys from `i` (below `end`) that stand at `page`, whose
/// parsed form is `node`, one level down. Returns the first key past the run.
fn descend_run(
    node: &InternalView,
    page: PageId,
    level: usize,
    keys: &[Key],
    mut i: usize,
    end: usize,
    out: &mut Descent,
) -> usize {
    while i < end && out.leaf(i) == page {
        let child_idx = node.child_for(keys[i]);
        out.step(i, level, page, child_idx, node.child(child_idx));
        i += 1;
    }
    i
}

/// The children of `node` whose key space intersects `[lo, hi)`, in key
/// order (none on a node whose rotted keys are out of order).
fn children_in(node: InternalView<'_>, lo: Key, hi: Key) -> impl Iterator<Item = PageId> + '_ {
    (node.child_for(lo)..=node.child_for(hi - 1)).map(move |i| node.child(i))
}

/// The resident walk: [`locate_leaves`] through the page class alone. Under
/// one cache lock, without I/O or allocation, it takes every key down one
/// level at a time the way the wavefront does, so `out` records the same
/// leaves and paths. Returns `Ok(false)` at the first node the page class
/// does not hold; `out` is then partial, and the caller hands the whole
/// descent to [`locate_leaves`].
pub(crate) fn walk_resident(
    store: &CachedStore,
    root: PageId,
    internal_levels: usize,
    keys: &[Key],
    out: &mut Descent,
) -> IoResult<bool> {
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
    out.reset(internal_levels, keys.len(), root);
    let mut pages = store.resident_pages();
    for level in 0..internal_levels {
        let mut i = 0;
        while i < keys.len() {
            let page = out.leaf(i);
            let Some(image) = pages.get(page) else {
                return Ok(false);
            };
            i = descend_run(&InternalView::new(page, &image)?, page, level, keys, i, keys.len(), out);
        }
    }
    Ok(true)
}

/// [`walk_resident`] for a key range: the leaves
/// [`locate_leaves_in_range`] returns, or `None` at the first node the page
/// class does not hold.
pub(crate) fn walk_resident_range(
    store: &CachedStore,
    root: PageId,
    internal_levels: usize,
    lo: Key,
    hi: Key,
) -> IoResult<Option<Vec<PageId>>> {
    if lo >= hi {
        return Ok(Some(Vec::new()));
    }
    // One level's nodes sit at the front, the next level's children are
    // appended behind them.
    let mut frontier = vec![root];
    let mut pages = store.resident_pages();
    for _level in 0..internal_levels {
        let width = frontier.len();
        for j in 0..width {
            let page = frontier[j];
            let Some(image) = pages.get(page) else {
                return Ok(None);
            };
            frontier.extend(children_in(InternalView::new(page, &image)?, lo, hi));
        }
        frontier.drain(..width);
    }
    Ok(Some(frontier))
}

/// Descends the internal levels for every key in `keys` (which must be sorted), using
/// at most `pio_max` outstanding node reads per psync call and up to
/// `pipeline_depth` batches in flight (capped at the internal level count, so the
/// in-flight buffers stay within `PioMax · (treeHeight − 1)` pages). Fills `out`
/// with one row per key, in input order.
pub fn locate_leaves(
    store: &CachedStore,
    root: PageId,
    internal_levels: usize,
    keys: &[Key],
    pio_max: usize,
    pipeline_depth: usize,
    out: &mut Descent,
) -> IoResult<()> {
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
    // A degenerate single-node tree has no level to descend: every key
    // lands on the root page.
    out.reset(internal_levels, keys.len(), root);
    if keys.is_empty() || internal_levels == 0 {
        return Ok(());
    }
    let pio_max = pio_max.max(1);
    let depth = pipeline_depth.clamp(1, internal_levels);
    let mut chunk_starts = (0..keys.len()).step_by(pio_max);

    let mut ring: TicketRing<InflightLevel> = TicketRing::new(depth);
    let mut in_flight_pages: HashSet<PageId> = HashSet::new();
    loop {
        // Keep the pipeline full: start fresh chunks (at the root level) until
        // the ring holds `depth` in-flight batches.
        while ring.has_room() {
            let Some(start) = chunk_starts.next() else {
                break;
            };
            let chunk = ChunkDescent {
                start,
                end: (start + pio_max).min(keys.len()),
                level: 0,
            };
            submit_level(store, chunk, &out.leaves, &mut in_flight_pages, &mut ring)?;
        }
        let Some(InflightLevel {
            mut chunk,
            ticket,
            fetched,
        }) = ring.pop()
        else {
            break;
        };
        let descended = store.complete_read(ticket).and_then(|images| {
            for (p, _) in &fetched {
                in_flight_pages.remove(p);
            }
            descend_level(store, chunk, &fetched, &images, keys, out)
        });
        if let Err(e) = descended {
            drain(store, &mut ring);
            return Err(e);
        }
        chunk.level += 1;
        if chunk.level < internal_levels {
            // Re-submit the chunk's next level behind whatever else is in
            // flight (the pop above guarantees room).
            submit_level(store, chunk, &out.leaves, &mut in_flight_pages, &mut ring)?;
        }
    }
    Ok(())
}

/// Descends the internal levels for a key range `[lo, hi)` and returns the first
/// pages of every leaf node whose key space intersects the range, in key order.
/// Internal nodes of each level are fetched in ticketed batches of at most
/// `pio_max`, with up to `pipeline_depth` batches in flight within a level
/// (capped like [`locate_leaves`], preserving the same buffer bound).
pub fn locate_leaves_in_range(
    store: &CachedStore,
    root: PageId,
    internal_levels: usize,
    lo: Key,
    hi: Key,
    pio_max: usize,
    pipeline_depth: usize,
) -> IoResult<Vec<PageId>> {
    if lo >= hi {
        return Ok(Vec::new());
    }
    let pio_max = pio_max.max(1);
    let depth = pipeline_depth.clamp(1, internal_levels.max(1));
    let mut frontier: Vec<PageId> = vec![root];
    let mut regions: Vec<(PageId, u64)> = Vec::new();
    for _level in 0..internal_levels {
        let mut next: Vec<PageId> = Vec::new();
        let batch = |batch_idx: usize| &frontier[batch_idx * pio_max..((batch_idx + 1) * pio_max).min(frontier.len())];
        run_pipeline(
            depth,
            frontier.len().div_ceil(pio_max),
            |batch_idx| {
                regions.clear();
                regions.extend(batch(batch_idx).iter().map(|&p| (p, 1)));
                store.submit_read(&regions, AccessHint::Point)
            },
            |ticket| store.complete_read(ticket),
            |batch_idx, images| {
                for (&page, image) in batch(batch_idx).iter().zip(&images) {
                    next.extend(children_in(InternalView::new(page, image)?, lo, hi));
                }
                Ok(())
            },
        )?;
        frontier = next;
    }
    Ok(frontier)
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
            store.write_page(l, &LeafNode::default().encode(2048)).unwrap();
        }
        let n0 = store.allocate();
        let n1 = store.allocate();
        let root = store.allocate();
        store
            .write_page(
                n0,
                &Node::Internal(InternalNode {
                    keys: vec![50],
                    children: vec![leaves[0], leaves[1]],
                })
                .encode(2048),
            )
            .unwrap();
        store
            .write_page(
                n1,
                &Node::Internal(InternalNode {
                    keys: vec![150],
                    children: vec![leaves[2], leaves[3]],
                })
                .encode(2048),
            )
            .unwrap();
        store
            .write_page(
                root,
                &Node::Internal(InternalNode {
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
            let ranged_blocking = locate_leaves_in_range(&store, root, 2, 0, 1_000, 1, 1).unwrap();
            let ranged = locate_leaves_in_range(&store, root, 2, 0, 1_000, 1, depth).unwrap();
            assert_eq!(ranged, ranged_blocking, "range depth {depth}");
        }
    }

    #[test]
    fn pipelined_descent_overlaps_chunks_on_the_device() {
        let (store, root, _) = build_fixture();
        // Two single-key chunks that diverge at level 1 (n0 vs n1): with depth
        // 2 the second chunk's level-1 read is submitted while the first
        // chunk's is still in flight, so they share one overlap group.
        // (Chunks needing the *same* page never re-read it — the duplicate is
        // deferred to the pool — so shared-node chunks serialise instead.)
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
        // The deferred duplicate never hit the device: the root was read once
        // for the two chunks.
        assert_eq!(io_after.reads - io_before.reads, 3, "root + n0 + n1, no duplicates");
    }

    /// The resident walk counts a pool hit per node it reads and nothing for
    /// the node it stops at — the wavefront it hands over to counts that miss.
    /// A tree of no internal level walks to the root without a lookup.
    #[test]
    fn resident_walk_counts_only_resident_pages() {
        let (store, root, leaves) = build_fixture();
        let keys = vec![10, 60, 120, 200];
        let mut walked = Descent::default();
        let before = store.pool_stats();
        assert!(walk_resident(&store, root, 2, &keys, &mut walked).unwrap());
        let after = store.pool_stats();
        assert_eq!(
            (after.hits - before.hits, after.misses),
            (3, before.misses),
            "root, n0, n1"
        );
        assert_eq!(walked, locate(&store, root, 2, &keys, 64, 2));
        assert_eq!(
            walk_resident_range(&store, root, 2, 60, 160).unwrap(),
            Some(leaves[1..].to_vec())
        );

        store.drop_cache();
        let before = store.pool_stats();
        assert!(!walk_resident(&store, root, 2, &keys, &mut walked).unwrap());
        assert_eq!(walk_resident_range(&store, root, 2, 60, 160).unwrap(), None);
        assert_eq!(store.pool_stats(), before, "an absent page counts nothing");

        assert!(walk_resident(&store, root, 0, &keys, &mut walked).unwrap());
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
        assert_eq!(
            locate_leaves_in_range(&store, root, 2, 60, 70, 8, 2).unwrap(),
            vec![leaves[1]]
        );
        // Range spanning leaves 1..3.
        assert_eq!(
            locate_leaves_in_range(&store, root, 2, 60, 160, 8, 2).unwrap(),
            vec![leaves[1], leaves[2], leaves[3]]
        );
        // Whole key space.
        assert_eq!(locate_leaves_in_range(&store, root, 2, 0, 1_000, 8, 2).unwrap(), leaves);
        // Empty range.
        assert!(locate_leaves_in_range(&store, root, 2, 70, 70, 8, 2)
            .unwrap()
            .is_empty());
    }
}
