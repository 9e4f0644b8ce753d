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
//! The functions here only walk the *internal* levels; reading the leaf nodes (and,
//! for bupdate, writing them back) is the caller's job, because point search, prange
//! search and bupdate each treat the leaf level differently.

use btree::{InternalNode, Key, Node};
use pio::ring::run_pipeline;
use pio::{IoResult, TicketRing};
use std::collections::HashSet;
use storage::{AccessHint, CachedReadTicket, CachedStore, PageId};

/// Where a key landed after the internal-level descent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafLocation {
    /// First page of the leaf node responsible for the key.
    pub leaf: PageId,
    /// Root-to-parent path: `(internal node page, child index taken)` for every
    /// internal level, starting at the root.
    pub path: Vec<(PageId, usize)>,
}

/// The descent state of one `PioMax`-sized key chunk riding the pipeline:
/// which level it is at, where each of its keys currently points, and the
/// paths recorded so far.
struct ChunkDescent {
    /// Index of the chunk's first key in the caller's sorted key slice.
    start: usize,
    /// Per-key internal-node frontier at the current level.
    frontier: Vec<PageId>,
    /// Per-key root-to-here paths.
    paths: Vec<Vec<(PageId, usize)>>,
    /// Internal levels descended so far.
    level: usize,
}

/// One in-flight wavefront entry: a chunk's descent state, the ticket of its
/// current-level read, the distinct pages that level needs, and the subset the
/// ticket actually fetched (pages another in-flight entry was already reading
/// are deferred to the pool — see [`locate_leaves`]).
struct InflightLevel {
    chunk: ChunkDescent,
    ticket: CachedReadTicket,
    pages: Vec<PageId>,
    /// The one-page regions the ticket fetched, in ticket order.
    fetched: Vec<(PageId, u64)>,
}

/// Order-preserving dedup of a (key-sorted, therefore page-clustered) frontier.
fn distinct_pages(frontier: &[PageId]) -> Vec<PageId> {
    let mut pages: Vec<PageId> = Vec::with_capacity(frontier.len());
    for &p in frontier {
        if pages.last() != Some(&p) && !pages.contains(&p) {
            pages.push(p);
        }
    }
    pages
}

/// Completes every in-flight ticket of a failed pipeline, discarding results —
/// no submission may outlive the call that issued it.
fn drain(store: &CachedStore, ring: &mut TicketRing<InflightLevel>) {
    ring.drain_with(|entry| {
        let _ = store.complete_read(entry.ticket);
    });
}

/// Submits one chunk's current-level read into the wavefront. Pages some other
/// in-flight entry is already fetching are *deferred* rather than re-read: the
/// fetching entry sits ahead in the FIFO, so by the time this entry is decoded
/// its completion has installed the page in the pool (cold starts would
/// otherwise read the root once per in-flight chunk). On a submission error
/// the ring is drained before the error is returned.
fn submit_level(
    store: &CachedStore,
    chunk: ChunkDescent,
    in_flight_pages: &mut HashSet<PageId>,
    ring: &mut TicketRing<InflightLevel>,
) -> IoResult<()> {
    let pages = distinct_pages(&chunk.frontier);
    let fetched: Vec<(PageId, u64)> = pages
        .iter()
        .filter(|p| !in_flight_pages.contains(p))
        .map(|&p| (p, 1))
        .collect();
    match store.submit_read(&fetched, AccessHint::Point) {
        Ok(ticket) => {
            in_flight_pages.extend(fetched.iter().map(|&(p, _)| p));
            ring.push(InflightLevel {
                chunk,
                ticket,
                pages,
                fetched,
            });
            Ok(())
        }
        Err(e) => {
            drain(store, ring);
            Err(e)
        }
    }
}

/// Descends the internal levels for every key in `keys` (which must be sorted), using
/// at most `pio_max` outstanding node reads per psync call and up to
/// `pipeline_depth` batches in flight (capped at the internal level count, so the
/// in-flight buffers stay within `PioMax · (treeHeight − 1)` pages). Returns one
/// [`LeafLocation`] per key, in input order.
pub fn locate_leaves(
    store: &CachedStore,
    root: PageId,
    internal_levels: usize,
    keys: &[Key],
    pio_max: usize,
    pipeline_depth: usize,
) -> IoResult<Vec<LeafLocation>> {
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
    if keys.is_empty() {
        return Ok(Vec::new());
    }
    if internal_levels == 0 {
        // Degenerate single-node tree: every key lands on the root page.
        return Ok(keys
            .iter()
            .map(|_| LeafLocation {
                leaf: root,
                path: Vec::new(),
            })
            .collect());
    }
    let pio_max = pio_max.max(1);
    let depth = pipeline_depth.clamp(1, internal_levels);
    let chunk_starts: Vec<usize> = (0..keys.len()).step_by(pio_max).collect();

    let mut out: Vec<Option<LeafLocation>> = (0..keys.len()).map(|_| None).collect();
    let mut ring: TicketRing<InflightLevel> = TicketRing::new(depth);
    let mut in_flight_pages: HashSet<PageId> = HashSet::new();
    let mut next_chunk = 0usize;
    loop {
        // Keep the pipeline full: start fresh chunks (at the root level) until
        // the ring holds `depth` in-flight batches.
        while next_chunk < chunk_starts.len() && ring.has_room() {
            let start = chunk_starts[next_chunk];
            let len = (keys.len() - start).min(pio_max);
            let st = ChunkDescent {
                start,
                frontier: vec![root; len],
                paths: vec![Vec::with_capacity(internal_levels); len],
                level: 0,
            };
            submit_level(store, st, &mut in_flight_pages, &mut ring)?;
            next_chunk += 1;
        }
        let Some(entry) = ring.pop() else {
            break;
        };
        let images = match store.complete_read(entry.ticket) {
            Ok(images) => images,
            Err(e) => {
                drain(store, &mut ring);
                return Err(e);
            }
        };
        for (p, _) in &entry.fetched {
            in_flight_pages.remove(p);
        }
        // Node per distinct page: fetched pages from the ticket, deferred ones
        // from the pool (their fetching entry completed earlier; a pool too
        // small to retain them falls back to a blocking read).
        let mut nodes: Vec<InternalNode> = Vec::with_capacity(entry.pages.len());
        for &p in &entry.pages {
            let node = match entry.fetched.iter().position(|&(f, _)| f == p) {
                Some(j) => Node::decode(&images[j]).expect_internal(),
                None => match store.read_page(p) {
                    Ok(img) => Node::decode(&img).expect_internal(),
                    Err(e) => {
                        drain(store, &mut ring);
                        return Err(e);
                    }
                },
            };
            nodes.push(node);
        }
        let mut st = entry.chunk;
        for i in 0..st.frontier.len() {
            let key = keys[st.start + i];
            let page = st.frontier[i];
            let node_idx = entry
                .pages
                .iter()
                .position(|&p| p == page)
                .expect("page resolved above");
            let node = &nodes[node_idx];
            let child_idx = node.child_for(key);
            st.paths[i].push((page, child_idx));
            st.frontier[i] = node.children[child_idx];
        }
        st.level += 1;
        if st.level < internal_levels {
            // Re-submit the chunk's next level behind whatever else is in
            // flight (the pop above guarantees room).
            submit_level(store, st, &mut in_flight_pages, &mut ring)?;
        } else {
            for (i, path) in st.paths.into_iter().enumerate() {
                out[st.start + i] = Some(LeafLocation {
                    leaf: st.frontier[i],
                    path,
                });
            }
        }
    }
    Ok(out.into_iter().map(|l| l.expect("every chunk completed")).collect())
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
    for _level in 0..internal_levels {
        let mut next: Vec<PageId> = Vec::new();
        let batches: Vec<&[PageId]> = frontier.chunks(pio_max).collect();
        run_pipeline(
            depth,
            batches.len(),
            |batch_idx| {
                let pages: Vec<(PageId, u64)> = batches[batch_idx].iter().map(|&p| (p, 1)).collect();
                store.submit_read(&pages, AccessHint::Point)
            },
            |ticket| store.complete_read(ticket),
            |_, images| {
                for img in &images {
                    let node = Node::decode(img).expect_internal();
                    let first = node.child_for(lo);
                    let last = node.child_for(hi - 1);
                    next.extend_from_slice(&node.children[first..=last]);
                }
            },
        )?;
        frontier = next;
    }
    Ok(frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btree::LeafNode;
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

    #[test]
    fn locate_leaves_routes_keys_correctly() {
        let (store, root, leaves) = build_fixture();
        let keys = vec![10, 60, 120, 200];
        let locs = locate_leaves(&store, root, 2, &keys, 64, 2).unwrap();
        assert_eq!(locs.len(), 4);
        assert_eq!(locs[0].leaf, leaves[0]);
        assert_eq!(locs[1].leaf, leaves[1]);
        assert_eq!(locs[2].leaf, leaves[2]);
        assert_eq!(locs[3].leaf, leaves[3]);
        // Paths record the root and the level-1 node with the child index taken.
        assert_eq!(locs[0].path.len(), 2);
        assert_eq!(locs[0].path[0].0, root);
        assert_eq!(locs[0].path[0].1, 0);
        assert_eq!(locs[3].path[1].1, 1);
    }

    #[test]
    fn locate_leaves_batches_internal_reads() {
        let (store, root, _) = build_fixture();
        store.drop_cache();
        let before = store.store().stats().read_batches;
        let keys = vec![10, 60, 120, 200];
        locate_leaves(&store, root, 2, &keys, 64, 2).unwrap();
        let batches = store.store().stats().read_batches - before;
        // One batch for the root level, one for level 1 (not one per key).
        assert_eq!(batches, 2);
    }

    #[test]
    fn pio_max_one_degenerates_to_sequential_but_stays_correct() {
        let (store, root, leaves) = build_fixture();
        let keys = vec![10, 60, 120, 200];
        let locs = locate_leaves(&store, root, 2, &keys, 1, 1).unwrap();
        let got: Vec<PageId> = locs.iter().map(|l| l.leaf).collect();
        assert_eq!(got, leaves);
    }

    #[test]
    fn every_pipeline_depth_agrees_with_the_blocking_descent() {
        let (store, root, _) = build_fixture();
        let keys = vec![10, 40, 60, 90, 120, 160, 200, 250];
        let blocking = locate_leaves(&store, root, 2, &keys, 2, 1).unwrap();
        for depth in [2usize, 3, 8] {
            store.drop_cache();
            let pipelined = locate_leaves(&store, root, 2, &keys, 2, depth).unwrap();
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
        locate_leaves(&store, root, 2, &keys, 1, 2).unwrap();
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

    #[test]
    fn empty_key_set_is_a_noop() {
        let (store, root, _) = build_fixture();
        assert!(locate_leaves(&store, root, 2, &[], 8, 2).unwrap().is_empty());
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
