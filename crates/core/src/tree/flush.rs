//! The write half of the PIO B-tree: the OPQ flush (bupdate) and its undo journal.
//!
//! I/O discipline: every write of a flush, and of its undo, goes through the
//! one write driver (`io::write_regions`), and every batched read of a level
//! through the read driver (`io::read_regions`) — both in psync calls of at
//! most `PioMax`. Phase B's re-read of a chunk's full-path leaves is one call
//! of at most `PioMax` regions, and an undo reads the pages it cuts back in
//! calls of at most `PioMax` pages; reads and writes are never mixed in one
//! call (Principle 3).
//!
//! A flush journals every change it makes **once**, through [`FlushJournal`]:
//! the same call appends the WAL record a crash is undone from and the
//! in-memory step a failed flush is undone from, and one function —
//! [`PioBTree::undo_flush`] — applies a journal, whether it was captured in
//! process or rebuilt from the log by [`PioBTree::recover_with`].

use super::PioBTree;
use crate::entry::OpEntry;
use crate::io::{read_regions, write_regions};
use crate::leaf::{LeafView, PioLeaf};
use crate::mpsearch::Descent;
use crate::recovery::LogRecord;
use btree::{InternalNode, InternalView, Key, Node};
use pio::{zeroed_image, IoResult};
use std::sync::Arc;
use storage::{new_image, next_region, AccessHint, PageClass, PageId, PageImage};

/// A pending fence-key insertion produced by a node split during bupdate.
#[derive(Debug, Clone)]
struct FenceInsert {
    /// Root-to-parent path of the node that split (the last element is the parent
    /// that must receive the fence key).
    path: Vec<(PageId, usize)>,
    key: Key,
    new_child: PageId,
}

/// One leaf node's share of a bupdate batch: a run of the key-sorted batch,
/// starting at entry `first` (whose row of the batch's [`Descent`] is the
/// leaf's path).
#[derive(Debug, Clone)]
struct LeafJob<'a> {
    leaf: PageId,
    first: usize,
    ops: &'a [OpEntry],
}

/// How one page of a flush is undone.
#[derive(Debug)]
pub(crate) enum Undo {
    /// Restore the pre-image, a page of the class it is written back as.
    Image(PageImage, PageClass),
    /// The flush only appended to the leaf segment: cut it back to this
    /// record count (`None`: back to a never-written page).
    Append(Option<usize>),
}

impl Undo {
    /// The step that restores `preimage`, a page the flush rewrote, classed
    /// by what it holds: an internal node's image is inner, any other — a
    /// leaf segment, or the zeros of a never-written one — is a leaf page.
    /// Recovery rebuilds its journal from pre-images alone, so it has only
    /// the image to go by.
    pub(crate) fn restore(page: PageId, preimage: PageImage) -> Self {
        let class = match InternalView::new(page, &preimage) {
            Ok(_) => PageClass::Inner,
            Err(_) => PageClass::Leaf,
        };
        Undo::Image(preimage, class)
    }
}

/// The undo journal of one flush: everything [`PioBTree::undo_flush`] needs to
/// take the flush back. A running flush writes it through the methods below —
/// each appends the step's WAL record (when a WAL is attached) and the
/// in-memory step together — and recovery rebuilds it from those records. The
/// in-memory step of an appended-to segment keeps the shared image Phase A
/// fetched anyway (the WAL logs the old record count instead), and that of a
/// rewritten leaf page the shared image Phase B read, so an in-process
/// rollback needs no read and the flush copies no pre-image.
#[derive(Debug, Default)]
pub(crate) struct FlushJournal {
    pub(crate) flush_id: u64,
    /// Page steps in capture (= log) order. A flush captures a page at most once.
    pub(crate) steps: Vec<(PageId, Undo)>,
    /// Root growths `(prev_root, prev_height, new_root, new_height)`, in order.
    pub(crate) roots: Vec<(PageId, usize, PageId, usize)>,
    /// Pages the flush allocated (`(first, n)` runs) — freed again when it is
    /// undone, so unwound flushes do not strand store space.
    pub(crate) allocs: Vec<(PageId, u64)>,
    /// LSMap entries before the flush touched them (`None` = no entry
    /// existed): volatile state a durable log cannot cover, so only a journal
    /// captured in process has any.
    lsmap: Vec<(PageId, Option<u32>)>,
}

impl FlushJournal {
    /// An empty journal for flush `flush_id`.
    pub(crate) fn new(flush_id: u64) -> Self {
        Self {
            flush_id,
            ..Self::default()
        }
    }

    /// Journals the rewrite of `page`, a page of `class` — a full-path leaf
    /// region page, an internal node — with its pre-image.
    fn image(&mut self, tree: &PioBTree, page: PageId, preimage: PageImage, class: PageClass) {
        tree.log(|| LogRecord::FlushUndo {
            flush_id: self.flush_id,
            page,
            preimage: preimage.to_vec(),
        });
        self.steps.push((page, Undo::Image(preimage, class)));
    }

    /// Journals an append to segment `page`: the durable undo is logical — the
    /// old record count — and the in-process one is `preimage`, the image
    /// Phase A already fetched, shared, never copied.
    fn append(&mut self, tree: &PioBTree, page: PageId, old_count: u16, fresh: bool, preimage: PageImage) {
        tree.log(|| LogRecord::FlushAppendUndo {
            flush_id: self.flush_id,
            page,
            old_count,
            fresh,
        });
        self.steps.push((page, Undo::Image(preimage, PageClass::Leaf)));
    }

    /// Journals the growth of the tree to `new_root`, one level up.
    fn root(&mut self, tree: &PioBTree, new_root: PageId) {
        tree.log(|| LogRecord::FlushRoot {
            flush_id: self.flush_id,
            prev_root: tree.root,
            prev_height: tree.height as u64,
            new_root,
            new_height: tree.height as u64 + 1,
        });
        self.roots.push((tree.root, tree.height, new_root, tree.height + 1));
    }

    /// Journals the allocation of `pages` pages starting at `first`.
    fn alloc(&mut self, tree: &PioBTree, first: PageId, pages: u64) {
        tree.log(|| LogRecord::FlushAlloc {
            flush_id: self.flush_id,
            first,
            pages,
        });
        self.allocs.push((first, pages));
    }
}

impl PioBTree {
    /// Runs one bupdate over at most `bcnt` OPQ entries (the paper's latency-bounding
    /// mechanism). Does nothing if the OPQ is empty.
    ///
    /// The flush is **transactional in process**: while the bupdate runs, every
    /// node write is preceded by journaling its preimage together with the touched
    /// LSMap entries and the root moves. If any chunk of the bupdate fails, the
    /// journal is undone (`undo_flush`) and the batch returns to the front of
    /// the OPQ — so a failed flush leaves the tree exactly as it was, without
    /// a restart. The WAL (when
    /// enabled) still covers the crash case: a crash mid-flush is undone by
    /// [`PioBTree::recover`] from the flush's undo records — preimages of the
    /// pages it rewrote, old record counts of the segments it appended to
    /// (Section 3.4).
    ///
    /// If the *rollback writes themselves* fail, in-process repair is impossible
    /// and the tree needs WAL recovery; the original error is returned either way.
    ///
    /// A flush whose pages are all written is never rolled back: if the force
    /// that carries its `FlushEnd` fails, the record may be whole on the device
    /// all the same, and a rollback would leave pages that say "rolled back"
    /// under a durable log that says "complete" — the batch neither applied nor
    /// redone after a crash. The flush stands as it is and the error is
    /// returned; recovery judges it from the durable log either way.
    pub fn flush_once(&mut self) -> IoResult<()> {
        let batch = self.opq.take_batch(self.config.bcnt);
        if batch.is_empty() {
            return Ok(());
        }
        let (root, height) = (self.root, self.height);
        let flush_id = self.next_flush_id;
        let mut journal = FlushJournal::new(flush_id);
        match self.bupdate(&batch, &mut journal) {
            Ok(()) => {
                self.log(|| LogRecord::FlushEnd { flush_id });
                self.force_wal().map(|_| ())
            }
            Err(e) => {
                let undone = self.undo_flush(journal);
                debug_assert_eq!((self.root, self.height), (root, height), "every root move is journaled");
                // Mark the flush aborted in the WAL: recovery must not replay its
                // undo records (the pages were just restored, and a successful
                // retry flush may rewrite them), while its batch — back in the
                // OPQ — must still be redone after a crash. Only a rollback
                // whose own writes all landed may say so: after a failed one
                // the store still holds pages of the flush, and recovery has
                // to undo it from the log. Best-effort: if the abort record
                // does not become durable, recovery undoes the flush again
                // (and every later one), which is idempotent.
                if undone.is_ok() {
                    self.log(|| LogRecord::FlushAbort { flush_id });
                    let _ = self.force_wal();
                }
                self.opq.restore_front(batch);
                Err(e)
            }
        }
    }

    /// Undoes one flush from its journal — the one rollback, whether the
    /// journal was captured by the failed flush itself ([`PioBTree::flush_once`])
    /// or rebuilt from the WAL after a crash ([`PioBTree::recover_with`]).
    /// Page steps go first; then the root growths are rewound newest first,
    /// the pages the flush allocated return to the free list, and the LSMap
    /// entries it touched are restored.
    ///
    /// The in-memory state is restored even when a page write fails: the error
    /// is returned, the store may then hold partially rolled-back pages, and
    /// only WAL recovery can help.
    pub(crate) fn undo_flush(&mut self, journal: FlushJournal) -> IoResult<()> {
        debug_assert!(
            {
                let mut pages: Vec<PageId> = journal.steps.iter().map(|&(page, _)| page).collect();
                pages.sort_unstable();
                pages.windows(2).all(|w| w[0] != w[1])
            },
            "a flush captures each page at most once, so undo order within it cannot matter"
        );
        let pages = self.undo_pages(journal.steps);
        for &(prev_root, prev_height, _, _) in journal.roots.iter().rev() {
            self.root = prev_root;
            self.height = prev_height;
        }
        for &(first, n) in journal.allocs.iter().rev() {
            for page in first..first + n {
                self.store.free(page);
            }
        }
        for &(leaf, previous) in journal.lsmap.iter().rev() {
            match previous {
                Some(ls) => self.lsmap.set(leaf, ls),
                None => self.lsmap.remove(leaf),
            }
        }
        pages
    }

    /// Writes the page steps of a journal back through the write driver: the
    /// leaf pages, then the internal nodes. An append is undone from the page
    /// as it is on the device NOW — when recovery unwinds several flushes,
    /// every newer flush's undo is already written — and read below the cache
    /// and the checksum sidecar, in calls of at most `PioMax` pages: the crash
    /// may have torn that very write, which `undo_append` repairs and
    /// verification would report as corruption.
    fn undo_pages(&mut self, steps: Vec<(PageId, Undo)>) -> IoResult<()> {
        let appended: Vec<(PageId, u64)> = steps
            .iter()
            .filter(|(_, undo)| matches!(undo, Undo::Append(_)))
            .map(|&(page, _)| (page, 1))
            .collect();
        let mut current = Vec::with_capacity(appended.len());
        for call in appended.chunks(self.config.pio_max) {
            current.extend(self.store.store().read_regions(call)?);
        }
        let mut current = current.into_iter();
        let (mut leaves, mut nodes) = (Vec::new(), Vec::new());
        for (page, undo) in steps {
            match undo {
                Undo::Image(image, PageClass::Leaf) => leaves.push((page, image)),
                Undo::Image(image, PageClass::Inner) => nodes.push((page, image)),
                Undo::Append(keep) => {
                    // The store's image is unshared: this edits it in place.
                    let mut image = current.next().expect("one image per appended page");
                    PioLeaf::undo_append(PageImage::make_mut(&mut image), keep);
                    leaves.push((page, image));
                }
            }
        }
        self.write(&leaves, PageClass::Leaf)?;
        self.write(&nodes, PageClass::Inner)
    }

    /// Writes `images`, pages of `class`, through the write driver on the
    /// tree's write ring: calls of at most `PioMax` images, durable at return.
    fn write(&mut self, images: &[(PageId, PageImage)], class: PageClass) -> IoResult<()> {
        self.scratch.writes.set_depth(self.pipeline_depth);
        write_regions(
            &self.store,
            images,
            class,
            self.config.pio_max,
            &mut self.scratch.writes,
        )
    }

    /// Batch update (Algorithm 2 + the modified updateNode of Algorithm 3): apply a
    /// key-sorted batch of OPQ entries to the tree, holding multiple submission
    /// tickets in flight — chunk `k+1`'s last-segment reads are submitted before
    /// chunk `k`'s writes are reaped, so consecutive chunks overlap on the device.
    /// Writes every page of the flush; the caller ([`PioBTree::flush_once`])
    /// logs and forces `FlushEnd`.
    fn bupdate(&mut self, ops: &[OpEntry], journal: &mut FlushJournal) -> IoResult<()> {
        self.stats.bupdates += 1;
        debug_assert!(ops.windows(2).all(|w| w[0].key <= w[1].key));

        // WAL: the logical redo logs of these entries, then the flush-start event,
        // must be durable before any node write (write-ahead rule, Section 3.4).
        // One force carries both: the redo records precede `FlushStart` in the
        // log, so whatever prefix of it a crash leaves is a legal pre-flush log.
        let flush_id = journal.flush_id;
        self.next_flush_id += 1;
        let key_hi = ops.last().expect("non-empty").key;
        self.log(|| LogRecord::FlushStart {
            flush_id,
            key_lo: ops.first().expect("non-empty").key,
            key_hi,
            hi_ties: ops.iter().rev().take_while(|e| e.key == key_hi).count() as u32,
        });
        self.force_wal()?;

        // 1. Locate the target leaf of every entry with an MPSearch-style descent.
        let keys: Vec<Key> = ops.iter().map(|e| e.key).collect();
        let mut descent = std::mem::take(&mut self.scratch.descent);
        self.locate(&keys, &mut descent)?;
        let jobs = Self::group_jobs(ops, &descent);

        // 2. Apply the operations leaf by leaf, in PioMax-sized psync batches.
        // Phase-A reads (each target leaf's last segment) are prefetched up to
        // `pipeline_depth − 1` chunks ahead: the tickets for chunks k+1.. are
        // already in flight while chunk k decodes, shrinks and writes. Chunks
        // target disjoint leaf sets (jobs are grouped by leaf), so neither the
        // prefetched pages nor the LSMap entries they were computed from — read
        // here for every job at once — can be dirtied by a preceding chunk.
        let last_ls: Vec<u32> = jobs.iter().map(|j| self.lsmap.get(j.leaf).unwrap_or(0)).collect();
        let ls_pages: Vec<(PageId, u64)> = jobs
            .iter()
            .zip(&last_ls)
            .map(|(j, &ls)| (j.leaf + ls as u64, 1))
            .collect();
        let mut fences: Vec<FenceInsert> = Vec::new();
        let store = Arc::clone(&self.store);
        let mut ring = std::mem::take(&mut self.scratch.ring);
        ring.set_depth(self.pipeline_depth);
        read_regions(
            &store,
            &ls_pages,
            PageClass::Leaf,
            AccessHint::Point,
            self.config.pio_max,
            &mut ring,
            |call, ls_images| {
                self.apply_leaf_chunk(
                    &jobs[call.clone()],
                    &descent,
                    &ls_images,
                    &last_ls[call],
                    &mut fences,
                    journal,
                )
            },
        )?;
        self.scratch.ring = ring;
        self.scratch.descent = descent;

        // 3. Propagate fence keys upward, level by level.
        self.propagate_fences(fences, journal)
    }

    /// Groups a located, key-sorted batch by destination leaf: one job per run
    /// of entries that share a leaf.
    fn group_jobs<'a>(ops: &'a [OpEntry], descent: &Descent) -> Vec<LeafJob<'a>> {
        let mut jobs: Vec<LeafJob> = Vec::new();
        for i in 0..ops.len() {
            match jobs.last_mut() {
                Some(j) if j.leaf == descent.leaf(i) => j.ops = &ops[j.first..=i],
                _ => jobs.push(LeafJob {
                    leaf: descent.leaf(i),
                    first: i,
                    ops: &ops[i..=i],
                }),
            }
        }
        jobs
    }

    /// Applies one PioMax-sized group of leaf jobs over its (already fetched)
    /// Phase-A images: the append path rewrites only the trailing segments; the
    /// full path reads the whole region, shrinks, and splits if necessary.
    ///
    /// Every job refills the tree's one leaf record buffer (the last
    /// segment's records and the job's entries on the append path, the whole
    /// region's on the full path), so a job allocates nothing but the images
    /// it writes — each encoded in place into the image that then goes to the
    /// device and the cache.
    fn apply_leaf_chunk(
        &mut self,
        chunk: &[LeafJob],
        descent: &Descent,
        ls_images: &[PageImage],
        last_ls: &[u32],
        fences: &mut Vec<FenceInsert>,
        journal: &mut FlushJournal,
    ) -> IoResult<()> {
        let page_size = self.config.page_size;
        let segments = self.config.leaf_segments;
        let seg_cap = PioLeaf::segment_capacity(page_size);
        let leaf_cap = PioLeaf::capacity(segments, page_size);

        // Every page and region the chunk writes, in one list: the append
        // path's segment pages, then the full path's regions.
        let mut writes: Vec<(PageId, PageImage)> = Vec::new();
        let mut full_path: Vec<usize> = Vec::new();
        let mut leaf = PioLeaf {
            segments,
            records: std::mem::take(&mut self.scratch.leaf_records),
        };

        for (i, job) in chunk.iter().enumerate() {
            let last_segment = LeafView::new(job.leaf + last_ls[i] as u64, &ls_images[i..=i], page_size)?;
            let known = self.lsmap.get(job.leaf).is_some() && last_segment.live_segments() == 1;
            if !known {
                full_path.push(i);
                continue;
            }
            leaf.records.clear();
            leaf.records.extend(last_segment.records());
            let total_before = last_ls[i] as usize * seg_cap + leaf.len();
            if total_before + job.ops.len() > leaf_cap {
                full_path.push(i);
                continue;
            }
            // Append path: only the trailing segment(s) are rewritten.
            self.stats.leaf_appends += 1;
            let old_count = leaf.len() as u16;
            leaf.append(job.ops);
            let mut seg = last_ls[i] as usize;
            for records in leaf.records.chunks(seg_cap) {
                let page = new_image(page_size, |buf| PioLeaf::encode_segment_into(records, buf));
                let fresh = seg != last_ls[i] as usize;
                let preimage = if fresh {
                    zeroed_image(page_size)
                } else {
                    PageImage::clone(&ls_images[i])
                };
                journal.append(
                    self,
                    job.leaf + seg as u64,
                    if fresh { 0 } else { old_count },
                    fresh,
                    preimage,
                );
                writes.push((job.leaf + seg as u64, page));
                seg += 1;
            }
            journal.lsmap.push((job.leaf, self.lsmap.get(job.leaf)));
            self.lsmap.set(job.leaf, (seg - 1) as u32);
        }

        // Phase B: full path — whole-region reads, shrink, possible splits.
        if !full_path.is_empty() {
            let regions: Vec<(PageId, u64)> = full_path.iter().map(|&i| (chunk[i].leaf, segments as u64)).collect();
            let images = self.read_leaves(&regions)?;
            let mut rest = &images[..];
            for &i in &full_path {
                let job = &chunk[i];
                let tiles = next_region(&mut rest, segments as u64, page_size);
                // One undo step per page of the region, each the page's
                // shared image.
                for (p, tile) in tiles.iter().enumerate() {
                    journal.image(self, job.leaf + p as u64, PageImage::clone(tile), PageClass::Leaf);
                }
                self.stats.leaf_rewrites += 1;
                leaf.records.clear();
                leaf.records
                    .extend(LeafView::new(job.leaf, tiles, page_size)?.records());
                leaf.append(job.ops);
                self.stats.shrinks += 1;
                leaf.shrink();
                if leaf.len() <= leaf_cap {
                    journal.lsmap.push((job.leaf, self.lsmap.get(job.leaf)));
                    self.lsmap.set_sorted(job.leaf, leaf.segment_fences(page_size));
                    writes.push((job.leaf, leaf.encode(page_size)));
                    continue;
                }
                // Still full after shrinking: split until every part fits.
                let mut parts = vec![leaf];
                while let Some(i) = parts.iter().position(|p| p.len() > leaf_cap) {
                    let (_, upper) = parts[i].split();
                    parts.insert(i + 1, upper);
                }
                self.stats.leaf_splits += (parts.len() - 1) as u64;
                for (pi, part) in parts.iter().enumerate() {
                    let target = if pi == 0 {
                        job.leaf
                    } else {
                        let fresh = self.store.allocate_contiguous(segments as u64);
                        journal.alloc(self, fresh, segments as u64);
                        fresh
                    };
                    journal.lsmap.push((target, self.lsmap.get(target)));
                    self.lsmap.set_sorted(target, part.segment_fences(page_size));
                    writes.push((target, part.encode(page_size)));
                    if pi > 0 {
                        fences.push(FenceInsert {
                            path: descent.path(job.first).to_vec(),
                            key: part.records.first().expect("non-empty split part").key,
                            new_child: target,
                        });
                    }
                }
                // The lower part keeps the buffer: the next job refills it.
                leaf = parts.swap_remove(0);
            }
        }

        self.scratch.leaf_records = leaf.records;

        // Phase C: after the chunk's one WAL force, write everything back
        // through the write driver (reads never mix with writes).
        self.force_wal()?;
        self.write(&writes, PageClass::Leaf)
    }

    /// Inserts the fence keys produced by leaf splits into their parents, splitting
    /// internal nodes (and ultimately the root) as needed, a level at a time:
    /// the level's parents are read through the read driver, and its modified
    /// and new nodes written through the write driver, in psync calls of at
    /// most `PioMax` nodes.
    fn propagate_fences(&mut self, mut pending: Vec<FenceInsert>, journal: &mut FlushJournal) -> IoResult<()> {
        let page_size = self.config.page_size;
        let internal_cap = InternalNode::max_children(page_size);
        while !pending.is_empty() {
            // Fences whose parent path is empty mean the root split: build a new root.
            let (rootless, rest): (Vec<FenceInsert>, Vec<FenceInsert>) =
                pending.into_iter().partition(|f| f.path.is_empty());
            if !rootless.is_empty() {
                let mut adds: Vec<(Key, PageId)> = rootless.iter().map(|f| (f.key, f.new_child)).collect();
                adds.sort_by_key(|&(k, _)| k);
                let new_root_page = self.store.allocate();
                journal.alloc(self, new_root_page, 1);
                let node = InternalNode {
                    keys: adds.iter().map(|&(k, _)| k).collect(),
                    children: std::iter::once(self.root).chain(adds.iter().map(|&(_, p)| p)).collect(),
                };
                assert!(node.children.len() <= internal_cap, "root fan-in exceeded in one flush");
                // The root-change record must be durable before the new root
                // exists anywhere: if the crash comes later in this flush, undo
                // restores the previous root/height from it.
                journal.root(self, new_root_page);
                self.force_wal()?;
                self.write(
                    &[(new_root_page, Node::Internal(node).encode(page_size))],
                    PageClass::Inner,
                )?;
                self.root = new_root_page;
                self.height += 1;
                self.stats.height_growths += 1;
            }
            if rest.is_empty() {
                break;
            }

            // Group the remaining fences by the parent node they must be applied to.
            let mut groups: Vec<(PageId, Vec<FenceInsert>)> = Vec::new();
            for f in rest {
                let parent = f.path.last().expect("non-empty path").0;
                match groups.iter_mut().find(|(p, _)| *p == parent) {
                    Some((_, v)) => v.push(f),
                    None => groups.push((parent, vec![f])),
                }
            }
            let parent_pages: Vec<(PageId, u64)> = groups.iter().map(|&(p, _)| (p, 1)).collect();
            let mut images = Vec::with_capacity(parent_pages.len());
            self.scratch.ring.set_depth(self.pipeline_depth);
            read_regions(
                &self.store,
                &parent_pages,
                PageClass::Inner,
                AccessHint::Point,
                self.config.pio_max,
                &mut self.scratch.ring,
                |_, call| {
                    images.extend(call);
                    Ok(())
                },
            )?;
            let mut writes: Vec<(PageId, PageImage)> = Vec::new();
            let mut next_pending: Vec<FenceInsert> = Vec::new();

            for ((parent_page, fences), image) in groups.into_iter().zip(images) {
                let mut node = InternalView::new(parent_page, &image)?.to_owned();
                journal.image(self, parent_page, image, PageClass::Inner);
                let grandparent_path = &fences[0].path[..fences[0].path.len() - 1];
                for f in &fences {
                    let idx = node.keys.partition_point(|&k| k < f.key);
                    node.keys.insert(idx, f.key);
                    node.children.insert(idx + 1, f.new_child);
                }
                while node.children.len() > internal_cap {
                    self.stats.internal_splits += 1;
                    let mid = node.keys.len() / 2;
                    let promote = node.keys[mid];
                    let right = InternalNode {
                        keys: node.keys.split_off(mid + 1),
                        children: node.children.split_off(mid + 1),
                    };
                    node.keys.pop();
                    let right_page = self.store.allocate();
                    journal.alloc(self, right_page, 1);
                    writes.push((right_page, Node::Internal(right).encode(page_size)));
                    next_pending.push(FenceInsert {
                        path: grandparent_path.to_vec(),
                        key: promote,
                        new_child: right_page,
                    });
                }
                writes.push((parent_page, Node::Internal(node).encode(page_size)));
            }
            self.force_wal()?;
            self.write(&writes, PageClass::Inner)?;
            pending = next_pending;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::tests::{fail_write_in, failing_tree};
    use crate::{PioBTree, PioConfig};
    use btree::InternalView;
    use ssd_sim::DeviceProfile;
    use storage::{PageClass, PageId};

    /// The class of `page`'s entry, if the cache holds it: the class its
    /// hit counts in.
    fn entry_class(t: &PioBTree, page: PageId) -> Option<PageClass> {
        let leaf_hits = t.store().leaf_cache_stats().hits;
        t.store().resident_pages().get(page)?;
        Some(match t.store().leaf_cache_stats().hits > leaf_hits {
            true => PageClass::Leaf,
            false => PageClass::Inner,
        })
    }

    /// A flush that fails part-way is rolled back in process, and the pages
    /// the rollback rewrites — the leaf segments the flush appended to — go
    /// back into the cache as what they are: leaf entries. Every resident
    /// entry's class matches the page on the device, with and without a
    /// leaf budget.
    #[test]
    fn a_rolled_back_leaf_page_is_a_leaf_entry() {
        for leaf_cache_pages in [0, 256] {
            let config = PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(4)
                .pio_max(4)
                .bcnt(120)
                .pool_pages(128)
                .leaf_cache_pages(leaf_cache_pages)
                .build();
            let entries: Vec<(u64, u64)> = (0..4_000u64).map(|k| (k * 3, k)).collect();
            let (mut t, failing) = failing_tree(config, &entries);
            for k in (0..4_000u64).step_by(37) {
                t.update(k * 3, k + 1).unwrap();
            }
            let appends = t.stats().leaf_appends;
            // The first chunk's segment writes land, the second chunk's fail.
            fail_write_in(&failing, 1);
            t.flush_once().unwrap_err();
            assert!(t.stats().leaf_appends > appends, "the flush appended to leaves");
            let mut leaf_entries = 0;
            for page in 0..t.store().store().high_water_pages() {
                let Some(class) = entry_class(&t, page) else { continue };
                let image = t.store().store().read_page(page).unwrap();
                let is_node = InternalView::new(page, &image).is_ok();
                let expected = if is_node { PageClass::Inner } else { PageClass::Leaf };
                assert_eq!(class, expected, "leaf budget {leaf_cache_pages}: page {page}");
                leaf_entries += (class == PageClass::Leaf) as usize;
            }
            assert!(leaf_entries > 0, "leaf budget {leaf_cache_pages}");
            assert_eq!(t.check_invariants().unwrap(), 4_000);
        }
    }

    /// With a leaf budget, the last segment bupdate's append path writes
    /// stays in the cache as a leaf entry — in the one budget, however small
    /// the pool's share — so the next flush that reaches the leaf reads it
    /// for Phase A without touching the device.
    #[test]
    fn a_last_segment_bupdate_wrote_is_a_phase_a_hit_for_the_next_flush() {
        let config = PioConfig::builder()
            .page_size(2048)
            .leaf_segments(2)
            .opq_pages(1)
            .pool_pages(2)
            .leaf_cache_pages(64)
            .build();
        let mut t = PioBTree::create(DeviceProfile::F120, 1 << 30, config).unwrap();
        for k in 0..2_000u64 {
            t.insert(k * 10, k).unwrap();
        }
        t.checkpoint().unwrap();
        t.store().drop_cache();
        let device_reads = |t: &PioBTree| t.store().store().stats().page_reads;
        t.update(5_000, 1).unwrap();
        let (reads, appends) = (device_reads(&t), t.stats().leaf_appends);
        t.checkpoint().unwrap();
        assert!(device_reads(&t) > reads, "the first flush reads the cold segment");
        assert_eq!(t.stats().leaf_appends, appends + 1);
        t.update(5_010, 2).unwrap();
        let (reads, hits) = (device_reads(&t), t.store().leaf_cache_stats().hits);
        t.checkpoint().unwrap();
        assert_eq!(t.stats().leaf_appends, appends + 2, "both flushes take the append path");
        assert_eq!(
            device_reads(&t),
            reads,
            "the second flush reads nothing from the device"
        );
        assert!(t.store().leaf_cache_stats().hits > hits);
        assert_eq!((t.search(5_000).unwrap(), t.search(5_010).unwrap()), (Some(1), Some(2)));
    }
}
