//! [`TicketRing`] and [`run_pipeline`]: the one driver of depth-N pipelined
//! hot paths.
//!
//! The tree's batched operations used to hard-code double buffering (one ticket
//! in flight while the next batch is prepared). The ring generalises that to a
//! configurable depth derived from the device's queue headroom
//! ([`crate::IoQueue::queue_depth_hint`]): [`run_pipeline`] keeps up to `depth`
//! submissions outstanding, completes the oldest whenever it needs its data (or
//! needs room), and on any error **drains** every remaining ticket before
//! surfacing it — no submission may outlive the operation that issued it.
//! Every pipelined path of the tree runs through it, so the ring's own
//! operations are private to this module.
//!
//! With `depth == 1` the loop degenerates to blocking submit-then-wait; with
//! `depth == 2` it is exactly the historic double buffering.

use std::collections::VecDeque;

/// Runs the canonical pipelined consumption loop over `jobs` indexed jobs:
/// submissions are issued in job order up to the ring's depth ahead of the
/// consumer, each job's completion is handed to `consume` in order, and on any
/// error — `consume`'s included: what a read returned may not parse — every
/// in-flight ticket is drained through `complete` (results discarded) before
/// the error is returned. The ring is the caller's, empty on entry and on
/// return, so a caller that keeps it runs the loop without allocating.
///
/// This is the shape of every pipeline of the tree, which runs it through
/// two drivers: the read driver (multi-search and prange leaf fetches, each
/// internal level of an MPSearch descent, bupdate's last-segment prefetch)
/// and the write driver (every tree write, bulk load's included).
pub fn run_pipeline<T, R, E>(
    ring: &mut TicketRing<T>,
    jobs: usize,
    mut submit: impl FnMut(usize) -> Result<T, E>,
    mut complete: impl FnMut(T) -> Result<R, E>,
    mut consume: impl FnMut(usize, R) -> Result<(), E>,
) -> Result<(), E> {
    debug_assert!(ring.is_empty(), "a pipeline starts with nothing in flight");
    let mut next_submit = 0usize;
    for job in 0..jobs {
        while next_submit < jobs && ring.has_room() {
            match submit(next_submit) {
                Ok(ticket) => ring.push(ticket),
                Err(e) => {
                    ring.drain_with(|t| {
                        let _ = complete(t);
                    });
                    return Err(e);
                }
            }
            next_submit += 1;
        }
        let ticket = ring.pop().expect("submitted above");
        if let Err(e) = complete(ticket).and_then(|result| consume(job, result)) {
            ring.drain_with(|t| {
                let _ = complete(t);
            });
            return Err(e);
        }
    }
    Ok(())
}

/// A bounded FIFO of in-flight tickets (generic: storage-tier tickets are not
/// `pio` types), filled and emptied by [`run_pipeline`]. A caller keeps one
/// to run its pipelines without allocating.
#[derive(Debug)]
pub struct TicketRing<T> {
    depth: usize,
    inflight: VecDeque<T>,
}

/// A depth-1 ring that has not allocated yet.
impl<T> Default for TicketRing<T> {
    fn default() -> Self {
        Self::new(1)
    }
}

impl<T> TicketRing<T> {
    /// A ring holding at most `depth` in-flight tickets (clamped to ≥ 1). It
    /// allocates at its first push, so a pipeline that submits nothing never
    /// does.
    pub fn new(depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            inflight: VecDeque::new(),
        }
    }

    /// Sets the depth (clamped to ≥ 1) of a ring with nothing in flight,
    /// keeping its buffer.
    pub fn set_depth(&mut self, depth: usize) {
        debug_assert!(self.is_empty(), "depth changes between pipelines");
        self.depth = depth.max(1);
    }

    /// Whether nothing is in flight.
    fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Whether another ticket may be pushed without exceeding the depth.
    fn has_room(&self) -> bool {
        self.inflight.len() < self.depth
    }

    /// Enqueues a freshly submitted ticket.
    ///
    /// # Panics
    /// Panics if the ring is full — the oldest ticket must be popped (and
    /// completed) first, which is what bounds the buffer memory at `depth`
    /// batches.
    fn push(&mut self, ticket: T) {
        assert!(self.has_room(), "TicketRing over depth {}", self.depth);
        self.inflight.push_back(ticket);
    }

    /// Removes the oldest in-flight ticket (submission order), if any.
    fn pop(&mut self) -> Option<T> {
        self.inflight.pop_front()
    }

    /// Drains every in-flight ticket through `complete`, oldest first,
    /// discarding results — the error discipline of a failed pipeline: the
    /// operation is about to return an error, and no submission may be left
    /// outstanding on the backend.
    fn drain_with(&mut self, mut complete: impl FnMut(T)) {
        while let Some(ticket) = self.inflight.pop_front() {
            complete(ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_clamped_and_bounds_the_ring() {
        let mut ring: TicketRing<u32> = TicketRing::new(0);
        assert_eq!(ring.depth, 1);
        assert!(ring.has_room());
        ring.push(7);
        assert!(!ring.has_room());
        assert_eq!(ring.pop(), Some(7));
        assert!(ring.is_empty());
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut ring = TicketRing::new(3);
        for t in [1, 2, 3] {
            ring.push(t);
        }
        assert_eq!(ring.inflight.len(), 3);
        assert_eq!(ring.pop(), Some(1));
        ring.push(4);
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
        assert_eq!(ring.pop(), Some(4));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn drain_completes_everything_oldest_first() {
        let mut ring = TicketRing::new(4);
        for t in [10, 20, 30] {
            ring.push(t);
        }
        let mut drained = Vec::new();
        ring.drain_with(|t| drained.push(t));
        assert_eq!(drained, vec![10, 20, 30]);
        assert!(ring.is_empty());
    }

    #[test]
    #[should_panic(expected = "TicketRing over depth")]
    fn overfilling_panics() {
        let mut ring = TicketRing::new(1);
        ring.push(1);
        ring.push(2);
    }

    #[test]
    fn run_pipeline_consumes_in_order_with_lookahead() {
        let mut submitted = Vec::new();
        let mut consumed = Vec::new();
        run_pipeline::<usize, usize, ()>(
            &mut TicketRing::new(3),
            7,
            |job| {
                submitted.push(job);
                Ok(job)
            },
            |t| Ok(t * 10),
            |job, r| {
                consumed.push((job, r));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(submitted, (0..7).collect::<Vec<_>>());
        assert_eq!(consumed, (0..7).map(|j| (j, j * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn run_pipeline_drains_on_error() {
        let mut ring = TicketRing::new(4);
        let mut completed = Vec::new();
        let err = run_pipeline::<usize, usize, &str>(
            &mut ring,
            10,
            Ok,
            |t| {
                completed.push(t);
                if t == 2 {
                    Err("boom")
                } else {
                    Ok(t)
                }
            },
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert_eq!(err, "boom");
        // Jobs 0..6 were submitted (depth-4 lookahead past the failing job 2);
        // every one of them was completed — the failures' survivors drained.
        assert_eq!(completed, vec![0, 1, 2, 3, 4, 5]);
        assert!(ring.is_empty(), "a failed pipeline leaves its ring reusable");
        // A failing consume drains the same way.
        completed.clear();
        let err = run_pipeline::<usize, usize, &str>(
            &mut ring,
            10,
            Ok,
            |t| {
                completed.push(t);
                Ok(t)
            },
            |job, _| if job == 2 { Err("unparsable") } else { Ok(()) },
        )
        .unwrap_err();
        assert_eq!(err, "unparsable");
        assert_eq!(completed, vec![0, 1, 2, 3, 4, 5]);
    }
}
