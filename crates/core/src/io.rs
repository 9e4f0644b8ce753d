//! The tree's two I/O drivers: every level's batched read goes through
//! [`read_regions`], every write through [`write_regions`]. Each sends its
//! list in psync calls of at most `PioMax` items — the paper's call (Section
//! 2, Fig. 3), the unit its cost model charges (Section 3.5) — keeps up to its
//! ring's depth of calls in flight ([`run_pipeline`]), and reaps every call
//! before it returns. A read and a write never share a call (Principle 3).
//!
//! The read driver's items are regions. The store answers resident pages
//! from the pool and sends only the misses to the device. A list that names
//! each region once — a level's distinct nodes, a lookup's distinct leaf
//! pieces, a range's leaves, bupdate's last segments — so never asks for a
//! page twice in one call, nor for a page an earlier call of the list still
//! has in flight.
//!
//! The write driver's items are `(first page, image)` pairs, each one device
//! request: a page, or a whole leaf region. A write is durable when the
//! driver returns. The pairs of one list name disjoint pages, so calls in
//! flight together never overlap.

use pio::ring::run_pipeline;
use pio::{IoResult, TicketRing};
use std::ops::Range;
use storage::{AccessHint, CachedReadTicket, CachedStore, CachedWriteTicket, PageClass, PageId, PageImage};

/// The one read driver of every level, the leaf level included: reads
/// `regions` through the store as pages of `class`, with psync calls
/// of at most `pio_max` regions, `ring`'s depth of them in flight
/// ([`run_pipeline`]). Hands `consume` each call's range of `regions` and the
/// images that tile them, call after call in order. A list that names each
/// region once never requests a page twice in one call.
pub(crate) fn read_regions(
    store: &CachedStore,
    regions: &[(PageId, u64)],
    class: PageClass,
    hint: AccessHint,
    pio_max: usize,
    ring: &mut TicketRing<CachedReadTicket>,
    mut consume: impl FnMut(Range<usize>, Vec<PageImage>) -> IoResult<()>,
) -> IoResult<()> {
    let pio_max = pio_max.max(1);
    let call = |c: usize| c * pio_max..((c + 1) * pio_max).min(regions.len());
    run_pipeline(
        ring,
        regions.len().div_ceil(pio_max),
        |c| store.submit_read(&regions[call(c)], class, hint),
        |ticket| store.complete_read(ticket),
        |c, images| consume(call(c), images),
    )
}

/// The one write driver: writes `images`, pages of `class`, through the
/// store in psync calls of at most `pio_max` images, `ring`'s depth of them
/// in flight ([`run_pipeline`]). Every call is reaped before it returns, so
/// the write is durable at return; on an error every call in flight is
/// reaped first.
pub(crate) fn write_regions(
    store: &CachedStore,
    images: &[(PageId, PageImage)],
    class: PageClass,
    pio_max: usize,
    ring: &mut TicketRing<CachedWriteTicket>,
) -> IoResult<()> {
    let pio_max = pio_max.max(1);
    let call = |c: usize| c * pio_max..((c + 1) * pio_max).min(images.len());
    run_pipeline(
        ring,
        images.len().div_ceil(pio_max),
        |c| store.submit_write(&images[call(c)], class),
        |ticket| store.complete_write(ticket),
        |_, ()| Ok(()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use std::sync::Arc;
    use storage::{PageStore, WritePolicy};

    /// Ten two-page regions written at `PioMax` 4 leave in three calls of
    /// 4, 4 and 2 requests, and read back whole in three calls as well.
    #[test]
    fn both_drivers_send_calls_of_at_most_pio_max() {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 16 << 20));
        let store = CachedStore::new(PageStore::new(io, 512), 64, WritePolicy::WriteThrough);
        let images: Vec<(PageId, PageImage)> = (0..10u8)
            .map(|i| (store.allocate_contiguous(2), PageImage::from(vec![i; 1024])))
            .collect();
        let stats = || store.store().io().io_stats();
        let before = stats();
        write_regions(&store, &images, PageClass::Leaf, 4, &mut TicketRing::new(2)).unwrap();
        let after = stats();
        assert_eq!((after.batches - before.batches, after.writes - before.writes), (3, 10));
        assert_eq!(after.max_batch, 4);

        let regions: Vec<(PageId, u64)> = images.iter().map(|&(first, _)| (first, 2)).collect();
        let mut calls = Vec::new();
        let mut ring = TicketRing::new(2);
        read_regions(
            &store,
            &regions,
            PageClass::Leaf,
            AccessHint::Scan,
            4,
            &mut ring,
            |c, tiles| {
                for ((_, image), tile) in images[c.clone()].iter().zip(&tiles) {
                    assert_eq!(tile, image);
                }
                calls.push(c);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(calls, [0..4, 4..8, 8..10]);
    }
}
