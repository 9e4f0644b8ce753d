//! An in-memory byte store used as the data plane of the simulated backend.
//!
//! The [`ssd_sim`] device is timing-only, so the simulated backend pairs it with a
//! `MemDisk` that actually stores the bytes the index reads and writes. The disk
//! grows on demand up to a configurable capacity, in fixed-size extents so that a
//! mostly-empty address space does not allocate memory it never touches.
//!
//! A read copies the bytes out of the extents into an unshared image — the
//! device keeps its own bytes, so this copy stays — and that image is the one
//! the read's completion carries and a cache keeps. The image comes from
//! [`zeroed_image`]: a spare the reading thread got back from an eviction
//! when it has one, so a miss that evicts as much as it admits allocates
//! nothing once warm; a new allocation otherwise.

use crate::error::{IoError, IoResult};
use crate::queue::zeroed_image;
use std::sync::Arc;

const EXTENT_BYTES: usize = 1 << 20; // 1 MiB extents

/// A sparse, growable in-memory byte store.
#[derive(Debug, Default)]
pub struct MemDisk {
    extents: Vec<Option<Box<[u8]>>>,
    capacity: u64,
}

impl MemDisk {
    /// Creates a disk with the given capacity in bytes. Capacity is rounded up to a
    /// whole number of internal extents.
    pub fn new(capacity: u64) -> Self {
        let n_extents = capacity.div_ceil(EXTENT_BYTES as u64) as usize;
        Self {
            extents: (0..n_extents).map(|_| None).collect(),
            capacity: n_extents as u64 * EXTENT_BYTES as u64,
        }
    }

    /// The capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of extents that have actually been materialised.
    pub fn resident_extents(&self) -> usize {
        self.extents.iter().filter(|e| e.is_some()).count()
    }

    fn check(&self, offset: u64, len: u64) -> IoResult<()> {
        if len == 0 {
            return Err(IoError::EmptyRequest);
        }
        if offset.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(IoError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset` into an unshared image ([`zeroed_image`]:
    /// a zeroed spare of this thread's, or a new allocation). Unwritten
    /// regions read as zeroes, like a sparse file.
    pub fn read(&self, offset: u64, len: usize) -> IoResult<Arc<[u8]>> {
        self.check(offset, len as u64)?;
        let mut image = zeroed_image(len);
        let out = Arc::get_mut(&mut image).expect("a zeroed image is unshared");
        let mut copied = 0usize;
        while copied < len {
            let abs = offset + copied as u64;
            let extent_idx = (abs / EXTENT_BYTES as u64) as usize;
            let within = (abs % EXTENT_BYTES as u64) as usize;
            let n = (EXTENT_BYTES - within).min(len - copied);
            if let Some(extent) = &self.extents[extent_idx] {
                out[copied..copied + n].copy_from_slice(&extent[within..within + n]);
            }
            copied += n;
        }
        Ok(image)
    }

    /// Writes `data` at `offset`, materialising extents as needed.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> IoResult<()> {
        self.check(offset, data.len() as u64)?;
        let mut written = 0usize;
        while written < data.len() {
            let abs = offset + written as u64;
            let extent_idx = (abs / EXTENT_BYTES as u64) as usize;
            let within = (abs % EXTENT_BYTES as u64) as usize;
            let n = (EXTENT_BYTES - within).min(data.len() - written);
            let extent = self.extents[extent_idx].get_or_insert_with(|| vec![0u8; EXTENT_BYTES].into_boxed_slice());
            extent[within..within + n].copy_from_slice(&data[written..written + n]);
            written += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_regions_read_zero() {
        let d = MemDisk::new(4 * 1024 * 1024);
        let data = d.read(123_456, 1000).unwrap();
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(d.resident_extents(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut d = MemDisk::new(8 * 1024 * 1024);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        d.write(777, &payload).unwrap();
        assert_eq!(&d.read(777, payload.len()).unwrap()[..], payload);
        // Only the touched extents should be materialised.
        assert!(d.resident_extents() <= 2);
    }

    #[test]
    fn writes_spanning_extents() {
        let mut d = MemDisk::new(4 * 1024 * 1024);
        let offset = EXTENT_BYTES as u64 - 10;
        let payload = vec![0xAA; 20];
        d.write(offset, &payload).unwrap();
        assert_eq!(&d.read(offset, 20).unwrap()[..], payload);
        assert_eq!(d.resident_extents(), 2);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut d = MemDisk::new(1024 * 1024);
        assert!(matches!(
            d.write(d.capacity() - 4, &[0u8; 8]),
            Err(IoError::OutOfBounds { .. })
        ));
        assert!(matches!(d.read(d.capacity(), 1), Err(IoError::OutOfBounds { .. })));
        // An offset whose end overflows is out of bounds, not a wrap to byte 7.
        assert!(matches!(d.read(u64::MAX, 8), Err(IoError::OutOfBounds { .. })));
        assert!(matches!(
            d.write(u64::MAX - 3, &[0u8; 8]),
            Err(IoError::OutOfBounds { .. })
        ));
        assert!(matches!(d.read(0, 0), Err(IoError::EmptyRequest)));
    }

    #[test]
    fn capacity_rounds_up_to_extent() {
        let d = MemDisk::new(1);
        assert_eq!(d.capacity(), EXTENT_BYTES as u64);
    }

    #[test]
    fn overwrite_replaces_old_data() {
        let mut d = MemDisk::new(1024 * 1024);
        d.write(0, b"aaaaaaaa").unwrap();
        d.write(2, b"bb").unwrap();
        assert_eq!(&d.read(0, 8).unwrap()[..], b"aabbaaaa");
    }
}
