//! Read and write request descriptors for [`crate::IoQueue`].

use crate::queue::copied_image;
use std::sync::Arc;

/// A read of `len` bytes at byte `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRequest {
    /// Byte offset of the first byte to read.
    pub offset: u64,
    /// Number of bytes to read.
    pub len: usize,
}

impl ReadRequest {
    /// Creates a read request.
    pub fn new(offset: u64, len: usize) -> Self {
        Self { offset, len }
    }

    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }
}

/// A write of `data` at byte `offset`.
///
/// A request either **borrows** its bytes ([`WriteRequest::new`]) or carries a
/// **shared image** ([`WriteRequest::shared`]), whose bytes `data` then points
/// at. A layer that must keep the bytes past submission — a retry wrapper, a
/// thread-pool job, a cache — takes another reference to a shared image
/// ([`WriteRequest::image`]) and copies only a borrowed one: a caller who
/// built the image anyway (a page encoded for the cache) hands it down the
/// stack without a copy, a caller with a scratch buffer (a log force) pays a
/// copy — into a spare image when the layer's thread has one
/// ([`crate::recycle_image`]), so once the layer hands its copies back the
/// copy allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct WriteRequest<'a> {
    /// Byte offset of the first byte to write.
    pub offset: u64,
    /// The bytes to write.
    pub data: &'a [u8],
    /// The image `data` is the whole of, when the request carries one; set
    /// only by [`WriteRequest::shared`].
    image: Option<&'a Arc<[u8]>>,
}

impl<'a> WriteRequest<'a> {
    /// Creates a write request that borrows `data`.
    pub fn new(offset: u64, data: &'a [u8]) -> Self {
        Self {
            offset,
            data,
            image: None,
        }
    }

    /// Creates a write request that carries the shared `image` (all of it).
    pub fn shared(offset: u64, image: &'a Arc<[u8]>) -> Self {
        Self {
            offset,
            data: image,
            image: Some(image),
        }
    }

    /// The same bytes — and the same shared image, if any — at `offset`.
    pub fn at(self, offset: u64) -> Self {
        Self { offset, ..self }
    }

    /// The shared image this request carries, if it carries one and `data`
    /// is still exactly that image (a request whose `data` was reassigned
    /// after construction borrows).
    pub fn image(&self) -> Option<&'a Arc<[u8]>> {
        self.image
            .filter(|image| std::ptr::eq(image.as_ptr(), self.data.as_ptr()) && image.len() == self.data.len())
    }

    /// The bytes as a shared image: another reference to the carried one, or
    /// a copy of borrowed bytes (into a spare image of this thread's, when it
    /// has one of the length).
    pub fn to_image(&self) -> Arc<[u8]> {
        self.image().map_or_else(|| copied_image(self.data), Arc::clone)
    }

    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_request_end() {
        assert_eq!(ReadRequest::new(100, 28).end(), 128);
    }

    #[test]
    fn write_request_end() {
        let data = [0u8; 16];
        assert_eq!(WriteRequest::new(16, &data).end(), 32);
    }

    #[test]
    fn a_shared_request_hands_its_image_down_and_a_borrowed_one_is_copied() {
        let image: Arc<[u8]> = Arc::from(&b"shared"[..]);
        let shared = WriteRequest::shared(8, &image).at(4104);
        assert_eq!((shared.offset, shared.data), (4104, &b"shared"[..]));
        assert!(Arc::ptr_eq(shared.image().unwrap(), &image));
        assert!(Arc::ptr_eq(&shared.to_image(), &image));

        let borrowed = WriteRequest::new(0, b"borrowed");
        assert!(borrowed.image().is_none());
        assert_eq!(&borrowed.to_image()[..], b"borrowed");

        // `data` reassigned after construction no longer agrees with the image.
        let mut cut = WriteRequest::shared(0, &image);
        cut.data = &image[..3];
        assert!(cut.image().is_none());
        assert_eq!(&cut.to_image()[..], b"sha");
    }
}
