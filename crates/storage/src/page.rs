//! Page identifiers and small helpers shared by the storage layer.

/// Logical page identifier within a [`crate::PageStore`].
///
/// Page 0 is a valid, allocatable page; [`INVALID_PAGE`] is the sentinel used for
/// "no page" (for example the right-sibling pointer of the right-most leaf).
pub type PageId = u64;

/// Sentinel value meaning "no page".
pub const INVALID_PAGE: PageId = u64::MAX;

/// A page or region image as the cache holds it and as reads return it:
/// shared and immutable. A cache hit is a reference-count bump, and a write
/// installs a *new* image — the bytes behind a `PageImage` a reader still
/// holds never change.
pub type PageImage = std::sync::Arc<[u8]>;

/// A new image of `len` bytes: zeroed, then written in place by `write`
/// before anything else can see it — no copy, and no allocation when this
/// thread has a spare image of `len` bytes ([`pio::zeroed_image`]). This is
/// how a page to be written is encoded: the image goes to the device and into
/// the cache as it is.
pub fn new_image(len: usize, write: impl FnOnce(&mut [u8])) -> PageImage {
    let mut image = pio::zeroed_image(len);
    write(PageImage::get_mut(&mut image).expect("a new image is unshared"));
    image
}

/// Returns the byte offset of `page` in a store with `page_size`-byte pages.
/// A page id too large to have an offset (only a rotted pointer is) saturates
/// to `u64::MAX`, which every backend's bounds check rejects — it must never
/// wrap around to another page's bytes.
pub fn page_offset(page: PageId, page_size: usize) -> u64 {
    page.saturating_mul(page_size as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_scale_with_page_size() {
        assert_eq!(page_offset(0, 4096), 0);
        assert_eq!(page_offset(3, 4096), 12288);
        assert_eq!(page_offset(3, 2048), 6144);
        // 2^52 pages of 4 KiB would wrap to offset 0.
        assert_eq!(page_offset(1 << 52, 4096), u64::MAX);
        assert_eq!(page_offset(u64::MAX, 2048), u64::MAX);
    }

    #[test]
    fn a_new_image_is_zeroed_and_then_written() {
        let image = new_image(8, |buf| buf[2] = 7);
        assert_eq!(&image[..], &[0, 0, 7, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn invalid_page_is_distinct_from_real_pages() {
        assert_ne!(INVALID_PAGE, 0);
        assert_ne!(INVALID_PAGE, 1);
    }
}
