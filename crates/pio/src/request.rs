//! Read and write request descriptors for [`crate::IoQueue`].

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

/// A write of `data` at byte `offset`. Borrows the data so callers do not have to
/// copy page images into the request.
#[derive(Debug, Clone, Copy)]
pub struct WriteRequest<'a> {
    /// Byte offset of the first byte to write.
    pub offset: u64,
    /// The bytes to write.
    pub data: &'a [u8],
}

impl<'a> WriteRequest<'a> {
    /// Creates a write request.
    pub fn new(offset: u64, data: &'a [u8]) -> Self {
        Self { offset, data }
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
}
