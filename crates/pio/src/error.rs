//! Error type shared by all psync I/O backends.

use std::fmt;

/// Result alias used by everything in this crate.
pub type IoResult<T> = Result<T, IoError>;

/// Errors returned by psync I/O backends.
#[derive(Debug)]
pub enum IoError {
    /// A request referenced an address range outside the backing store.
    OutOfBounds {
        /// First byte requested.
        offset: u64,
        /// Length requested.
        len: u64,
        /// Size of the backing store.
        capacity: u64,
    },
    /// A request had zero length.
    EmptyRequest,
    /// An operating-system error from the real-file backend.
    Os(std::io::Error),
    /// A worker thread of the file backend panicked or disconnected.
    WorkerFailed(String),
    /// A caller-supplied configuration failed validation before any I/O was issued.
    InvalidConfig(String),
    /// A completion was requested for a ticket this backend never issued (or one
    /// that was already reaped).
    UnknownTicket(u64),
    /// Data returned by a read failed checksum verification: the device handed
    /// back bytes whose checksum does not match the one recorded when the range
    /// was last written. Either the transfer was corrupted in flight (a re-read
    /// may succeed) or the stored page has rotted (scrub / recovery territory).
    Corruption {
        /// First byte of the corrupt range.
        offset: u64,
        /// Length of the corrupt range.
        len: u64,
    },
}

impl IoError {
    /// Whether retrying the same operation can plausibly succeed.
    ///
    /// Transient conditions — an interrupted syscall, a backend that is
    /// momentarily saturated or degraded (`WouldBlock`), a deadline that fired
    /// under a latency spike (`TimedOut`) — are worth retrying, possibly after
    /// a backoff. Everything else is deterministic on retry: caller bugs
    /// ([`IoError::OutOfBounds`], [`IoError::EmptyRequest`],
    /// [`IoError::InvalidConfig`], [`IoError::UnknownTicket`]), crashed
    /// workers, hard OS failures, and [`IoError::Corruption`] (which the
    /// storage layer has already re-read once before propagating).
    pub fn is_retryable(&self) -> bool {
        match self {
            IoError::Os(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::OutOfBounds { offset, len, capacity } => write!(
                f,
                "I/O request [{offset}, {}) exceeds backing store of {capacity} bytes",
                offset + len
            ),
            IoError::EmptyRequest => write!(f, "I/O request with zero length"),
            IoError::Os(e) => write!(f, "operating system I/O error: {e}"),
            IoError::WorkerFailed(msg) => write!(f, "I/O worker failed: {msg}"),
            IoError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            IoError::UnknownTicket(id) => write!(f, "unknown or already-completed I/O ticket {id}"),
            IoError::Corruption { offset, len } => write!(
                f,
                "checksum mismatch reading [{offset}, {}): device returned corrupt data",
                offset.saturating_add(*len)
            ),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Os(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Os(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = IoError::OutOfBounds {
            offset: 10,
            len: 20,
            capacity: 15,
        };
        assert!(e.to_string().contains("[10, 30)"));
        assert!(e.to_string().contains("15 bytes"));
        assert!(IoError::EmptyRequest.to_string().contains("zero length"));
        let os = IoError::from(std::io::Error::other("boom"));
        assert!(os.to_string().contains("boom"));
        assert!(IoError::WorkerFailed("gone".into()).to_string().contains("gone"));
        assert!(IoError::InvalidConfig("bcnt must be at least 1".into())
            .to_string()
            .contains("bcnt"));
    }

    #[test]
    fn retryability_is_structural() {
        use std::io::ErrorKind;
        for kind in [ErrorKind::Interrupted, ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            assert!(IoError::Os(std::io::Error::new(kind, "transient")).is_retryable());
        }
        assert!(!IoError::Os(std::io::Error::new(ErrorKind::PermissionDenied, "hard")).is_retryable());
        assert!(!IoError::EmptyRequest.is_retryable());
        assert!(!IoError::WorkerFailed("gone".into()).is_retryable());
        assert!(!IoError::Corruption { offset: 0, len: 4096 }.is_retryable());
        let corrupt = IoError::Corruption {
            offset: 2048,
            len: 2048,
        };
        assert!(corrupt.to_string().contains("[2048, 4096)"));
        assert!(corrupt.to_string().contains("checksum"));
    }

    #[test]
    fn source_is_present_only_for_os_errors() {
        use std::error::Error;
        let os = IoError::from(std::io::Error::other("x"));
        assert!(os.source().is_some());
        assert!(IoError::EmptyRequest.source().is_none());
    }
}
