//! The typed request/response protocol of the service front end.
//!
//! A client submits a [`Request`], blocks, and receives a [`Response`] carrying
//! both the operation's result and the [`RequestTiming`] the service measured
//! for it — where the request waited and for how long. Failures surface as
//! [`ServiceError`]; because one engine call serves a whole coalesced batch, an
//! engine error fans out to every request of the failed batch (which is why the
//! error type is `Clone` and carries the rendered message rather than the
//! un-clonable [`pio::IoError`] itself).

use btree::{Key, Value};
use std::fmt;

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Point lookup of `key`.
    Get {
        /// Key to look up.
        key: Key,
    },
    /// Insert-or-update of `key`. The ack implies the write is as durable as
    /// the engine's configuration makes it (with WALs enabled: the batch's
    /// commit has been forced before the response is sent).
    Put {
        /// Key to write.
        key: Key,
        /// Value to associate with `key`.
        value: Value,
    },
    /// Range scan over `[lo, hi)`.
    Scan {
        /// Inclusive lower bound.
        lo: Key,
        /// Exclusive upper bound.
        hi: Key,
    },
}

impl Request {
    /// The request's class, for accounting.
    pub fn class(&self) -> RequestClass {
        match self {
            Request::Get { .. } => RequestClass::Get,
            Request::Put { .. } => RequestClass::Put,
            Request::Scan { .. } => RequestClass::Scan,
        }
    }
}

/// Classification of a [`Request`] for per-class counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Point lookup.
    Get,
    /// Insert-or-update.
    Put,
    /// Range scan.
    Scan,
}

/// The operation-specific payload of a [`Response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// A get's outcome: the value, or `None` when the key is absent.
    Value(Option<Value>),
    /// A put's ack.
    Done,
    /// A scan's entries, in key order.
    Entries(Vec<(Key, Value)>),
}

/// Where a request spent its time, as measured by the service.
///
/// `total_us ≈ queue_us + service_us` up to scheduling noise: the queue time
/// runs from admission until the thread that took the request's batch starts
/// the engine call, the service time is that engine call, and the total is
/// end-to-end from admission to ack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestTiming {
    /// Microseconds from admission until the request's batch began executing
    /// (the time it spent in its batch builder; scans run at once on their
    /// caller).
    pub queue_us: u64,
    /// Microseconds the carrying engine call took (shared by every request in
    /// the batch — this is the *batch* service time, not a per-request share).
    pub service_us: u64,
    /// Microseconds from admission to ack.
    pub total_us: u64,
}

/// A completed request: its result plus the timing the service measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The operation's result.
    pub body: ResponseBody,
    /// Where the request's latency went.
    pub timing: RequestTiming,
}

impl Response {
    /// The value of a get response (`None` for misses *and* for non-get
    /// responses — match on [`Response::body`] when the distinction matters).
    pub fn value(&self) -> Option<Value> {
        match &self.body {
            ResponseBody::Value(v) => *v,
            _ => None,
        }
    }

    /// The entries of a scan response (empty for non-scan responses).
    pub fn entries(&self) -> &[(Key, Value)] {
        match &self.body {
            ResponseBody::Entries(e) => e,
            _ => &[],
        }
    }
}

/// Errors a request can fail with.
///
/// Every variant is classified as retryable or fatal by
/// [`ServiceError::is_retryable`]: a retryable failure means the request was
/// *cleanly rejected or abandoned* — resubmitting it is safe and has a fresh
/// chance (a degraded shard healing, load draining, a transient device error
/// passing). A fatal error means retrying the same request is pointless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The engine call carrying the request failed; every request of the batch
    /// receives the same rendered error. `retryable` preserves the underlying
    /// [`pio::IoError::is_retryable`] classification across the
    /// rendered-message boundary (the raw error is not `Clone`).
    Engine {
        /// The rendered engine error.
        message: String,
        /// Whether the underlying I/O error was transient (resubmit-safe).
        retryable: bool,
    },
    /// The request's deadline expired before its reply arrived. The operation
    /// may still complete — like [`ServiceError::Lost`], the outcome is
    /// unknown — but the *request* is cleanly over and may be retried
    /// (idempotent puts make the retry safe).
    Timeout,
    /// The admission controller shed the request because as many requests as
    /// the configured bound were already admitted and waiting for their
    /// answers. Nothing was enqueued; retry after backing off.
    Overloaded,
    /// The service is shut down (or shut down before the request was admitted).
    Closed,
    /// The request was admitted but the engine call carrying it panicked (on
    /// whichever client thread ran the batch). The operation may or may not
    /// have been applied.
    Lost,
}

impl ServiceError {
    /// Whether resubmitting the failed request is reasonable: `true` for
    /// transient engine errors, deadline expiries and load shedding; `false`
    /// for fatal engine errors, shutdown and lost replies.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServiceError::Engine { retryable, .. } => *retryable,
            ServiceError::Timeout | ServiceError::Overloaded => true,
            ServiceError::Closed | ServiceError::Lost => false,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Engine { message, retryable } => {
                let class = if *retryable { "transient" } else { "fatal" };
                write!(f, "engine error ({class}): {message}")
            }
            ServiceError::Timeout => write!(f, "request deadline expired (outcome unknown; safe to retry)"),
            ServiceError::Overloaded => write!(f, "service overloaded: admission queue full, request shed"),
            ServiceError::Closed => write!(f, "service is closed"),
            ServiceError::Lost => write!(f, "request was lost (its engine call panicked mid-batch)"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<pio::IoError> for ServiceError {
    fn from(e: pio::IoError) -> Self {
        ServiceError::Engine {
            retryable: e.is_retryable(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_classes() {
        assert_eq!(Request::Get { key: 1 }.class(), RequestClass::Get);
        assert_eq!(Request::Put { key: 1, value: 2 }.class(), RequestClass::Put);
        assert_eq!(Request::Scan { lo: 0, hi: 9 }.class(), RequestClass::Scan);
    }

    #[test]
    fn response_accessors() {
        let get = Response {
            body: ResponseBody::Value(Some(7)),
            timing: RequestTiming::default(),
        };
        assert_eq!(get.value(), Some(7));
        assert!(get.entries().is_empty());

        let scan = Response {
            body: ResponseBody::Entries(vec![(1, 10), (2, 20)]),
            timing: RequestTiming::default(),
        };
        assert_eq!(scan.value(), None);
        assert_eq!(scan.entries(), &[(1, 10), (2, 20)]);
    }

    #[test]
    fn errors_render_and_convert() {
        let e: ServiceError = pio::IoError::EmptyRequest.into();
        assert!(matches!(&e, ServiceError::Engine { message, .. } if message.contains("zero length")));
        assert!(ServiceError::Closed.to_string().contains("closed"));
        assert!(ServiceError::Lost.to_string().contains("lost"));
        assert!(ServiceError::Timeout.to_string().contains("deadline"));
        assert!(ServiceError::Overloaded.to_string().contains("overloaded"));
    }

    #[test]
    fn retryability_survives_the_conversion() {
        // A transient OS error stays retryable through the rendered boundary.
        let transient = pio::IoError::Os(std::io::Error::new(std::io::ErrorKind::Interrupted, "blip"));
        assert!(transient.is_retryable());
        let e: ServiceError = transient.into();
        assert!(e.is_retryable());
        // A structural error stays fatal.
        let fatal = pio::IoError::OutOfBounds {
            offset: 0,
            len: 8,
            capacity: 4,
        };
        assert!(!fatal.is_retryable());
        let e: ServiceError = fatal.into();
        assert!(!e.is_retryable());
        // The service-level outcomes classify themselves.
        assert!(ServiceError::Timeout.is_retryable());
        assert!(ServiceError::Overloaded.is_retryable());
        assert!(!ServiceError::Closed.is_retryable());
        assert!(!ServiceError::Lost.is_retryable());
    }
}
