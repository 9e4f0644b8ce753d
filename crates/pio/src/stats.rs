//! Statistics reported by psync I/O backends.

/// The outcome of one psync call (one batch).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchStats {
    /// Number of requests in the batch.
    pub requests: usize,
    /// Bytes transferred by the batch.
    pub bytes: u64,
    /// Simulated (or wall-clock) time the batch took, in µs.
    pub elapsed_us: f64,
    /// Context switches charged to the calling process for this batch.
    pub context_switches: u64,
}

impl BatchStats {
    /// Aggregate bandwidth of the batch in MiB/s (0 when instantaneous).
    pub fn bandwidth_mib_s(&self) -> f64 {
        if self.elapsed_us <= 0.0 {
            0.0
        } else {
            (self.bytes as f64 / (1024.0 * 1024.0)) / (self.elapsed_us / 1e6)
        }
    }
}

/// Cumulative statistics of a backend since creation or the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoStats {
    /// Read requests completed.
    pub reads: u64,
    /// Write requests completed.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// psync calls issued (read batches + write batches).
    pub batches: u64,
    /// Total simulated / wall-clock I/O time in µs.
    pub elapsed_us: f64,
    /// Context switches charged to the calling process.
    pub context_switches: u64,
    /// Largest batch submitted.
    pub max_batch: usize,
    /// Submissions made while the backend was idle (no tickets in flight), each
    /// of which begins a new overlap group on the device. A fully blocking
    /// caller begins one group per batch (`overlap_groups == batches`); a
    /// pipelined caller amortises many batches per group, so
    /// `batches − overlap_groups` counts the submissions that found earlier
    /// work still in flight. This is a backend-level notion: [`IoStats::absorb`]
    /// does not carry it into per-partition roll-ups.
    pub overlap_groups: u64,
    /// Batches resubmitted after a retryable failure (only the `ResilientIo`
    /// wrapper increments this; raw backends leave it 0).
    pub retries: u64,
    /// Batches abandoned after the retry budget or deadline ran out (only the
    /// `ResilientIo` wrapper increments this; raw backends leave it 0).
    pub give_ups: u64,
}

impl IoStats {
    /// Total bytes of either direction.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Folds one batch into the running totals. Batches are homogeneous (all reads or
    /// all writes), so the batch's bytes are attributed to whichever kind is non-zero.
    pub fn absorb(&mut self, kind_reads: u64, kind_writes: u64, batch: &BatchStats) {
        self.reads += kind_reads;
        self.writes += kind_writes;
        if kind_reads > 0 {
            self.read_bytes += batch.bytes;
        } else if kind_writes > 0 {
            self.write_bytes += batch.bytes;
        }
        self.batches += 1;
        self.elapsed_us += batch.elapsed_us;
        self.context_switches += batch.context_switches;
        if batch.requests > self.max_batch {
            self.max_batch = batch.requests;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_bandwidth() {
        let b = BatchStats {
            requests: 2,
            bytes: 2 * 1024 * 1024,
            elapsed_us: 1_000_000.0,
            context_switches: 2,
        };
        assert!((b.bandwidth_mib_s() - 2.0).abs() < 1e-12);
        let zero = BatchStats::default();
        assert_eq!(zero.bandwidth_mib_s(), 0.0);
    }

    #[test]
    fn absorb_accumulates() {
        let mut s = IoStats::default();
        let b = BatchStats {
            requests: 4,
            bytes: 4096,
            elapsed_us: 100.0,
            context_switches: 2,
        };
        s.absorb(4, 0, &b);
        s.absorb(
            0,
            2,
            &BatchStats {
                requests: 2,
                bytes: 2048,
                elapsed_us: 50.0,
                context_switches: 2,
            },
        );
        assert_eq!(s.reads, 4);
        assert_eq!(s.writes, 2);
        assert_eq!(s.batches, 2);
        assert_eq!(s.context_switches, 4);
        assert_eq!(s.max_batch, 4);
        assert!((s.elapsed_us - 150.0).abs() < 1e-12);
        assert_eq!(s.read_bytes, 4096);
        assert_eq!(s.write_bytes, 2048);
        assert_eq!(s.total_bytes(), 6144);
    }
}
