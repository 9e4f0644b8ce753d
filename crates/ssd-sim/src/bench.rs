//! Micro-benchmark helpers mirroring the device characterisation of Section 2.
//!
//! These helpers run the same experiments the paper uses to motivate its design
//! principles: latency as a function of the I/O size (Figure 2), bandwidth as a
//! function of the outstanding-I/O level (Figure 3 a/b), and the interference between
//! interleaved reads and writes (Figure 3 c). They are also used by the PIO B-tree's
//! auto-tuner (Section 3.6) to extract `Pr`, `Pw`, `Pr(L)`, `P'r` and `P'w` from a
//! device before choosing the leaf-node and OPQ sizes.

use crate::device::SsdDevice;
use crate::request::{IoKind, SsdRequest};

/// A single measured point of a micro-benchmark sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter (I/O size in bytes, or outstanding-I/O level).
    pub x: u64,
    /// Mean per-request latency in µs.
    pub latency_us: f64,
    /// Aggregate bandwidth in MiB/s.
    pub bandwidth_mib_s: f64,
}

/// Deterministic pseudo-random offset generator (xorshift), used so the sweeps touch
/// scattered logical addresses without depending on the `rand` crate.
#[derive(Debug, Clone)]
pub struct OffsetGen {
    state: u64,
    span_bytes: u64,
    align: u64,
}

impl OffsetGen {
    /// Creates a generator of offsets uniformly spread in `[0, span_bytes)`, aligned
    /// to `align` bytes.
    pub fn new(seed: u64, span_bytes: u64, align: u64) -> Self {
        assert!(align > 0 && span_bytes >= align);
        Self {
            state: seed.max(1),
            span_bytes,
            align,
        }
    }

    /// Produces the next pseudo-random aligned offset.
    pub fn next_offset(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let v = x.wrapping_mul(0x2545F4914F6CDD1D);
        let slots = self.span_bytes / self.align;
        (v % slots) * self.align
    }
}

/// Measures mean latency of random requests of each size in `sizes`, using a single
/// outstanding request at a time (the paper's Figure 2 methodology).
pub fn latency_vs_size(
    device: &mut SsdDevice,
    kind: IoKind,
    sizes: &[u64],
    requests_per_size: usize,
    span_bytes: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let mut gen = OffsetGen::new(seed ^ size, span_bytes, size.max(512));
        let mut total_latency = 0.0;
        let mut total_bytes = 0u64;
        let mut total_us = 0.0;
        for _ in 0..requests_per_size {
            let req = SsdRequest::new(kind, gen.next_offset(), size);
            let r = device.submit_batch(&[req]);
            total_latency += r.latencies_us[0];
            total_bytes += r.bytes;
            total_us += r.elapsed_us;
        }
        out.push(SweepPoint {
            x: size,
            latency_us: total_latency / requests_per_size as f64,
            bandwidth_mib_s: if total_us > 0.0 {
                (total_bytes as f64 / (1024.0 * 1024.0)) / (total_us / 1e6)
            } else {
                0.0
            },
        });
    }
    out
}

/// Measures bandwidth with `io_size`-byte random requests at each outstanding-I/O
/// level in `levels` (the paper's Figure 3 a/b methodology).
pub fn bandwidth_vs_outstanding(
    device: &mut SsdDevice,
    kind: IoKind,
    io_size: u64,
    levels: &[usize],
    batches_per_level: usize,
    span_bytes: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(levels.len());
    for &level in levels {
        let mut gen = OffsetGen::new(seed ^ level as u64, span_bytes, io_size.max(512));
        let mut total_bytes = 0u64;
        let mut total_us = 0.0;
        let mut total_latency = 0.0;
        let mut n_reqs = 0usize;
        for _ in 0..batches_per_level {
            let reqs: Vec<SsdRequest> = (0..level)
                .map(|_| SsdRequest::new(kind, gen.next_offset(), io_size))
                .collect();
            let r = device.submit_batch(&reqs);
            total_bytes += r.bytes;
            total_us += r.elapsed_us;
            total_latency += r.latencies_us.iter().sum::<f64>();
            n_reqs += level;
        }
        out.push(SweepPoint {
            x: level as u64,
            latency_us: if n_reqs > 0 { total_latency / n_reqs as f64 } else { 0.0 },
            bandwidth_mib_s: if total_us > 0.0 {
                (total_bytes as f64 / (1024.0 * 1024.0)) / (total_us / 1e6)
            } else {
                0.0
            },
        });
    }
    out
}

/// Measures mixed read/write bandwidth at each outstanding level, either highly
/// interleaved (read, write, read, write, …) or grouped (n reads then n writes) —
/// the paper's Figure 3(c) methodology.
pub fn mixed_bandwidth_vs_outstanding(
    device: &mut SsdDevice,
    io_size: u64,
    levels: &[usize],
    batches_per_level: usize,
    interleaved: bool,
    span_bytes: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(levels.len());
    for &level in levels {
        let mut gen = OffsetGen::new(seed ^ (level as u64) << 1, span_bytes, io_size.max(512));
        let mut total_bytes = 0u64;
        let mut total_us = 0.0;
        for _ in 0..batches_per_level {
            let mut reqs = Vec::with_capacity(level);
            if interleaved {
                for i in 0..level {
                    let kind = if i % 2 == 0 { IoKind::Read } else { IoKind::Write };
                    reqs.push(SsdRequest::new(kind, gen.next_offset(), io_size));
                }
            } else {
                let half = level / 2;
                for _ in 0..half.max(1) {
                    reqs.push(SsdRequest::new(IoKind::Read, gen.next_offset(), io_size));
                }
                for _ in half.max(1)..level {
                    reqs.push(SsdRequest::new(IoKind::Write, gen.next_offset(), io_size));
                }
            }
            let r = device.submit_batch(&reqs);
            total_bytes += r.bytes;
            total_us += r.elapsed_us;
        }
        out.push(SweepPoint {
            x: level as u64,
            latency_us: 0.0,
            bandwidth_mib_s: if total_us > 0.0 {
                (total_bytes as f64 / (1024.0 * 1024.0)) / (total_us / 1e6)
            } else {
                0.0
            },
        });
    }
    out
}

/// Device characterisation needed by the PIO B-tree auto-tuner (Section 3.6):
/// single-page read/write latency, leaf-node read latency for a given size, and the
/// amortised per-page latencies under psync I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCharacterisation {
    /// `Pr` — random read latency of one page (µs).
    pub page_read_us: f64,
    /// `Pw` — random write latency of one page (µs).
    pub page_write_us: f64,
    /// `P'r` — amortised read latency per page when `outstd` pages are read by one
    /// psync call (µs).
    pub psync_read_us: f64,
    /// `P'w` — amortised write latency per page when `outstd` pages are written by one
    /// psync call (µs).
    pub psync_write_us: f64,
    /// Outstanding level used to measure the amortised latencies.
    pub outstd: usize,
    /// Page size used for the characterisation (bytes).
    pub page_bytes: u64,
}

/// Runs the micro-benchmark of Section 3.6 against a device and returns its
/// characterisation. `page_bytes` is the B+-tree page / Leaf Segment size.
pub fn characterise(device: &mut SsdDevice, page_bytes: u64, outstd: usize, seed: u64) -> DeviceCharacterisation {
    let span = 4 * 1024 * 1024 * 1024u64; // 4 GiB file, as in the paper's benchmarks
    let reps = 64;
    let single_read = latency_vs_size(device, IoKind::Read, &[page_bytes], reps, span, seed);
    let single_write = latency_vs_size(device, IoKind::Write, &[page_bytes], reps, span, seed ^ 0xABCD);
    let batch_read = bandwidth_vs_outstanding(device, IoKind::Read, page_bytes, &[outstd], 16, span, seed ^ 0x1111);
    let batch_write = bandwidth_vs_outstanding(device, IoKind::Write, page_bytes, &[outstd], 16, span, seed ^ 0x2222);

    // Amortised per-page latency = elapsed / requests; recover it from bandwidth.
    let amortised = |point: &SweepPoint| -> f64 {
        if point.bandwidth_mib_s <= 0.0 {
            return 0.0;
        }
        let pages_per_sec = point.bandwidth_mib_s * 1024.0 * 1024.0 / page_bytes as f64;
        1e6 / pages_per_sec
    };

    DeviceCharacterisation {
        page_read_us: single_read[0].latency_us,
        page_write_us: single_write[0].latency_us,
        psync_read_us: amortised(&batch_read[0]),
        psync_write_us: amortised(&batch_write[0]),
        outstd,
        page_bytes,
    }
}

/// Measures the latency of reading a contiguous region of `n_pages` pages of
/// `page_bytes` each with a single request — `Pr(L)` in the paper's cost model.
pub fn leaf_read_latency(device: &mut SsdDevice, page_bytes: u64, n_pages: u64, seed: u64) -> f64 {
    let span = 4 * 1024 * 1024 * 1024u64;
    let size = page_bytes * n_pages;
    let pts = latency_vs_size(device, IoKind::Read, &[size], 32, span, seed);
    pts[0].latency_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::DeviceProfile;

    fn dev() -> SsdDevice {
        SsdDevice::new(DeviceProfile::F120.build())
    }

    #[test]
    fn offset_gen_is_aligned_and_bounded() {
        let mut g = OffsetGen::new(7, 1 << 20, 4096);
        for _ in 0..1000 {
            let o = g.next_offset();
            assert_eq!(o % 4096, 0);
            assert!(o < 1 << 20);
        }
    }

    #[test]
    fn offset_gen_is_deterministic() {
        let mut a = OffsetGen::new(42, 1 << 30, 2048);
        let mut b = OffsetGen::new(42, 1 << 30, 2048);
        for _ in 0..100 {
            assert_eq!(a.next_offset(), b.next_offset());
        }
    }

    #[test]
    fn latency_grows_but_sublinearly_with_size() {
        let mut d = dev();
        let sizes = [2048, 4096, 8192, 16384, 32768];
        let pts = latency_vs_size(&mut d, IoKind::Read, &sizes, 16, 1 << 30, 99);
        assert_eq!(pts.len(), sizes.len());
        let l2k = pts[0].latency_us;
        let l32k = pts[4].latency_us;
        assert!(l32k > l2k, "larger I/O must not be cheaper in absolute terms");
        assert!(
            l32k < l2k * 16.0,
            "latency must grow sub-linearly: 32 KiB={l32k}, 2 KiB={l2k}"
        );
    }

    #[test]
    fn bandwidth_improves_with_outstanding_level() {
        let mut d = dev();
        let pts = bandwidth_vs_outstanding(&mut d, IoKind::Read, 4096, &[1, 4, 16, 64], 8, 1 << 30, 5);
        assert!(pts[3].bandwidth_mib_s > pts[0].bandwidth_mib_s * 3.0);
    }

    #[test]
    fn interleaved_mix_is_slower() {
        let mut d1 = dev();
        let inter = mixed_bandwidth_vs_outstanding(&mut d1, 4096, &[64], 8, true, 1 << 30, 11);
        let mut d2 = dev();
        let grouped = mixed_bandwidth_vs_outstanding(&mut d2, 4096, &[64], 8, false, 1 << 30, 11);
        assert!(grouped[0].bandwidth_mib_s > inter[0].bandwidth_mib_s);
    }

    #[test]
    fn characterisation_is_sensible() {
        let mut d = dev();
        let c = characterise(&mut d, 4096, 32, 3);
        assert!(c.page_read_us > 0.0);
        assert!(c.page_write_us > c.page_read_us, "writes slower than reads");
        assert!(c.psync_read_us < c.page_read_us, "psync amortised read must be cheaper");
        assert!(
            c.psync_write_us < c.page_write_us,
            "psync amortised write must be cheaper"
        );
    }

    #[test]
    fn leaf_read_latency_increases_with_pages() {
        let mut d = dev();
        let l1 = leaf_read_latency(&mut d, 4096, 1, 17);
        let l4 = leaf_read_latency(&mut d, 4096, 4, 17);
        assert!(l4 >= l1);
        assert!(l4 < l1 * 4.0);
    }
}
