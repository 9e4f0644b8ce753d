//! # ssd-sim — a discrete-event flash SSD simulator
//!
//! The PIO B-tree paper (Roh et al., VLDB 2011) derives its design from two
//! properties of flash SSDs:
//!
//! * **Channel-level parallelism** — an SSD contains `m` channels, each wired to a
//!   gang of `n` flash packages. Requests queued together (NCQ/TCQ window) that land
//!   on different channels are serviced concurrently, so the bandwidth grows with the
//!   *outstanding I/O level* (the paper measures more than a ten-fold improvement).
//! * **Package-level parallelism** — logical pages are striped over the packages of a
//!   gang, so a single large request is spread over several packages and its latency
//!   grows *sub-linearly* with the request size.
//!
//! The paper evaluates on six real devices (Iodrive, P300, F120, Vertex2, Intel
//! X25-E/M). This crate replaces that hardware with a parameterised discrete-event
//! simulator: it models flash cell read / program time, per-channel data buses, a
//! shared host interface, NCQ-style batch service windows, and the read/write
//! interference penalty reported by Chen et al. and reproduced in Figure 3(c) of the
//! paper. Per-device parameter presets are provided in [`profiles`].
//!
//! The simulator is *timing only*: it answers "how long would this batch of I/Os
//! take?" in simulated microseconds. Byte storage is layered on top of it by the
//! `pio` crate. All experiments in the reproduction report simulated time, which
//! makes every figure deterministic and lets device profiles express the hardware
//! differences that the paper's figures rely on.
//!
//! ## Quick example
//!
//! ```
//! use ssd_sim::{DeviceProfile, SsdDevice, SsdRequest};
//!
//! let mut dev = SsdDevice::new(DeviceProfile::P300.build());
//! // Submit 8 outstanding 4 KiB reads at once (one NCQ window).
//! let reqs: Vec<SsdRequest> = (0..8).map(|i| SsdRequest::read(i * 4096, 4096)).collect();
//! let batched = dev.submit_batch(&reqs).elapsed_us;
//! // The same reads one at a time, each its own submission, take far longer.
//! let serial: f64 = reqs
//!     .iter()
//!     .map(|r| dev.submit_batch(std::slice::from_ref(r)).elapsed_us)
//!     .sum();
//! assert!(batched < serial);
//! // Every submission advanced the device clock.
//! assert!(dev.now_us() > serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod config;
pub mod device;
pub mod profiles;
pub mod request;

pub use config::SsdConfig;
pub use device::{BatchResult, SsdDevice, WindowScheduler};
pub use profiles::DeviceProfile;
pub use request::{IoKind, SsdRequest};
