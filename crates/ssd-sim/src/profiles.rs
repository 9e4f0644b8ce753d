//! Parameter presets modelling the six flash SSDs benchmarked in the paper.
//!
//! The paper (Section 2.1, Figure 2/3) evaluates six devices chosen to cover the
//! host-interface types, controllers and flash generations of 2011: Fusion-io
//! Iodrive (PCI-E, SLC), Micron RealSSD P300 (SATA-III, SLC 35 nm), Corsair F120
//! (SATA-II, SandForce, MLC), OCZ Vertex2 (SATA-II, SandForce, MLC), Intel X25-E
//! (SATA-II, SLC 50 nm) and Intel X25-M (SATA-II, MLC 35 nm).
//!
//! The absolute numbers below are *not* measurements of those devices; they are
//! plausible parameters chosen so that the simulated curves have the same shape and
//! relative ordering as the paper's Figures 2–4: Iodrive ≫ P300 > X25-E ≳ F120 ≳
//! Vertex2 > X25-M, read latency ≪ write latency, ~10× bandwidth gain from
//! outstanding I/O, saturation near the host-interface limit, and a visible
//! read/write interference penalty.

use crate::config::SsdConfig;

/// Named device presets used throughout the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceProfile {
    /// Fusion-io Iodrive — PCI-E enterprise device, the fastest in the paper.
    Iodrive,
    /// Micron RealSSD P300 — SATA-III enterprise SLC device.
    P300,
    /// Corsair Force F120 — SATA-II consumer MLC device (SandForce controller).
    F120,
    /// OCZ Vertex2 — SATA-II consumer MLC device (SandForce controller).
    Vertex2,
    /// Intel X25-E — SATA-II SLC device.
    IntelX25E,
    /// Intel X25-M — SATA-II mainstream MLC device.
    IntelX25M,
}

impl DeviceProfile {
    /// All six profiles, in the order the paper lists them in its figures.
    pub fn all() -> [DeviceProfile; 6] {
        [
            DeviceProfile::Iodrive,
            DeviceProfile::F120,
            DeviceProfile::Vertex2,
            DeviceProfile::IntelX25E,
            DeviceProfile::IntelX25M,
            DeviceProfile::P300,
        ]
    }

    /// The three devices used for the index experiments (Sections 4.1–4.2).
    pub fn experiment_trio() -> [DeviceProfile; 3] {
        [DeviceProfile::Iodrive, DeviceProfile::P300, DeviceProfile::F120]
    }

    /// Short lowercase name used in benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceProfile::Iodrive => "iodrive",
            DeviceProfile::P300 => "p300",
            DeviceProfile::F120 => "f120",
            DeviceProfile::Vertex2 => "vertex2",
            DeviceProfile::IntelX25E => "intel-x25e",
            DeviceProfile::IntelX25M => "intel-x25m",
        }
    }

    /// Builds the [`SsdConfig`] for this profile.
    pub fn build(&self) -> SsdConfig {
        match self {
            DeviceProfile::Iodrive => SsdConfig {
                name: "iodrive".into(),
                channels: 24,
                packages_per_channel: 4,
                flash_page_bytes: 2048,
                cell_read_us: 42.0,
                cell_program_us: 180.0,
                channel_us_per_kb: 0.08,
                host_us_per_kb: 1.35, // ~720 MiB/s PCI-E path
                controller_overhead_us: 34.0,
                rw_switch_penalty_us: 28.0,
                ncq_depth: 64,
            },
            DeviceProfile::P300 => SsdConfig {
                name: "p300".into(),
                channels: 16,
                packages_per_channel: 4,
                flash_page_bytes: 2048,
                cell_read_us: 48.0,
                cell_program_us: 230.0,
                channel_us_per_kb: 0.12,
                host_us_per_kb: 3.0, // ~330 MiB/s SATA-III path (conservative)
                controller_overhead_us: 62.0,
                rw_switch_penalty_us: 38.0,
                ncq_depth: 32,
            },
            DeviceProfile::F120 => SsdConfig {
                name: "f120".into(),
                channels: 8,
                packages_per_channel: 8,
                flash_page_bytes: 2048,
                cell_read_us: 62.0,
                cell_program_us: 340.0,
                channel_us_per_kb: 0.16,
                host_us_per_kb: 3.6, // ~270 MiB/s SATA-II path
                controller_overhead_us: 72.0,
                rw_switch_penalty_us: 46.0,
                ncq_depth: 32,
            },
            DeviceProfile::Vertex2 => SsdConfig {
                name: "vertex2".into(),
                channels: 8,
                packages_per_channel: 4,
                flash_page_bytes: 2048,
                cell_read_us: 66.0,
                cell_program_us: 380.0,
                channel_us_per_kb: 0.18,
                host_us_per_kb: 3.6,
                controller_overhead_us: 78.0,
                rw_switch_penalty_us: 48.0,
                ncq_depth: 32,
            },
            DeviceProfile::IntelX25E => SsdConfig {
                name: "intel-x25e".into(),
                channels: 10,
                packages_per_channel: 4,
                flash_page_bytes: 2048,
                cell_read_us: 52.0,
                cell_program_us: 240.0,
                channel_us_per_kb: 0.15,
                host_us_per_kb: 3.6,
                controller_overhead_us: 66.0,
                rw_switch_penalty_us: 40.0,
                ncq_depth: 32,
            },
            DeviceProfile::IntelX25M => SsdConfig {
                name: "intel-x25m".into(),
                channels: 10,
                packages_per_channel: 4,
                flash_page_bytes: 2048,
                cell_read_us: 70.0,
                cell_program_us: 620.0,
                channel_us_per_kb: 0.18,
                host_us_per_kb: 3.8,
                controller_overhead_us: 84.0,
                rw_switch_penalty_us: 52.0,
                ncq_depth: 32,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SsdDevice;
    use crate::request::SsdRequest;

    #[test]
    fn all_profiles_build_valid_configs() {
        for p in DeviceProfile::all() {
            let cfg = p.build();
            assert!(cfg.validate().is_ok(), "{} must validate", p.name());
            assert_eq!(cfg.name, p.name());
        }
    }

    #[test]
    fn experiment_trio_is_subset_of_all() {
        let all = DeviceProfile::all();
        for p in DeviceProfile::experiment_trio() {
            assert!(all.contains(&p));
        }
    }

    #[test]
    fn iodrive_is_fastest_for_random_reads() {
        let latency = |p: DeviceProfile| {
            let mut d = SsdDevice::new(p.build());
            d.submit_batch(&[SsdRequest::read(0, 4096)]).elapsed_us
        };
        let io = latency(DeviceProfile::Iodrive);
        for p in [
            DeviceProfile::P300,
            DeviceProfile::F120,
            DeviceProfile::Vertex2,
            DeviceProfile::IntelX25E,
            DeviceProfile::IntelX25M,
        ] {
            assert!(
                io < latency(p),
                "iodrive must have the lowest single-read latency (vs {})",
                p.name()
            );
        }
    }

    #[test]
    fn mlc_writes_slower_than_slc_writes() {
        let wlat = |p: DeviceProfile| {
            let mut d = SsdDevice::new(p.build());
            d.submit_batch(&[SsdRequest::write(0, 4096)]).elapsed_us
        };
        assert!(wlat(DeviceProfile::IntelX25M) > wlat(DeviceProfile::IntelX25E));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = DeviceProfile::all().iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
