//! Storage topology: where the engine's shards live.
//!
//! The paper's Figure 4(b) evaluation gives each index its own device, but its
//! core claim — internal parallelism of *one* SSD — only shows end-to-end when
//! many shards contend on a single device. This module makes the placement a
//! first-class, pluggable decision instead of a constructor detail:
//! [`ShardProvisioner`] yields every shard's store and WAL [`IoQueue`] as an
//! [`EngineBackends`] bundle, and the
//! [`crate::EngineBuilder`] assembles the same engine over any of them.
//!
//! Three topologies ship:
//!
//! * [`DevicePerShard`] — each shard gets its own simulated device (the historic
//!   behaviour; Figure 4(b)'s one-file-per-index layout taken literally).
//! * [`SharedDevice`] — all shards are disjoint [`pio::PartitionIo`] address
//!   partitions of **one** simulated device, so their in-flight tickets join one
//!   scheduling window and contend for the shared channels and host interface —
//!   the paper's contention story at engine scale.
//! * [`RealFiles`] — one real file per shard (plus WAL files and a persisted
//!   manifest) in a directory, over the persistent-worker
//!   [`pio::FileThreadPoolIo`] backend. The only topology that supports
//!   [`crate::EngineBuilder::recover`]: the manifest snapshot plus the WALs
//!   survive the process.
//!
//! [`EngineBackends`] itself also implements the trait (provisioning hands out
//! clones of its queues), which is how the crash-injection test harness slots
//! its [`pio::FaultIo`]-wrapped backends into the same public builder instead of
//! needing a separate constructor seam.

use crate::config::EngineConfig;
use btree::Key;
use pio::{FileThreadPoolIo, IoError, IoQueue, IoResult, PartitionIo, SimPsyncIo};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The I/O backends of one provisioned engine: one store (and, with the WAL
/// enabled, one WAL) queue per shard.
///
/// Usually produced by a [`ShardProvisioner`]; hand-built bundles are the
/// crash-injection seam of the recovery test harness (each queue wrapped in a
/// [`pio::FaultIo`] sharing one [`pio::FaultClock`]), and slot into the builder
/// directly because the bundle implements [`ShardProvisioner`] itself.
#[derive(Clone)]
pub struct EngineBackends {
    /// One store backend per shard.
    pub shard_stores: Vec<Arc<dyn IoQueue>>,
    /// One WAL backend per shard (used only when the base config enables the WAL).
    pub shard_wals: Vec<Arc<dyn IoQueue>>,
    /// Ignored: the engine keeps no log of its own — a cross-shard epoch is
    /// decided by a commit record in a member shard's WAL. The field stays
    /// only because the frozen benchmark harness still sets it; it goes with
    /// the next change to that harness.
    pub engine_wal: Option<Arc<dyn IoQueue>>,
}

impl std::fmt::Debug for EngineBackends {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBackends")
            .field("shard_stores", &self.shard_stores.len())
            .field("shard_wals", &self.shard_wals.len())
            .finish()
    }
}

/// Persisted per-shard tree metadata: the superblock snapshot that lets
/// [`pio_btree::PioBTree::open`] reopen a shard over its existing pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// Root page id.
    pub root: u64,
    /// Tree height in levels.
    pub height: u64,
    /// The store's allocation frontier (pages handed out).
    pub high_water: u64,
}

/// Persisted engine metadata: everything [`crate::EngineBuilder::recover`] needs
/// to reassemble an engine over existing storage. With WALs enabled the shard
/// snapshots may be stale — per-shard recovery rolls roots and allocation
/// frontiers forward from the logs; without WALs the manifest must describe a
/// cleanly checkpointed engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineManifest {
    /// Number of shards.
    pub shards: usize,
    /// Page size the shard trees were built with.
    pub page_size: usize,
    /// Whether the shards log (one WAL per shard).
    pub wal_enabled: bool,
    /// Boundary keys (length `shards − 1`).
    pub bounds: Vec<Key>,
    /// Per-shard superblock snapshots, in shard order.
    pub shard_meta: Vec<ShardMeta>,
}

impl EngineManifest {
    /// Serialises the manifest into its line-based text form (the build
    /// environment has no serde; the format is a versioned `key=value` list).
    ///
    /// The version names the newest log format the directory may hold. v2
    /// marked the WAL on-disk layout that reserves the first two pages of
    /// every log region for truncation-header slots (record data starts at the
    /// third page); v1 directories — whose WAL records start at byte 0 — are
    /// rejected at decode rather than having their logs silently mis-parsed.
    /// v3 marks shard WALs that may hold the logical append-undo record
    /// ([`pio_btree::LogRecord::FlushAppendUndo`]): a v2-era binary would stop
    /// replay at that unknown tag and silently drop the tail, so it must
    /// refuse the directory instead. v4 marks shard WALs that may hold local
    /// brackets ([`pio_btree::LOCAL_EPOCH`], `BatchAbort`): a v3-era binary
    /// would take one for an epoch nobody discarded and replay an aborted batch.
    /// v5 marks an engine with no epoch log of its own: a cross-shard epoch is
    /// decided by a commit record ([`pio_btree::LogRecord::EpochCommit`],
    /// [`pio_btree::LogRecord::MigrateCommit`]) in a shard WAL, which a
    /// v4-era binary would stop replay at.
    pub fn encode(&self) -> String {
        let mut out = String::from("pio-engine-manifest v5\n");
        out.push_str(&format!("shards={}\n", self.shards));
        out.push_str(&format!("page_size={}\n", self.page_size));
        out.push_str(&format!("wal={}\n", u8::from(self.wal_enabled)));
        let bounds: Vec<String> = self.bounds.iter().map(|b| b.to_string()).collect();
        out.push_str(&format!("bounds={}\n", bounds.join(",")));
        for (i, m) in self.shard_meta.iter().enumerate() {
            out.push_str(&format!("shard.{i}={},{},{}\n", m.root, m.height, m.high_water));
        }
        out
    }

    /// Parses the text form produced by [`EngineManifest::encode`]. Returns
    /// `None` for unknown versions or malformed content — including v1
    /// manifests, whose WAL regions use the pre-truncation layout this code
    /// can no longer read (see [`EngineManifest::encode`]). v2–v4 directories
    /// are accepted without a WAL — the next manifest sync re-marks them v5 —
    /// and refused with one: their cross-shard brackets may have been decided
    /// in an `engine.wal` epoch log this code no longer reads.
    pub fn decode(text: &str) -> Option<Self> {
        let mut lines = text.lines();
        let current = match lines.next()? {
            "pio-engine-manifest v5" => true,
            "pio-engine-manifest v2" | "pio-engine-manifest v3" | "pio-engine-manifest v4" => false,
            _ => return None,
        };
        let mut shards = None;
        let mut page_size = None;
        let mut wal = None;
        let mut bounds: Option<Vec<Key>> = None;
        // `(index, meta)` per `shard.N` line, as read: an index from disk
        // sizes nothing.
        let mut shard_meta: Vec<(usize, ShardMeta)> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=')?;
            match key {
                "shards" => shards = Some(value.parse().ok()?),
                "page_size" => page_size = Some(value.parse().ok()?),
                "wal" => {
                    wal = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return None, // keep the decoder uniformly strict
                    })
                }
                "bounds" => {
                    bounds = Some(if value.is_empty() {
                        Vec::new()
                    } else {
                        value.split(',').map(|v| v.parse().ok()).collect::<Option<_>>()?
                    })
                }
                _ => {
                    let idx: usize = key.strip_prefix("shard.")?.parse().ok()?;
                    let mut parts = value.split(',').map(|v| v.parse::<u64>().ok());
                    let meta = ShardMeta {
                        root: parts.next()??,
                        height: parts.next()??,
                        high_water: parts.next()??,
                    };
                    if parts.next().is_some() {
                        return None;
                    }
                    shard_meta.push((idx, meta));
                }
            }
        }
        // The indices must be exactly `0..shards`, each once.
        let shards: usize = shards?;
        shard_meta.sort_unstable_by_key(|&(idx, _)| idx);
        if !shard_meta.iter().map(|&(idx, _)| idx).eq(0..shards) {
            return None;
        }
        let manifest = Self {
            shards,
            page_size: page_size?,
            wal_enabled: wal?,
            bounds: bounds?,
            shard_meta: shard_meta.into_iter().map(|(_, meta)| meta).collect(),
        };
        (manifest.bounds.len() + 1 == manifest.shards && (current || !manifest.wal_enabled)).then_some(manifest)
    }
}

/// Whether a provisioning call starts a **fresh** engine or reopens an
/// existing one. Topologies with durable state must treat the two differently:
/// a fresh build over a previously used directory has to reset it (drop the
/// old manifest *first*, truncate the data files) so that a crash mid-build
/// can never leave a stale manifest describing partially overwritten files —
/// and so stale WAL bytes from the previous incarnation cannot be salvaged
/// into the new engine's logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvisionMode {
    /// A fresh engine is about to be bulk loaded: existing durable state (old
    /// manifest, dirty marker, file contents) must be discarded.
    Create,
    /// An existing engine is being reopened: open everything exactly as it is.
    Reopen,
}

/// Supplies the storage an engine's shards live on.
///
/// [`crate::EngineBuilder::build`] calls [`ShardProvisioner::provision`] once
/// with the validated configuration; the returned [`EngineBackends`] must hold
/// one store queue per shard and — when `config.base.wal_enabled` — one WAL
/// queue per shard. Topologies with durable
/// state additionally persist an [`EngineManifest`] so
/// [`crate::EngineBuilder::recover`] can reassemble the engine after a restart;
/// purely simulated topologies keep the defaults (no manifest, recovery
/// unsupported).
pub trait ShardProvisioner: Send + Sync {
    /// Short topology name, surfaced through [`crate::EngineStats`].
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Creates (or reopens, per `mode`) the backends for `config.shards` shards.
    fn provision(&self, config: &EngineConfig, mode: ProvisionMode) -> IoResult<EngineBackends>;

    /// Loads the persisted manifest, if this topology keeps one. `Ok(None)`
    /// means "nothing persisted here" — the builder turns that into an error on
    /// the recover path.
    fn load_manifest(&self) -> IoResult<Option<EngineManifest>> {
        Ok(None)
    }

    /// Persists `manifest`. Topologies without durable state ignore it.
    fn save_manifest(&self, manifest: &EngineManifest) -> IoResult<()> {
        let _ = manifest;
        Ok(())
    }

    /// Sets or clears the durable **dirty marker**: the engine raises it before
    /// the first mutation after a checkpoint (or creation) and clears it when a
    /// checkpoint completes, so a restart can tell a clean shutdown from a
    /// crash. Without a WAL this is the only way [`crate::EngineBuilder::recover`]
    /// can know whether the manifest snapshot still describes the files (in-place
    /// page rewrites after the snapshot are otherwise invisible); with a WAL the
    /// marker is informational — replay reconstructs the state either way.
    /// Topologies without durable state ignore it.
    fn set_dirty(&self, dirty: bool) -> IoResult<()> {
        let _ = dirty;
        Ok(())
    }

    /// Reads the persisted dirty marker (`false` for topologies without one).
    fn load_dirty(&self) -> IoResult<bool> {
        Ok(false)
    }
}

/// Every hand-built backend bundle is a provisioner of itself: provisioning
/// hands out clones of its queues (the clones share the underlying backends, so
/// fault clocks armed on them keep working).
impl ShardProvisioner for EngineBackends {
    fn name(&self) -> &'static str {
        "supplied-backends"
    }

    fn provision(&self, _config: &EngineConfig, _mode: ProvisionMode) -> IoResult<EngineBackends> {
        Ok(self.clone())
    }
}

/// One fresh simulated device per shard store and per WAL — today's historic
/// behaviour, and the literal reading of the paper's Figure 4(b) layout: every
/// "index file" behaves like an independent psync stream with its own channels
/// and host interface.
#[derive(Debug, Clone, Copy, Default)]
pub struct DevicePerShard;

impl ShardProvisioner for DevicePerShard {
    fn name(&self) -> &'static str {
        "device-per-shard"
    }

    fn provision(&self, config: &EngineConfig, _mode: ProvisionMode) -> IoResult<EngineBackends> {
        let sim = |capacity: u64| -> Arc<dyn IoQueue> { Arc::new(SimPsyncIo::with_profile(config.profile, capacity)) };
        let wal = config.base.wal_enabled;
        Ok(EngineBackends {
            shard_stores: (0..config.shards).map(|_| sim(config.shard_capacity_bytes)).collect(),
            shard_wals: if wal {
                (0..config.shards).map(|_| sim(config.wal_capacity_bytes)).collect()
            } else {
                Vec::new()
            },
            engine_wal: None,
        })
    }
}

/// All shards (stores and WALs) as disjoint address partitions
/// of **one** simulated device. Every shard's in-flight tickets join the same
/// scheduling window, so concurrent fan-outs contend for the shared channels,
/// packages and host interface — the configuration that actually exercises the
/// paper's claim about the internal parallelism of a *single* SSD. Per-shard
/// I/O time keeps its attribution through [`PartitionIo`]'s partition-local
/// statistics (a shard's elapsed time includes the queueing it experienced
/// behind its neighbours).
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedDevice;

impl ShardProvisioner for SharedDevice {
    fn name(&self) -> &'static str {
        "shared-device"
    }

    fn provision(&self, config: &EngineConfig, _mode: ProvisionMode) -> IoResult<EngineBackends> {
        let shards = config.shards as u64;
        let wal = config.base.wal_enabled;
        let wal_cap = if wal { config.wal_capacity_bytes } else { 0 };
        // Layout: the shard stores first, then the shard WALs.
        let total = shards * (config.shard_capacity_bytes + wal_cap);
        let device: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(config.profile, total));
        let partition = |base: u64, capacity: u64| -> Arc<dyn IoQueue> {
            Arc::new(PartitionIo::new(Arc::clone(&device), base, capacity))
        };
        let wal_base = shards * config.shard_capacity_bytes;
        Ok(EngineBackends {
            shard_stores: (0..shards)
                .map(|i| partition(i * config.shard_capacity_bytes, config.shard_capacity_bytes))
                .collect(),
            shard_wals: if wal {
                (0..shards)
                    .map(|i| partition(wal_base + i * wal_cap, wal_cap))
                    .collect()
            } else {
                Vec::new()
            },
            engine_wal: None,
        })
    }
}

/// One real file per shard in a directory, over the persistent-worker
/// [`FileThreadPoolIo`] backend, plus a persisted [`EngineManifest`].
///
/// Layout of the directory: `shard-NNN.store` and (with the WAL enabled)
/// `shard-NNN.wal` per shard, `MANIFEST`
/// (written atomically via a temp file + rename), and a `DIRTY` sentinel that
/// exists exactly while un-checkpointed mutations may have touched the files.
///
/// This is the only shipped topology whose engines survive the process:
/// [`crate::EngineBuilder::recover`] reopens the directory, restores each
/// shard's superblock snapshot from the manifest and replays the WALs. With the
/// WAL **disabled** there is nothing to replay, so a reopen can only restore
/// the state of the last clean checkpoint — and because in-place page rewrites
/// after that snapshot would be invisible, `recover()` **refuses** a WAL-less
/// directory whose `DIRTY` sentinel is still present (mutated, never
/// checkpointed again). Shut down cleanly (checkpoint, then drop) or enable
/// the WAL.
#[derive(Debug, Clone)]
pub struct RealFiles {
    dir: PathBuf,
}

/// Positional-I/O worker threads per [`RealFiles`] file.
const WORKERS_PER_FILE: usize = 2;

impl RealFiles {
    /// Targets `dir` (created on first provision) with 2 I/O workers per file.
    pub fn new<P: AsRef<Path>>(dir: P) -> Self {
        Self {
            dir: dir.as_ref().to_path_buf(),
        }
    }

    /// The target directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    fn dirty_path(&self) -> PathBuf {
        self.dir.join("DIRTY")
    }

    fn open(&self, file: String) -> IoResult<Arc<dyn IoQueue>> {
        Ok(Arc::new(FileThreadPoolIo::open(self.dir.join(file), WORKERS_PER_FILE)?))
    }
}

impl ShardProvisioner for RealFiles {
    fn name(&self) -> &'static str {
        "real-files"
    }

    fn provision(&self, config: &EngineConfig, mode: ProvisionMode) -> IoResult<EngineBackends> {
        std::fs::create_dir_all(&self.dir)?;
        if mode == ProvisionMode::Create {
            // A fresh build over a previously used directory: retire the old
            // incarnation's durable state *before* any new bytes land. The old
            // manifest goes first — a crash anywhere after this point must
            // leave a directory that recover() refuses ("no manifest"), never
            // one whose stale manifest describes partially overwritten files.
            // A stale `engine.wal` (the epoch log of v4 and older) goes too.
            for name in ["MANIFEST", "MANIFEST.tmp", "DIRTY", "engine.wal"] {
                match std::fs::remove_file(self.dir.join(name)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
            }
            if let Ok(dir) = std::fs::File::open(&self.dir) {
                let _ = dir.sync_all();
            }
            // Truncate every file this engine will use, so stale bytes — in
            // particular old WAL records beyond the new log's tail, which a
            // rescan could otherwise salvage into the new engine — are gone.
            for entry in std::fs::read_dir(&self.dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.ends_with(".store") || name.ends_with(".wal") {
                    std::fs::OpenOptions::new()
                        .write(true)
                        .truncate(true)
                        .open(entry.path())?;
                }
            }
        }
        let wal = config.base.wal_enabled;
        let shard_stores = (0..config.shards)
            .map(|i| self.open(format!("shard-{i:03}.store")))
            .collect::<IoResult<_>>()?;
        let shard_wals = if wal {
            (0..config.shards)
                .map(|i| self.open(format!("shard-{i:03}.wal")))
                .collect::<IoResult<_>>()?
        } else {
            Vec::new()
        };
        Ok(EngineBackends {
            shard_stores,
            shard_wals,
            engine_wal: None,
        })
    }

    fn load_manifest(&self) -> IoResult<Option<EngineManifest>> {
        let text = match std::fs::read_to_string(self.manifest_path()) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        EngineManifest::decode(&text)
            .map(Some)
            .ok_or_else(|| IoError::InvalidConfig(format!("corrupt engine manifest at {:?}", self.manifest_path())))
    }

    fn save_manifest(&self, manifest: &EngineManifest) -> IoResult<()> {
        std::fs::create_dir_all(&self.dir)?;
        // Atomic replace: the manifest is either the old snapshot or the new one,
        // never a torn mix.
        let tmp = self.dir.join("MANIFEST.tmp");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(manifest.encode().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.manifest_path())?;
        // Make the rename itself durable (best effort — not all platforms allow
        // fsync on directories).
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    fn set_dirty(&self, dirty: bool) -> IoResult<()> {
        if dirty {
            std::fs::create_dir_all(&self.dir)?;
            std::fs::File::create(self.dirty_path())?.sync_all()?;
        } else {
            match std::fs::remove_file(self.dirty_path()) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    fn load_dirty(&self) -> IoResult<bool> {
        Ok(self.dirty_path().exists())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_btree::PioConfig;
    use ssd_sim::DeviceProfile;

    fn config(shards: usize, wal: bool) -> EngineConfig {
        EngineConfig::builder()
            .shards(shards)
            .profile(DeviceProfile::F120)
            .shard_capacity_bytes(8 << 20)
            .wal_capacity_bytes(2 << 20)
            .base(PioConfig::builder().page_size(2048).pool_pages(64).wal(wal).build())
            .build()
    }

    #[test]
    fn manifest_round_trips() {
        let manifest = EngineManifest {
            shards: 3,
            page_size: 2048,
            wal_enabled: true,
            bounds: vec![100, 2000],
            shard_meta: vec![
                ShardMeta {
                    root: 7,
                    height: 2,
                    high_water: 40,
                },
                ShardMeta {
                    root: 9,
                    height: 3,
                    high_water: 55,
                },
                ShardMeta {
                    root: 11,
                    height: 2,
                    high_water: 12,
                },
            ],
        };
        assert_eq!(EngineManifest::decode(&manifest.encode()), Some(manifest.clone()));
        // Single shard: no bounds.
        let single = EngineManifest {
            shards: 1,
            bounds: vec![],
            shard_meta: manifest.shard_meta[..1].to_vec(),
            ..manifest
        };
        assert_eq!(EngineManifest::decode(&single.encode()), Some(single.clone()));
        // The writer emits v5. A directory written by an older version
        // reopens only without a WAL: with one, its cross-shard brackets may
        // have been decided in an epoch log this code no longer reads.
        assert!(single.encode().starts_with("pio-engine-manifest v5\n"));
        let logless = EngineManifest {
            wal_enabled: false,
            ..single.clone()
        };
        for old in ["v2", "v3", "v4"] {
            let as_old = |m: &EngineManifest| m.encode().replacen("v5", old, 1);
            assert_eq!(
                EngineManifest::decode(&as_old(&logless)),
                Some(logless.clone()),
                "{old}"
            );
            assert_eq!(EngineManifest::decode(&as_old(&single)), None, "{old} with a WAL");
        }
        assert_eq!(EngineManifest::decode(&logless.encode().replacen("v5", "v1", 1)), None);
        assert_eq!(EngineManifest::decode(&logless.encode().replacen("v5", "v6", 1)), None);
    }

    #[test]
    fn corrupt_manifests_decode_to_none() {
        assert_eq!(EngineManifest::decode(""), None);
        assert_eq!(EngineManifest::decode("pio-engine-manifest v5\nshards=1\n"), None);
        let good = EngineManifest {
            shards: 2,
            page_size: 2048,
            wal_enabled: false,
            bounds: vec![50],
            shard_meta: vec![
                ShardMeta {
                    root: 1,
                    height: 2,
                    high_water: 3,
                },
                ShardMeta {
                    root: 4,
                    height: 2,
                    high_water: 6,
                },
            ],
        }
        .encode();
        // Dropping any line breaks a required invariant.
        for skip in 1..good.lines().count() {
            let mutilated: String = good
                .lines()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            assert_eq!(EngineManifest::decode(&mutilated), None, "dropped line {skip}");
        }
        // A shard index read from disk sizes nothing: one that would wrap,
        // one far past the shard count, a gap and a duplicate are refused.
        for line in ["shard.18446744073709551615", "shard.4000000000", "shard.2", "shard.0"] {
            let bad = good.replacen("shard.1", line, 1);
            assert_eq!(EngineManifest::decode(&bad), None, "{line}");
        }
    }

    /// Fuzz: seeded single-byte rewrites, truncations and extensions of an
    /// encoded manifest decode without a panic, to `None` or to a manifest
    /// that keeps the decoder's invariants (one meta per shard, one bound
    /// fewer than shards) and encodes to text that decodes back to it.
    #[test]
    fn fuzz_manifest_mutations_truncations_and_extensions() {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_3A4F);
        let mut x = seed | 1;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let meta = |root| ShardMeta {
            root,
            height: 2,
            high_water: root * 10,
        };
        let image = EngineManifest {
            shards: 3,
            page_size: 2048,
            wal_enabled: true,
            bounds: vec![100, 2000],
            shard_meta: vec![meta(7), meta(9), meta(11)],
        }
        .encode()
        .into_bytes();
        let alphabet = b"0123456789=,.\nshardbouwlpagez_v-";
        let mut mutants: Vec<Vec<u8>> = (0..=image.len()).map(|cut| image[..cut].to_vec()).collect();
        for _ in 0..4000 {
            let mut mutated = image.clone();
            // Half the rewrites stay within the format's own characters, so
            // they reach the decoder's later checks, not only its first.
            mutated[rand(image.len() as u64) as usize] = match rand(2) {
                0 => alphabet[rand(alphabet.len() as u64) as usize],
                _ => rand(256) as u8,
            };
            mutants.push(mutated);
        }
        for _ in 0..256 {
            let mut extended = image.clone();
            extended.extend((0..1 + rand(24)).map(|_| alphabet[rand(alphabet.len() as u64) as usize]));
            mutants.push(extended);
        }
        for mutated in mutants {
            let text = String::from_utf8_lossy(&mutated);
            if let Some(m) = EngineManifest::decode(&text) {
                let ctx = format!("CRASH_SEED={seed}: {text:?}");
                assert_eq!((m.shard_meta.len(), m.bounds.len() + 1), (m.shards, m.shards), "{ctx}");
                assert_eq!(EngineManifest::decode(&m.encode()).as_ref(), Some(&m), "{ctx}");
            }
        }
    }

    #[test]
    fn device_per_shard_provisions_independent_backends() {
        let backends = DevicePerShard
            .provision(&config(3, true), ProvisionMode::Create)
            .unwrap();
        assert_eq!(backends.shard_stores.len(), 3);
        assert_eq!(backends.shard_wals.len(), 3);
        assert!(backends.engine_wal.is_none(), "the engine keeps no log of its own");
        // Independent devices: a write through one store is invisible to another.
        use pio::IoQueue;
        backends.shard_stores[0].write_at(0, b"zero").unwrap();
        assert_eq!(&backends.shard_stores[1].read_at(0, 4).unwrap()[..], vec![0u8; 4]);
    }

    #[test]
    fn shared_device_partitions_are_disjoint_views_of_one_device() {
        let backends = SharedDevice.provision(&config(2, true), ProvisionMode::Create).unwrap();
        use pio::IoQueue;
        backends.shard_stores[0].write_at(0, b"s0").unwrap();
        backends.shard_stores[1].write_at(0, b"s1").unwrap();
        backends.shard_wals[0].write_at(0, b"w0").unwrap();
        assert_eq!(&backends.shard_stores[0].read_at(0, 2).unwrap()[..], b"s0");
        assert_eq!(&backends.shard_stores[1].read_at(0, 2).unwrap()[..], b"s1");
        assert_eq!(&backends.shard_wals[0].read_at(0, 2).unwrap()[..], b"w0");
        // Same underlying device: the stats of partition 0's queue are partition
        // local, so its write count is exactly its own.
        assert_eq!(backends.shard_stores[0].io_stats().writes, 1);
    }

    #[test]
    fn no_wal_means_no_wal_backends() {
        for provisioner in [&DevicePerShard as &dyn ShardProvisioner, &SharedDevice] {
            let backends = provisioner.provision(&config(2, false), ProvisionMode::Create).unwrap();
            assert!(backends.shard_wals.is_empty());
            assert!(backends.engine_wal.is_none());
        }
    }
}
