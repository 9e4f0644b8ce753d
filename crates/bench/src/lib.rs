//! # pio-bench — the experiment harness
//!
//! One bench target per table/figure of the paper's evaluation (one file each
//! under `benches/`). Every target is a `harness = false` binary that runs the
//! scaled-down experiment against the SSD simulator, prints the paper-style series as
//! a table, and writes the same data as JSON under `target/figures/`.
//!
//! Results are reported in **simulated time** accumulated by the device model, which
//! is what makes the runs deterministic and lets the device profiles stand in for the
//! paper's hardware. The absolute numbers are therefore not comparable to the paper's
//! wall-clock seconds; the *shape* (who wins, by what factor, where crossovers fall)
//! is what each bench reproduces.
//!
//! Scale: the paper uses 1-billion-entry trees and 5–10 million operations. The
//! default scale here is tuned so the whole suite finishes in a few minutes; set the
//! environment variable `REPRO_SCALE` (default `1.0`) to scale the operation counts
//! up or down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pio::SimPsyncIo;
use ssd_sim::DeviceProfile;
use std::path::PathBuf;
use std::sync::Arc;
use storage::{CachedStore, PageStore, WritePolicy};

/// Returns the global scale factor from `REPRO_SCALE` (default 1.0, clamped to a
/// sensible range).
pub fn scale() -> f64 {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.05, 100.0)
}

/// Scales an operation count by [`scale`].
pub fn scaled(n: usize) -> usize {
    ((n as f64) * scale()).round().max(1.0) as usize
}

/// Builds a cached store over a fresh simulated device.
pub fn build_store(
    profile: DeviceProfile,
    page_size: usize,
    pool_pages: u64,
    policy: WritePolicy,
    capacity_bytes: u64,
) -> Arc<CachedStore> {
    let io = Arc::new(SimPsyncIo::with_profile(profile, capacity_bytes));
    Arc::new(CachedStore::new(PageStore::new(io, page_size), pool_pages, policy))
}

/// A result table printed to stdout and dumped to JSON.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier, e.g. `fig09`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of values (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity must match the header");
        self.rows.push(cells);
    }

    /// Prints the table and writes `target/figures/<id>.json`.
    pub fn finish(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(h.len())
            })
            .collect();
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>width$}", width = w))
                .collect();
            println!("  {}", line.join("  "));
        };
        print_row(&self.headers);
        println!(
            "  {}",
            widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  ")
        );
        for r in &self.rows {
            print_row(r);
        }
        if let Err(e) = self.write_json() {
            eprintln!("(could not write JSON for {}: {e})", self.id);
        }
    }

    /// Serialises the table as pretty-printed JSON (hand-rolled: the offline build
    /// environment has no serde_json).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn str_array(items: &[String], indent: &str) -> String {
            let cells: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
            format!("{indent}[{}]", cells.join(", "))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| str_array(r, "    ")).collect();
        format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"headers\":\n{},\n  \"rows\": [\n{}\n  ]\n}}\n",
            esc(&self.id),
            esc(&self.title),
            str_array(&self.headers, "  "),
            rows.join(",\n")
        )
    }

    fn write_json(&self) -> std::io::Result<()> {
        let dir = figures_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(path, self.to_json())?;
        Ok(())
    }
}

/// Directory where figure JSON dumps are written: `$CARGO_TARGET_DIR/figures`, or
/// the workspace `target/figures` (cargo runs bench binaries with the package dir
/// as CWD, so a relative `target` would land inside `crates/bench/`).
pub fn figures_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    target.join("figures")
}

/// Formats a microsecond quantity with 1 decimal.
pub fn us(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a ratio with 2 decimals.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.2}", a / b)
    }
}

/// Formats a MiB/s bandwidth with 1 decimal.
pub fn mib(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_default_scale() {
        assert!(scaled(100) >= 1);
    }

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("test", "a test table", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
        let json = t.to_json();
        assert!(json.contains("\"id\": \"test\""), "{json}");
        assert!(json.contains("[\"1\", \"2\"]"), "{json}");
    }

    #[test]
    fn json_escapes_special_characters() {
        let t = Table::new("esc", "quotes \" and \\ and\nnewlines", &["h"]);
        let json = t.to_json();
        assert!(json.contains("quotes \\\" and \\\\ and\\nnewlines"), "{json}");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn mismatched_rows_are_rejected() {
        let mut t = Table::new("test", "t", &["x"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(1.25), "1.2");
        assert_eq!(ratio(3.0, 2.0), "1.50");
        assert_eq!(ratio(1.0, 0.0), "inf");
        assert_eq!(mib(10.04), "10.0");
    }

    #[test]
    fn build_store_produces_a_working_store() {
        let s = build_store(DeviceProfile::F120, 4096, 16, WritePolicy::WriteThrough, 1 << 24);
        let p = s.allocate();
        s.write_page(p, vec![1u8; 4096].into()).unwrap();
        assert_eq!(s.read_page(p).unwrap()[0], 1);
    }
}

/// Index-building helpers shared by the figure benches.
pub mod setup {
    use super::*;
    use btree::{bulk_load, BPlusTree};
    use pio_btree::{PioBTree, PioConfig};

    /// Number of entries the experiment trees are bulk-loaded with (scaled).
    pub fn initial_entries() -> u64 {
        scaled(400_000) as u64
    }

    /// Key space the experiments draw from (keys are spread over twice the initial
    /// population so that inserts hit both existing and new keys).
    pub fn key_space() -> u64 {
        initial_entries() * 4
    }

    /// Sorted bulk-load population.
    pub fn bulk_entries(n: u64) -> Vec<(u64, u64)> {
        let space = n * 4;
        let stride = (space / n.max(1)).max(1);
        (0..n).map(|i| (i * stride, i)).collect()
    }

    /// Builds a baseline B+-tree of `n` entries with `node_size`-byte nodes and a
    /// write-back pool of `pool_bytes`.
    pub fn build_btree(profile: ssd_sim::DeviceProfile, node_size: usize, pool_bytes: u64, n: u64) -> BPlusTree {
        let store = build_store(
            profile,
            node_size,
            pool_bytes / node_size as u64,
            WritePolicy::WriteBack,
            64u64 << 30,
        );
        bulk_load(store, &bulk_entries(n), 0.7).expect("bulk load")
    }

    /// Builds a PIO B-tree of `n` entries with the given configuration.
    pub fn build_pio(profile: ssd_sim::DeviceProfile, config: PioConfig, n: u64) -> PioBTree {
        let store = build_store(
            profile,
            config.page_size,
            config.pool_pages,
            WritePolicy::WriteThrough,
            64u64 << 30,
        );
        PioBTree::bulk_load(store, &bulk_entries(n), config).expect("bulk load")
    }
}
