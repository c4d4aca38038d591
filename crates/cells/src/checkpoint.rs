//! Per-cell checkpoint/resume for library characterization.
//!
//! Full-grid characterization takes minutes; a crash or interrupt at cell
//! 150 of 169 should not forfeit the finished work. The [`CheckpointStore`]
//! persists each cell's model the moment it is measured, under a directory
//! keyed by the same cache key as the whole-library cache (so checkpoints
//! from a different model card or grid can never be resumed by mistake).
//!
//! Each entry is a versioned, checksummed envelope:
//!
//! ```text
//! cryo-checkpoint v1 <fnv64 of payload, 16 hex digits>
//! <cell JSON payload>
//! ```
//!
//! Writes are atomic (tmp + rename). On load, a bad header, checksum
//! mismatch, or unparsable payload quarantines the entry as `*.corrupt`
//! and reports a miss, so the cell is simply re-characterized. Opening a
//! store also runs a self-healing scrub: every entry's envelope is
//! verified eagerly, damage is classified (truncation vs bit-rot vs
//! orphan tmp) in a [`ScrubReport`], and corrupt entries are quarantined
//! up front — so rebuild work is known, bounded, and provably limited to
//! exactly the damaged set.

use std::fs;
use std::path::{Path, PathBuf};

use cryo_liberty::Cell;
use cryo_spice::fault::fnv1a;
use serde::{Deserialize, Serialize};

use crate::cache::{effective_reap_age, is_tmp_name, quarantine, reap_stale_tmp, write_atomic};
use crate::{vfs, CellError, Result};

/// Magic prefix of a checkpoint header line.
const MAGIC: &str = "cryo-checkpoint";
/// Current envelope version.
const VERSION: u32 = 1;

/// Quarantined `*.corrupt` files kept per entry after bounded pruning
/// (`CheckpointStore::prune_quarantined`); older evidence is deleted.
/// Shared by the per-cell, farm-manifest, and surrogate training stores.
pub const QUARANTINE_KEEP: usize = 2;

/// What the self-healing scrub at store open found, with the damage
/// classified by how it happened — the raw material for the drill ledger
/// and the durability sections of the run reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Entries whose envelope was verified.
    pub scanned: usize,
    /// Entries quarantined with truncation-shaped damage: a missing or
    /// mangled header, or a checksum mismatch whose payload is no longer
    /// valid JSON — the signature of a torn write or a crash mid-write.
    pub truncated: Vec<String>,
    /// Entries quarantined with bit-rot-shaped damage: the envelope reads
    /// fine and the payload still parses, but the checksum disagrees —
    /// bytes changed at rest.
    pub bit_rot: Vec<String>,
    /// Atomic-write scratch files still present after the stale reap —
    /// young orphans, e.g. from a rename that never happened. Left alone
    /// (their writer may be alive); the entries they were meant to commit
    /// simply rebuild.
    pub orphan_tmp: usize,
}

impl ScrubReport {
    /// Whether the scrub found nothing wrong.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.truncated.is_empty() && self.bit_rot.is_empty() && self.orphan_tmp == 0
    }

    /// Entries quarantined by the scrub (truncated + bit-rot).
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.truncated.len() + self.bit_rot.len()
    }
}

/// A directory of per-cell characterization checkpoints for one
/// (library, cache key) pair.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    reaped: usize,
    scrub: ScrubReport,
}

impl CheckpointStore {
    /// Open (creating if needed) the checkpoint directory for a run,
    /// namespaced under `cache_dir/checkpoints/<name>_<key>`.
    ///
    /// Opening also sweeps stale atomic-write tmp files — orphans of
    /// `kill -9` mid-store — from both the cache directory and this
    /// store's own directory (threshold: `CRYO_REAP_AGE` seconds, default
    /// 1 h; the count is available via [`CheckpointStore::reaped_tmp`]),
    /// then runs the self-healing scrub: every entry's envelope is
    /// verified, corrupt entries are quarantined immediately with the
    /// damage classified in [`CheckpointStore::scrub_report`].
    ///
    /// # Errors
    ///
    /// [`CellError::Cache`] when the directory cannot be created, or
    /// [`CellError::NoSpace`] when the disk is full.
    pub fn open(cache_dir: &Path, name: &str, key: &str) -> Result<Self> {
        let dir = cache_dir.join("checkpoints").join(format!("{name}_{key}"));
        fs::create_dir_all(&dir).map_err(|e| crate::cache::classify_io_err("mkdir", &dir, &e))?;
        let age = effective_reap_age();
        let reaped = reap_stale_tmp(cache_dir, age) + reap_stale_tmp(&dir, age);
        let scrub = Self::scrub_dir(&dir);
        Ok(Self { dir, reaped, scrub })
    }

    /// Stale atomic-write tmp files swept when this store was opened.
    #[must_use]
    pub fn reaped_tmp(&self) -> usize {
        self.reaped
    }

    /// What the self-healing scrub found (and quarantined) at open.
    #[must_use]
    pub fn scrub_report(&self) -> &ScrubReport {
        &self.scrub
    }

    /// The self-healing pass: verify every entry's envelope, quarantine
    /// corrupt ones immediately, and classify the damage. Reads through
    /// plain `fs`, not the fault shim — the scrub *is* the integrity
    /// checker, and injected short reads here would quarantine intact
    /// entries, making "rebuild exactly the damaged set" unfalsifiable.
    fn scrub_dir(dir: &Path) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut entries: Vec<(String, PathBuf)> = fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                if is_tmp_name(&name) {
                    report.orphan_tmp += 1;
                    return None;
                }
                let stem = name.strip_suffix(".ckpt")?;
                Some((stem.to_string(), e.path()))
            })
            .collect();
        entries.sort();
        for (stem, path) in entries {
            report.scanned += 1;
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    quarantine(&path, &format!("scrub: unreadable: {e}"));
                    report.truncated.push(stem);
                    continue;
                }
            };
            if let Err(why) = Self::decode(&text) {
                // Classify before quarantining: a checksum mismatch whose
                // payload still parses as JSON means bytes changed at rest
                // (bit-rot); anything else is truncation-shaped — a torn
                // write, a crash mid-write, or a mangled header.
                let payload = text.split_once('\n').map_or("", |(_, p)| p);
                let rot = why.starts_with("checksum mismatch")
                    && serde_json::from_str::<serde::Value>(payload).is_ok();
                quarantine(&path, &format!("scrub: {why}"));
                if rot {
                    report.bit_rot.push(stem);
                } else {
                    report.truncated.push(stem);
                }
            }
        }
        report
    }

    /// The backing directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a cell's checkpoint entry.
    #[must_use]
    pub fn path(&self, cell: &str) -> PathBuf {
        self.dir.join(format!("{cell}.ckpt"))
    }

    /// Persist a characterized cell (atomic; honors the fault injector's
    /// cache-corruption site).
    ///
    /// # Errors
    ///
    /// [`CellError::Cache`] on serialization or I/O failure.
    pub fn store(&self, cell: &Cell) -> Result<()> {
        let payload = serde_json::to_string(cell)
            .map_err(|e| CellError::Cache(format!("serialize checkpoint {}: {e}", cell.name)))?;
        self.store_blob(&cell.name, &payload)
    }

    /// Persist an arbitrary payload under `name` inside the same
    /// checksummed envelope as cell checkpoints. The pipeline supervisor
    /// uses this for per-stage artifacts — one store, one envelope format,
    /// one corruption/quarantine story across both layers.
    ///
    /// # Errors
    ///
    /// [`CellError::Cache`] on I/O failure.
    pub fn store_blob(&self, name: &str, payload: &str) -> Result<()> {
        let content = format!(
            "{MAGIC} v{VERSION} {:016x}\n{payload}",
            fnv1a(payload.as_bytes())
        );
        write_atomic(&self.path(name), &content)
    }

    /// Load a cell's checkpoint if present and intact. Corrupt entries
    /// (bad header, wrong version, checksum mismatch, unparsable payload)
    /// are quarantined as `*.corrupt` and reported as a miss.
    #[must_use]
    pub fn load(&self, cell: &str) -> Option<Cell> {
        let payload = self.load_blob(cell)?;
        match serde_json::from_str(&payload) {
            Ok(c) => Some(c),
            Err(e) => {
                // The envelope checksum was intact but the payload does not
                // parse as a cell (e.g. a schema change): same treatment.
                quarantine(&self.path(cell), &format!("payload parse error: {e}"));
                None
            }
        }
    }

    /// Load a raw payload stored with [`CheckpointStore::store_blob`],
    /// validating the envelope. Corrupt entries are quarantined and report
    /// a miss.
    #[must_use]
    pub fn load_blob(&self, name: &str) -> Option<String> {
        let path = self.path(name);
        if !path.exists() {
            return None;
        }
        let text = match vfs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                quarantine(&path, &format!("unreadable: {e}"));
                return None;
            }
        };
        match Self::decode(&text) {
            Ok(payload) => Some(payload.to_string()),
            Err(why) => {
                quarantine(&path, &why);
                None
            }
        }
    }

    /// Validate the envelope and return the payload slice.
    fn decode(text: &str) -> std::result::Result<&str, String> {
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| "missing envelope header".to_string())?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some(MAGIC) {
            return Err("bad magic".to_string());
        }
        let version = fields.next().unwrap_or("");
        if version != format!("v{VERSION}") {
            return Err(format!("unsupported version {version:?}"));
        }
        let want = fields
            .next()
            .ok_or_else(|| "missing checksum".to_string())?;
        let got = format!("{:016x}", fnv1a(payload.as_bytes()));
        if want != got {
            return Err(format!("checksum mismatch (header {want}, payload {got})"));
        }
        Ok(payload)
    }

    /// Names of the cells with (apparently) intact checkpoint entries.
    #[must_use]
    pub fn entries(&self) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.strip_suffix(".ckpt").map(str::to_string)
            })
            .collect();
        names.sort_unstable();
        names
    }

    /// Delete one cell's checkpoint entry. The audit firewall's quarantine
    /// path uses this for *targeted* re-characterization: evicting only
    /// the offending cells forces them through a fresh characterization
    /// while every clean cell still resumes from its checkpoint with zero
    /// re-simulation.
    pub fn remove(&self, name: &str) {
        let _ = fs::remove_file(self.path(name));
    }

    /// Delete every checkpoint entry (called once the whole library is
    /// safely in the library-level cache).
    pub fn clear(&self) {
        let _ = fs::remove_dir_all(&self.dir);
    }

    /// Bound the quarantine graveyard: for each entry, keep only the
    /// `keep` newest `*.corrupt` files and delete the rest. Returns how
    /// many files were pruned.
    ///
    /// Quarantined files are evidence, not state — a long-lived cache
    /// directory that keeps tripping over the same corrupt entry (flaky
    /// disk, repeated fault-injection runs) would otherwise accumulate
    /// `.corrupt`, `.2.corrupt`, … without bound.
    pub fn prune_quarantined(&self, keep: usize) -> usize {
        use std::collections::HashMap;
        use std::time::SystemTime;
        let mut groups: HashMap<String, Vec<(SystemTime, PathBuf)>> = HashMap::new();
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".corrupt") {
                continue;
            }
            // `<cell>.ckpt.corrupt` / `<cell>.ckpt.N.corrupt` → group by cell.
            let stem = name.split(".ckpt").next().unwrap_or(&name).to_string();
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            groups.entry(stem).or_default().push((mtime, entry.path()));
        }
        let mut pruned = 0;
        for (_, mut files) in groups {
            // Newest first; path as a deterministic tie-break for
            // same-instant writes.
            files.sort_by(|a, b| b.cmp(a));
            for (_, path) in files.into_iter().skip(keep) {
                if fs::remove_file(&path).is_ok() {
                    pruned += 1;
                }
            }
        }
        pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryo_liberty::{LogicFunction, Lut2, Pin, TimingArc};

    fn test_cell(name: &str) -> Cell {
        let f = LogicFunction::from_eval(&["A"], |b| b & 1 == 0);
        Cell {
            name: name.to_string(),
            area: 0.05,
            pins: vec![Pin::input("A", 0.4e-15), Pin::output("Y", f)],
            arcs: vec![TimingArc {
                related_pin: "A".into(),
                pin: "Y".into(),
                kind: cryo_liberty::ArcKind::Combinational,
                sense: cryo_liberty::TimingSense::NegativeUnate,
                cell_rise: Lut2::constant(4e-12),
                cell_fall: Lut2::constant(5e-12),
                rise_transition: Lut2::constant(2e-12),
                fall_transition: Lut2::constant(2e-12),
                sigma: None,
            }],
            power_arcs: vec![],
            leakage_states: vec![(0, 1e-9), (1, 2e-9)],
            ff: None,
            drive: 1,
        }
    }

    fn temp_store(tag: &str) -> (PathBuf, CheckpointStore) {
        let dir = std::env::temp_dir().join(format!("cryo_ckpt_test_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, "corner", "cafe").unwrap();
        (dir, store)
    }

    #[test]
    fn round_trip_preserves_the_cell() {
        let (dir, store) = temp_store("roundtrip");
        store.store(&test_cell("INVx1")).unwrap();
        let back = store.load("INVx1").expect("checkpoint hit");
        assert_eq!(back.name, "INVx1");
        assert_eq!(back.arcs.len(), 1);
        assert_eq!(back.leakage_states.len(), 2);
        assert_eq!(store.entries(), vec!["INVx1".to_string()]);
        assert!(store.load("NANDx1").is_none(), "miss on other cell");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_quarantined() {
        let (dir, store) = temp_store("truncated");
        store.store(&test_cell("INVx1")).unwrap();
        let path = store.path("INVx1");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() * 2 / 3]).unwrap();
        assert!(store.load("INVx1").is_none(), "checksum must catch it");
        assert!(!path.exists());
        assert!(
            path.with_extension("ckpt.corrupt").exists(),
            "evidence preserved"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_byte_is_caught() {
        let (dir, store) = temp_store("bitflip");
        store.store(&test_cell("INVx1")).unwrap();
        let path = store.path("INVx1");
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("0.05", "0.06", 1);
        assert_ne!(text, tampered, "tamper site must exist");
        fs::write(&path, tampered).unwrap();
        assert!(store.load("INVx1").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let (dir, store) = temp_store("version");
        let path = store.path("INVx1");
        fs::write(&path, "cryo-checkpoint v99 0000000000000000\n{}").unwrap();
        assert!(store.load("INVx1").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn blob_round_trip_and_corruption_detection() {
        let (dir, store) = temp_store("blob");
        store.store_blob("stage_sta", "{\"delay\": 1.5}").unwrap();
        assert_eq!(
            store.load_blob("stage_sta").as_deref(),
            Some("{\"delay\": 1.5}")
        );
        let path = store.path("stage_sta");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 3]).unwrap();
        assert!(
            store.load_blob("stage_sta").is_none(),
            "checksum catches it"
        );
        assert!(!path.exists(), "corrupt blob quarantined");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeat_quarantines_keep_distinct_evidence_and_prune_bounds_them() {
        let (dir, store) = temp_store("prune");
        // Corrupt the same cell's entry five times; each quarantine must
        // land under a fresh name instead of overwriting the last.
        for i in 0..5 {
            store.store(&test_cell("INVx1")).unwrap();
            let path = store.path("INVx1");
            fs::write(&path, format!("garbage round {i}")).unwrap();
            assert!(store.load("INVx1").is_none());
        }
        store.store(&test_cell("NANDx1")).unwrap();
        fs::write(store.path("NANDx1"), "also garbage").unwrap();
        assert!(store.load("NANDx1").is_none());
        let corrupt_count = |dir: &PathBuf| {
            fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".corrupt"))
                .count()
        };
        assert_eq!(corrupt_count(&store.dir), 6, "every corruption preserved");
        let pruned = store.prune_quarantined(2);
        assert_eq!(pruned, 3, "INVx1 trimmed from 5 to 2; NANDx1 untouched");
        assert_eq!(corrupt_count(&store.dir), 3);
        assert_eq!(store.prune_quarantined(2), 0, "idempotent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_at_open_classifies_and_quarantines_damage() {
        let dir = std::env::temp_dir().join("cryo_ckpt_test_scrub");
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, "corner", "cafe").unwrap();
        for name in ["CLEANx1", "TORNx1", "ROTx1"] {
            store.store(&test_cell(name)).unwrap();
        }
        // Torn write: the file holds only a prefix of the envelope.
        let torn = store.path("TORNx1");
        let text = fs::read_to_string(&torn).unwrap();
        fs::write(&torn, &text[..text.len() / 3]).unwrap();
        // Bit-rot: full length, valid JSON payload, wrong bytes.
        let rot = store.path("ROTx1");
        let text = fs::read_to_string(&rot).unwrap();
        fs::write(&rot, text.replacen("0.05", "0.06", 1)).unwrap();
        // A young orphan tmp from a dropped rename.
        fs::write(dir.join("checkpoints/corner_cafe/X.ckpt.tmp.1.0"), "x").unwrap();

        let reopened = CheckpointStore::open(&dir, "corner", "cafe").unwrap();
        let scrub = reopened.scrub_report();
        assert_eq!(scrub.scanned, 3);
        assert_eq!(scrub.truncated, vec!["TORNx1".to_string()]);
        assert_eq!(scrub.bit_rot, vec!["ROTx1".to_string()]);
        assert_eq!(scrub.orphan_tmp, 1, "young tmp observed, not swept");
        assert_eq!(scrub.quarantined(), 2);
        assert!(!scrub.is_clean());
        // Self-healing: the damaged entries are already out of the way,
        // the clean one is untouched — rebuild is exactly {TORNx1, ROTx1}.
        assert_eq!(reopened.entries(), vec!["CLEANx1".to_string()]);
        assert!(reopened.load("CLEANx1").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let (dir, store) = temp_store("scrubclean");
        store.store(&test_cell("INVx1")).unwrap();
        let reopened = CheckpointStore::open(&dir, "corner", "cafe").unwrap();
        assert!(reopened.scrub_report().is_clean());
        assert_eq!(reopened.scrub_report().scanned, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_evicts_only_the_named_cell() {
        let (dir, store) = temp_store("remove");
        store.store(&test_cell("INVx1")).unwrap();
        store.store(&test_cell("NANDx1")).unwrap();
        store.remove("INVx1");
        store.remove("GHOSTx1"); // absent: a no-op, not an error
        assert!(store.load("INVx1").is_none(), "quarantined cell evicted");
        assert!(store.load("NANDx1").is_some(), "clean cell untouched");
        assert_eq!(store.entries(), vec!["NANDx1".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_everything() {
        let (dir, store) = temp_store("clear");
        store.store(&test_cell("INVx1")).unwrap();
        store.clear();
        assert!(store.entries().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
