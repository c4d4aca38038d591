//! Disk cache for characterized libraries.
//!
//! Full-grid characterization of the ~190-cell set costs minutes of CPU;
//! the experiment binaries run it once per (model cards, configuration)
//! pair and cache the resulting [`Library`] as JSON under a cache
//! directory (default `data/`).
//!
//! Robustness: writes are atomic (tmp + rename) so a crash mid-store never
//! leaves a half-written file under the final name, and a file that exists
//! but fails to parse is *quarantined* (renamed to `<file>.corrupt`) rather
//! than silently treated as a miss — the next run re-characterizes while
//! the evidence survives for inspection. Every committed library carries a
//! sidecar content digest (`<file>.digest`) verified at load, so even a
//! single flipped byte that still parses as valid JSON is caught instead
//! of silently served; legacy files without a sidecar are accepted as-is.
//! All durable bytes move through [`crate::vfs`], the storage-fault
//! injection shim.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cryo_device::ModelCard;
use cryo_liberty::Library;
use cryo_spice::fault::{self, fnv1a};

use crate::charlib::CharConfig;
use crate::{vfs, CellError, Result};

/// Stable 64-bit digest of arbitrary bytes, 16 hex digits, by
/// [`fault::fnv1a`]. Library cache keys, checkpoint checksums and the
/// serve layer's artifact digests all use that function, so a digest
/// printed by one can be cross-checked against another. Pipeline, farm
/// and surrogate keys use true FNV-1a (`cryo_surrogate::fnv64`) and do
/// not compare with it.
#[must_use]
pub fn content_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// Age past which an orphaned atomic-write scratch file is presumed dead.
///
/// A live writer holds a tmp file for milliseconds between write and
/// rename; an hour-old `*.tmp.<pid>.<seq>` can only be the residue of a
/// `kill -9` mid-store. Generous enough that even a stalled NFS writer is
/// never swept out from under an in-flight rename.
pub const STALE_TMP_MAX_AGE: Duration = Duration::from_secs(3600);

/// Upper bound on `CRYO_REAP_AGE` (one year, seconds): a larger value is a
/// typo, not a retention policy. Shared with `supervise::validate_env` so
/// the strict and tolerant parsers agree on the boundary.
pub const REAP_AGE_MAX_SECS: u64 = 31_536_000;

/// The reaper age threshold actually in effect: `CRYO_REAP_AGE` (seconds)
/// when set to a well-formed value, else [`STALE_TMP_MAX_AGE`].
///
/// Tolerant by design — this is consulted deep inside store opens, where
/// aborting on a typo would be worse than using the safe default. The
/// supervised entry points reject malformed values *structurally* first
/// via `supervise::validate_env`, so a flow never silently ignores one.
#[must_use]
pub fn effective_reap_age() -> Duration {
    match std::env::var("CRYO_REAP_AGE") {
        Ok(raw) => raw
            .trim()
            .parse::<u64>()
            .ok()
            .filter(|s| *s <= REAP_AGE_MAX_SECS)
            .map_or(STALE_TMP_MAX_AGE, Duration::from_secs),
        Err(_) => STALE_TMP_MAX_AGE,
    }
}

/// Sweep orphaned atomic-write scratch files (`<file>.tmp.<pid>.<seq>`)
/// older than `max_age` from `dir` (non-recursive). Returns how many were
/// removed.
///
/// Atomic writes interrupted by `kill -9` leave their tmp sibling behind
/// forever — harmless individually, but a crash-heavy serve deployment
/// accumulates them without bound. Swept at checkpoint-store open, with
/// the count surfaced in the characterization report.
#[must_use]
pub fn reap_stale_tmp(dir: &Path, max_age: Duration) -> usize {
    let mut reaped = 0;
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !is_tmp_name(&name) {
            continue;
        }
        let old_enough = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| mtime.elapsed().ok())
            .is_some_and(|age| age > max_age);
        if old_enough && fs::remove_file(entry.path()).is_ok() {
            reaped += 1;
        }
    }
    reaped
}

/// Whether `name` is an atomic-write scratch file:
/// `<anything>.tmp.<digits>.<digits>` — exactly what `write_atomic`
/// generates; never matches `.corrupt` evidence or real artifacts.
pub(crate) fn is_tmp_name(name: &str) -> bool {
    let Some((_, suffix)) = name.split_once(".tmp.") else {
        return false;
    };
    match suffix.split_once('.') {
        Some((pid, seq)) => {
            !pid.is_empty()
                && !seq.is_empty()
                && pid.bytes().all(|b| b.is_ascii_digit())
                && seq.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// Stable tag for a cell set: name count plus an FNV hash of the sorted
/// cell names. Keying the cache on this prevents stale libraries when the
/// cell set evolves.
#[must_use]
pub fn cell_set_tag(cells: &[crate::topology::CellNetlist]) -> String {
    let mut names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
    names.sort_unstable();
    let blob = names.join(",");
    format!("set{}_{:08x}", names.len(), fnv1a(blob.as_bytes()) as u32)
}

/// Canonical library name for a PVT corner, e.g. `cryo5_tt_0p70v_300k` or
/// `cryo5_ss_0p65v_4p2k`.
///
/// This centralizes the name format every cache and checkpoint namespace
/// hangs off. For the historical tt / 0.70 V corners it reproduces the
/// previously hardcoded `cryo5_tt_0p70v_{temp}k` strings byte for byte, so
/// existing cache files stay valid. Voltages are rendered to the millivolt
/// and temperatures to 0.1 K (`4p2k`), which is exactly the resolution the
/// corner-spec validator admits — two distinct admissible corners can
/// never collide on a name.
#[must_use]
pub fn corner_lib_name(process: &str, vdd: f64, temp: f64) -> String {
    let mv = (vdd * 1000.0).round() as i64;
    let (volts, rem) = (mv / 1000, mv % 1000);
    let vstr = if rem % 10 == 0 {
        format!("{volts}p{:02}", rem / 10)
    } else {
        format!("{volts}p{rem:03}")
    };
    let dk = (temp * 10.0).round() as i64;
    let tstr = if dk % 10 == 0 {
        format!("{}", dk / 10)
    } else {
        format!("{}p{}", dk / 10, dk % 10)
    };
    format!("cryo5_{process}_{vstr}v_{tstr}k")
}

/// Compute the cache key for a characterization run.
///
/// Only the fields that change the characterization *results* participate
/// (grids, operating condition, model cards, cell set) — resilience knobs
/// like retry budgets do not, so existing cache files stay valid.
///
/// # Errors
///
/// [`CellError::Cache`] when a model card fails to serialize. A silent
/// fallback here would collapse distinct model cards onto one key and
/// serve the wrong library.
pub fn cache_key(
    nfet: &ModelCard,
    pfet: &ModelCard,
    cfg: &CharConfig,
    cell_tag: &str,
) -> Result<String> {
    let mut blob = String::new();
    blob.push_str(
        &serde_json::to_string(nfet)
            .map_err(|e| CellError::Cache(format!("serialize nfet card for cache key: {e}")))?,
    );
    blob.push_str(
        &serde_json::to_string(pfet)
            .map_err(|e| CellError::Cache(format!("serialize pfet card for cache key: {e}")))?,
    );
    blob.push_str(&format!(
        "{}|{}|{:?}|{:?}|{}|{}",
        cfg.temp, cfg.vdd, cfg.slews, cfg.loads_x1, cfg.steps, cell_tag
    ));
    Ok(format!("{:016x}", fnv1a(blob.as_bytes())))
}

/// Path of the cached library for a key.
#[must_use]
pub fn cache_path(dir: &Path, name: &str, key: &str) -> PathBuf {
    dir.join(format!("{name}_{key}.liblib.json"))
}

/// Move an unreadable cache/checkpoint file out of the way so the caller
/// re-computes while the evidence survives as `<file>.corrupt` (or
/// `<file>.N.corrupt` when earlier quarantines of the same file already
/// exist — renaming over them would destroy exactly the evidence this
/// mechanism preserves). Prints one stderr warning; failures to rename
/// fall back to removal. Accumulation is bounded by
/// `CheckpointStore::prune_quarantined`.
pub(crate) fn quarantine(path: &Path, why: &str) {
    let base = path.as_os_str().to_owned();
    let mut target = {
        let mut t = base.clone();
        t.push(".corrupt");
        PathBuf::from(t)
    };
    let mut n = 1u32;
    while target.exists() && n < 1000 {
        n += 1;
        let mut t = base.clone();
        t.push(format!(".{n}.corrupt"));
        target = PathBuf::from(t);
    }
    let outcome = if fs::rename(path, &target).is_ok() {
        format!("quarantined as {}", target.display())
    } else {
        let _ = fs::remove_file(path);
        "removed".to_string()
    };
    eprintln!(
        "warning: cache entry {} is corrupt ({why}); {outcome}",
        path.display()
    );
}

/// Sidecar path holding the content digest of a committed cache file.
/// Verified at load when present; absent on legacy files (accepted as-is).
#[must_use]
pub fn sidecar_digest_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".digest");
    PathBuf::from(p)
}

/// Load a cached library if present and intact.
///
/// A missing file is a silent miss; a file that exists but fails its
/// sidecar digest check or fails to parse is quarantined (renamed to
/// `*.corrupt` with one stderr warning) and reported as a miss so the
/// caller re-characterizes. Nothing corrupt is ever silently served.
#[must_use]
pub fn load(dir: &Path, name: &str, key: &str) -> Option<Library> {
    let path = cache_path(dir, name, key);
    if !path.exists() {
        return None;
    }
    let sidecar = sidecar_digest_path(&path);
    let quarantine_with_sidecar = |why: &str| {
        quarantine(&path, why);
        let _ = fs::remove_file(&sidecar);
    };
    let text = match vfs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            quarantine_with_sidecar(&format!("unreadable: {e}"));
            return None;
        }
    };
    // Digest-before-parse: a flipped byte inside a JSON number still
    // parses, so the parse alone cannot be trusted to reject bit-rot.
    // Read the sidecar as raw bytes — a flip that breaks its UTF-8 must
    // fail the comparison, not silently skip it.
    if let Ok(raw) = fs::read(&sidecar) {
        let expect = String::from_utf8_lossy(&raw);
        let got = content_digest(text.as_bytes());
        if got != expect.trim() {
            quarantine_with_sidecar(&format!(
                "content digest mismatch (have {got}, sidecar says {})",
                expect.trim()
            ));
            return None;
        }
    }
    match serde_json::from_str::<Library>(&text) {
        Ok(lib) => Some(lib),
        Err(e) => {
            quarantine_with_sidecar(&format!("parse error: {e}"));
            None
        }
    }
}

/// Store a library in the cache (atomic tmp + rename) along with its
/// sidecar content digest.
///
/// # Errors
///
/// [`CellError::Cache`] on I/O or serialization failure;
/// [`CellError::NoSpace`] when the disk is full.
pub fn store(dir: &Path, name: &str, key: &str, lib: &Library) -> Result<()> {
    fs::create_dir_all(dir).map_err(|e| classify_io_err("mkdir", dir, &e))?;
    let path = cache_path(dir, name, key);
    let json =
        serde_json::to_string(lib).map_err(|e| CellError::Cache(format!("serialize: {e}")))?;
    write_atomic(&path, &json)?;
    // The sidecar commits outside the fault shim: it is integrity
    // *metadata*, and a faulted sidecar would quarantine a perfectly good
    // artifact on every load. Written after the artifact, so the torn
    // window is (new artifact, old sidecar) — a mismatch that rebuilds,
    // never a corrupt artifact that serves.
    write_atomic_raw(
        &sidecar_digest_path(&path),
        &content_digest(json.as_bytes()),
    )
}

/// Map an I/O error at a durable-write site to the structured cell error:
/// `ENOSPC` (injected or genuine) becomes [`CellError::NoSpace`] so
/// callers can shed checkpointing instead of failing the run.
pub(crate) fn classify_io_err(op: &str, path: &Path, e: &std::io::Error) -> CellError {
    if e.raw_os_error() == Some(28) || e.kind() == std::io::ErrorKind::StorageFull {
        CellError::NoSpace {
            path: path.display().to_string(),
        }
    } else {
        CellError::Cache(format!("{op} {path:?}: {e}"))
    }
}

/// Write `content` to `path` via a sibling tmp file and an atomic rename,
/// honoring the fault injector's cache-corruption site (which truncates the
/// payload to simulate a crash mid-write).
///
/// The tmp name carries a process-wide sequence number so concurrent
/// writers — parallel characterization workers checkpointing at once, or
/// two racing runs committing the same cell — never share a scratch file;
/// whichever rename lands last wins, and the destination is never observed
/// half-written.
pub(crate) fn write_atomic(path: &Path, content: &str) -> Result<()> {
    let payload = if fault::should_corrupt_cache_write() {
        &content[..content.len() / 2]
    } else {
        content
    };
    let tmp = scratch_name(path);
    vfs::write(&tmp, payload.as_bytes()).map_err(|e| classify_io_err("write", &tmp, &e))?;
    // The fsync-lie draw happens before the rename so the target's
    // pre-image can be captured while it still exists.
    let lie = fault::io_fsync_lie();
    let prior = if lie { fs::read(path).ok() } else { None };
    vfs::rename(&tmp, path).map_err(|e| classify_io_err("rename", path, &e))?;
    if lie {
        vfs::register_unsynced(path, prior);
    }
    Ok(())
}

/// [`write_atomic`] minus the fault shim: same tmp + rename discipline,
/// but never consults the injector. Reserved for integrity *metadata*
/// (sidecar digests) where an injected fault would cause spurious
/// quarantines of intact artifacts instead of exercising a real failure.
pub(crate) fn write_atomic_raw(path: &Path, content: &str) -> Result<()> {
    let tmp = scratch_name(path);
    fs::write(&tmp, content).map_err(|e| classify_io_err("write", &tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| classify_io_err("rename", path, &e))?;
    Ok(())
}

/// Unique scratch sibling for an atomic write: `<path>.tmp.<pid>.<seq>`.
fn scratch_name(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    PathBuf::from(tmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryo_device::Polarity;

    #[test]
    fn key_is_stable_and_sensitive() {
        let n = ModelCard::nominal(Polarity::N);
        let p = ModelCard::nominal(Polarity::P);
        let cfg300 = CharConfig::fast(300.0);
        let cfg10 = CharConfig::fast(10.0);
        let k1 = cache_key(&n, &p, &cfg300, "std").unwrap();
        let k2 = cache_key(&n, &p, &cfg300, "std").unwrap();
        assert_eq!(k1, k2, "same inputs, same key");
        assert_ne!(
            k1,
            cache_key(&n, &p, &cfg10, "std").unwrap(),
            "temp changes key"
        );
        assert_ne!(
            k1,
            cache_key(&n, &p, &cfg300, "other").unwrap(),
            "tag changes key"
        );
        let mut n2 = n.clone();
        n2.vth0 += 0.01;
        assert_ne!(
            k1,
            cache_key(&n2, &p, &cfg300, "std").unwrap(),
            "card changes key"
        );
    }

    #[test]
    fn key_ignores_resilience_knobs() {
        let n = ModelCard::nominal(Polarity::N);
        let p = ModelCard::nominal(Polarity::P);
        let base = CharConfig::fast(300.0);
        let mut tweaked = base.clone();
        tweaked.max_attempts = base.max_attempts + 5;
        assert_eq!(
            cache_key(&n, &p, &base, "std").unwrap(),
            cache_key(&n, &p, &tweaked, "std").unwrap(),
            "retry budget must not invalidate existing caches"
        );
    }

    #[test]
    fn corner_lib_name_matches_legacy_and_separates_corners() {
        // Byte-compatibility with the names the flow hardcoded pre-farm.
        assert_eq!(corner_lib_name("tt", 0.70, 300.0), "cryo5_tt_0p70v_300k");
        assert_eq!(corner_lib_name("tt", 0.70, 10.0), "cryo5_tt_0p70v_10k");
        // Fractional corners get a `p` separator instead of truncating.
        assert_eq!(corner_lib_name("ss", 0.65, 4.2), "cryo5_ss_0p65v_4p2k");
        assert_eq!(corner_lib_name("ff", 0.725, 77.0), "cryo5_ff_0p725v_77k");
        assert_ne!(
            corner_lib_name("tt", 0.70, 4.2),
            corner_lib_name("tt", 0.70, 4.0),
            "0.1 K resolution must separate names"
        );
        assert_ne!(
            corner_lib_name("tt", 0.701, 10.0),
            corner_lib_name("tt", 0.70, 10.0),
            "millivolt resolution must separate names"
        );
    }

    #[test]
    fn cell_set_tag_tracks_the_set() {
        use crate::topology;
        let a = vec![topology::inverter(1), topology::nand(2, 1)];
        let b = vec![topology::nand(2, 1), topology::inverter(1)];
        assert_eq!(cell_set_tag(&a), cell_set_tag(&b), "order-insensitive");
        let c = vec![topology::inverter(1)];
        assert_ne!(cell_set_tag(&a), cell_set_tag(&c), "content-sensitive");
        assert!(cell_set_tag(&a).starts_with("set2_"));
    }

    #[test]
    fn store_and_load_round_trip() {
        let dir = std::env::temp_dir().join("cryo_cells_cache_test");
        let _ = fs::remove_dir_all(&dir);
        let lib = Library::new("corner", 10.0, 0.7);
        store(&dir, "corner", "deadbeef", &lib).unwrap();
        let back = load(&dir, "corner", "deadbeef").expect("cache hit");
        assert_eq!(back.name, "corner");
        assert!(
            load(&dir, "corner", "feedface").is_none(),
            "miss on other key"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_quarantined_not_a_silent_miss() {
        let dir = std::env::temp_dir().join("cryo_cells_cache_corrupt_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = cache_path(&dir, "corner", "badkey");
        fs::write(&path, "{\"name\": \"corner\", truncated garbag").unwrap();
        assert!(load(&dir, "corner", "badkey").is_none());
        assert!(!path.exists(), "corrupt file moved out of the way");
        let mut quarantined = path.as_os_str().to_owned();
        quarantined.push(".corrupt");
        assert!(
            PathBuf::from(quarantined).exists(),
            "evidence preserved as *.corrupt"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reaper_sweeps_only_old_orphaned_tmp_files() {
        let dir = std::env::temp_dir().join("cryo_cells_cache_reap_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Two orphans from killed writers, quarantine evidence, and a
        // real artifact.
        let orphan1 = dir.join("lib.json.tmp.12345.7");
        let orphan2 = dir.join("lib.json.tmp.99999.0");
        let corrupt = dir.join("lib.json.corrupt");
        let real = dir.join("lib.json");
        for p in [&orphan1, &orphan2, &corrupt, &real] {
            fs::write(p, "x").unwrap();
        }
        // Non-numeric suffixes are not ours to delete.
        let alien = dir.join("other.tmp.swap");
        fs::write(&alien, "x").unwrap();
        // Freshly written files survive the real threshold (an in-flight
        // writer's tmp is never swept); a zero threshold ages them out.
        assert_eq!(
            reap_stale_tmp(&dir, Duration::from_secs(3600)),
            0,
            "nothing old yet"
        );
        assert_eq!(
            reap_stale_tmp(&dir, Duration::ZERO),
            2,
            "both orphans aged out"
        );
        assert!(!orphan1.exists() && !orphan2.exists());
        assert!(corrupt.exists(), "evidence untouched");
        assert!(real.exists(), "artifacts untouched");
        assert!(alien.exists(), "non-matching names untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parseable_bit_rot_is_caught_by_the_sidecar_digest() {
        let dir = std::env::temp_dir().join("cryo_cells_cache_bitrot_test");
        let _ = fs::remove_dir_all(&dir);
        let lib = Library::new("corner", 300.0, 0.7);
        store(&dir, "corner", "c0ffee", &lib).unwrap();
        let path = cache_path(&dir, "corner", "c0ffee");
        // Flip one byte inside a value so the file still parses as JSON —
        // without the digest this would be served as a valid library.
        let mut bytes = fs::read(&path).unwrap();
        let i = bytes.iter().position(|b| b.is_ascii_digit()).unwrap();
        bytes[i] = if bytes[i] == b'9' { b'8' } else { bytes[i] + 1 };
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(serde_json::from_str::<Library>(&tampered).is_ok());
        fs::write(&path, &tampered).unwrap();
        assert!(load(&dir, "corner", "c0ffee").is_none(), "never served");
        assert!(!path.exists(), "quarantined out of the way");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_cache_files_without_a_sidecar_still_load() {
        let dir = std::env::temp_dir().join("cryo_cells_cache_legacy_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let lib = Library::new("corner", 300.0, 0.7);
        let path = cache_path(&dir, "corner", "0ld");
        fs::write(&path, serde_json::to_string(&lib).unwrap()).unwrap();
        assert!(load(&dir, "corner", "0ld").is_some(), "legacy files valid");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_leaves_no_tmp_file_behind() {
        let dir = std::env::temp_dir().join("cryo_cells_cache_atomic_test");
        let _ = fs::remove_dir_all(&dir);
        let lib = Library::new("corner", 300.0, 0.7);
        store(&dir, "corner", "aaaa", &lib).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must be renamed away");
        let _ = fs::remove_dir_all(&dir);
    }
}
