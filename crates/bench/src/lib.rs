#![warn(missing_docs)]
//! Experiment regeneration support: shared CLI plumbing for the per-table/
//! per-figure binaries and the drill binaries. Timing lives in the
//! `cryo_benchmark` package (`BENCHMARK.json`), not here.
//!
//! Each binary regenerates one artifact of the paper and prints
//! paper-vs-measured:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig2_readout` | Fig. 2a/b — I/Q classification + decoherence decay |
//! | `fig3_transfer` | Fig. 3 — transfer curves, calibrated model overlay |
//! | `fig5_celldelay` | Fig. 5 — library delay histograms at 300 K / 10 K |
//! | `table1_timing` | Table 1 — SoC critical path at both corners |
//! | `fig6_power` | Fig. 6 — kNN power breakdown at both corners |
//! | `table2_cycles` | Table 2 — cycles per classification |
//! | `fig7_scaling` | Fig. 7 — classification time vs. qubit count |
//!
//! All binaries accept `--fast` (reduced characterization grid and uncore,
//! for smoke runs) and default to the paper's full configuration with disk
//! caching under `data/`.

use std::path::{Path, PathBuf};

use cryo_core::supervise::Stage;
use cryo_core::{CryoFlow, FlowConfig};

/// Parse the shared CLI arguments and build the flow.
#[must_use]
pub fn flow_from_args() -> CryoFlow {
    let fast = std::env::args().any(|a| a == "--fast");
    let cfg = if fast {
        FlowConfig::fast("data")
    } else {
        let mut cfg = FlowConfig::full("data");
        cfg.char_300k.progress = true;
        cfg.char_10k.progress = true;
        cfg
    };
    CryoFlow::new(cfg)
}

/// Value of `--name=<v>` or `--name <v>`, if present; the first wins.
#[must_use]
pub fn arg_value(name: &str) -> Option<String> {
    value_in(&std::env::args().collect::<Vec<_>>(), name)
}

fn value_in(args: &[String], name: &str) -> Option<String> {
    let prefix = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
        if a == name {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// `--name[=<spec>]` or `--name <spec>`, where a bare flag (last, or
/// followed by another `--` flag) means `default`; the last one wins.
/// `None` when the flag is absent.
#[must_use]
pub fn spec_flag(name: &str, default: &str) -> Option<String> {
    spec_in(&std::env::args().collect::<Vec<_>>(), name, default)
}

fn spec_in(args: &[String], name: &str, default: &str) -> Option<String> {
    let prefix = format!("{name}=");
    let mut spec = None;
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            spec = Some(v.to_string());
        } else if a == name {
            spec = Some(match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => default.to_string(),
            });
        }
    }
    spec
}

/// Print `msg` to stderr and exit 2, the status of a usage error.
pub fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The pipeline stage named `name`; an unknown name is a usage error
/// ([`die`]) that lists the known ones.
pub fn stage_by_name(name: &str) -> Stage {
    Stage::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| {
            let known: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
            die(&format!(
                "unknown stage `{name}`; expected one of {known:?}"
            ))
        })
}

/// If `--json` was passed, write `value` to `results/<name>.json` and
/// report the path on stderr. Exits 1 when the file cannot be written.
pub fn maybe_write_json<T: serde::Serialize>(name: &str, value: &T) {
    if !std::env::args().any(|a| a == "--json") {
        return;
    }
    match write_json(Path::new("results"), name, value) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results/{name}.json: {e}");
            std::process::exit(1);
        }
    }
}

/// Serialize `value` to `<dir>/<name>.json`, creating `dir` as needed,
/// and return the file's path. A directory or write error names its path.
fn write_json<T: serde::Serialize>(dir: &Path, name: &str, value: &T) -> Result<PathBuf, String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Render a simple ASCII bar of `value` against `full_scale`.
#[must_use]
pub fn bar(value: f64, full_scale: f64, width: usize) -> String {
    let n = ((value / full_scale) * width as f64).round().max(0.0) as usize;
    "#".repeat(n.min(width))
}

/// Format paper-vs-measured with a deviation tag.
#[must_use]
pub fn compare(label: &str, paper: f64, measured: f64, unit: &str) -> String {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    format!(
        "{label:<38} paper {paper:>10.3} {unit:<8} measured {measured:>10.3} {unit:<8} (x{ratio:.2})"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped");
    }

    #[test]
    fn compare_formats() {
        let s = compare("critical path", 1.04, 1.09, "ns");
        assert!(s.contains("1.040"));
        assert!(s.contains("1.090"));
        assert!(s.contains("x1.05"));
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arg_value_takes_the_first_equals_or_spaced_form() {
        let v = |line: &str| value_in(&args(line), "--out");
        assert_eq!(v("bin --out=a --out b").as_deref(), Some("a"));
        assert_eq!(v("bin --out b").as_deref(), Some("b"));
        assert_eq!(v("bin --out --fast").as_deref(), Some("--fast"));
        assert_eq!(v("bin --out"), None);
        assert_eq!(v("bin --outdir=a"), None);
    }

    #[test]
    fn a_bare_spec_flag_means_its_default_and_the_last_one_wins() {
        let v = |line: &str| spec_in(&args(line), "--mc", "n:8");
        assert_eq!(v("bin --fast"), None);
        assert_eq!(v("bin --mc").as_deref(), Some("n:8"));
        assert_eq!(v("bin --mc --fast").as_deref(), Some("n:8"));
        assert_eq!(v("bin --mc n:4,k:3").as_deref(), Some("n:4,k:3"));
        assert_eq!(v("bin --mc=off --mc").as_deref(), Some("n:8"));
        assert_eq!(v("bin --mc --mc=off").as_deref(), Some("off"));
    }

    #[test]
    fn write_json_reports_an_unwritable_dir_and_round_trips() {
        let root = std::env::temp_dir().join(format!("cryo_bench_json_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let value = vec![1.5, -2.0e-16];

        let file = root.join("results");
        std::fs::write(&file, "not a directory").unwrap();
        let blocked = file.join("sub");
        let err = write_json(&blocked, "fig", &value).unwrap_err();
        assert!(err.contains(&blocked.display().to_string()), "{err}");

        let path = write_json(&root.join("out"), "fig", &value).unwrap();
        assert_eq!(path, root.join("out").join("fig.json"));
        let back: Vec<f64> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, value);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
