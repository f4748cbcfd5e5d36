//! # appeal-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! AppealNet paper's evaluation section, plus the fixtures they share with
//! the integration tests.
//!
//! * **Binaries** (`src/bin/*.rs`) — run the full experiment pipelines
//!   (dataset generation, training, threshold tuning) and print the same
//!   rows/series the paper reports. `cargo run --release -p appeal-bench
//!   --bin paper_suite` regenerates every figure and table in one pass and
//!   writes text reports into the repository's `reports/` directory;
//!   `paper_suite -- <fig4|fig5|table1|table2|energy|ablation-beta|
//!   ablation-joint>` regenerates one. `fleet_sim`, `fault_sim` and
//!   `quant_sweep` are the self-checking system experiments: their reports
//!   are committed, byte-reproducible at paper fidelity, and regenerated and
//!   diffed by CI.
//! * **[`fixtures`]** — the one set of untrained model pairs, stock fleets,
//!   traces and report helpers behind those binaries and the root package's
//!   `tests/*.rs`.
//!
//! Nothing here measures time: kernel, engine, serving and training
//! performance are measured by the repository benchmark (`benchmark/`).
//!
//! The experiment fidelity of the binaries can be overridden with the
//! `APPEALNET_FIDELITY` environment variable (`smoke` or `paper`; anything
//! else is refused).

pub mod fixtures;

use appeal_dataset::Fidelity;
use appealnet_core::experiments::ExperimentContext;
use std::fs;
use std::path::{Path, PathBuf};

/// Parses an `APPEALNET_FIDELITY` value; unset (or empty) selects `paper`.
///
/// Anything else is an error naming the accepted values: a typo must not
/// silently start the hours-long paper run.
pub fn parse_fidelity(value: Option<&str>) -> Result<Fidelity, String> {
    match value.unwrap_or_default().to_lowercase().as_str() {
        "smoke" => Ok(Fidelity::Smoke),
        "paper" | "" => Ok(Fidelity::Paper),
        other => Err(format!(
            "APPEALNET_FIDELITY={other:?} is not a fidelity: accepted values are `smoke` and \
             `paper` (unset selects `paper`)"
        )),
    }
}

/// Reads the experiment fidelity from `APPEALNET_FIDELITY` (default:
/// `paper`); exits with status 2 on an unrecognised value.
pub fn fidelity_from_env() -> Fidelity {
    let value = std::env::var_os("APPEALNET_FIDELITY").map(|v| v.to_string_lossy().into_owned());
    parse_fidelity(value.as_deref()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

/// The experiment context used by all harness binaries.
pub fn harness_context() -> ExperimentContext {
    ExperimentContext::new(fidelity_from_env(), 2021)
}

/// Directory where harness binaries write their text reports.
pub fn report_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("reports");
    fs::create_dir_all(&dir).expect("failed to create reports directory");
    dir
}

/// Writes `text` to `<dir>/<name>.txt`; the error names the path.
fn write_report_to(dir: &Path, name: &str, text: &str) -> Result<PathBuf, String> {
    let path = dir.join(format!("{name}.txt"));
    fs::write(&path, text).map_err(|err| format!("failed to write {}: {err}", path.display()))?;
    Ok(path)
}

/// Writes a report to `reports/<name>.txt` and echoes it to stdout. Exits
/// with status 1 if the file cannot be written: CI diffs `reports/` after
/// regenerating it, and a run that wrote nothing must not pass that diff.
pub fn write_report(name: &str, text: &str) {
    println!("{text}");
    match write_report_to(&report_dir(), name, text) {
        Ok(path) => eprintln!("[report written to {}]", path.display()),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}

/// Seconds elapsed since `start`, formatted for progress logs.
pub fn elapsed_secs(start: std::time::Instant) -> String {
    format!("{:.1}s", start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_parsing_accepts_smoke_paper_and_unset_only() {
        assert_eq!(parse_fidelity(None), Ok(Fidelity::Paper));
        assert_eq!(parse_fidelity(Some("")), Ok(Fidelity::Paper));
        assert_eq!(parse_fidelity(Some("paper")), Ok(Fidelity::Paper));
        assert_eq!(parse_fidelity(Some("smoke")), Ok(Fidelity::Smoke));
        assert_eq!(parse_fidelity(Some("SMOKE")), Ok(Fidelity::Smoke));
        let err = parse_fidelity(Some("smok")).unwrap_err();
        assert!(err.contains("smok") && err.contains("`smoke`") && err.contains("`paper`"));
    }

    #[test]
    fn context_uses_env_fidelity() {
        let ctx = harness_context();
        assert!(ctx.beta > 0.0);
    }

    #[test]
    fn report_dir_is_creatable() {
        let dir = report_dir();
        assert!(dir.exists());
    }

    #[test]
    fn unwritable_report_is_an_error_naming_the_path() {
        // A regular file cannot be a report's parent directory.
        let not_a_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let err = write_report_to(&not_a_dir, "never_written", "text").unwrap_err();
        let path = not_a_dir.join("never_written.txt");
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(!path.exists());
    }
}
