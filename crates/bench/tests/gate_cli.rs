//! `wsn-scenarios gate*` rejects a bench document it cannot read — a
//! missing file, or one that does not deserialize — with exit code 2 and a
//! message naming the file and the field, before any comparison runs.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `cmd --baseline baseline --fresh fresh`; return the exit code and
/// stderr.
fn gate(cmd: &str, baseline: &Path, fresh: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wsn-scenarios"))
        .arg(cmd)
        .arg("--baseline")
        .arg(baseline)
        .arg("--fresh")
        .arg(fresh)
        .output()
        .expect("wsn-scenarios runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn committed(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

/// A committed baseline with its first `"key":` renamed away, written
/// where the test binaries keep their scratch files.
fn without(file: &str, key: &str) -> PathBuf {
    let text = std::fs::read_to_string(committed(file)).unwrap();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("without-{key}-{file}"));
    std::fs::write(
        &path,
        text.replacen(&format!("\"{key}\":"), "\"renamed\":", 1),
    )
    .unwrap();
    path
}

#[test]
fn a_missing_file_exits_2_naming_it() {
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_pipeline.absent.json");
    let (code, stderr) = gate("gate", &committed("BENCH_pipeline.json"), &missing);
    assert_eq!(code, Some(2), "stderr was {stderr}");
    assert!(
        stderr.contains("cannot read") && stderr.contains("BENCH_pipeline.absent.json"),
        "{stderr}"
    );
}

#[test]
fn a_missing_section_exits_2_naming_the_file_and_the_field() {
    for (cmd, file, section) in [
        ("gate", "BENCH_pipeline.json", "thread_scaling"),
        ("gate-lifetime", "BENCH_lifetime.json", "locality_sweep"),
        ("gate-serve", "BENCH_serve.json", "rows"),
    ] {
        let fresh = without(file, section);
        let (code, stderr) = gate(cmd, &committed(file), &fresh);
        assert_eq!(code, Some(2), "{cmd}: stderr was {stderr}");
        let field = format!("fresh document: missing field `{section}`");
        assert!(
            stderr.contains(&format!("without-{section}-{file}")) && stderr.contains(&field),
            "{cmd}: expected the file and `{field}` in {stderr}"
        );
    }
}

#[test]
fn a_missing_row_field_exits_2_naming_its_path() {
    let fresh = without("BENCH_lifetime.json", "mean_gathered");
    let (code, stderr) = gate("gate-lifetime", &committed("BENCH_lifetime.json"), &fresh);
    assert_eq!(code, Some(2), "stderr was {stderr}");
    assert!(
        stderr.contains("locality_sweep[0]: missing field `mean_gathered`"),
        "{stderr}"
    );
}
