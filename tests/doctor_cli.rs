//! `adaptraj doctor --golden-dir/--golden-candidate` on malformed input:
//! a one-line `error:` on stderr and a nonzero exit — never a panic.

use adaptraj::check::golden::{golden_path, GOLDEN_NAMES};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("adaptraj_doctor_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `doctor` with `dir` as both golden directories and asserts the
/// failure names the baseline directory on one `error:` line.
fn assert_one_line_error(dir: &Path) {
    let dir = dir.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_adaptraj"))
        .args(["doctor", "--golden-dir", dir, "--golden-candidate", dir])
        .output()
        .unwrap();
    assert!(!out.status.success(), "expected a nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "doctor panicked instead of reporting: {stderr}"
    );
    assert_eq!(stderr.trim_end().lines().count(), 1, "stderr: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {dir}: ")),
        "stderr: {stderr}"
    );
}

#[test]
fn malformed_baseline_json_is_a_one_line_error() {
    let base = tmp_dir("malformed");
    std::fs::write(golden_path(&base, GOLDEN_NAMES[0]), "{\"schema\":").unwrap();
    assert_one_line_error(&base);
}

#[test]
fn wrong_schema_version_is_a_one_line_error() {
    let base = tmp_dir("wrong_schema");
    std::fs::write(
        golden_path(&base, GOLDEN_NAMES[0]),
        "{\"schema\":\"adaptraj-golden/v999\",\"name\":\"x\"}",
    )
    .unwrap();
    assert_one_line_error(&base);
}

#[test]
fn missing_baseline_file_is_a_one_line_error() {
    assert_one_line_error(&tmp_dir("empty"));
}
