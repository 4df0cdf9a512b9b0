//! `adaptraj tables` through the binary: Table I prints without training,
//! and bad input is one `error:` line plus the usage and exit code 1,
//! never a panic or a silent default.

use std::process::{Command, Output};

fn adaptraj(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adaptraj"))
        .args(args)
        .output()
        .expect("spawn the adaptraj binary")
}

#[test]
fn table1_prints_its_header_and_exits_zero() {
    let out = adaptraj(&["tables", "table1", "--scale", "smoke"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("=== Table I: dataset statistics ===\n"),
        "{stdout}"
    );
    assert!(stdout.contains("| Dataset "), "{stdout}");
    assert!(stdout.contains("Paper values"), "{stdout}");
}

#[test]
fn bad_input_is_a_one_line_error_with_usage_and_exit_1() {
    for (args, needle) in [
        (&["tables"][..], "missing table name"),
        (&["tables", "table9"], "unknown table 'table9'"),
        (
            &["tables", "table1", "--scale", "papr"],
            "unknown --scale 'papr'",
        ),
        (
            &["tables", "table1", "--seeds", "0"],
            "--seeds expects a positive integer",
        ),
    ] {
        let out = adaptraj(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(errors[0].contains(needle), "{args:?}: {stderr}");
        assert!(
            stderr.contains("adaptraj tables <table1|"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
