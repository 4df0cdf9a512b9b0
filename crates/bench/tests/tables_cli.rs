//! The `tables` binary's command line: bad input is one `error:` line plus
//! the usage and exit code 2, never a panic or a silent default.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("spawn the tables binary")
}

#[test]
fn table1_prints_its_header_and_exits_zero() {
    let out = tables(&["table1", "--scale", "smoke"]);
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
fn bad_input_is_a_one_line_error_with_usage_and_exit_2() {
    for (args, needle) in [
        (&[][..], "missing table name"),
        (&["table9"], "unknown table 'table9'"),
        (&["table1", "--bogus", "3"], "unknown argument '--bogus'"),
        (&["table1", "--scale", "papr"], "unknown --scale 'papr'"),
        (&["table1", "--scale"], "--scale needs a value"),
        (
            &["table1", "--seeds", "abc"],
            "--seeds expects a positive integer",
        ),
        (
            &["table1", "--seeds", "0"],
            "--seeds expects a positive integer",
        ),
        (
            &["table1", "--seeds", "1", "--seeds", "2"],
            "--seeds given twice",
        ),
        (
            &["table1", "--scale", "smoke", "--scale", "smoke"],
            "--scale given twice",
        ),
        (
            &["compare", "--target", "eth_ucy"],
            "unknown argument '--target'",
        ),
    ] {
        let out = tables(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(errors[0].contains(needle), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: tables <table1|"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
