//! `repro`'s argument handling: `--quick` only sets the scale, and an
//! unknown argument or name exits 2 without printing a section.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn unknown_names_and_arguments_exit_2() {
    for args in [
        &["--exp", "e11"][..],
        &["--table", "t9"],
        &["--figure", "f4"],
        &["--exp"],
        &["--bogus"],
        &[],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} printed a section");
    }
}

#[test]
fn quick_scales_the_selection_instead_of_adding_to_it() {
    let out = repro(&["--table", "t1", "--quick"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.matches("T1").count(), 1, "{stdout}");
    assert!(!stdout.contains("E1"), "{stdout}");
}
