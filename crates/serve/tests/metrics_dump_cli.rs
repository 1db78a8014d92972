//! `flowkv-metrics-dump` refuses a misspelt flag before it connects.

use std::process::Command;

#[test]
fn a_misspelt_flag_is_refused_by_name_before_connecting() {
    // Port 1 answers nothing: a run that connected would exit 1.
    let out = Command::new(env!("CARGO_BIN_EXE_flowkv-metrics-dump"))
        .arg("--adr=127.0.0.1:1")
        .output()
        .expect("run flowkv-metrics-dump");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "it printed metrics");
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.contains("--adr"), "{err}");
}
