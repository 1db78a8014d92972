//! `flowkv-figures` refuses a bad command line before any cell runs.

use std::process::Command;

/// Runs the binary, expects status 2 and an empty stdout, and returns
/// its stderr.
fn refusal(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_flowkv-figures"))
        .args(args)
        .output()
        .expect("run flowkv-figures");
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn an_unknown_figure_is_refused_with_the_valid_names() {
    let err = refusal(&["fig7_throughput"]);
    assert!(err.contains("fig7_throughput"), "{err}");
    for name in ["fig4_breakdown", "fig8_throughput", "abl_layout"] {
        assert!(err.contains(name), "{err}");
    }
}

#[test]
fn a_value_that_does_not_parse_is_refused_by_name() {
    let err = refusal(&["--scale=0,05"]);
    assert!(err.contains("--scale=0,05"), "{err}");
    let err = refusal(&["fig9_latency", "--seconds=1s"]);
    assert!(err.contains("--seconds=1s"), "{err}");
}

#[test]
fn a_flag_no_selected_figure_reads_is_refused_by_name() {
    let err = refusal(&["--sclae=0.05"]);
    assert!(err.contains("--sclae"), "{err}");
    // Only the engine figures read `--scale`.
    let err = refusal(&["abl_layout", "--scale=0.05"]);
    assert!(err.contains("--scale"), "{err}");
}
