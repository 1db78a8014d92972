//! Drives the built benchmark binary the way a person and the benchmark
//! driver do: a whole `run` at smoke scale, its file read back by
//! `compare`, and the one-line contract output of a single workload.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use flowkv_common::telemetry::{parse_json, Json};

const PERF: &str = env!("CARGO_BIN_EXE_perf");

fn out_dir(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn smoke_run_completes_and_its_file_reads_back_in_compare() {
    let dir = out_dir("smoke-run");
    let run = |name: &str| {
        let out = dir.join(name);
        let status = Command::new(PERF)
            .args(["run", "--seed=3", "--scale=0.02", "--seconds=1"])
            .arg(format!("--out={}", out.display()))
            .status()
            .unwrap();
        assert!(status.success(), "perf run failed: {status}");
        out
    };
    let started = Instant::now();
    let a = run("a.json");
    let took = started.elapsed().as_secs_f64();
    assert!(
        took < 30.0,
        "a smoke run of every workload took {took:.1} s"
    );
    let b = run("b.json");

    let file = parse_json(&std::fs::read_to_string(&a).unwrap()).unwrap();
    let Some(Json::Arr(runs)) = file.get("runs") else {
        panic!("no runs in the output");
    };
    assert_eq!(runs.len(), 10, "five workloads, untraced and traced");
    assert!(runs
        .iter()
        .all(|r| r.get("correct") == Some(&Json::Bool(true))));
    assert!(dir.join("trace-q7-aar-max.json").exists());

    // Smoke-scale timings are noise, so a `regressed` row (exit 1) is
    // fine here; exit 2 would mean the files did not parse or match.
    let compared = Command::new(PERF)
        .arg("compare")
        .arg(&a)
        .arg(&b)
        .output()
        .unwrap();
    assert!(
        matches!(compared.status.code(), Some(0 | 1)),
        "{compared:?}"
    );
    let table = String::from_utf8(compared.stdout).unwrap();
    assert!(table.contains("q12-rmw-serve") && table.contains("tuples_per_s"));

    // A different seed measures something else: refused.
    let other = dir.join("c.json");
    let status = Command::new(PERF)
        .args([
            "run",
            "--seed=4",
            "--scale=0.02",
            "--seconds=1",
            "--workload=q11m-aur-cold",
        ])
        .arg(format!("--out={}", other.display()))
        .status()
        .unwrap();
    assert!(status.success());
    let refused = Command::new(PERF)
        .arg("compare")
        .arg(&a)
        .arg(&other)
        .status()
        .unwrap();
    assert_eq!(refused.code(), Some(2));
}

#[test]
fn single_workload_prints_the_contract_line_last() {
    let dir = out_dir("smoke-single");
    for trace in ["0", "1"] {
        let output = Command::new(PERF)
            .args([
                "--workload",
                "q12-rmw-serve",
                "--seed",
                "5",
                "--seconds",
                "1",
            ])
            .args(["--scale", "0.02", "--trace", trace])
            .arg("--trace-out")
            .arg(dir.join("trace.json"))
            .output()
            .unwrap();
        assert!(output.status.success(), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let line = parse_json(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        let expected = if trace == "0" {
            "setup_s"
        } else {
            "nexmark.gen_tuples_per_s"
        };
        assert_eq!(metrics[0].0, expected);
    }
}
