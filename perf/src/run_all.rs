//! `perf run`: every workload, each in its own child process (fresh
//! allocator, its own peak RSS, no page-cache or heap carry-over), once
//! untraced for the end-to-end metrics and once traced for the ledger,
//! merged into one JSON file with the box's provenance. Also generates
//! `BENCHMARK.json` from the metric and workload tables.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use flowkv_common::telemetry::Json;

use crate::metrics::{per_layer, END_TO_END};
use crate::report::{num, obj, read_json, text, write_json};
use crate::workloads::{definition_hash, PARALLELISM, RUN_SECONDS, WORKLOADS};
use crate::Cli;

/// The command the benchmark driver runs, before its own arguments.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| text(s)).collect());
    obj(vec![
        ("command", strings(&COMMAND)),
        ("paths", strings(&["perf"])),
        ("run_seconds", num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(&m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// First line of a command's output, or "unknown" when it cannot run
/// (the benchmark's own checkouts are not git repositories).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(seed: u64, scale: f64, seconds: f64) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| Json::Bool(!o.stdout.is_empty()));
    obj(vec![
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", text(&cpu_model)),
        ("kernel", text(&kernel)),
        ("rustc", text(&first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            text(&first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty", dirty),
        ("seed", num(seed as f64)),
        ("scale", num(scale)),
        ("seconds", num(seconds)),
        ("parallelism", num(PARALLELISM as f64)),
        ("source_threads", num(1.0)),
        ("definition_hash", text(&definition_hash())),
    ])
}

/// Runs one workload in a child process and returns its detail record.
fn child(
    name: &str,
    trace: bool,
    seed: u64,
    scale: f64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let detail = out_dir.join(format!(".detail-{name}-{}.json", u8::from(trace)));
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(out_dir.join(format!("trace-{name}.json")))
        .arg("--detail")
        .arg(&detail)
        // The parent prints the merged table; the child's stderr carries
        // each metric by name as it finishes.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {status}",
            u8::from(trace)
        ));
    }
    let record = read_json(&detail)?;
    let _ = std::fs::remove_file(&detail);
    Ok(record)
}

/// `perf run`; `Ok(true)` when every workload ran and every output
/// matched its reference.
pub fn run(cli: &Cli) -> Result<bool, String> {
    let seed: u64 = cli.get("seed", 1)?;
    let scale: f64 = cli.get("scale", 1.0)?;
    let seconds: f64 = cli.get("seconds", RUN_SECONDS)?;
    let out = PathBuf::from(cli.text("out").unwrap_or("perf/out/latest.json"));
    let out_dir = out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let selected: Vec<&str> = match cli.text("workload") {
        Some(name) => vec![
            crate::workloads::find(name)
                .ok_or(format!("unknown workload {name}"))?
                .name,
        ],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };

    let started = Instant::now();
    let mut runs = Vec::new();
    let mut ok = true;
    for name in selected {
        for trace in [false, true] {
            eprintln!("== {name} (trace {}) ==", u8::from(trace));
            let record = child(name, trace, seed, scale, seconds, out_dir)?;
            ok &= record.get("correct") == Some(&Json::Bool(true));
            runs.push(record);
        }
    }
    for run in &runs {
        let name = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(metrics) = run.get("metrics").and_then(Json::as_obj) else {
            continue;
        };
        for (metric, cell) in metrics {
            let value = cell.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = cell.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{name:<15} {metric:<34} {value:>18.6} {unit}");
        }
    }
    let file = obj(vec![
        ("benchmark", text("flowkv-perf")),
        ("provenance", provenance(seed, scale, seconds)),
        ("wall_s", num(started.elapsed().as_secs_f64())),
        ("runs", Json::Arr(runs)),
    ]);
    write_json(&out, &file)?;
    eprintln!("wrote {}", out.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings<'a>(json: &'a Json, key: &str) -> Vec<&'a str> {
        let Some(Json::Arr(items)) = json.get(key) else {
            panic!("{key} is not an array");
        };
        items.iter().map(|i| i.as_str().expect("string")).collect()
    }

    fn rows<'a>(json: &'a Json, key: &str) -> &'a [Json] {
        match json.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("{key} is not an array"),
        }
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits of the benchmark contract, checked on what `manifest`
    /// generates.
    #[test]
    fn manifest_stays_within_the_contract() {
        let m = manifest();
        let command = strings(&m, "command");
        assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
        assert_eq!(strings(&m, "paths"), ["perf"]);
        let seconds = m.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

        let mut names = Vec::new();
        let workloads = rows(&m, "workloads");
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            names.push(w.get("name").and_then(Json::as_str).unwrap());
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {names:?}");
        }
        let end_to_end = rows(&m, "end_to_end");
        assert!((1..=16).contains(&end_to_end.len()));
        let per_layer = rows(&m, "per_layer");
        assert!((1..=128).contains(&per_layer.len()));
        for metric in end_to_end.iter().chain(per_layer) {
            names.push(metric.get("name").and_then(Json::as_str).unwrap());
            assert!(is_unit(metric.get("unit").and_then(Json::as_str).unwrap()));
            let better = metric.get("better").and_then(Json::as_str).unwrap();
            assert!(better == "higher" || better == "lower");
        }
        for metric in end_to_end {
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = &end_to_end[0];
        assert_eq!(setup.get("name"), Some(&text("setup_s")));
        assert_eq!(setup.get("unit"), Some(&text("s")));
        assert_eq!(setup.get("better"), Some(&text("lower")));

        assert!(names.iter().all(|n| is_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(crate::report::pretty(&m).len() <= 64 << 10);
    }

    /// `BENCHMARK.json` is generated, never edited: it must be exactly
    /// what `perf manifest` prints.
    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        assert_eq!(read_json(&path).unwrap(), manifest());
    }
}
