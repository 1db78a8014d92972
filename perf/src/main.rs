//! The repository's benchmark. See `perf/README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line
//! perf run [--seed=1] [--workload=<name>] [--scale=<f>] [--out=perf/out/latest.json]
//! perf compare <a.json> <b.json>
//! perf manifest                                                   prints BENCHMARK.json
//! ```

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads /proc and calls clock_gettime with the 64-bit Linux timespec layout"
);

mod bench;
mod compare;
mod harness;
mod layers;
mod metrics;
mod report;
mod run_all;
mod serve_load;
mod stats;
mod timed;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments: positionals, and options written `--key
/// value` or `--key=value`.
pub struct Cli {
    pub positional: Vec<String>,
    options: HashMap<String, String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            positional: Vec::new(),
            options: HashMap::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let Some(option) = arg.strip_prefix("--") else {
                cli.positional.push(arg);
                continue;
            };
            let (key, value) = match option.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => {
                    let value = args.next().ok_or(format!("--{option} needs a value"))?;
                    (option.to_string(), value)
                }
            };
            cli.options.insert(key, value);
        }
        Ok(cli)
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }
}

/// One workload in this process: the mode the benchmark driver calls.
fn single(cli: &Cli) -> Result<(), String> {
    let name = cli.text("workload").ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let args = bench::Args {
        workload,
        seed: cli.get("seed", 1)?,
        seconds: cli.get("seconds", workloads::RUN_SECONDS)?,
        scale: cli.get("scale", 1.0)?,
        trace: cli.get::<u8>("trace", 0)? != 0,
        trace_out: cli.text("trace-out").map_or_else(
            || PathBuf::from(format!("perf/out/trace-{name}.json")),
            PathBuf::from,
        ),
    };
    let report = bench::run(&args)?;
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:<34} {:>18.6} {unit}", value.median);
    }
    for note in &report.notes {
        eprintln!("note: {note}");
    }
    if let Some(path) = cli.text("detail") {
        report::write_json(PathBuf::from(path).as_path(), &report.detail(&args))?;
    }
    println!("{}", report::line(&report.contract_line()));
    Ok(())
}

fn main() -> ExitCode {
    let outcome = Cli::parse(std::env::args().skip(1)).and_then(|cli| {
        match cli.positional.first().map(String::as_str) {
            None => single(&cli).map(|()| true),
            Some("run") => run_all::run(&cli),
            Some("manifest") => {
                print!("{}", report::pretty(&run_all::manifest()));
                Ok(true)
            }
            Some("compare") => match &cli.positional[1..] {
                [a, b] => compare::compare(PathBuf::from(a).as_path(), PathBuf::from(b).as_path()),
                _ => Err("usage: perf compare <a.json> <b.json>".into()),
            },
            Some(other) => Err(format!("unknown command {other}")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
