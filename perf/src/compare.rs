//! `perf compare <a.json> <b.json>`: one row per (workload, end-to-end
//! metric) with both medians and quartiles, the ratio with its base, the
//! bound, and a verdict.

use std::path::Path;

use flowkv_common::telemetry::Json;

use crate::metrics::END_TO_END;
use crate::report::read_json;
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The median of either side is itself uncertain by more than the
    /// bound, so the bound cannot tell a change from noise.
    Unresolved,
}

/// Judges `b` against the base `a` for a metric with the given direction
/// and bound. The spread that matters is that of the medians being
/// compared: the quartile distance of the repeats over the root of their
/// number (about one standard error of a median), as a share of the
/// median.
pub fn verdict(a: Summary, b: Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let spread = |s: Summary| {
        (s.q3 - s.q1).abs() / (s.n as f64).sqrt() / s.median.abs().max(f64::MIN_POSITIVE)
    };
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let change = (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_is_better { -change } else { change };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn field<'a>(json: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    path.iter().try_fold(json, |j, key| {
        j.get(key)
            .ok_or_else(|| format!("missing field {}", path.join(".")))
    })
}

fn number(json: &Json, path: &[&str]) -> Result<f64, String> {
    field(json, path)?
        .as_f64()
        .ok_or_else(|| format!("{} is not a number", path.join(".")))
}

fn summary(run: &Json, metric: &str) -> Result<Summary, String> {
    Ok(Summary {
        median: number(run, &["metrics", metric, "value"])?,
        q1: number(run, &["metrics", metric, "q1"])?,
        q3: number(run, &["metrics", metric, "q3"])?,
        n: number(run, &["metrics", metric, "n"])? as usize,
    })
}

/// The untraced runs of a result file, keyed by workload name.
fn untraced(file: &Json) -> Result<Vec<(&str, &Json)>, String> {
    let Some(Json::Arr(runs)) = file.get("runs") else {
        return Err("no runs array".into());
    };
    runs.iter()
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
        .map(|r| {
            let name = field(r, &["workload"])?
                .as_str()
                .ok_or("workload is not a string")?;
            Ok((name, r))
        })
        .collect()
}

/// Compares two result files; `Ok(true)` when nothing regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    for key in ["seed", "scale", "seconds", "definition_hash"] {
        let (va, vb) = (
            field(&a, &["provenance", key])?,
            field(&b, &["provenance", key])?,
        );
        if va != vb {
            return Err(format!(
                "refusing to compare: {key} differs ({va:?} vs {vb:?}), the files measured different things"
            ));
        }
    }
    let (runs_a, runs_b) = (untraced(&a)?, untraced(&b)?);
    println!(
        "{:<15} {:<18} {:>36} {:>36} {:>9} {:>6}  verdict",
        "workload", "metric", "a: median [q1, q3] n", "b: median [q1, q3] n", "b/a", "bound"
    );
    let mut ok = true;
    for (name, run_a) in &runs_a {
        let Some((_, run_b)) = runs_b.iter().find(|(n, _)| n == name) else {
            return Err(format!(
                "workload {name} is missing from {}",
                b_path.display()
            ));
        };
        for m in &END_TO_END {
            let (sa, sb) = (summary(run_a, m.name)?, summary(run_b, m.name)?);
            let v = verdict(sa, sb, m.better == "higher", m.bound);
            ok &= v != Verdict::Regressed;
            let cell = |s: Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
            println!(
                "{:<15} {:<18} {:>36} {:>36} {:>9.4} {:>6.2}  {}",
                name,
                m.name,
                cell(sa),
                cell(sb),
                sb.median / sa.median,
                m.bound,
                format!("{v:?}").to_lowercase()
            );
        }
        let failed_share = |r: &Json| -> Result<f64, String> {
            Ok(number(r, &["failed"])? / number(r, &["attempted"])?.max(1.0))
        };
        let (fa, fb) = (failed_share(run_a)?, failed_share(run_b)?);
        if fb > fa {
            ok = false;
            println!(
                "{name:<15} failed_pct rose from {:.6} to {:.6}  regressed",
                fa * 100.0,
                fb * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 5,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = s(100.0, 99.0, 101.0);
        // Higher is better, bound 10 %.
        assert_eq!(
            verdict(base, s(95.0, 94.0, 96.0), true, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(base, s(85.0, 84.0, 86.0), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(base, s(115.0, 114.0, 116.0), true, 0.1),
            Verdict::Improved
        );
        // Lower is better: the same moves flip.
        assert_eq!(
            verdict(base, s(85.0, 84.0, 86.0), false, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(base, s(115.0, 114.0, 116.0), false, 0.1),
            Verdict::Regressed
        );
        // A spread wider than the bound decides nothing.
        assert_eq!(
            verdict(base, s(85.0, 70.0, 100.0), true, 0.1),
            Verdict::Unresolved
        );
    }
}
