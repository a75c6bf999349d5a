//! `compare <a.json> <b.json>`: holds every (workload, end-to-end metric)
//! of result `b` against result `a` with the bound recorded in the files.

use crate::stats;
use crate::surface::Value;

/// The three things a comparison can say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is not worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound: the samples cannot
    /// tell (unless every run of `b` beats every run of `a`).
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's samples and rule, as recorded in a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// Per-repetition values (or the single value of an unrepeated one).
    pub samples: Vec<f64>,
    /// Larger is better.
    pub higher_is_better: bool,
    /// Relative bound.
    pub bound: f64,
    /// Absolute allowance in the metric's unit.
    pub floor: f64,
}

/// Compares `b` to `a`. Returns the verdict with both medians and how
/// much worse `b` is, as a share of `a`'s median (negative = better).
pub fn judge(a: &Side, b: &Side) -> Option<(Verdict, f64, f64, f64)> {
    let (ma, mb) = (stats::median_of(&a.samples)?, stats::median_of(&b.samples)?);
    let sign = if a.higher_is_better { -1.0 } else { 1.0 };
    let worse = sign * (mb - ma);
    let allowed = (a.bound * ma.abs()).max(a.floor);
    let iqr = |s: &Side| stats::quartiles(&s.samples).map_or(0.0, |(q1, _, q3)| q3 - q1);
    let verdict = if iqr(a).max(iqr(b)) > allowed {
        let best_a = a
            .samples
            .iter()
            .map(|v| sign * v)
            .fold(f64::INFINITY, f64::min);
        let worst_b = b
            .samples
            .iter()
            .map(|v| sign * v)
            .fold(f64::NEG_INFINITY, f64::max);
        if worst_b < best_a {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    let share = if ma != 0.0 { worse / ma.abs() } else { worse };
    Some((verdict, ma, mb, share))
}

fn side(metric: &Value) -> Option<Side> {
    if metric.get("class")?.as_str()? != "end_to_end" {
        return None;
    }
    let mut samples: Vec<f64> = metric
        .get("samples")?
        .as_array()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if samples.is_empty() {
        samples.extend(metric.get("value").and_then(Value::as_f64));
    }
    Some(Side {
        samples,
        higher_is_better: metric.get("better")?.as_str()? == "higher",
        bound: metric.get("bound")?.as_f64()?,
        floor: metric.get("floor")?.as_f64()?,
    })
}

fn quartile_text(s: &Side) -> String {
    match stats::quartiles(&s.samples) {
        Some((q1, _, q3)) => format!("[{q1:.4} .. {q3:.4}]"),
        None => "[single run]".to_owned(),
    }
}

/// Prints the comparison; returns how many metrics regressed and how
/// many could not be resolved.
pub fn compare(a: &Value, b: &Value) -> Result<(usize, usize), String> {
    let workloads = |doc: &Value| -> Result<Vec<Value>, String> {
        doc.get("workloads")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| "not a taopt-benchmark result file".to_owned())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    for (tag, doc) in [("a", a), ("b", b)] {
        if let Some(p) = doc.get("provenance") {
            println!("{tag}: {}", p.to_json_string());
        }
    }
    println!(
        "{:<14} {:<26} {:>12} {:<22} {:>12} {:<22} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "a median",
        "a quartiles",
        "b median",
        "b quartiles",
        "delta",
        "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for entry_a in &wa {
        let name = entry_a.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(entry_b) = wb
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<14} missing from b");
            continue;
        };
        let Some(metrics_a) = entry_a.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        for (metric, value_a) in metrics_a {
            let (Some(sa), Some(sb)) = (
                side(value_a),
                entry_b
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(side),
            ) else {
                continue;
            };
            let Some((verdict, ma, mb, share)) = judge(&sa, &sb) else {
                continue;
            };
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<14} {:<26} {:>12.4} {:<22} {:>12.4} {:<22} {:>+7.2}% {:>5.1}%  {}",
                name,
                metric,
                ma,
                quartile_text(&sa),
                mb,
                quartile_text(&sb),
                share * 100.0,
                sa.bound * 100.0,
                verdict.label()
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(samples: &[f64], bound: f64, floor: f64) -> Side {
        Side {
            samples: samples.to_vec(),
            higher_is_better: false,
            bound,
            floor,
        }
    }

    #[test]
    fn within_bound_is_ok_and_beyond_it_regressed() {
        let a = lower(&[1.00, 1.01, 0.99, 1.00, 1.02], 0.10, 0.0);
        let b = lower(&[1.05, 1.06, 1.04, 1.05, 1.07], 0.10, 0.0);
        assert_eq!(judge(&a, &b).unwrap().0, Verdict::Ok);
        let c = lower(&[1.15, 1.16, 1.14, 1.15, 1.17], 0.10, 0.0);
        let (v, ma, mc, share) = judge(&a, &c).unwrap();
        assert_eq!(v, Verdict::Regressed);
        assert_eq!((ma, mc), (1.00, 1.15));
        assert!((share - 0.15).abs() < 1e-12);
        // Getting faster is never a regression.
        assert_eq!(judge(&c, &a).unwrap().0, Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_unless_b_always_wins() {
        let a = lower(&[1.0, 1.4, 0.8, 1.3, 0.9], 0.10, 0.0);
        let b = lower(&[1.1, 1.0, 1.2, 0.9, 1.3], 0.10, 0.0);
        assert_eq!(judge(&a, &b).unwrap().0, Verdict::Unresolved);
        let fast = lower(&[0.5, 0.6, 0.55, 0.7, 0.52], 0.10, 0.0);
        assert_eq!(judge(&a, &fast).unwrap().0, Verdict::Ok);
    }

    #[test]
    fn direction_floor_and_zero_bound_are_honoured() {
        let hi = |s: &[f64]| Side {
            samples: s.to_vec(),
            higher_is_better: true,
            bound: 0.005,
            floor: 0.0,
        };
        assert_eq!(
            judge(&hi(&[1000.0]), &hi(&[990.0])).unwrap().0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&hi(&[1000.0]), &hi(&[1010.0])).unwrap().0,
            Verdict::Ok
        );
        // 10 ms set-up, 20 ms floor: +8 ms is noise, +30 ms is not.
        let a = lower(&[0.010, 0.011, 0.010], 0.10, 0.020);
        assert_eq!(
            judge(&a, &lower(&[0.018, 0.019, 0.018], 0.10, 0.020))
                .unwrap()
                .0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &lower(&[0.040, 0.041, 0.040], 0.10, 0.020))
                .unwrap()
                .0,
            Verdict::Regressed
        );
        // error_share: bound 0, any increase regresses.
        let zero = lower(&[0.0], 0.0, 0.0);
        assert_eq!(judge(&zero, &zero).unwrap().0, Verdict::Ok);
        assert_eq!(
            judge(&zero, &lower(&[0.001], 0.0, 0.0)).unwrap().0,
            Verdict::Regressed
        );
    }
}
