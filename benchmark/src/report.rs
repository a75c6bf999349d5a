//! Result documents: the JSON file a `run` leaves in `out/`, the table it
//! prints, and the one-line form BENCHMARK.json's driver reads.

use crate::metrics::{driver_bound, Class, MetricDef, DRIVER_RUN_SECONDS, METRICS};
use crate::run::{Measured, WorkloadResult};
use crate::stats;
use crate::surface::Value;

/// Where, when and how a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Uncommitted changes present.
    pub dirty: bool,
    /// `std::thread::available_parallelism`.
    pub cores: u64,
    /// `rustc -V`.
    pub rustc: String,
    /// Cargo profile the benchmark (and the crates) were built with.
    pub profile: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Untraced repetitions per workload.
    pub reps: u64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Provenance {
    /// Reads the provenance of this process.
    pub fn collect(seed: u64, reps: u64) -> Provenance {
        Provenance {
            commit: command_line("git", &["rev-parse", "HEAD"])
                .filter(|c| !c.is_empty())
                .unwrap_or_else(|| "unknown".to_owned()),
            dirty: command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            reps,
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("commit".to_owned(), Value::Str(self.commit.clone())),
            ("dirty".to_owned(), Value::Bool(self.dirty)),
            ("cores".to_owned(), Value::UInt(self.cores)),
            ("rustc".to_owned(), Value::Str(self.rustc.clone())),
            ("profile".to_owned(), Value::Str(self.profile.to_owned())),
            ("seed".to_owned(), Value::UInt(self.seed)),
            ("reps".to_owned(), Value::UInt(self.reps)),
        ])
    }

    /// One line for the top of the printed report.
    pub fn line(&self) -> String {
        format!(
            "commit {}{} | {} cores | {} | {} | seed {} | reps {}",
            self.commit,
            if self.dirty { "+dirty" } else { "" },
            self.cores,
            self.rustc,
            self.profile,
            self.seed,
            self.reps
        )
    }
}

fn metric_value(def: &MetricDef, m: &Measured) -> Value {
    let mut fields = vec![
        (
            "value".to_owned(),
            m.value.map_or(Value::Null, Value::Float),
        ),
        ("unit".to_owned(), Value::Str(def.unit.to_owned())),
        ("n".to_owned(), Value::UInt(m.n)),
        (
            "better".to_owned(),
            Value::Str(def.better.label().to_owned()),
        ),
        (
            "kind".to_owned(),
            Value::Str(if def.simulated { "simulated" } else { "host" }.to_owned()),
        ),
    ];
    if let Class::EndToEnd { bound, floor } = def.class {
        fields.push(("class".to_owned(), Value::Str("end_to_end".to_owned())));
        fields.push(("bound".to_owned(), Value::Float(bound)));
        fields.push(("floor".to_owned(), Value::Float(floor)));
        fields.push((
            "samples".to_owned(),
            Value::Array(m.samples.iter().copied().map(Value::Float).collect()),
        ));
    } else {
        fields.push(("class".to_owned(), Value::Str("per_layer".to_owned())));
    }
    Value::Object(fields)
}

/// The result document of a full run.
pub fn document(provenance: &Provenance, results: &[WorkloadResult]) -> Value {
    let workloads = results
        .iter()
        .map(|r| {
            let metrics = METRICS
                .iter()
                .filter_map(|def| {
                    r.metrics
                        .get(def.name)
                        .map(|m| (def.name.to_owned(), metric_value(def, m)))
                })
                .collect();
            Value::Object(vec![
                ("name".to_owned(), Value::Str(r.workload.name().to_owned())),
                ("why".to_owned(), Value::Str(r.workload.why().to_owned())),
                ("correct".to_owned(), Value::Bool(r.correct())),
                ("attempted".to_owned(), Value::UInt(r.attempted)),
                ("failed".to_owned(), Value::UInt(r.failed)),
                (
                    "failures".to_owned(),
                    Value::Array(r.failures.iter().cloned().map(Value::Str).collect()),
                ),
                ("metrics".to_owned(), Value::Object(metrics)),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "schema".to_owned(),
            Value::Str("taopt-benchmark/1".to_owned()),
        ),
        ("provenance".to_owned(), provenance.to_value()),
        ("workloads".to_owned(), Value::Array(workloads)),
    ])
}

fn number(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 || (0.001..1e7).contains(&a) {
        let digits = if a >= 1000.0 {
            1
        } else if a >= 10.0 {
            2
        } else {
            4
        };
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

/// Prints one workload's metrics by name, with unit and sample count.
pub fn print_workload(r: &WorkloadResult) {
    println!("\n== {} ==  {}", r.workload.name(), r.workload.why());
    for (title, e2e) in [("end-to-end", true), ("per-layer", false)] {
        let rows: Vec<_> = METRICS
            .iter()
            .filter(|d| d.is_end_to_end() == e2e && d.applies_to(r.workload))
            .filter_map(|d| r.metrics.get(d.name).map(|m| (d, m)))
            .collect();
        if rows.is_empty() {
            continue;
        }
        println!("  {title}");
        for (d, m) in rows {
            let value = m.value.map_or_else(|| "n/a".to_owned(), number);
            let mut line = format!("    {:<38} {:>14} {:<10} n={}", d.name, value, d.unit, m.n);
            if let Some((q1, _, q3)) = stats::quartiles(&m.samples) {
                line.push_str(&format!("  q1 {} q3 {}", number(q1), number(q3)));
            }
            if let Class::EndToEnd { bound, .. } = d.class {
                line.push_str(&format!(
                    "  ({}, {} is better, bound {}%)",
                    if d.simulated { "simulated" } else { "host" },
                    d.better.label(),
                    bound * 100.0
                ));
            }
            println!("{line}");
        }
    }
    println!(
        "  checks: {} of {} operations failed{}",
        r.failed,
        r.attempted,
        if r.correct() { "" } else { "  <-- INCORRECT" }
    );
    for f in &r.failures {
        println!("    ! {f}");
    }
}

/// The one line BENCHMARK.json's driver reads: with tracing off, every
/// metric of its `end_to_end` list; with tracing on, every metric of its
/// `per_layer` list. A metric the workload does not exercise, or whose
/// sample does not support it, reads 0.
pub fn driver_line(r: &WorkloadResult, traced: bool) -> String {
    let metrics = METRICS
        .iter()
        .filter(|d| d.in_driver_end_to_end() != traced)
        .map(|d| {
            let value = r.value(d.name).unwrap_or(0.0);
            (
                d.name.to_owned(),
                Value::Object(vec![
                    ("value".to_owned(), Value::Float(value)),
                    ("unit".to_owned(), Value::Str(d.unit.to_owned())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".to_owned(), Value::Bool(r.correct())),
        ("attempted".to_owned(), Value::UInt(r.attempted)),
        ("failed".to_owned(), Value::UInt(r.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
    .to_json_string()
}

/// BENCHMARK.json, as the registry defines it (`manifest` prints this;
/// a self-test holds the checked-in file to it).
pub fn manifest() -> Value {
    let text = |s: &str| Value::Str(s.to_owned());
    let metric = |d: &MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name".to_owned(), text(d.name)),
            ("unit".to_owned(), text(d.unit)),
            ("better".to_owned(), text(d.better.label())),
        ];
        if bounded {
            fields.push(("bound".to_owned(), Value::Float(driver_bound(d.name))));
        }
        Value::Object(fields)
    };
    let list = |end_to_end: bool| {
        Value::Array(
            METRICS
                .iter()
                .filter(|d| d.in_driver_end_to_end() == end_to_end)
                .map(|d| metric(d, end_to_end))
                .collect(),
        )
    };
    Value::Object(vec![
        (
            "command".to_owned(),
            Value::Array(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths".to_owned(), Value::Array(vec![text("benchmark")])),
        ("run_seconds".to_owned(), Value::UInt(DRIVER_RUN_SECONDS)),
        (
            "workloads".to_owned(),
            Value::Array(
                crate::workloads::Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::Object(vec![
                            ("name".to_owned(), text(w.name())),
                            ("why".to_owned(), text(w.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end".to_owned(), list(true)),
        ("per_layer".to_owned(), list(false)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use std::collections::BTreeMap;

    /// The metrics a full run must have measured on `workload`.
    fn expected_metrics(workload: Workload) -> impl Iterator<Item = &'static MetricDef> {
        METRICS.iter().filter(move |d| d.applies_to(workload))
    }

    fn result_with_everything(workload: Workload) -> WorkloadResult {
        let metrics: BTreeMap<String, Measured> = expected_metrics(workload)
            .map(|d| {
                (
                    d.name.to_owned(),
                    Measured {
                        value: Some(1.5),
                        n: 3,
                        samples: vec![1.0, 1.5, 2.0],
                    },
                )
            })
            .collect();
        WorkloadResult {
            workload,
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            metrics,
        }
    }

    #[test]
    fn driver_line_carries_exactly_the_contract_keys_and_metric_sets() {
        for w in Workload::ALL {
            let r = result_with_everything(w);
            for traced in [false, true] {
                let v = Value::parse(&driver_line(&r, traced)).unwrap();
                let keys: Vec<_> = v
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let names: Vec<_> = v
                    .get("metrics")
                    .unwrap()
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                let want: Vec<_> = METRICS
                    .iter()
                    .filter(|d| d.in_driver_end_to_end() != traced)
                    .map(|d| d.name.to_owned())
                    .collect();
                assert_eq!(names, want, "{} traced={traced}", w.name());
            }
        }
    }

    #[test]
    fn document_names_every_applicable_metric_with_unit_and_n() {
        let p = Provenance {
            commit: "abc".to_owned(),
            dirty: true,
            cores: 2,
            rustc: "rustc 1.0".to_owned(),
            profile: "release",
            seed: 1,
            reps: 3,
        };
        let results: Vec<_> = Workload::ALL
            .into_iter()
            .map(result_with_everything)
            .collect();
        let doc = document(&p, &results);
        assert_eq!(
            doc.get("provenance").unwrap().get("dirty"),
            Some(&Value::Bool(true))
        );
        for (w, entry) in Workload::ALL
            .iter()
            .zip(doc.get("workloads").unwrap().as_array().unwrap())
        {
            let metrics = entry.get("metrics").unwrap();
            for d in expected_metrics(*w) {
                let m = metrics
                    .get(d.name)
                    .unwrap_or_else(|| panic!("{} lacks {}", w.name(), d.name));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
                assert_eq!(m.get("n").and_then(Value::as_u64), Some(3));
                assert_eq!(m.get("samples").is_some(), d.is_end_to_end());
            }
        }
    }

    #[test]
    fn checked_in_benchmark_json_is_what_the_registry_defines() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let file = Value::parse(&text).expect("BENCHMARK.json is JSON");
        // Compare through the serializer: key order and numbers included.
        assert_eq!(
            file.to_json_string(),
            manifest().to_json_string(),
            "regenerate with `benchmark/run.sh manifest`"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn numbers_print_compactly() {
        assert_eq!(number(0.0), "0.0000");
        assert_eq!(number(2.20341), "2.2034");
        assert_eq!(number(88.256), "88.26");
        assert_eq!(number(320123.4), "320123.4");
        assert_eq!(number(0.00001234), "1.234e-5");
    }
}
