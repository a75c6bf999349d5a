//! The parent: runs every repetition and arm of a workload in fresh child
//! processes, checks their outputs against each other, and assembles the
//! named metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::{Arm, ChildOut};
use crate::metrics::{self, METRICS};
use crate::stats;
use crate::surface::Value;
use crate::workloads::Workload;

/// How much to measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reps {
    /// A fixed number of untraced repetitions.
    Count(usize),
    /// Untraced repetitions until this many seconds have gone by.
    Seconds(f64),
}

/// What one invocation measures per workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Untraced repetitions (the end-to-end numbers).
    pub reps: Reps,
    /// Also run the traced child and the decomposition arms.
    pub layers: bool,
    /// Children per untraced decomposition arm (their `host_s` is the
    /// median): an arm's host time can be bimodal — the same Baseline
    /// catalog run takes 1.35 s or 2.06 s — so one run is not a number.
    pub arm_reps: usize,
    /// The benchmark's `out/` directory.
    pub out_dir: PathBuf,
}

/// One assembled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The reported statistic; `None` prints as `n/a`.
    pub value: Option<f64>,
    /// Samples behind it.
    pub n: u64,
    /// One value per repetition, where repetitions exist (what `compare`
    /// takes quartiles of).
    pub samples: Vec<f64>,
}

/// Everything measured on one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Operations attempted (app sessions, campaigns, HTTP requests).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why, one line each.
    pub failures: Vec<String>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Measured>,
}

impl WorkloadResult {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A metric's value, if measured and supported by its sample.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).and_then(|m| m.value)
    }
}

/// Runs one child to completion and parses its report line.
fn spawn(
    plan: &Plan,
    workload: Workload,
    arm: Arm,
    traced: bool,
    telemetry: bool,
) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload.name()])
        .args(["--arm", arm.name()])
        .args(["--seed", &plan.seed.to_string()])
        .arg("--out-dir")
        .arg(&plan.out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    if telemetry {
        cmd.env_remove("TAOPT_TELEMETRY");
    } else {
        cmd.env("TAOPT_TELEMETRY", "off");
    }
    let label = format!("{} child ({})", workload.name(), arm.name());
    // `output` waits for the child and reaps it.
    let output = cmd.output().map_err(|e| format!("{label}: spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{label}: exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{label}: printed nothing"))?;
    Value::parse(line)
        .ok()
        .as_ref()
        .and_then(ChildOut::from_value)
        .ok_or_else(|| format!("{label}: unreadable report line"))
}

/// Runs an untraced arm `plan.arm_reps` times; returns the first child
/// with `host_s` replaced by the median over all of them, and every child
/// for the oracle.
fn spawn_arm(
    plan: &Plan,
    workload: Workload,
    arm: Arm,
    telemetry: bool,
) -> Result<(ChildOut, Vec<ChildOut>), String> {
    let children = (0..plan.arm_reps.max(1))
        .map(|_| spawn(plan, workload, arm, false, telemetry))
        .collect::<Result<Vec<_>, _>>()?;
    let times: Vec<f64> = children.iter().map(|c| c.host_s).collect();
    let mut first = children[0].clone();
    first.host_s = stats::median_of(&times).expect("at least one child");
    Ok((first, children))
}

/// Cross-child output check: every child of the same seed that should
/// produce `reference`'s results is compared op by op.
struct Oracle {
    reference: Vec<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Oracle {
    fn new(reference: &ChildOut, label: &str) -> Oracle {
        let mut o = Oracle {
            reference: reference.ops.clone(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        o.admit(reference, label);
        o
    }

    /// Counts `child`'s operations and failures, and compares its
    /// fingerprints to the reference's.
    fn admit(&mut self, child: &ChildOut, label: &str) {
        self.attempted += child.ops.len() as u64 + child.requests;
        self.failed += child.failures.len() as u64;
        self.failures
            .extend(child.failures.iter().map(|f| format!("{label}: {f}")));
        if child.ops.len() != self.reference.len() {
            self.failed += 1;
            self.failures.push(format!(
                "{label}: {} operations, reference has {}",
                child.ops.len(),
                self.reference.len()
            ));
            return;
        }
        let differing = child
            .ops
            .iter()
            .zip(&self.reference)
            .filter(|(a, b)| a != b)
            .count();
        if differing > 0 {
            self.failed += differing as u64;
            self.failures.push(format!(
                "{label}: {differing} of {} operation fingerprints differ from the reference",
                child.ops.len()
            ));
        }
    }
}

fn pct_over(value: f64, base: f64) -> Option<f64> {
    (base > 0.0).then(|| 100.0 * (value - base) / base)
}

/// The metrics of one workload, as they are assembled.
#[derive(Default)]
struct Assembly(BTreeMap<String, Measured>);

impl Assembly {
    fn put(&mut self, name: &str, value: Option<f64>, n: u64, samples: Vec<f64>) {
        debug_assert!(metrics::def(name).is_some(), "unregistered metric {name}");
        self.0
            .insert(name.to_owned(), Measured { value, n, samples });
    }

    /// A number from a single run.
    fn one(&mut self, name: &str, value: Option<f64>) {
        self.put(name, value, 1, Vec::new());
    }

    /// A statistic a child computed, under its own or another name.
    fn stat(&mut self, name: &str, child: &ChildOut, key: &str) {
        if let Some(s) = child.values.get(key) {
            self.put(name, s.value, s.n, Vec::new());
        }
    }

    /// The median of one value per repetition.
    fn median(&mut self, name: &str, samples: Vec<f64>) {
        self.put(
            name,
            stats::median_of(&samples),
            samples.len() as u64,
            samples,
        );
    }
}

/// Measures one workload per `plan`.
pub fn measure(plan: &Plan, workload: Workload) -> Result<WorkloadResult, String> {
    let mut m = Assembly::default();

    // References the repetitions are checked against or divided by.
    let direct = (workload == Workload::ServiceChurn)
        .then(|| spawn(plan, workload, Arm::Direct, plan.layers, true))
        .transpose()?;
    let cold = (workload == Workload::ReleaseTrain && plan.layers)
        .then(|| spawn(plan, workload, Arm::Cold, false, true))
        .transpose()?;

    // The first child after an idle spell runs up to 10 % faster than
    // the steady state that follows (burst clocks), so the first child of
    // an invocation is never a measured repetition: `direct` above for
    // service-churn, a discarded repetition otherwise.
    if direct.is_none() {
        spawn(plan, workload, Arm::Main, false, true)?;
    }

    // Untraced repetitions: the end-to-end numbers.
    let started = Instant::now();
    let mut reps: Vec<ChildOut> = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(spawn(plan, workload, Arm::Main, false, true)?);
        let last = t.elapsed().as_secs_f64();
        let enough = match plan.reps {
            Reps::Count(n) => reps.len() >= n.max(1),
            // Start another repetition only while half of it still fits.
            Reps::Seconds(s) => started.elapsed().as_secs_f64() + last / 2.0 >= s,
        };
        if enough {
            break;
        }
    }

    let mut oracle = match &direct {
        Some(d) => Oracle::new(d, "direct"),
        None => Oracle::new(&reps[0], "rep 0"),
    };
    let first_checked = usize::from(direct.is_none());
    for (i, r) in reps.iter().enumerate().skip(first_checked) {
        oracle.admit(r, &format!("rep {i}"));
    }

    let per_rep =
        |f: &dyn Fn(&ChildOut) -> Option<f64>| -> Vec<f64> { reps.iter().filter_map(f).collect() };
    let pooled = |key: &str| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| r.samples.get(key).cloned().unwrap_or_default())
            .collect()
    };

    m.median("setup_s", per_rep(&|r| Some(r.setup_s)));
    let host_times = per_rep(&|r| Some(r.host_s));
    let host_s = stats::median_of(&host_times).expect("at least one rep");
    m.median("host_s", host_times);
    m.median("peak_rss_mb", per_rep(&|r| Some(r.peak_rss_mb)));
    for name in ["coverage_methods", "machine_h"] {
        m.median(name, per_rep(&|r| r.get(name)));
    }

    if workload == Workload::ReleaseTrain {
        m.median(
            "regressions_missed",
            per_rep(&|r| r.get("regressions_missed")),
        );
    }
    if workload == Workload::ServiceChurn {
        // Request latencies are pooled over repetitions; the per-rep
        // medians ride along for `compare`.
        for (name, key) in [
            ("submit_p50_ms", "submit_ms"),
            ("status_p50_us", "status_us"),
        ] {
            let all = pooled(key);
            m.put(
                name,
                stats::median_of(&all),
                all.len() as u64,
                per_rep(&|r| r.samples.get(key).and_then(|s| stats::median_of(s))),
            );
        }
        m.median("resume_s", per_rep(&|r| r.get("resume_s")));
    }

    if plan.layers {
        let traced = spawn(plan, workload, Arm::Main, true, true)?;
        oracle.admit(&traced, "traced");
        let arm_n = plan.arm_reps.max(1) as u64;
        let (quiet, all) = spawn_arm(plan, workload, Arm::Main, false)?;
        for c in &all {
            oracle.admit(c, "telemetry off");
        }

        // Everything the traced child measured under a registered name.
        for d in METRICS.iter().filter(|d| !d.is_end_to_end()) {
            m.stat(d.name, &traced, d.name);
        }
        m.one("trace.overhead_pct", pct_over(traced.host_s, host_s));
        m.put(
            "telemetry.overhead_pct",
            pct_over(host_s, quiet.host_s),
            arm_n,
            Vec::new(),
        );
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        m.one("host.cores", Some(cores));

        if workload != Workload::ServiceChurn {
            let (one, all) = spawn_arm(plan, workload, Arm::OneThread, true)?;
            for c in &all {
                oracle.admit(c, "one host thread");
            }
            let speedup = one.host_s / host_s;
            m.put("pool.ht1_host_s", Some(one.host_s), arm_n, Vec::new());
            m.put("pool.speedup", Some(speedup), arm_n, Vec::new());
            m.put("pool.efficiency", Some(speedup / cores), arm_n, Vec::new());
        }
        if matches!(workload, Workload::FarmWide | Workload::CatalogDeep) {
            // Different results by design: not admitted to the oracle.
            let (base, _) = spawn_arm(plan, workload, Arm::Baseline, true)?;
            m.put(
                "analyzer.baseline_host_s",
                Some(base.host_s),
                arm_n,
                Vec::new(),
            );
            m.put(
                "analyzer.share_pct",
                Some(100.0 * (host_s - base.host_s) / host_s),
                arm_n,
                Vec::new(),
            );
            let gain = reps[0]
                .get("coverage_methods")
                .zip(base.get("coverage_methods"))
                .and_then(|(taopt, baseline)| pct_over(taopt, baseline));
            m.one("analyzer.coverage_gain_pct", gain);
        }
        if let Some(cold) = &cold {
            let ratio = reps[0]
                .get("coverage_methods")
                .zip(cold.get("coverage_methods"))
                .map(|(warm, cold)| warm / cold);
            m.one("warm_cold_coverage_ratio", ratio);
            m.one("warmstart.cold_host_s", Some(cold.host_s));
            let key = "first_dedication_round";
            m.stat("warmstart.first_dedication_round_warm", &reps[0], key);
            m.stat("warmstart.first_dedication_round_cold", cold, key);
        }
        if let Some(direct) = &direct {
            for d in METRICS.iter().filter(|d| d.name.starts_with("chaos.")) {
                m.stat(d.name, direct, d.name);
            }
            m.one("service.direct_host_s", Some(direct.host_s));
            m.one("service.overhead_pct", pct_over(host_s, direct.host_s));
            let resume = stats::median_of(&per_rep(&|r| r.get("resume_s")));
            m.one(
                "service.resume_vs_direct",
                resume
                    .zip(direct.get("direct_resumed_s"))
                    .map(|(r, d)| r / d),
            );
            let inproc = spawn(plan, workload, Arm::InProcess, true, true)?;
            oracle.admit(&inproc, "in process");
            m.stat("service.submit_us", &inproc, "service.submit_us");
            m.stat("service.status_ns", &inproc, "service.status_ns");
            m.one("server.wire_overhead_pct", pct_over(host_s, inproc.host_s));
            let status = stats::sorted(&pooled("status_us"));
            m.put(
                "server.status_p95_us",
                stats::percentile(&status, 95.0),
                status.len() as u64,
                Vec::new(),
            );
            let results = pooled("result_ms");
            m.put(
                "server.result_ms",
                stats::median_of(&results),
                results.len() as u64,
                Vec::new(),
            );
            let errors: usize = reps.iter().map(|r| r.failures.len()).sum();
            m.one("server.errors", Some(errors as f64));
        }
    }

    let error_share = oracle.failed as f64 / oracle.attempted.max(1) as f64;
    m.put(
        "error_share",
        Some(error_share),
        oracle.attempted,
        Vec::new(),
    );

    Ok(WorkloadResult {
        workload,
        attempted: oracle.attempted.max(1),
        failed: oracle.failed,
        failures: oracle.failures,
        metrics: m.0,
    })
}

/// Creates the benchmark's `out/` directory.
pub fn ensure_out_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(ops: &[u64], requests: u64, failures: &[&str]) -> ChildOut {
        ChildOut {
            ops: ops.to_vec(),
            requests,
            failures: failures.iter().map(|s| (*s).to_owned()).collect(),
            ..ChildOut::default()
        }
    }

    #[test]
    fn oracle_counts_differing_fingerprints_and_child_failures() {
        let reference = child(&[1, 2, 3], 0, &[]);
        let mut o = Oracle::new(&reference, "rep 0");
        o.admit(&child(&[1, 2, 3], 10, &[]), "rep 1");
        assert_eq!((o.attempted, o.failed), (16, 0));
        o.admit(&child(&[1, 9, 8], 0, &["tenant-01 failed: x"]), "traced");
        assert_eq!((o.attempted, o.failed), (19, 3));
        o.admit(&child(&[1, 2], 0, &[]), "one host thread");
        assert_eq!(o.failed, 4);
        assert_eq!(o.failures.len(), 3);
    }
}
