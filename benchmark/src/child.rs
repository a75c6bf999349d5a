//! One (workload, arm) measured in a fresh process.
//!
//! The parent (`run.rs`) spawns this binary again for every repetition
//! and every arm, so `VmHWM`, the process-global telemetry registry and
//! the shared compute pool start clean each time. A child prints one JSON
//! line ([`ChildOut`]) and exits.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::layers::{self, ReplaySource};
use crate::stats;
use crate::surface::{
    self, CampaignApp, CampaignConfig, CampaignResult, CampaignSpec, SimStats, Value,
};
use crate::trace;
use crate::workloads::{self, fnv64, Workload};

/// Which variant of the workload a child runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The workload as users get it (defaults, host threads = auto).
    Main,
    /// Same inputs on one host thread (`pool.*`).
    OneThread,
    /// Same inputs in `RunMode::Baseline`: no analyzer, coordinator or
    /// enforcement (`analyzer.*`).
    Baseline,
    /// `release-train` without warm start.
    Cold,
    /// `service-churn`'s specs run directly, no service: the reference
    /// reports every wire and resumed report must equal.
    Direct,
    /// `service-churn` through the service in process, no wire.
    InProcess,
}

impl Arm {
    /// Every arm.
    pub const ALL: [Arm; 6] = [
        Arm::Main,
        Arm::OneThread,
        Arm::Baseline,
        Arm::Cold,
        Arm::Direct,
        Arm::InProcess,
    ];

    /// Command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Main => "main",
            Arm::OneThread => "one-thread",
            Arm::Baseline => "baseline",
            Arm::Cold => "cold",
            Arm::Direct => "direct",
            Arm::InProcess => "in-process",
        }
    }

    /// Parses the command-line spelling.
    pub fn from_name(name: &str) -> Option<Arm> {
        Arm::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// A value with the number of samples behind it. `None` prints as `n/a`:
/// the sample did not support the statistic (see [`stats::percentile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The statistic.
    pub value: Option<f64>,
    /// Samples behind it.
    pub n: u64,
}

/// What a child reports.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ChildOut {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Input to verified result, seconds.
    pub host_s: f64,
    /// `VmHWM` after the measured phase, MB.
    pub peak_rss_mb: f64,
    /// One fingerprint per operation (app session, or campaign), compared
    /// across every child of the same seed.
    pub ops: Vec<u64>,
    /// Operations attempted, beyond `ops` (HTTP requests).
    pub requests: u64,
    /// Operations this child saw fail, with reasons.
    pub failures: Vec<String>,
    /// Named statistics.
    pub values: BTreeMap<String, Stat>,
    /// Raw samples pooled across repetitions by the parent.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl ChildOut {
    pub(crate) fn set(&mut self, name: &str, value: f64, n: u64) {
        self.values.insert(
            name.to_owned(),
            Stat {
                value: Some(value),
                n,
            },
        );
    }

    pub(crate) fn set_opt(&mut self, name: &str, value: Option<f64>, n: u64) {
        self.values.insert(name.to_owned(), Stat { value, n });
    }

    /// A named value, if the child measured it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).and_then(|s| s.value)
    }

    /// The one-line JSON form.
    pub fn to_value(&self) -> Value {
        let values = self
            .values
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Value::Array(vec![
                        s.value.map_or(Value::Null, Value::Float),
                        Value::UInt(s.n),
                    ]),
                )
            })
            .collect();
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Value::Array(v.iter().copied().map(Value::Float).collect()),
                )
            })
            .collect();
        Value::Object(vec![
            ("setup_s".to_owned(), Value::Float(self.setup_s)),
            ("host_s".to_owned(), Value::Float(self.host_s)),
            ("peak_rss_mb".to_owned(), Value::Float(self.peak_rss_mb)),
            (
                "ops".to_owned(),
                Value::Array(self.ops.iter().copied().map(Value::UInt).collect()),
            ),
            ("requests".to_owned(), Value::UInt(self.requests)),
            (
                "failures".to_owned(),
                Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("values".to_owned(), Value::Object(values)),
            ("samples".to_owned(), Value::Object(samples)),
        ])
    }

    /// Parses the one-line JSON form.
    pub fn from_value(v: &Value) -> Option<ChildOut> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        let mut out = ChildOut {
            setup_s: f("setup_s")?,
            host_s: f("host_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            ops: v
                .get("ops")?
                .as_array()?
                .iter()
                .filter_map(Value::as_u64)
                .collect(),
            requests: v.get("requests")?.as_u64()?,
            failures: v
                .get("failures")?
                .as_array()?
                .iter()
                .filter_map(|s| s.as_str().map(str::to_owned))
                .collect(),
            ..ChildOut::default()
        };
        for (k, s) in v.get("values")?.as_object()? {
            let pair = s.as_array()?;
            out.values.insert(
                k.clone(),
                Stat {
                    value: pair.first()?.as_f64(),
                    n: pair.get(1)?.as_u64()?,
                },
            );
        }
        for (k, s) in v.get("samples")?.as_object()? {
            out.samples.insert(
                k.clone(),
                s.as_array()?.iter().filter_map(Value::as_f64).collect(),
            );
        }
        Some(out)
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` at least `min_runs` times and until a quarter second has
/// gone into it (at most nine times) and returns the median duration with
/// the last product: short set-ups (farm-wide's is ~10 ms) are otherwise
/// all clock noise.
fn timed_setup<T>(min_runs: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let budget = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let product = {
            let _s = trace::span("harness.setup");
            setup()
        };
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= 9 || budget.elapsed() >= Duration::from_millis(250);
        if times.len() >= min_runs && enough {
            return (
                stats::median_of(&times).expect("ran at least once"),
                product,
            );
        }
    }
}

/// Writes a campaign's simulated statistics under their metric names.
fn record_sim(out: &mut ChildOut, sim: &SimStats, report_fnv: u64) {
    out.set("coverage_methods", sim.coverage as f64, 1);
    out.set("machine_h", sim.machine_ms as f64 / 3_600_000.0, 1);
    out.set("sim.steps", sim.steps as f64, 1);
    out.set("sim.unique_crashes", sim.crashes as f64, 1);
    out.set("sim.rounds", sim.rounds as f64, 1);
    out.set("sim.report_fnv64", fnv52(report_fnv), 1);
    out.set("analyzer.subspaces_confirmed", sim.confirmed as f64, 1);
    out.set("campaign.wait_rounds", sim.wait_rounds as f64, 1);
    out.set("toller.steps", sim.steps as f64, 1);
}

/// A fingerprint as a JSON number: the low 52 bits survive any reader
/// that goes through a double.
fn fnv52(fnv: u64) -> f64 {
    (fnv & ((1 << 52) - 1)) as f64
}

/// One fingerprint per app session of a result.
fn session_ops(result: &CampaignResult, out: &mut ChildOut) {
    for text in surface::session_lines(result) {
        out.ops.push(fnv64(text.as_bytes()));
    }
}

/// Drives one campaign through the span-wrapped calls. In the traced run
/// a digest is taken at the half-way round, as a checkpointing driver
/// would, and handed to the checkpoint replays.
struct Driven {
    result: CampaignResult,
    report: String,
    digest: Option<(u64, surface::CampaignDigest)>,
}

fn drive(apps: Vec<CampaignApp>, config: &CampaignConfig, digest_at: Option<u64>) -> Driven {
    let mut campaign = surface::campaign_new(apps, config);
    let mut round = 0u64;
    let mut digest = None;
    while surface::campaign_round(&mut campaign) {
        round += 1;
        if digest_at == Some(round) {
            digest = Some((round, surface::campaign_digest(&mut campaign)));
        }
    }
    let result = surface::campaign_finish(campaign);
    let report = surface::coverage_report(&result);
    Driven {
        result,
        report,
        digest,
    }
}

/// Where a child may write: a directory of its own under the benchmark's
/// `out/`, removed when the child is done.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path) -> Scratch {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("out/ is writable inside the checkout");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the parent asks of a child.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    /// The workload.
    pub workload: Workload,
    /// The arm.
    pub arm: Arm,
    /// Workload seed.
    pub seed: u64,
    /// Record spans, run the layer replays, write the trace file.
    pub traced: bool,
    /// The benchmark's `out/` directory.
    pub out_dir: PathBuf,
}

/// Runs the child and returns its report.
pub fn run(args: &ChildArgs) -> ChildOut {
    if args.traced {
        trace::enable();
    }
    let scratch = Scratch::new(&args.out_dir);
    let root = trace::span("harness.child");
    let mut out = ChildOut::default();
    let source = match args.workload {
        Workload::FarmWide => campaign_workload(args, workloads::farm_wide(args.seed), &mut out),
        Workload::CatalogDeep => {
            campaign_workload(args, workloads::catalog_deep(args.seed), &mut out)
        }
        Workload::ReleaseTrain => release_train(args, &mut out),
        Workload::ServiceChurn => service_churn(args, &scratch.0, &mut out),
    };
    if let Some(source) = &source {
        layers::replay(source, &scratch.0, &mut out);
    }
    drop(root);
    if args.traced {
        let rec = trace::take();
        let first_span = source.as_ref().map_or(0, |s| s.first_span);
        layers::metrics_from_spans(&rec, first_span, &mut out);
        // The other traced arms only need their spans' durations.
        if args.arm == Arm::Main {
            let trace_id = format!("{}/traced/seed-{}", args.workload.name(), args.seed);
            let path = args
                .out_dir
                .join(format!("trace-{}.json", args.workload.name()));
            let _ = std::fs::write(path, surface::json_write(&rec.to_value(&trace_id)));
        }
    }
    out
}

/// `farm-wide` and `catalog-deep`: one campaign, driven round by round.
fn campaign_workload(
    args: &ChildArgs,
    mut spec: CampaignSpec,
    out: &mut ChildOut,
) -> Option<ReplaySource> {
    if args.arm == Arm::Baseline {
        for a in &mut spec.apps {
            a.mode = surface::RunMode::Baseline;
        }
    }
    let (setup_s, (apps, mut config)) = timed_setup(1, || surface::spec_build(&spec));
    out.setup_s = setup_s;
    if args.arm == Arm::OneThread {
        config = surface::with_one_host_thread(config);
    }
    let digest_at = args.traced.then(|| workloads::nominal_rounds(&spec) / 2);
    let app_handles: Vec<Arc<surface::App>> = apps.iter().map(|a| Arc::clone(&a.app)).collect();

    let first_span = trace::mark();
    let t = Instant::now();
    let driven = {
        let _s = trace::span("harness.main");
        drive(apps, &config, digest_at)
    };
    out.host_s = t.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();

    session_ops(&driven.result, out);
    let sim = surface::sim_stats(&driven.result);
    record_sim(out, &sim, fnv64(driven.report.as_bytes()));
    args.traced.then_some(ReplaySource {
        spec,
        apps: app_handles,
        first_span,
        result: driven.result,
        report: driven.report,
        digest: driven.digest,
        sim,
    })
}

/// `release-train`: six releases of 24 apps through
/// `run_campaign_sequence`, warm (or cold, for the ratio).
fn release_train(args: &ChildArgs, out: &mut ChildOut) -> Option<ReplaySource> {
    let (spec, evolution) = workloads::release_train(args.seed);
    let (setup_s, (apps, mut config)) = timed_setup(1, || surface::spec_build(&spec));
    out.setup_s = setup_s;
    if args.arm == Arm::OneThread {
        config = surface::with_one_host_thread(config);
    }
    let warm = args.arm != Arm::Cold;
    let probe_apps = args.traced.then(|| apps.clone());

    let t = Instant::now();
    let (outcomes, reports) = {
        let _s = trace::span("harness.main");
        let outcomes =
            surface::run_sequence(apps, &config, &evolution, workloads::TRAIN_VERSIONS, warm);
        let reports: Vec<String> = outcomes
            .iter()
            .map(|o| surface::coverage_report(&o.result))
            .collect();
        (outcomes, reports)
    };
    out.host_s = t.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();

    let mut sim = SimStats::default();
    for o in &outcomes {
        session_ops(&o.result, out);
        sim.add(surface::sim_stats(&o.result));
    }
    let tally = surface::train_tally(&outcomes);
    if tally.caught + tally.missed != tally.injected {
        out.failures.push(format!(
            "release train: caught {} + missed {} != injected {}",
            tally.caught, tally.missed, tally.injected
        ));
    }
    let all_reports: String = reports.concat();
    record_sim(out, &sim, fnv64(all_reports.as_bytes()));
    // The train's coverage is what the releases *after* the base reach:
    // V0 is identical warm and cold.
    out.set("coverage_methods", tally.post_base_coverage as f64, 1);
    out.set("regressions_injected", tally.injected as f64, 1);
    out.set("regressions_missed", tally.missed as f64, 1);
    out.set("warmstart.carried", tally.carried as f64, 1);
    out.set("warmstart.invalidated", tally.invalidated as f64, 1);
    out.set_opt(
        "first_dedication_round",
        stats::median_of(&tally.first_dedications),
        tally.first_dedications.len() as u64,
    );
    out.set(
        "sequence.version_host_ms",
        out.host_s * 1000.0 / workloads::TRAIN_VERSIONS as f64,
        workloads::TRAIN_VERSIONS,
    );

    // The sequence is one call from outside, so the traced run also
    // drives the V0 campaign round by round for the campaign-layer spans,
    // the digest and the traces the replays feed on.
    Some(probe_source(spec, probe_apps?, &config))
}

/// Recoveries `service-churn` times per child (the median is reported).
const RESUME_PASSES: usize = 3;

/// The `coverage`/`machine_ms`/`rounds` totals of a wire report body.
fn report_totals(report: &str) -> (u64, u64, u64) {
    let v = surface::json_parse(report);
    let coverage = v.get("apps").and_then(Value::as_array).map_or(0, |apps| {
        apps.iter()
            .filter_map(|a| a.get("coverage").and_then(Value::as_u64))
            .sum()
    });
    let field = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    (coverage, field("machine_ms"), field("rounds"))
}

/// Drives `apps` (the campaign of `spec`) round by round under a probe
/// span and packs what the layer replays feed on.
fn probe_source(
    spec: CampaignSpec,
    apps: Vec<CampaignApp>,
    config: &CampaignConfig,
) -> ReplaySource {
    let handles = apps.iter().map(|a| Arc::clone(&a.app)).collect();
    let first_span = trace::mark();
    let probe = {
        let _s = trace::span("harness.probe");
        drive(apps, config, Some(workloads::nominal_rounds(&spec) / 2))
    };
    let sim = surface::sim_stats(&probe.result);
    ReplaySource {
        spec,
        apps: handles,
        first_span,
        result: probe.result,
        report: probe.report,
        digest: probe.digest,
        sim,
    }
}

/// Drives the first `CHURN_RESUMED` specs to the crash point and writes
/// their checkpoints into every store (one directory per recovery pass).
fn seed_checkpoints(specs: &[CampaignSpec], stores: &[surface::CheckpointStore]) {
    for (i, spec) in specs.iter().take(workloads::CHURN_RESUMED).enumerate() {
        let (apps, config) = surface::spec_build(spec);
        let stop = (workloads::nominal_rounds(spec) as f64 * workloads::CHURN_RESUME_AT) as u64;
        let mut campaign = surface::campaign_new(apps, &config);
        let mut round = 0;
        while round < stop && surface::campaign_round(&mut campaign) {
            round += 1;
        }
        let digest = surface::campaign_digest(&mut campaign);
        let checkpoint = surface::checkpoint_of(i as u64 + 1, spec, round, digest);
        for store in stores {
            surface::checkpoint_save(store, &checkpoint);
        }
    }
}

/// Phase 0: what a submission itself costs — build the apps to validate,
/// write the round-0 checkpoint, HTTP both ways — measured on the quiet
/// service: each spec capped at one round, the next sent when the last is
/// done. Phase 1's own submissions compete with four compute threads for
/// two cores; their median moves 13 % between repetitions and cannot hold
/// a 10 % bound. Returns the latencies in ms.
fn submit_probe(c: &surface::Client, specs: &[CampaignSpec], out: &mut ChildOut) -> Vec<f64> {
    let _s = trace::span("harness.submit_probe");
    let mut submit_ms = Vec::new();
    for spec in specs {
        let mut probe = spec.clone();
        probe.name = format!("{}-probe", spec.name);
        probe.max_rounds = 1;
        let t = Instant::now();
        let id = surface::wire_submit(c, &probe);
        submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.requests += 1;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            out.requests += 1;
            match id.clone().and_then(|id| surface::wire_status(c, id)) {
                Ok(surface::CampaignStatus::Done) => break,
                Ok(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => {
                    out.failures
                        .push(format!("probe {}: {other:?}", probe.name));
                    break;
                }
            }
        }
    }
    submit_ms
}

/// Phase 1 over the wire, after the submissions: polls `status`
/// round-robin with 1 ms think time until every admitted campaign is done,
/// then fetches every result. Status latencies (us) and result latencies
/// (ms) go to `out.samples`; returns the reports, in spec order.
fn poll_and_fetch(
    c: &surface::Client,
    specs: &[CampaignSpec],
    ids: &mut [Option<surface::CampaignId>],
    out: &mut ChildOut,
) -> Vec<Option<String>> {
    let mut status_us = Vec::new();
    let mut pending: Vec<usize> = (0..specs.len()).filter(|i| ids[*i].is_some()).collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    while !pending.is_empty() && Instant::now() < deadline {
        let mut still = Vec::with_capacity(pending.len());
        for &i in &pending {
            let id = ids[i].expect("pending ids were admitted");
            let t = Instant::now();
            let status = surface::wire_status(c, id);
            status_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.requests += 1;
            match status {
                Ok(surface::CampaignStatus::Done) => {}
                Ok(surface::CampaignStatus::Failed(why)) => {
                    out.failures
                        .push(format!("{} failed: {why}", specs[i].name));
                }
                Ok(_) => still.push(i),
                Err(e) => {
                    out.failures.push(format!("status {}: {e}", specs[i].name));
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        pending = still;
    }
    for i in pending {
        out.failures
            .push(format!("{} not done within 120 s", specs[i].name));
        ids[i] = None;
    }
    let mut result_ms = Vec::new();
    let mut reports = vec![None; specs.len()];
    for (i, id) in ids.iter().enumerate() {
        let Some(id) = id else { continue };
        let t = Instant::now();
        let r = surface::wire_result(c, *id);
        result_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.requests += 1;
        match r {
            Ok(r) => reports[i] = Some(r),
            Err(e) => out.failures.push(format!("result {}: {e}", specs[i].name)),
        }
    }
    out.samples.insert("status_us".to_owned(), status_us);
    out.samples.insert("result_ms".to_owned(), result_ms);
    reports
}

/// Phase 2: recovers the seeded checkpoints; all must finish. One
/// recovery is half a second of two-at-a-time replay, so it is done once
/// per (identical) directory and the median time kept. Returns it with the
/// resumed campaigns' reports.
fn recover_passes(
    configs: Vec<surface::ServiceConfig>,
    specs: &[CampaignSpec],
    out: &mut ChildOut,
) -> (f64, Vec<Option<String>>) {
    let mut times = Vec::new();
    let mut first_reports: Vec<Option<String>> = Vec::new();
    for (pass, config) in configs.into_iter().enumerate() {
        let t = Instant::now();
        let (service, resumed) = {
            let _s = trace::span("harness.resume");
            let (service, resumed) = surface::service_recover(config);
            surface::service_wait_all(&service);
            (service, resumed)
        };
        times.push(t.elapsed().as_secs_f64());
        if resumed.len() != workloads::CHURN_RESUMED {
            out.failures.push(format!(
                "recovery pass {pass} resumed {} of {} seeded campaigns",
                resumed.len(),
                workloads::CHURN_RESUMED
            ));
        }
        let reports: Vec<Option<String>> = (1..=workloads::CHURN_RESUMED as u64)
            .map(|id| surface::service_result(&service, surface::CampaignId(id)))
            .collect();
        service.shutdown();
        if pass == 0 {
            first_reports = reports;
        } else if reports != first_reports {
            out.failures
                .push(format!("recovery pass {pass} reports differ from pass 0"));
        }
    }
    for (spec, r) in specs.iter().zip(&first_reports) {
        if r.is_none() {
            out.failures
                .push(format!("resumed {} produced no report", spec.name));
        }
    }
    (
        stats::median_of(&times).expect("at least one recovery pass"),
        first_reports,
    )
}

/// `service-churn`: twelve tenants through a served `CampaignService`
/// with a checkpoint every round, then four resumed from 75 % checkpoints.
fn service_churn(args: &ChildArgs, scratch: &Path, out: &mut ChildOut) -> Option<ReplaySource> {
    let specs = workloads::service_churn(args.seed);
    let demand = specs[0].device_demand();
    match args.arm {
        Arm::Direct => {
            churn_direct(args, &specs, out);
            return None;
        }
        Arm::Main | Arm::InProcess => {}
        other => panic!("service-churn has no {} arm", other.name()),
    }
    let wire = args.arm == Arm::Main;
    let service_config = |dir: &str| {
        let mut c = surface::ServiceConfig::new(scratch.join(dir));
        // Two tenants at a time: queueing and admission run under load.
        c.farm_capacity = 2 * demand;
        c.checkpoint_every = 1;
        c
    };

    // Set-up: service + server start, and the checkpoints phase 2 resumes
    // from. The crash point is seeded, not polled, so `resume_s` repeats.
    // Seeding — driving four campaigns to 75 % — is most of it and moves
    // 10 % between runs, so it is done three times and the median kept.
    let t = Instant::now();
    let service = {
        let _s = trace::span("harness.setup");
        surface::service_start(service_config("live"))
    };
    let (handle, service) = if wire {
        (Some(surface::serve(service)), None)
    } else {
        (None, Some(service))
    };
    let client = handle.as_ref().map(|h| surface::client(h.addr()));
    let start_s = t.elapsed().as_secs_f64();
    let resume_configs: Vec<_> = (0..RESUME_PASSES)
        .map(|pass| service_config(&format!("resume-{pass}")))
        .collect();
    let stores: Vec<_> = resume_configs
        .iter()
        .map(|c| surface::checkpoint_store(&c.checkpoint_dir))
        .collect();
    let (seed_s, ()) = timed_setup(3, || seed_checkpoints(&specs, &stores));
    out.setup_s = start_s + seed_s;

    if let Some(c) = &client {
        let submit_ms = submit_probe(c, &specs, out);
        out.samples.insert("submit_ms".to_owned(), submit_ms);
    }

    // Phase 1: submit everything, wait for everything, fetch every
    // result. One closed-loop client.
    let written_before = surface::telemetry_counter_total("service_checkpoints_written_total");
    let t = Instant::now();
    let main_span = trace::span("harness.main");
    let mut ids = Vec::new();
    for spec in &specs {
        let id = match (&client, &service) {
            (Some(c), _) => surface::wire_submit(c, spec),
            (_, Some(s)) => surface::service_submit(s, spec.clone()),
            _ => unreachable!("either wire or in-process"),
        };
        out.requests += 1;
        if let Err(e) = &id {
            out.failures.push(format!("submit {}: {e}", spec.name));
        }
        ids.push(id.ok());
    }
    let reports: Vec<Option<String>> = match (&client, &service) {
        (Some(c), _) => poll_and_fetch(c, &specs, &mut ids, out),
        (_, Some(s)) => {
            surface::service_wait_all(s);
            ids.iter()
                .map(|id| id.and_then(|id| surface::service_result(s, id)))
                .collect()
        }
        _ => unreachable!("either wire or in-process"),
    };
    drop(main_span);
    out.host_s = t.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    let written = surface::telemetry_counter_total("service_checkpoints_written_total")
        .saturating_sub(written_before);

    // Wire probes with the campaigns gone: connect, and the cheapest full
    // request/response the server can make.
    if let (Some(c), Some(h), true) = (&client, &handle, args.traced) {
        for _ in 0..200 {
            surface::wire_connect(h.addr());
            if !surface::wire_notfound(c) {
                out.failures
                    .push("unknown campaign id was not a clean 404".to_owned());
            }
        }
    }
    // In-process status reads, no wire.
    if let (Some(s), Some(Some(id))) = (&service, ids.first()) {
        surface::service_status_n(s, *id, 100_000);
    }

    let (resume_s, resumed_reports) = recover_passes(resume_configs, &specs, out);
    match (handle, service) {
        (Some(h), _) => h.stop().shutdown(),
        (_, Some(s)) => s.shutdown(),
        _ => {}
    }

    // One op per campaign: twelve served, four resumed. A missing report
    // fingerprints as 0, which no direct report does.
    let mut sim = SimStats::default();
    let mut all = String::new();
    for r in reports.iter().chain(&resumed_reports) {
        out.ops.push(r.as_ref().map_or(0, |r| fnv64(r.as_bytes())));
    }
    for r in reports.iter().flatten() {
        let (coverage, machine_ms, rounds) = report_totals(r);
        sim.coverage += coverage;
        sim.machine_ms += machine_ms;
        sim.rounds += rounds;
        all.push_str(r);
    }
    out.set("coverage_methods", sim.coverage as f64, 1);
    out.set("machine_h", sim.machine_ms as f64 / 3_600_000.0, 1);
    out.set("sim.rounds", sim.rounds as f64, 1);
    out.set("sim.report_fnv64", fnv52(fnv64(all.as_bytes())), 1);
    out.set("resume_s", resume_s, RESUME_PASSES as u64);
    out.set("checkpoint.written", written as f64, 1);
    out.set(
        "server.result_bytes",
        reports.iter().flatten().map(String::len).sum::<usize>() as f64 / specs.len() as f64,
        specs.len() as u64,
    );
    out.set("server.requests", out.requests as f64, 1);

    // The replays feed on tenant 0's campaign, driven directly.
    if !(args.traced && wire) {
        return None;
    }
    let spec = specs[0].clone();
    let (apps, config) = surface::spec_build(&spec);
    let source = probe_source(spec, apps, &config);
    out.set("sim.steps", source.sim.steps as f64, 1);
    out.set("sim.unique_crashes", source.sim.crashes as f64, 1);
    out.set("toller.steps", source.sim.steps as f64, 1);
    out.set(
        "analyzer.subspaces_confirmed",
        source.sim.confirmed as f64,
        1,
    );
    out.set("campaign.wait_rounds", source.sim.wait_rounds as f64, 1);
    Some(source)
}

/// `service-churn`'s specs run directly: the reference fingerprints, the
/// direct host time the service is compared to, and what the fault plans
/// cost the faulted tenants.
fn churn_direct(args: &ChildArgs, specs: &[CampaignSpec], out: &mut ChildOut) {
    let t = Instant::now();
    let mut per_spec_s = Vec::new();
    let mut direct = Vec::new();
    for spec in specs {
        let t = Instant::now();
        let (apps, config) = surface::spec_build(spec);
        let d = drive(apps, &config, None);
        per_spec_s.push(t.elapsed().as_secs_f64());
        direct.push(d);
    }
    out.host_s = t.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    // Same op order as the served arms: twelve served, then four resumed.
    let fnvs: Vec<u64> = direct.iter().map(|d| fnv64(d.report.as_bytes())).collect();
    out.ops.extend(&fnvs);
    out.ops.extend(&fnvs[..workloads::CHURN_RESUMED]);
    out.set("service.direct_host_s", out.host_s, specs.len() as u64);
    out.set(
        "direct_resumed_s",
        per_spec_s[..workloads::CHURN_RESUMED].iter().sum(),
        workloads::CHURN_RESUMED as u64,
    );
    if !args.traced {
        return;
    }

    // Chaos: the faulted tenants' own counters, and their coverage next
    // to the same spec run clean.
    let mut faulted = surface::ChaosTally::default();
    let mut clean_cov = 0u64;
    for (spec, d) in specs.iter().zip(&direct) {
        let Some(t) = surface::chaos_tally(&d.result) else {
            continue;
        };
        faulted.injected += t.injected;
        faulted.recovered += t.recovered;
        faulted.devices_lost += t.devices_lost;
        faulted.replacements += t.replacements;
        faulted.coverage += t.coverage;
        let mut clean = spec.clone();
        clean.faults = None;
        clean.kills.clear();
        let (apps, config) = surface::spec_build(&clean);
        clean_cov += surface::sim_stats(&drive(apps, &config, None).result).coverage;
    }
    out.set("chaos.injected", faulted.injected as f64, 1);
    out.set("chaos.recovered", faulted.recovered as f64, 1);
    out.set("chaos.devices_lost", faulted.devices_lost as f64, 1);
    out.set("chaos.replacements", faulted.replacements as f64, 1);
    if clean_cov > 0 {
        out.set(
            "chaos.retention_pct",
            100.0 * faulted.coverage as f64 / clean_cov as f64,
            (specs.len() / 2) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips_through_its_json_line() {
        let mut out = ChildOut {
            setup_s: 0.012,
            host_s: 2.5,
            peak_rss_mb: 88.25,
            ops: vec![1, u64::MAX, 3],
            requests: 7,
            failures: vec!["tenant-01 failed: boom".to_owned()],
            ..ChildOut::default()
        };
        out.set("campaign.rounds", 240.0, 1);
        out.set_opt("campaign.round_p95_us", None, 12);
        out.samples
            .insert("submit_ms".to_owned(), vec![14.5, 15.25]);
        let line = out.to_value().to_json_string();
        let back = ChildOut::from_value(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, out);
        assert_eq!(back.get("campaign.round_p95_us"), None);
        assert_eq!(back.values["campaign.round_p95_us"].n, 12);
    }

    #[test]
    fn arm_names_round_trip() {
        for a in Arm::ALL {
            assert_eq!(Arm::from_name(a.name()), Some(a));
        }
    }
}
