//! Chaos degradation table: coverage and crash-finding under increasing
//! fault rates, versus the fault-free baseline of the same seed. Writes
//! `BENCH_chaos.json` with per-rate retention and recovery-latency
//! percentiles, plus a faulted-campaign determinism arm.
//!
//! Every row runs each app as a one-app duration-constrained TaOPT
//! campaign whose fault plan injects at all three seams (device farm,
//! event bus, enforcement) with a uniform per-opportunity rate — the
//! fault-free baseline row runs with no plan — and reports what the
//! self-healing coordinator retained: union coverage, unique crashes,
//! faults injected/recovered, recovery latencies, device losses
//! survived and enforcement retries.
//!
//! Recovery p50/p95 and `abandoned` are deltas of global telemetry
//! series (`chaos_recovery_latency_us`, `replacements_abandoned_total`)
//! across each row, so the bin refuses to run with `TAOPT_TELEMETRY=off`.
//! The `recovery_p50_ms`/`recovery_p95_ms` fields are the registry
//! histogram's log-bucketed quantiles (the `registry_recovery_p*_us`
//! fields) in milliseconds, not exact order statistics; the mean and max
//! are exact, from each campaign's fault log.
//!
//! Exit gates (CI smoke): coverage retention at the moderate fault rate
//! must stay above [`MIN_RETENTION`], no orphaned subspaces may remain
//! unresolved at any rate, and a faulted campaign must produce
//! byte-identical coverage reports on host budgets 1 and 4.

use std::process::ExitCode;
use std::sync::Arc;

use taopt::report::{pct, TextTable};
use taopt::session::RunMode;
use taopt::{run_campaign, CampaignApp, CampaignConfig, CampaignResult};
use taopt_bench::{load_apps, BenchReport, HarnessArgs, NamedApp};
use taopt_chaos::{FaultPlan, FaultRates, RecoveryKind};
use taopt_telemetry::HistogramSnapshot;
use taopt_tools::ToolKind;
use taopt_ui_model::Value;

/// Uniform per-opportunity fault rates of the table's rows (0 = the
/// fault-free baseline).
const RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];

/// The "moderate" rate the retention gate is checked at.
const GATE_RATE: f64 = 0.02;

/// Minimum coverage retention (faulted / fault-free) at [`GATE_RATE`].
const MIN_RETENTION: f64 = 0.8;

/// Uniform fault rate of the campaign determinism arm.
const CAMPAIGN_RATE: f64 = 0.02;

/// One table row, aggregated across apps.
#[derive(Default)]
struct RateSummary {
    coverage: usize,
    crashes: usize,
    injected: usize,
    recovered: usize,
    devices_lost: usize,
    replacements: usize,
    abandoned: usize,
    enforcement_retries: usize,
    rededications: usize,
    gaps: usize,
    duplicates: usize,
    mean_recovery_ms: f64,
    max_recovery_ms: u64,
    unresolved_orphans: usize,
    /// Samples the `chaos_recovery_latency_us` registry histogram gained
    /// while this rate ran: every recovery latency observed at this rate,
    /// pooled across apps, so percentiles come from the real distribution
    /// rather than a mean of per-app means.
    registry_samples: u64,
    /// p50 of the registry histogram delta, in µs.
    registry_p50_us: u64,
    /// p95 of the registry histogram delta, in µs.
    registry_p95_us: u64,
}

/// Merged snapshot of every `chaos_recovery_latency_us` series.
fn recovery_registry() -> Option<HistogramSnapshot> {
    taopt_telemetry::global()
        .snapshot()
        .histogram_total("chaos_recovery_latency_us")
}

/// What the registry histogram gained between two snapshots.
fn registry_delta(
    before: Option<HistogramSnapshot>,
    after: Option<HistogramSnapshot>,
) -> Option<HistogramSnapshot> {
    let after = after?;
    Some(match before {
        None => after,
        Some(b) => HistogramSnapshot {
            buckets: std::array::from_fn(|i| after.buckets[i].saturating_sub(b.buckets[i])),
            count: after.count.saturating_sub(b.count),
            sum: after.sum.saturating_sub(b.sum),
            max: after.max,
        },
    })
}

impl RateSummary {
    /// Folds in one app's one-app campaign.
    fn absorb(&mut self, result: &CampaignResult) {
        let report = &result.apps[0];
        let stats = result.fault_stats.clone().unwrap_or_default();
        self.coverage += report.session.union_coverage();
        self.crashes += report.session.unique_crashes().len();
        self.injected += stats.total_injected();
        self.recovered += stats.total_recovered();
        self.devices_lost += report.devices_lost;
        self.replacements += report.replacements;
        self.enforcement_retries += report.enforcement_retries;
        self.rededications += stats
            .recovered
            .get(&RecoveryKind::SubspaceRededicated)
            .copied()
            .unwrap_or(0);
        self.gaps += report.stream.gaps;
        self.duplicates += report.stream.duplicates;
        // Mean of means weighted later by dividing through the app count
        // would hide outliers; track the global latency extremes instead.
        self.mean_recovery_ms += stats.mean_recovery_ms;
        self.max_recovery_ms = self.max_recovery_ms.max(stats.max_recovery_ms);
        self.unresolved_orphans += report.unresolved_orphans;
    }
}

fn rate_json(rate: f64, s: &RateSummary, baseline: f64) -> Value {
    Value::Object(vec![
        ("rate".to_owned(), Value::Float(rate)),
        ("coverage".to_owned(), Value::UInt(s.coverage as u64)),
        (
            "retention".to_owned(),
            Value::Float(s.coverage as f64 / baseline),
        ),
        ("crashes".to_owned(), Value::UInt(s.crashes as u64)),
        ("injected".to_owned(), Value::UInt(s.injected as u64)),
        ("recovered".to_owned(), Value::UInt(s.recovered as u64)),
        (
            "recovery_p95_ms".to_owned(),
            Value::UInt(s.registry_p95_us / 1000),
        ),
        (
            "recovery_p50_ms".to_owned(),
            Value::UInt(s.registry_p50_us / 1000),
        ),
        (
            "recovery_mean_ms".to_owned(),
            Value::Float(s.mean_recovery_ms),
        ),
        ("recovery_max_ms".to_owned(), Value::UInt(s.max_recovery_ms)),
        (
            "devices_lost".to_owned(),
            Value::UInt(s.devices_lost as u64),
        ),
        (
            "replacements".to_owned(),
            Value::UInt(s.replacements as u64),
        ),
        ("abandoned".to_owned(), Value::UInt(s.abandoned as u64)),
        (
            "enforcement_retries".to_owned(),
            Value::UInt(s.enforcement_retries as u64),
        ),
        (
            "rededications".to_owned(),
            Value::UInt(s.rededications as u64),
        ),
        ("stream_gaps".to_owned(), Value::UInt(s.gaps as u64)),
        (
            "stream_duplicates".to_owned(),
            Value::UInt(s.duplicates as u64),
        ),
        (
            "unresolved_orphans".to_owned(),
            Value::UInt(s.unresolved_orphans as u64),
        ),
        (
            "registry_recovery_samples".to_owned(),
            Value::UInt(s.registry_samples),
        ),
        (
            "registry_recovery_p50_us".to_owned(),
            Value::UInt(s.registry_p50_us),
        ),
        (
            "registry_recovery_p95_us".to_owned(),
            Value::UInt(s.registry_p95_us),
        ),
    ])
}

/// Runs the same faulted campaign on host budgets 1 and 4 and reports whether
/// the coverage reports (and fault statistics) came out byte-identical —
/// the layered runtime's determinism pin, exercised end to end.
fn campaign_arm(apps: &[NamedApp], args: &HarnessArgs) -> (bool, Value) {
    let take = apps.len().min(4);
    let catalog = || -> Vec<CampaignApp> {
        apps[..take]
            .iter()
            .enumerate()
            .map(|(i, (name, app))| CampaignApp {
                name: name.clone(),
                app: Arc::clone(app),
                config: args.scale.session_config(
                    ToolKind::Monkey,
                    RunMode::TaoptDuration,
                    args.seed + i as u64,
                ),
            })
            .collect()
    };
    let capacity = 2 * args.scale.instances;
    let mut reports = Vec::new();
    let mut stats = Vec::new();
    let mut rounds = 0u64;
    let mut devices_lost = 0usize;
    for host_threads in [1usize, 4] {
        let config = CampaignConfig {
            host_threads,
            capacity: Some(capacity),
            faults: Some(FaultPlan::new(
                args.seed,
                FaultRates::uniform(CAMPAIGN_RATE),
            )),
            ..CampaignConfig::default()
        };
        let result = run_campaign(catalog(), &config);
        rounds = result.rounds;
        devices_lost = result.apps.iter().map(|a| a.devices_lost).sum();
        eprintln!(
            "  faulted campaign x{host_threads}: {} rounds, wall {}, {} devices lost",
            result.rounds, result.wall_clock, devices_lost
        );
        reports.push(result.coverage_report());
        stats.push(result.fault_stats.expect("fault plan was set"));
    }
    let deterministic = reports[0] == reports[1] && stats[0] == stats[1];
    let json = Value::Object(vec![
        ("apps".to_owned(), Value::UInt(take as u64)),
        ("rate".to_owned(), Value::Float(CAMPAIGN_RATE)),
        ("capacity".to_owned(), Value::UInt(capacity as u64)),
        ("rounds".to_owned(), Value::UInt(rounds)),
        ("devices_lost".to_owned(), Value::UInt(devices_lost as u64)),
        (
            "injected".to_owned(),
            Value::UInt(stats[0].total_injected() as u64),
        ),
        (
            "recovered".to_owned(),
            Value::UInt(stats[0].total_recovered() as u64),
        ),
        ("deterministic".to_owned(), Value::Bool(deterministic)),
    ]);
    (deterministic, json)
}

fn main() -> ExitCode {
    let args = HarnessArgs::parse();
    if !taopt_telemetry::global().is_enabled() {
        eprintln!(
            "chaos: telemetry is disabled (TAOPT_TELEMETRY=off); recovery percentiles \
             and abandoned replacements are read from it, refusing to run"
        );
        return ExitCode::FAILURE;
    }
    let apps = load_apps(args.n_apps);
    eprintln!("chaos: {} apps, {:?}", apps.len(), args.scale);
    let config = args
        .scale
        .session_config(ToolKind::Monkey, RunMode::TaoptDuration, args.seed);

    let abandoned_counter = taopt_telemetry::global().counter("replacements_abandoned_total");
    let mut rows: Vec<RateSummary> = Vec::new();
    for rate in &RATES {
        let mut summary = RateSummary::default();
        let registry_before = recovery_registry();
        let abandoned_before = abandoned_counter.get();
        for (name, app) in &apps {
            // Each app is its own one-app campaign; rate 0 runs with no
            // fault plan at all.
            let faults =
                (*rate > 0.0).then(|| FaultPlan::new(args.seed, FaultRates::uniform(*rate)));
            let one = CampaignApp {
                name: name.clone(),
                app: Arc::clone(app),
                config: config.clone(),
            };
            let campaign = CampaignConfig {
                faults,
                ..CampaignConfig::default()
            };
            summary.absorb(&run_campaign(vec![one], &campaign));
        }
        summary.mean_recovery_ms /= apps.len().max(1) as f64;
        summary.abandoned = (abandoned_counter.get() - abandoned_before) as usize;
        if let Some(delta) = registry_delta(registry_before, recovery_registry()) {
            summary.registry_samples = delta.count;
            summary.registry_p50_us = delta.quantile(0.5).unwrap_or(0);
            summary.registry_p95_us = delta.quantile(0.95).unwrap_or(0);
        }
        eprintln!(
            "  rate {:.2}: coverage {}, {} faults, {} recoveries, p95 recovery {}us \
             ({} samples)",
            rate,
            summary.coverage,
            summary.injected,
            summary.recovered,
            summary.registry_p95_us,
            summary.registry_samples,
        );
        rows.push(summary);
    }

    let baseline = rows[0].coverage.max(1) as f64;
    let crash_delta = |crashes: usize| {
        if rows[0].crashes == 0 {
            "-".to_owned()
        } else {
            pct(crashes as f64 / rows[0].crashes as f64 - 1.0)
        }
    };
    println!(
        "Chaos degradation: TaOPT duration mode, {} instances, uniform fault rates",
        config.instances
    );
    let mut table = TextTable::new([
        "Rate",
        "Coverage",
        "vs clean",
        "Crashes",
        "vs clean",
        "Faults",
        "Recov.",
        "p95Rec(s)",
        "MaxRec(s)",
        "Lost",
        "Repl.",
        "Enf.retry",
        "Gaps",
    ]);
    for (rate, s) in RATES.iter().zip(&rows) {
        table.row([
            format!("{rate:.2}"),
            s.coverage.to_string(),
            pct(s.coverage as f64 / baseline - 1.0),
            s.crashes.to_string(),
            crash_delta(s.crashes),
            s.injected.to_string(),
            s.recovered.to_string(),
            format!("{:.1}", s.registry_p95_us as f64 / 1e6),
            format!("{:.1}", s.max_recovery_ms as f64 / 1000.0),
            s.devices_lost.to_string(),
            s.replacements.to_string(),
            s.enforcement_retries.to_string(),
            s.gaps.to_string(),
        ]);
    }
    print!("{}", table.render());

    let worst = rows.last().expect("at least one rate");
    println!(
        "at rate {:.2}: coverage {} vs fault-free; survived {} device losses \
         ({} replaced, {} abandoned), re-dedicated {} subspaces, repaired {} gaps / {} dups",
        RATES[RATES.len() - 1],
        pct(worst.coverage as f64 / baseline - 1.0),
        worst.devices_lost,
        worst.replacements,
        worst.abandoned,
        worst.rededications,
        worst.gaps,
        worst.duplicates,
    );
    let orphans: usize = rows.iter().map(|s| s.unresolved_orphans).sum();
    println!("unresolved orphaned subspaces across all rates: {orphans} (expect 0)");

    let (campaign_deterministic, campaign_json) = campaign_arm(&apps, &args);

    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::Str("chaos".to_owned())),
        ("n_apps".to_owned(), Value::UInt(apps.len() as u64)),
        ("seed".to_owned(), Value::UInt(args.seed)),
        (
            "scale".to_owned(),
            Value::Str(format!("{:?}", args.scale.duration)),
        ),
        (
            "rates".to_owned(),
            Value::Array(
                RATES
                    .iter()
                    .zip(&rows)
                    .map(|(rate, s)| rate_json(*rate, s, baseline))
                    .collect(),
            ),
        ),
        ("faulted_campaign".to_owned(), campaign_json),
    ]);
    let mut report = BenchReport::new("chaos bench");
    let out = "BENCH_chaos.json";
    let bytes = report.write_json(out, &doc);

    let gate_row = RATES
        .iter()
        .position(|r| *r == GATE_RATE)
        .expect("gate rate is a table row");
    let retention = rows[gate_row].coverage as f64 / baseline;
    println!(
        "chaos bench: retention {:.1}% at rate {GATE_RATE:.2}, campaign deterministic: \
         {campaign_deterministic}; wrote {out} ({bytes} bytes)",
        retention * 100.0,
    );
    report.gate(retention >= MIN_RETENTION, || {
        format!("retention {retention:.3} at rate {GATE_RATE:.2} below gate {MIN_RETENTION:.2}")
    });
    report.gate(orphans == 0, || {
        format!("{orphans} unresolved orphaned subspaces (expect 0)")
    });
    report.gate(campaign_deterministic, || {
        "faulted campaign differs between host budgets 1 and 4".to_owned()
    });
    report.finish()
}
