//! Telemetry smoke bench: runs each app as a one-app duration-mode TaOPT
//! campaign under moderate chaos and prints what the global telemetry domain observed —
//! the metrics snapshot (counters + latency histograms), the top-k
//! slowest spans, and a replay check of the flight recorder's last 1k
//! events.
//!
//! Exits non-zero when the snapshot is empty or any required series is
//! missing, so CI catches accidental un-wiring of an instrumentation
//! seam.

use std::process::ExitCode;
use std::sync::Arc;

use taopt::session::RunMode;
use taopt::{run_campaign, CampaignApp, CampaignConfig};
use taopt_bench::{load_apps, BenchReport, HarnessArgs};
use taopt_chaos::{FaultPlan, FaultRates};
use taopt_telemetry::HistogramSnapshot;
use taopt_tools::ToolKind;

/// Same moderate per-seam rates as the chaos resilience tests: enough
/// pressure to exercise every seam without drowning the session.
fn moderate_rates() -> FaultRates {
    let mut rates = FaultRates::none();
    rates.device_loss = 0.02;
    rates.alloc_refusal = 0.05;
    rates.latency_spike = 0.02;
    rates.event_drop = 0.03;
    rates.event_duplicate = 0.02;
    rates.event_delay = 0.02;
    rates.enforcement_failure = 0.2;
    rates
}

/// Counter series the wiring must produce under moderate chaos.
const REQUIRED_COUNTERS: [&str; 5] = [
    "cover_events_total",
    "bus_events_published_total",
    "faults_injected_total",
    "enforcement_retries_total",
    "campaign_rounds_total",
];

/// Histogram series the wiring must produce under moderate chaos.
const REQUIRED_HISTOGRAMS: [&str; 3] = [
    "span_ns{kind=\"dedicate\"}",
    "emulator_step_ns{seam=\"device\"}",
    "span_ns{kind=\"broadcast\"}",
];

fn histogram_row(name: &str, h: &HistogramSnapshot) -> String {
    let us = |ns: f64| ns / 1000.0;
    format!(
        "  {name:<42} n={:<8} mean={:>9.1}us p50={:>9.1}us p95={:>9.1}us p99={:>9.1}us max={:>9.1}us",
        h.count,
        us(h.mean() as f64),
        us(h.p50() as f64),
        us(h.p95() as f64),
        us(h.p99() as f64),
        us(h.max as f64),
    )
}

fn main() -> ExitCode {
    let args = HarnessArgs::parse();
    let apps = load_apps(args.n_apps);
    eprintln!("telemetry: {} apps, {:?}", apps.len(), args.scale);
    let config = args
        .scale
        .session_config(ToolKind::Monkey, RunMode::TaoptDuration, args.seed);

    for (name, app) in &apps {
        let one = CampaignApp {
            name: name.clone(),
            app: Arc::clone(app),
            config: config.clone(),
        };
        let campaign = CampaignConfig {
            faults: Some(FaultPlan::new(args.seed, moderate_rates())),
            ..CampaignConfig::default()
        };
        let result = run_campaign(vec![one], &campaign);
        eprintln!(
            "  {name}: coverage {}, {} faults injected",
            result.total_coverage(),
            result
                .fault_stats
                .expect("fault plan was set")
                .total_injected()
        );
    }

    let telemetry = taopt_telemetry::global();
    let snapshot = telemetry.snapshot();

    println!(
        "Telemetry snapshot: TaOPT duration mode under moderate chaos ({} instances, seed {})",
        config.instances, config.seed
    );
    if !telemetry.is_enabled() {
        println!("telemetry is DISABLED (TAOPT_TELEMETRY=off); nothing to report");
        return ExitCode::FAILURE;
    }

    println!("\ncounters:");
    for (series, value) in &snapshot.counters {
        println!("  {series:<58} {value}");
    }
    println!("\ngauges:");
    for (series, value) in &snapshot.gauges {
        println!("  {series:<58} {value}");
    }
    println!("\nlatency histograms:");
    for (series, h) in &snapshot.histograms {
        if !h.is_empty() {
            println!("{}", histogram_row(series, h));
        }
    }

    let recorder = telemetry.recorder();
    println!("\ntop 10 slowest spans:");
    for e in recorder.slowest_spans(10) {
        println!(
            "  seq={:<8} {:<12} {:<24} {:>12.1}us",
            e.seq,
            e.name,
            e.labels.render(),
            e.wall_ns as f64 / 1000.0
        );
    }

    // Flight replay: the last 1k events must come out in strict sequence
    // order, and the JSON dump must parse back losslessly.
    let last = recorder.last(1000);
    let in_order = last.windows(2).all(|w| w[0].seq < w[1].seq);
    let json = recorder.dump_json(1000).to_json_string();
    let parsed = taopt_ui_model::Value::parse(&json);
    let parsed_len = parsed
        .as_ref()
        .ok()
        .and_then(|v| v.as_array().map(<[_]>::len))
        .unwrap_or(0);
    println!(
        "\nflight recorder: {} events buffered (cap {}), replayed last {} \
         (in order: {in_order}, JSON round-trip: {} events, {} bytes)",
        recorder.len(),
        recorder.capacity(),
        last.len(),
        parsed_len,
        json.len()
    );

    let mut report = BenchReport::new("telemetry smoke");
    report.gate(!snapshot.is_empty(), || {
        "metrics snapshot is empty".to_owned()
    });
    for name in REQUIRED_COUNTERS {
        report.gate(snapshot.counter_total(name) > 0, || {
            format!("counter {name} never incremented")
        });
    }
    for series in REQUIRED_HISTOGRAMS {
        report.gate(
            snapshot
                .histograms
                .get(series)
                .is_some_and(|h| !h.is_empty()),
            || format!("histogram {series} is missing or empty"),
        );
    }
    report.gate(!last.is_empty(), || "flight recorder is empty".to_owned());
    report.gate(in_order, || {
        "flight replay out of sequence order".to_owned()
    });
    report.gate(parsed_len == last.len(), || {
        format!(
            "flight JSON round-trip lost events ({parsed_len} != {})",
            last.len()
        )
    });
    report.finish()
}
