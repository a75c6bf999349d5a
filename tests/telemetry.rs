//! System-level telemetry: a faulted one-app campaign must populate the global
//! metrics registry (counters on every instrumented seam, latency
//! histograms for the span-wrapped phases), and its fault counters must
//! mirror the campaign's own fault log.

use std::sync::Arc;

use taopt::session::{RunMode, SessionConfig};
use taopt::{run_campaign, CampaignApp, CampaignConfig};
use taopt_app_sim::{generate_app, App, GeneratorConfig};
use taopt_chaos::{FaultKind, FaultPlan, FaultRates};
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualDuration;

fn config() -> SessionConfig {
    let mut cfg = SessionConfig::new(ToolKind::Monkey, RunMode::TaoptDuration);
    cfg.instances = 3;
    cfg.duration = VirtualDuration::from_mins(10);
    cfg.stall_timeout = VirtualDuration::from_secs(60);
    cfg.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
    cfg.analyzer.analysis_interval = VirtualDuration::from_secs(20);
    cfg.seed = 7;
    cfg
}

fn app() -> Arc<App> {
    Arc::new(generate_app(&GeneratorConfig::small("telemetry-e2e", 5)).expect("valid app"))
}

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

#[test]
fn chaos_session_populates_the_registry() {
    let telemetry = taopt_telemetry::global();
    let before = telemetry.snapshot();
    let one = CampaignApp {
        name: "telemetry-e2e".to_owned(),
        app: app(),
        config: config(),
    };
    let campaign = CampaignConfig {
        faults: Some(FaultPlan::new(13, moderate_rates())),
        ..CampaignConfig::default()
    };
    let result = run_campaign(vec![one], &campaign);
    let after = telemetry.snapshot();
    let fault_stats = result.fault_stats.expect("fault plan was set");

    assert!(
        !after.is_empty(),
        "metrics snapshot is empty after a session"
    );

    // Counters on every instrumented seam moved. Counters are global and
    // monotone, so compare deltas (other tests share the registry).
    let delta = |name: &str| after.counter_total(name) - before.counter_total(name);
    for name in [
        "campaigns_started_total",
        "campaign_rounds_total",
        "cover_events_total",
        "bus_events_published_total",
        "farm_allocations_total",
        "emulator_actions_total",
        "subspaces_dedicated_total",
        "entrypoints_blocked_total",
        "enforcement_retries_total",
        "faults_injected_total",
        "faults_recovered_total",
    ] {
        assert!(delta(name) > 0, "counter {name} never incremented");
    }
    // Every emulator has been dropped by the end of the campaign, so its
    // batched action tally is fully published: the counter equals the
    // tool steps the traces record (the boot observation carries no
    // action, and this mode makes no Intent jumps).
    let mut steps = 0;
    for i in result.apps.iter().flat_map(|a| &a.session.instances) {
        let actions = i
            .trace
            .events()
            .iter()
            .filter(|e| e.action.is_some())
            .count();
        assert_eq!(
            actions + 1,
            i.trace.len(),
            "a boot event, then one per step"
        );
        steps += actions as u64;
    }
    assert_eq!(
        delta("emulator_actions_total"),
        steps,
        "telemetry and the traces disagree on executed steps"
    );
    // The unlabeled series exactly mirror the fault log (the per-kind
    // labeled series would double the `counter_total` sum).
    let unlabeled = |name: &str| {
        let at =
            |snap: &taopt_telemetry::MetricsSnapshot| snap.counters.get(name).copied().unwrap_or(0);
        at(&after) - at(&before)
    };
    assert_eq!(
        unlabeled("faults_injected_total"),
        fault_stats.total_injected() as u64,
        "telemetry and the fault log disagree on injections"
    );
    assert_eq!(
        unlabeled("faults_recovered_total"),
        fault_stats.total_recovered() as u64,
        "telemetry and the fault log disagree on recoveries"
    );
    // The device-seam series mirror the log's refusals and losses.
    for (series, kind) in [
        ("pool_refusals_total", FaultKind::AllocRefused),
        ("pool_losses_total", FaultKind::DeviceLost),
    ] {
        assert_eq!(
            delta(series),
            fault_stats.injected.get(&kind).copied().unwrap_or(0) as u64,
            "telemetry and the fault log disagree on {series}"
        );
    }

    // Latency histograms exist for the span-wrapped phases and the
    // device step seam.
    for series in [
        "span_ns{kind=\"dedicate\"}",
        "span_ns{kind=\"broadcast\"}",
        "span_ns{kind=\"findspace\"}",
        "emulator_step_ns{seam=\"device\"}",
    ] {
        let h = after
            .histograms
            .get(series)
            .unwrap_or_else(|| panic!("histogram {series} missing"));
        assert!(!h.is_empty(), "histogram {series} is empty");
        assert!(
            h.max >= h.p50(),
            "histogram {series} quantiles inconsistent"
        );
    }
}

#[test]
fn prometheus_rendering_exposes_series_types() {
    // Force at least one series of each type to exist.
    let telemetry = taopt_telemetry::global();
    telemetry.counter("render_probe_total").inc();
    telemetry.gauge("render_probe_gauge").set(3);
    telemetry.histogram("render_probe_ns").record(1500);
    let text = telemetry.render_prometheus();
    assert!(text.contains("# TYPE render_probe_total counter"));
    assert!(text.contains("# TYPE render_probe_gauge gauge"));
    assert!(text.contains("# TYPE render_probe_ns histogram"));
}
