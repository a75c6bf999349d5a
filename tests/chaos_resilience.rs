//! System-level chaos resilience: a duration-mode session, run as a
//! one-app campaign with device losses, bus faults and enforcement
//! failures all active, must still terminate, respect `d_max`, leave no
//! subspace permanently blocked for every live instance, and retain most
//! of the fault-free coverage.

use std::sync::Arc;

use taopt::session::{RunMode, SessionConfig};
use taopt::{run_campaign, CampaignApp, CampaignConfig, CampaignResult};
use taopt_app_sim::{generate_app, App, GeneratorConfig};
use taopt_chaos::{FaultKind, FaultPlan, FaultRates};
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualDuration;

fn chaos_config() -> SessionConfig {
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
    Arc::new(generate_app(&GeneratorConfig::small("chaos-e2e", 5)).expect("valid app"))
}

/// Runs `cfg` on [`app`] as a one-app campaign under `campaign`.
fn run_with(cfg: &SessionConfig, campaign: &CampaignConfig) -> CampaignResult {
    let one = CampaignApp {
        name: "chaos-e2e".to_owned(),
        app: app(),
        config: cfg.clone(),
    };
    run_campaign(vec![one], campaign)
}

/// Runs `cfg` on [`app`] as a one-app campaign, faulted by `faults`.
fn run(cfg: &SessionConfig, faults: Option<FaultPlan>) -> CampaignResult {
    run_with(
        cfg,
        &CampaignConfig {
            faults,
            ..CampaignConfig::default()
        },
    )
}

/// Moderate rates on every seam at once: ~1 device loss per instance per
/// 8 virtual minutes, 3% of events dropped, 2% duplicated or delayed,
/// 20% of enforcement deliveries failing.
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
fn faulted_session_terminates_within_budget_and_retains_coverage() {
    let cfg = chaos_config();
    let clean = run(&cfg, None);
    let before = taopt_telemetry::global().snapshot();
    let result = run(&cfg, Some(FaultPlan::new(13, moderate_rates())));
    let after = taopt_telemetry::global().snapshot();
    let fault_stats = result.fault_stats.expect("fault plan was set");
    let faulted = &result.apps[0];

    // The once write-only StreamStats now surface through the metrics
    // registry. Counters are global and monotone (other tests in this
    // binary share them), so assert the delta across this run covers at
    // least this run's own repair counts.
    let delta = |name: &str| after.counter_total(name) - before.counter_total(name);
    assert!(faulted.stream.duplicates > 0, "no duplicates repaired");
    assert!(faulted.stream.gaps > 0, "no gaps repaired");
    assert!(
        delta("stream_duplicates_total") >= faulted.stream.duplicates as u64,
        "stream duplicates not surfaced through the registry"
    );
    assert!(
        delta("stream_gaps_total") >= faulted.stream.gaps as u64,
        "stream gaps not surfaced through the registry"
    );
    assert!(
        delta("stream_events_consumed_total") > 0,
        "stream consumption not surfaced through the registry"
    );
    assert!(
        delta("faults_injected_total") >= fault_stats.total_injected() as u64,
        "fault injections not surfaced through the registry"
    );

    // The fault schedule genuinely fired on all three seams.
    let stats = &fault_stats;
    assert!(faulted.devices_lost > 0, "no device losses injected");
    assert!(
        stats
            .injected
            .get(&FaultKind::EventDropped)
            .copied()
            .unwrap_or(0)
            > 0
    );
    assert!(
        stats
            .injected
            .get(&FaultKind::EnforcementFailed)
            .copied()
            .unwrap_or(0)
            > 0
    );

    // Termination and the d_max ceiling: the run never outlives its
    // wall-clock budget and never runs more instances than allowed.
    assert!(faulted.session.wall_clock <= cfg.duration + cfg.tick);
    assert!(faulted.session.peak_concurrency() <= cfg.instances);

    // Liveness: no confirmed subspace may end up blocked for every live
    // instance with nobody dedicated to it.
    assert_eq!(faulted.unresolved_orphans, 0, "subspace left orphaned");

    // Self-healing actually recovered: lost devices were replaced and
    // failed broadcasts eventually applied.
    assert!(faulted.replacements > 0, "no lost device was replaced");
    assert!(stats.total_recovered() > 0, "no recoveries recorded");

    // Degradation bound: >= 80% of the fault-free union coverage under
    // the same seed.
    let clean_cov = clean.apps[0].session.union_coverage();
    let faulted_cov = faulted.session.union_coverage();
    assert!(
        faulted_cov * 10 >= clean_cov * 8,
        "coverage degraded too far: {faulted_cov} faulted vs {clean_cov} clean"
    );
}

#[test]
fn chaos_reports_are_reproducible_from_the_plan_seed() {
    let cfg = chaos_config();
    let plan = FaultPlan::new(29, moderate_rates());
    let a = run(&cfg, Some(plan.clone()));
    let b = run(&cfg, Some(plan));
    assert_eq!(a.fault_stats, b.fault_stats);
    let (a, b) = (&a.apps[0], &b.apps[0]);
    assert_eq!(a.session.union_coverage(), b.session.union_coverage());
    assert_eq!(a.session.unique_crashes(), b.session.unique_crashes());
    assert_eq!(a.devices_lost, b.devices_lost);
    assert_eq!(a.replacements, b.replacements);
    assert_eq!(a.stream, b.stream);
}

#[test]
fn fault_plan_survives_serialization_mid_experiment() {
    // An operator can persist the plan next to the run artifacts and
    // replay the exact same chaos later.
    let cfg = chaos_config();
    let plan = FaultPlan::new(31, moderate_rates());
    let json = plan.to_value().to_json_string();
    let replayed =
        FaultPlan::from_value(&taopt_ui_model::json::Value::parse(&json).unwrap()).unwrap();
    let a = run(&cfg, Some(plan));
    let b = run(&cfg, Some(replayed));
    assert_eq!(a.total_coverage(), b.total_coverage());
    assert_eq!(a.fault_stats, b.fault_stats);
}

#[test]
fn faulted_campaign_keeps_running_while_no_app_holds_a_device() {
    // Plan seed 109 refuses the opening boundary's first allocation, and a
    // refusal ends an app's grants for that boundary, so the campaign
    // starts with no app holding a device. It must keep running its
    // boundaries (retrying the refused allocation) instead of finishing
    // the app as-is with nothing covered.
    let mut cfg = chaos_config();
    cfg.seed = 9;
    let clean = run(&cfg, None);
    let result = run(&cfg, Some(FaultPlan::new(109, moderate_rates())));
    let faulted = &result.apps[0];
    assert!(
        faulted.wait_rounds > 0,
        "the plan never left the app waiting"
    );
    assert_eq!(
        faulted.session.wall_clock, cfg.duration,
        "the session stopped before its wall-clock budget"
    );
    let (clean_cov, faulted_cov) = (
        clean.apps[0].session.union_coverage(),
        faulted.session.union_coverage(),
    );
    assert!(
        faulted_cov * 10 >= clean_cov * 8,
        "coverage degraded too far: {faulted_cov} faulted vs {clean_cov} clean"
    );
    assert_eq!(result.farm_active_at_end, 0);
}

#[test]
fn farm_that_refuses_everything_stops_at_max_rounds() {
    // With every allocation refused the app never runs, so nothing but
    // `max_rounds` ends the campaign: that is the documented bound.
    let mut rates = FaultRates::none();
    rates.alloc_refusal = 1.0;
    let campaign = CampaignConfig {
        faults: Some(FaultPlan::new(1, rates)),
        max_rounds: 12,
        ..CampaignConfig::default()
    };
    let result = run_with(&chaos_config(), &campaign);
    assert_eq!(result.rounds, 12);
    assert_eq!(result.farm_active_at_end, 0);
    let app = &result.apps[0];
    assert_eq!(app.wait_rounds, 12);
    assert_eq!(app.session.union_coverage(), 0);
    assert!(app.session.instances.is_empty());
}
