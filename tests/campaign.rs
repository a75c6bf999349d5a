//! Campaign runtime integration tests: determinism across host budgets,
//! shared-farm safety, virtual-time packing against serial sessions,
//! device-loss recovery and inert-layer parity.

use std::sync::Arc;

use taopt::campaign::{run_campaign, CampaignApp, CampaignConfig, CampaignResult, KillEvent};
use taopt::session::{ParallelSession, RunMode, SessionConfig};
use taopt::{CoordinatorEvent, StreamStats};
use taopt_app_sim::{generate_app, App, GeneratorConfig};
use taopt_chaos::{FaultPlan, FaultRates};
use taopt_tools::ToolKind;
use taopt_ui_model::{Value, VirtualDuration};

fn small_app(name: &str, seed: u64) -> Arc<App> {
    Arc::new(generate_app(&GeneratorConfig::small(name, seed)).unwrap())
}

fn quick_config(tool: ToolKind, mode: RunMode, seed: u64) -> SessionConfig {
    let mut c = SessionConfig::new(tool, mode);
    c.instances = 3;
    c.duration = VirtualDuration::from_mins(8);
    c.tick = VirtualDuration::from_secs(10);
    c.seed = seed;
    c.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
    c.analyzer.analysis_interval = VirtualDuration::from_secs(20);
    c
}

/// A mixed-mode five-app catalog (the shapes the paper evaluates).
fn catalog() -> Vec<CampaignApp> {
    let specs = [
        ("alpha", 11, ToolKind::Monkey, RunMode::TaoptDuration),
        ("bravo", 22, ToolKind::Ape, RunMode::TaoptDuration),
        ("charlie", 33, ToolKind::Monkey, RunMode::TaoptResource),
        ("delta", 44, ToolKind::WcTester, RunMode::Baseline),
        ("echo", 55, ToolKind::Ape, RunMode::TaoptDuration),
    ];
    specs
        .iter()
        .map(|(name, seed, tool, mode)| {
            let mut config = quick_config(*tool, *mode, *seed);
            if *mode == RunMode::TaoptResource {
                config.machine_budget = Some(VirtualDuration::from_mins(12));
            }
            CampaignApp {
                name: (*name).to_owned(),
                app: small_app(name, *seed),
                config,
            }
        })
        .collect()
}

/// Coverage report of the contended catalog (7 of 15 wanted devices, so
/// lease rotation is exercised) at the given host budget.
fn contended_report(host_threads: usize) -> String {
    let config = CampaignConfig {
        host_threads,
        capacity: Some(7),
        ..CampaignConfig::default()
    };
    run_campaign(catalog(), &config).coverage_report()
}

#[test]
fn campaign_is_deterministic_across_worker_counts() {
    // The headline correctness property: the coverage report — every
    // per-app, per-instance, per-round observable — is byte-identical no
    // matter how many compute-pool workers advance the steps.
    let reports: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&workers| contended_report(workers))
        .collect();
    assert_eq!(
        reports[0], reports[1],
        "1-worker and 2-worker campaigns diverged"
    );
    assert_eq!(
        reports[0], reports[2],
        "1-worker and 4-worker campaigns diverged"
    );
}

#[test]
fn campaign_is_deterministic_across_host_budgets() {
    // The host budget decides only how fast rounds advance, never what
    // they compute — also when the budget is auto-detected.
    let reference = contended_report(1);
    for host_threads in [2usize, 8, 0] {
        assert_eq!(
            reference,
            contended_report(host_threads),
            "host_threads={host_threads} diverged from host_threads=1"
        );
    }
    // Host timing is observability, never part of the report — but it
    // must be *recorded*: every round lands in the global histogram
    // that /metrics surfaces.
    let snap = taopt_telemetry::global()
        .histogram("campaign_round_host_us")
        .snapshot();
    assert!(snap.count > 0, "campaign rounds recorded no host timings");
}

#[test]
fn one_host_thread_never_steals_and_times_its_parallel_phase() {
    // A steal is a step run by a thread other than its home range's
    // owner; with one host thread every step is the caller's own.
    let telemetry = taopt_telemetry::global();
    let wall_before = telemetry.counter("campaign_parallel_wall_us_total").get();
    let task_before = telemetry.counter("campaign_parallel_task_us_total").get();
    let config = CampaignConfig {
        host_threads: 1,
        ..CampaignConfig::default()
    };
    let result = run_campaign(catalog(), &config);
    assert_eq!(result.steals, 0);
    // Pool efficiency (task time ÷ wall time × budget) is readable from
    // these two series on /metrics.
    assert!(telemetry.counter("campaign_parallel_wall_us_total").get() > wall_before);
    assert!(telemetry.counter("campaign_parallel_task_us_total").get() > task_before);
}

#[test]
fn shared_farm_never_double_allocates() {
    let before = taopt_telemetry::global()
        .counter("campaign_lease_conflicts_total")
        .get();
    let config = CampaignConfig {
        host_threads: 4,
        capacity: Some(5),
        ..CampaignConfig::default()
    };
    let result = run_campaign(catalog(), &config);
    // Ledger-side and telemetry-side views agree: no device was ever
    // leased to two apps at once, and the farm never exceeded capacity.
    assert_eq!(result.lease_conflicts, 0);
    let after = taopt_telemetry::global()
        .counter("campaign_lease_conflicts_total")
        .get();
    assert_eq!(after, before, "conflict counter moved during the campaign");
    assert!(
        result.peak_active <= 5,
        "peak {} devices exceeds capacity 5",
        result.peak_active
    );
    assert_eq!(result.farm_active_at_end, 0, "devices leaked at the end");
    assert!(result.grants > 0);
    for app in &result.apps {
        assert!(
            app.session.union_coverage() > 0,
            "{} covered nothing",
            app.name
        );
    }
}

#[test]
fn contended_campaign_matches_uncontended_coverage_order() {
    // Sanity on the leasing layer: halving capacity still completes every
    // app and total coverage stays in the same ballpark (stolen time, not
    // lost work — sessions run on frozen clocks while queued).
    let full = run_campaign(catalog(), &CampaignConfig::default());
    let config = CampaignConfig {
        capacity: Some(7),
        ..CampaignConfig::default()
    };
    let half = run_campaign(catalog(), &config);
    assert_eq!(full.peak_active, 13, "uncontended peak is the total demand");
    // Packing: with every app on its own slice at once, the campaign
    // finishes the catalog at least 1.5× sooner in virtual wall-clock
    // than running the same sessions one after another.
    let serial_ms: u64 = catalog()
        .into_iter()
        .map(|a| {
            ParallelSession::run(a.app, &a.config)
                .wall_clock
                .as_millis()
        })
        .sum();
    let campaign_ms = full.wall_clock.as_millis();
    assert!(
        campaign_ms * 3 <= serial_ms * 2,
        "campaign wall {campaign_ms} ms is not 1.5x below serial {serial_ms} ms"
    );
    // Duration-constrained apps end by wall-clock however many devices
    // they hold, so contention can only stretch the campaign, not shrink
    // it (and often doesn't stretch it when the slowest app is the
    // resource-mode one running near one device in both cases).
    assert!(
        half.rounds >= full.rounds,
        "contention shrank the campaign: {} vs {}",
        half.rounds,
        full.rounds
    );
    for (f, h) in full.apps.iter().zip(half.apps.iter()) {
        assert!(h.session.union_coverage() > 0, "{} starved", h.name);
        // Same app, same seed: coverage within 2× of the dedicated run.
        assert!(
            h.session.union_coverage() * 2 >= f.session.union_coverage(),
            "{}: contended coverage {} collapsed vs dedicated {}",
            f.name,
            h.session.union_coverage(),
            f.session.union_coverage()
        );
    }
}

/// The coverage report built as a `Value` tree — the test-only oracle for
/// the streamed writer behind [`CampaignResult::coverage_report`], which
/// must produce the same bytes.
fn value_tree_report(result: &CampaignResult) -> String {
    let apps: Vec<Value> = result
        .apps
        .iter()
        .map(|a| {
            let instances: Vec<Value> = a
                .session
                .instances
                .iter()
                .map(|i| {
                    Value::Object(vec![
                        ("instance".to_owned(), Value::UInt(i.instance.0 as u64)),
                        ("device".to_owned(), Value::UInt(i.device.0 as u64)),
                        (
                            "allocated_ms".to_owned(),
                            Value::UInt(i.allocated_at.as_millis()),
                        ),
                        (
                            "deallocated_ms".to_owned(),
                            Value::UInt(i.deallocated_at.as_millis()),
                        ),
                        ("covered".to_owned(), Value::UInt(i.covered.len() as u64)),
                        (
                            "cover_events".to_owned(),
                            Value::UInt(i.cover_event_count() as u64),
                        ),
                        ("crashes".to_owned(), Value::UInt(i.crashes.len() as u64)),
                        ("trace_len".to_owned(), Value::UInt(i.trace.len() as u64)),
                    ])
                })
                .collect();
            let curve: Vec<Value> = a
                .session
                .union_curve
                .iter()
                .map(|p| {
                    Value::Array(vec![
                        Value::UInt(p.time.as_millis()),
                        Value::UInt(p.covered as u64),
                        Value::UInt(p.machine_time.as_millis()),
                    ])
                })
                .collect();
            let dedications = a
                .session
                .coordinator_events
                .iter()
                .filter(|e| matches!(e, CoordinatorEvent::SubspaceDedicated { .. }))
                .count();
            Value::Object(vec![
                ("name".to_owned(), Value::Str(a.name.clone())),
                (
                    "coverage".to_owned(),
                    Value::UInt(a.session.union_coverage() as u64),
                ),
                (
                    "crashes".to_owned(),
                    Value::UInt(a.session.unique_crashes().len() as u64),
                ),
                (
                    "machine_ms".to_owned(),
                    Value::UInt(a.session.machine_time.as_millis()),
                ),
                (
                    "wall_ms".to_owned(),
                    Value::UInt(a.session.wall_clock.as_millis()),
                ),
                (
                    "subspaces".to_owned(),
                    Value::UInt(a.session.subspaces.len() as u64),
                ),
                (
                    "confirmed".to_owned(),
                    Value::UInt(a.session.subspaces.iter().filter(|s| s.confirmed).count() as u64),
                ),
                ("dedications".to_owned(), Value::UInt(dedications as u64)),
                (
                    "unresolved_orphans".to_owned(),
                    Value::UInt(a.unresolved_orphans as u64),
                ),
                (
                    "devices_lost".to_owned(),
                    Value::UInt(a.devices_lost as u64),
                ),
                (
                    "replacements".to_owned(),
                    Value::UInt(a.replacements as u64),
                ),
                ("stream_gaps".to_owned(), Value::UInt(a.stream.gaps as u64)),
                (
                    "stream_duplicates".to_owned(),
                    Value::UInt(a.stream.duplicates as u64),
                ),
                (
                    "stream_reordered".to_owned(),
                    Value::UInt(a.stream.reordered as u64),
                ),
                (
                    "enforcement_retries".to_owned(),
                    Value::UInt(a.enforcement_retries as u64),
                ),
                ("wait_rounds".to_owned(), Value::UInt(a.wait_rounds)),
                ("finished_round".to_owned(), Value::UInt(a.finished_round)),
                ("instances".to_owned(), Value::Array(instances)),
                ("curve".to_owned(), Value::Array(curve)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("capacity".to_owned(), Value::UInt(result.capacity as u64)),
        ("rounds".to_owned(), Value::UInt(result.rounds)),
        (
            "wall_ms".to_owned(),
            Value::UInt(result.wall_clock.as_millis()),
        ),
        (
            "machine_ms".to_owned(),
            Value::UInt(result.machine_time.as_millis()),
        ),
        (
            "peak_active".to_owned(),
            Value::UInt(result.peak_active as u64),
        ),
        ("grants".to_owned(), Value::UInt(result.grants)),
        ("revocations".to_owned(), Value::UInt(result.revocations)),
        (
            "lease_conflicts".to_owned(),
            Value::UInt(result.lease_conflicts),
        ),
        ("apps".to_owned(), Value::Array(apps)),
    ])
    .to_json_string()
}

#[test]
fn streamed_report_matches_the_value_tree_oracle() {
    let config = CampaignConfig {
        host_threads: 2,
        capacity: Some(7),
        ..CampaignConfig::default()
    };
    let plain = run_campaign(catalog(), &config);
    assert_eq!(plain.coverage_report(), value_tree_report(&plain));

    let faulted = run_campaign(
        catalog(),
        &CampaignConfig {
            faults: Some(FaultPlan::new(5, FaultRates::uniform(0.05))),
            ..config.clone()
        },
    );
    assert!(
        faulted
            .fault_stats
            .as_ref()
            .expect("plan set")
            .total_injected()
            > 0
    );
    assert_eq!(faulted.coverage_report(), value_tree_report(&faulted));

    // A name that needs every kind of escape the writer knows.
    let name = "quote\" back\\slash \u{7} bell, héllo ☃ 子";
    let odd = run_campaign(
        vec![CampaignApp {
            name: name.to_owned(),
            app: small_app("odd", 3),
            config: quick_config(ToolKind::Monkey, RunMode::TaoptDuration, 3),
        }],
        &CampaignConfig::default(),
    );
    let report = odd.coverage_report();
    assert_eq!(report, value_tree_report(&odd));
    let parsed = Value::parse(&report).expect("the report is JSON");
    let apps = parsed.get("apps").and_then(Value::as_array).expect("apps");
    assert_eq!(apps[0].get("name").and_then(Value::as_str), Some(name));
}

#[test]
fn killed_devices_are_replaced_and_no_subspace_is_orphaned() {
    let config = CampaignConfig {
        host_threads: 2,
        kills: vec![
            KillEvent {
                round: 6,
                victim: 0,
            },
            KillEvent {
                round: 12,
                victim: 3,
            },
            KillEvent {
                round: 18,
                victim: 7,
            },
        ],
        ..CampaignConfig::default()
    };
    let result = run_campaign(catalog(), &config);
    let lost: usize = result.apps.iter().map(|a| a.devices_lost).sum();
    let replaced: usize = result.apps.iter().map(|a| a.replacements).sum();
    assert_eq!(lost, 3, "every scheduled kill landed");
    assert!(replaced > 0, "lost devices were never replaced");
    for app in &result.apps {
        assert_eq!(
            app.unresolved_orphans, 0,
            "{} finished with orphaned subspaces",
            app.name
        );
        assert!(app.session.union_coverage() > 0);
    }
    // Kills are deterministic too.
    let again = run_campaign(catalog(), &config);
    assert_eq!(result.coverage_report(), again.coverage_report());
}

#[test]
fn single_app_campaign_matches_serial_session() {
    // `ParallelSession::run` is a one-app campaign with plain wiring; the
    // same campaign under an all-zero fault plan swaps every seam layer
    // for its chaotic implementation (faulty pool, bus lanes with stream
    // repair, broadcast enforcement). Inert layers must be observably
    // absent: the session result is identical field by field, in every
    // run mode.
    for mode in [
        RunMode::Baseline,
        RunMode::TaoptDuration,
        RunMode::TaoptResource,
        RunMode::ActivityPartition,
        RunMode::PatsMasterSlave,
    ] {
        let mut config = quick_config(ToolKind::Monkey, mode, 77);
        if mode == RunMode::TaoptResource {
            config.machine_budget = Some(VirtualDuration::from_mins(12));
        }
        let serial = ParallelSession::run(small_app("parity", 77), &config);
        let campaign = run_campaign(
            vec![CampaignApp {
                name: "parity".to_owned(),
                app: small_app("parity", 77),
                config,
            }],
            &CampaignConfig {
                faults: Some(FaultPlan::new(9, FaultRates::none())),
                ..CampaignConfig::default()
            },
        );
        assert_eq!(campaign.fault_stats.expect("plan set").total_injected(), 0);
        let app = &campaign.apps[0];
        assert_eq!(app.devices_lost, 0);
        assert_eq!(app.stream, StreamStats::default());
        assert_eq!(app.unresolved_orphans, 0);
        let c = &app.session;
        let fields = [
            (
                "tool",
                format!("{:?}", serial.tool),
                format!("{:?}", c.tool),
            ),
            (
                "mode",
                format!("{:?}", serial.mode),
                format!("{:?}", c.mode),
            ),
            (
                "instances",
                format!("{:?}", serial.instances),
                format!("{:?}", c.instances),
            ),
            (
                "union_curve",
                format!("{:?}", serial.union_curve),
                format!("{:?}", c.union_curve),
            ),
            (
                "machine_time",
                format!("{:?}", serial.machine_time),
                format!("{:?}", c.machine_time),
            ),
            (
                "wall_clock",
                format!("{:?}", serial.wall_clock),
                format!("{:?}", c.wall_clock),
            ),
            (
                "subspaces",
                format!("{:?}", serial.subspaces),
                format!("{:?}", c.subspaces),
            ),
            (
                "coordinator_events",
                format!("{:?}", serial.coordinator_events),
                format!("{:?}", c.coordinator_events),
            ),
            (
                "concurrency_timeline",
                format!("{:?}", serial.concurrency_timeline),
                format!("{:?}", c.concurrency_timeline),
            ),
        ];
        for (name, s, c) in fields {
            assert_eq!(s, c, "{mode:?}: field `{name}` diverged under inert layers");
        }
    }
}
