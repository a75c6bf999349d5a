//! Campaign bench: the app catalog run serially (one dedicated `d_max`
//! slice at a time, the paper's setting) versus campaign-scheduled over a
//! shared farm of four slices. Writes `BENCH_campaign.json` with
//! wall-clock, machine-time and per-app coverage for both arms, so the
//! repo tracks a perf trajectory.
//!
//! Wall-clock is **virtual device-farm time** — rounds × tick — the
//! quantity TaOPT optimizes and the only one that is deterministic on
//! shared CI hardware; host milliseconds are reported alongside for
//! information only.
//!
//! Exits non-zero when either gate fails:
//! * speedup: the campaign on a 4-thread host budget must be ≥ 1.5×
//!   faster (virtual wall-clock) than the serial fault-free run;
//! * determinism: campaigns on host budgets 1 and 4 must produce
//!   byte-identical coverage reports.
//!
//! `farm` mode scales to a 100-app catalog and adds the host-side
//! compute-pool gates (see [`farm`]): per-round host p50/p95 and zero
//! thread spawns after warmup.
//!
//! ```text
//! cargo run --release -p taopt-bench --bin campaign -- [quick|paper] [n_apps] [seed]
//! cargo run --release -p taopt-bench --bin campaign -- farm [seed]
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use taopt::campaign::{run_campaign, Campaign, CampaignApp, CampaignConfig, CampaignResult};
use taopt::experiments::ExperimentScale;
use taopt::session::{ParallelSession, RunMode, SessionConfig, SessionResult};
use taopt_app_sim::{generate_app, GeneratorConfig};
use taopt_bench::{load_apps, BenchReport, HarnessArgs, NamedApp};
use taopt_tools::ToolKind;
use taopt_ui_model::{Value, VirtualDuration};

/// The shared farm rents four of the paper's per-app device slices.
const SLICES: usize = 4;
/// Speedup gate: campaign vs serial, virtual wall-clock.
const MIN_SPEEDUP: f64 = 1.5;

/// Farm mode: catalog size (synthetic apps).
const FARM_APPS: usize = 100;
/// Farm mode: shared device capacity.
const FARM_CAPACITY: usize = 200;
/// Farm mode: speedup gate at a [`FARM_THREADS`] host budget.
const MIN_FARM_SPEEDUP: f64 = 6.0;
/// Farm mode: host-thread budget of the measured arm.
const FARM_THREADS: usize = 8;

fn app_config(args: &HarnessArgs, index: usize) -> SessionConfig {
    // Rotate the paper's three tools across the catalog; duration mode is
    // the fault-free headline setting.
    let tool = match index % 3 {
        0 => ToolKind::Monkey,
        1 => ToolKind::Ape,
        _ => ToolKind::WcTester,
    };
    args.scale.session_config(
        tool,
        RunMode::TaoptDuration,
        args.seed.wrapping_add(index as u64),
    )
}

fn per_app_json(name: &str, session: &SessionResult) -> Value {
    Value::Object(vec![
        ("name".to_owned(), Value::Str(name.to_owned())),
        (
            "coverage".to_owned(),
            Value::UInt(session.union_coverage() as u64),
        ),
        (
            "crashes".to_owned(),
            Value::UInt(session.unique_crashes().len() as u64),
        ),
        (
            "wall_ms".to_owned(),
            Value::UInt(session.wall_clock.as_millis()),
        ),
        (
            "machine_ms".to_owned(),
            Value::UInt(session.machine_time.as_millis()),
        ),
    ])
}

fn campaign_json(result: &CampaignResult, host_threads: usize, host_ms: u64) -> Value {
    campaign_json_extra(result, host_threads, host_ms, Vec::new())
}

fn campaign_json_extra(
    result: &CampaignResult,
    host_threads: usize,
    host_ms: u64,
    extra: Vec<(String, Value)>,
) -> Value {
    let mut fields = vec![
        ("host_threads".to_owned(), Value::UInt(host_threads as u64)),
        ("rounds".to_owned(), Value::UInt(result.rounds)),
        (
            "wall_ms".to_owned(),
            Value::UInt(result.wall_clock.as_millis()),
        ),
        (
            "machine_ms".to_owned(),
            Value::UInt(result.machine_time.as_millis()),
        ),
        ("capacity".to_owned(), Value::UInt(result.capacity as u64)),
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
        ("steals".to_owned(), Value::UInt(result.steals)),
        ("host_ms".to_owned(), Value::UInt(host_ms)),
    ];
    fields.extend(extra);
    fields.push((
        "apps".to_owned(),
        Value::Array(
            result
                .apps
                .iter()
                .map(|a| per_app_json(&a.name, &a.session))
                .collect(),
        ),
    ));
    Value::Object(fields)
}

/// The `p`-th percentile of an ascending-sorted sample (nearest-rank).
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

fn catalog(apps: &[NamedApp], args: &HarnessArgs) -> Vec<CampaignApp> {
    apps.iter()
        .enumerate()
        .map(|(i, (name, app))| CampaignApp {
            name: name.clone(),
            app: Arc::clone(app),
            config: app_config(args, i),
        })
        .collect()
}

/// One farm arm driven round by round so per-round host time and thread
/// churn are observable from outside the campaign.
struct FarmArm {
    result: CampaignResult,
    /// Total host milliseconds, `Campaign::new` through `finish`.
    host_ms: u64,
    /// Per-round host microseconds, ascending.
    round_us: Vec<u64>,
    /// `host_threads_spawned_total` delta after warmup (pool construction
    /// plus the first round) — must be 0: rounds never spawn.
    spawned_after_warmup: u64,
}

/// Runs one farm campaign stepwise on a compute pool budgeted at
/// `host_threads`.
fn run_farm_arm(apps: &[NamedApp], args: &HarnessArgs, host_threads: usize) -> FarmArm {
    let config = CampaignConfig {
        host_threads,
        capacity: Some(FARM_CAPACITY),
        ..CampaignConfig::default()
    };
    let spawn_counter = taopt_telemetry::global().counter("host_threads_spawned_total");
    let host = Instant::now();
    let mut campaign = Campaign::new(catalog(apps, args), &config);
    let mut round_us = Vec::new();
    // Warmup: pool construction and the first round (lazy per-app state).
    let t0 = Instant::now();
    let mut live = campaign.advance_round();
    round_us.push(t0.elapsed().as_micros() as u64);
    let after_warmup = spawn_counter.get();
    while live {
        let t0 = Instant::now();
        live = campaign.advance_round();
        round_us.push(t0.elapsed().as_micros() as u64);
    }
    let spawned_after_warmup = spawn_counter.get() - after_warmup;
    let result = campaign.finish();
    let host_ms = host.elapsed().as_millis() as u64;
    round_us.sort_unstable();
    FarmArm {
        result,
        host_ms,
        round_us,
        spawned_after_warmup,
    }
}

/// Farm mode: a 100-app synthetic catalog on a 200-device shared farm,
/// short sessions (the scheduler's packing, not per-app depth, is what
/// is under test), campaign-scheduled under the persistent compute pool
/// at host budgets 1 and [`FARM_THREADS`], against the serial
/// one-app-at-a-time baseline.
///
/// Virtual clocks (rounds × tick) keep the result-side gates
/// deterministic on shared hardware:
/// * speedup: the [`FARM_THREADS`]-budget campaign must finish the
///   catalog ≥ [`MIN_FARM_SPEEDUP`]× faster than the serial baseline in
///   virtual wall-clock;
/// * determinism: pool×1 and pool×[`FARM_THREADS`] coverage reports
///   must be byte-identical (the host budget is a throughput knob,
///   never a result knob);
/// * no churn: after warmup the pooled arm must spawn **zero** host
///   threads — `host_threads_spawned_total` stays flat across rounds.
fn farm(seed: u64) -> ExitCode {
    let scale = ExperimentScale {
        instances: 2,
        duration: VirtualDuration::from_mins(4),
        tick: VirtualDuration::from_secs(10),
        stall_timeout: VirtualDuration::from_secs(45),
        l_min_short: VirtualDuration::from_secs(40),
        l_min_long: VirtualDuration::from_secs(100),
        grid_points: 8,
    };
    let args = HarnessArgs {
        scale,
        n_apps: FARM_APPS,
        seed,
    };
    eprintln!(
        "campaign farm: {FARM_APPS} generated apps, capacity {FARM_CAPACITY} devices, \
         host budgets [1, {FARM_THREADS}], seed {seed}"
    );
    let apps: Vec<NamedApp> = (0..FARM_APPS)
        .map(|i| {
            let name = format!("farm-{i:03}");
            let app = generate_app(&GeneratorConfig::small(&name, seed.wrapping_add(i as u64)))
                .expect("generator config is valid");
            (name, Arc::new(app))
        })
        .collect();

    // Arm 1: serial — each app alone on a dedicated slice, one after
    // another; the farm's virtual wall-clock is the sum.
    let host = Instant::now();
    let serial: Vec<(String, SessionResult)> = apps
        .iter()
        .enumerate()
        .map(|(i, (name, app))| {
            let r = ParallelSession::run(Arc::clone(app), &app_config(&args, i));
            (name.clone(), r)
        })
        .collect();
    let serial_host_ms = host.elapsed().as_millis() as u64;
    let serial_wall: VirtualDuration = serial
        .iter()
        .fold(VirtualDuration::ZERO, |acc, (_, r)| acc + r.wall_clock);
    let serial_machine: VirtualDuration = serial
        .iter()
        .fold(VirtualDuration::ZERO, |acc, (_, r)| acc + r.machine_time);
    eprintln!("  serial: wall {serial_wall} machine {serial_machine} host {serial_host_ms}ms");

    // Arm 2: the persistent pool at host budgets 1 and FARM_THREADS.
    let pool_1 = run_farm_arm(&apps, &args, 1);
    let pool_8 = run_farm_arm(&apps, &args, FARM_THREADS);
    for (tag, arm) in [
        ("pool x1".to_owned(), &pool_1),
        (format!("pool x{FARM_THREADS}"), &pool_8),
    ] {
        eprintln!(
            "  {tag}: {} rounds, wall {}, host {}ms (p50 {}us p95 {}us), \
             {} threads spawned after warmup",
            arm.result.rounds,
            arm.result.wall_clock,
            arm.host_ms,
            percentile(&arm.round_us, 50),
            percentile(&arm.round_us, 95),
            arm.spawned_after_warmup
        );
    }

    let speedup =
        serial_wall.as_millis() as f64 / pool_8.result.wall_clock.as_millis().max(1) as f64;
    let deterministic = pool_1.result.coverage_report() == pool_8.result.coverage_report();

    let arm_json = |arm: &FarmArm, budget: usize| {
        campaign_json_extra(
            &arm.result,
            budget,
            arm.host_ms,
            vec![
                (
                    "host_us_p50".to_owned(),
                    Value::UInt(percentile(&arm.round_us, 50)),
                ),
                (
                    "host_us_p95".to_owned(),
                    Value::UInt(percentile(&arm.round_us, 95)),
                ),
                (
                    "threads_spawned".to_owned(),
                    Value::UInt(arm.spawned_after_warmup),
                ),
            ],
        )
    };
    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::Str("campaign".to_owned())),
        ("mode".to_owned(), Value::Str("farm".to_owned())),
        ("n_apps".to_owned(), Value::UInt(FARM_APPS as u64)),
        ("capacity".to_owned(), Value::UInt(FARM_CAPACITY as u64)),
        ("seed".to_owned(), Value::UInt(seed)),
        (
            "serial".to_owned(),
            Value::Object(vec![
                ("wall_ms".to_owned(), Value::UInt(serial_wall.as_millis())),
                (
                    "machine_ms".to_owned(),
                    Value::UInt(serial_machine.as_millis()),
                ),
                ("host_ms".to_owned(), Value::UInt(serial_host_ms)),
            ]),
        ),
        (
            "campaigns".to_owned(),
            Value::Array(vec![arm_json(&pool_1, 1), arm_json(&pool_8, FARM_THREADS)]),
        ),
        ("speedup_virtual_wall".to_owned(), Value::Float(speedup)),
        ("speedup_gate".to_owned(), Value::Float(MIN_FARM_SPEEDUP)),
        ("deterministic".to_owned(), Value::Bool(deterministic)),
    ]);
    let mut report = BenchReport::new("campaign bench");
    let out = "BENCH_campaign.json";
    let bytes = report.write_json(out, &doc);
    println!(
        "campaign farm: serial wall {serial_wall} vs pool x{FARM_THREADS} campaign wall {} \
         -> speedup {speedup:.2}x; host {}ms pool x1 vs {}ms pool x{FARM_THREADS}; \
         deterministic: {deterministic}; wrote {out} ({bytes} bytes)",
        pool_8.result.wall_clock, pool_1.host_ms, pool_8.host_ms,
    );

    report.gate(speedup >= MIN_FARM_SPEEDUP, || {
        format!("speedup {speedup:.2}x below the {MIN_FARM_SPEEDUP}x farm gate")
    });
    report.gate(deterministic, || {
        format!("pool x1 and pool x{FARM_THREADS} campaigns diverged")
    });
    report.gate(pool_8.spawned_after_warmup == 0, || {
        format!(
            "pooled arm spawned {} host threads after warmup (must be 0)",
            pool_8.spawned_after_warmup
        )
    });
    report.gate(pool_8.result.lease_conflicts == 0, || {
        format!(
            "{} double-allocations observed",
            pool_8.result.lease_conflicts
        )
    });
    report.finish()
}

fn main() -> ExitCode {
    {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.first().map(String::as_str) == Some("farm") {
            let seed = argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(2025);
            return farm(seed);
        }
    }
    let args = HarnessArgs::parse();
    let apps = load_apps(args.n_apps);
    let capacity = SLICES * args.scale.instances;
    eprintln!(
        "campaign: {} apps, {:?}, shared capacity {capacity} ({SLICES} slices of {})",
        apps.len(),
        args.scale,
        args.scale.instances
    );

    // Arm 1: serial — each app alone on a dedicated d_max slice.
    let host = Instant::now();
    let serial: Vec<(String, SessionResult)> = apps
        .iter()
        .enumerate()
        .map(|(i, (name, app))| {
            let r = ParallelSession::run(Arc::clone(app), &app_config(&args, i));
            eprintln!("  serial {name}: coverage {}", r.union_coverage());
            (name.clone(), r)
        })
        .collect();
    let serial_host_ms = host.elapsed().as_millis() as u64;
    let serial_wall: VirtualDuration = serial
        .iter()
        .fold(VirtualDuration::ZERO, |acc, (_, r)| acc + r.wall_clock);
    let serial_machine: VirtualDuration = serial
        .iter()
        .fold(VirtualDuration::ZERO, |acc, (_, r)| acc + r.machine_time);

    // Arm 2: campaign-scheduled on host budgets 1 and 4 (identical
    // results by construction; both are run to *prove* it).
    let mut campaigns = Vec::new();
    for host_threads in [1usize, 4] {
        let config = CampaignConfig {
            host_threads,
            capacity: Some(capacity),
            ..CampaignConfig::default()
        };
        let host = Instant::now();
        let result = run_campaign(catalog(&apps, &args), &config);
        let host_ms = host.elapsed().as_millis() as u64;
        eprintln!(
            "  campaign x{host_threads}: {} rounds, wall {}, {} grants, {} steals, host {host_ms}ms",
            result.rounds, result.wall_clock, result.grants, result.steals
        );
        campaigns.push((host_threads, result, host_ms));
    }

    let (_, four_threads, _) = campaigns.iter().find(|(t, _, _)| *t == 4).unwrap();
    let speedup =
        serial_wall.as_millis() as f64 / four_threads.wall_clock.as_millis().max(1) as f64;
    let deterministic = campaigns[0].1.coverage_report() == campaigns[1].1.coverage_report();

    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::Str("campaign".to_owned())),
        ("n_apps".to_owned(), Value::UInt(apps.len() as u64)),
        ("seed".to_owned(), Value::UInt(args.seed)),
        (
            "scale".to_owned(),
            Value::Str(format!("{:?}", args.scale.duration)),
        ),
        (
            "serial".to_owned(),
            Value::Object(vec![
                ("wall_ms".to_owned(), Value::UInt(serial_wall.as_millis())),
                (
                    "machine_ms".to_owned(),
                    Value::UInt(serial_machine.as_millis()),
                ),
                ("host_ms".to_owned(), Value::UInt(serial_host_ms)),
                (
                    "apps".to_owned(),
                    Value::Array(
                        serial
                            .iter()
                            .map(|(name, r)| per_app_json(name, r))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "campaigns".to_owned(),
            Value::Array(
                campaigns
                    .iter()
                    .map(|(w, r, h)| campaign_json(r, *w, *h))
                    .collect(),
            ),
        ),
        ("speedup_virtual_wall".to_owned(), Value::Float(speedup)),
        ("deterministic".to_owned(), Value::Bool(deterministic)),
    ]);
    let mut report = BenchReport::new("campaign bench");
    let out = "BENCH_campaign.json";
    let bytes = report.write_json(out, &doc);
    println!(
        "campaign bench: serial wall {} vs campaign wall {} -> speedup {speedup:.2}x \
         (machine {} vs {}); deterministic: {deterministic}; wrote {out} ({bytes} bytes)",
        serial_wall, four_threads.wall_clock, serial_machine, four_threads.machine_time,
    );

    report.gate(speedup >= MIN_SPEEDUP, || {
        format!("speedup {speedup:.2}x below the {MIN_SPEEDUP}x gate")
    });
    report.gate(deterministic, || {
        "host budget 1 and 4 campaigns diverged".to_owned()
    });
    report.gate(four_threads.lease_conflicts == 0, || {
        format!(
            "{} double-allocations observed",
            four_threads.lease_conflicts
        )
    });
    report.finish()
}
