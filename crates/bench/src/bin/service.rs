//! Campaign-service durability bench: an 8-campaign queue with mixed
//! priorities over a capacity-limited farm, killed mid-run and recovered
//! from durable checkpoints. Writes `BENCH_service.json`.
//!
//! Flow: run every campaign directly ([`run_campaign`] via spec) to get
//! the uninterrupted reference reports, then submit all eight to a
//! [`CampaignService`] whose farm only fits two at a time (so the queue,
//! priority order, preemption and admission control are all exercised —
//! the top-priority flagship is submitted last), crash the
//! service once a mid-flight (round > 0) checkpoint of the long flagship
//! campaign is on disk — polled from the store, because cadence
//! checkpoints are written behind the round loop and the status round
//! runs ahead of the durable one — recover from the checkpoint
//! directory, and drain. Campaigns that finished
//! before the kill lost their in-memory reports with the "process", so
//! they are re-submitted; resumed ones continue from their snapshots.
//!
//! Exit gates (CI smoke): every one of the eight service-produced
//! coverage reports must be byte-identical to its direct reference, at
//! least one campaign must have resumed from a mid-flight (round > 0)
//! checkpoint, and p95 resume latency must stay under
//! [`MAX_RESUME_P95_US`] of host time. With fewer than
//! [`MIN_PERCENTILE_SAMPLES`] replays there is no p95 to speak of: the
//! bench prints the replay count, reports the p95 as null and gates the
//! slowest replay instead.

use std::process::ExitCode;
use std::time::Instant;

use taopt::report::TextTable;
use taopt::run_campaign;
use taopt::session::RunMode;
use taopt_bench::{load_apps, BenchReport, HarnessArgs};
use taopt_service::{
    AppSource, AppSpec, CampaignService, CampaignSpec, CampaignStatus, CheckpointStore,
    ServiceConfig,
};
use taopt_tools::ToolKind;
use taopt_ui_model::Value;

/// Campaigns in the queue.
const CAMPAIGNS: usize = 8;

/// Mixed submission priorities (higher runs first).
const PRIORITIES: [u8; CAMPAIGNS] = [9, 5, 3, 7, 2, 6, 4, 8];

/// Host-time p95 resume-latency gate, in µs.
const MAX_RESUME_P95_US: u64 = 5_000_000;

/// Fewest replays a p95 is quoted from.
const MIN_PERCENTILE_SAMPLES: u64 = 10;

/// Checkpoint cadence in rounds.
const CHECKPOINT_EVERY: u64 = 3;

/// Builds the bench's campaign specs: two catalog apps each, mixed
/// tools, per-campaign seeds, demand capped so the farm fits exactly two
/// campaigns at a time. Campaign 0 is the long flagship the kill targets.
fn build_specs(args: &HarnessArgs) -> Vec<CampaignSpec> {
    let names: Vec<String> = load_apps(args.n_apps).into_iter().map(|(n, _)| n).collect();
    (0..CAMPAIGNS)
        .map(|i| {
            let apps = (0..2)
                .map(|j| AppSpec {
                    source: AppSource::Catalog(names[(i + j) % names.len()].clone()),
                    tool: if (i + j) % 2 == 0 {
                        ToolKind::Monkey
                    } else {
                        ToolKind::Ape
                    },
                    mode: RunMode::TaoptDuration,
                    seed: args.seed + (i * 2 + j) as u64 * 31,
                })
                .collect();
            let mut spec = CampaignSpec::new(format!("bench-{i}"), apps, args.scale);
            spec.capacity = Some(2 * args.scale.instances);
            if i == 0 {
                // Long enough that the kill provably lands mid-run.
                spec.scale.duration = args.scale.duration * 4;
            }
            spec
        })
        .collect()
}

fn main() -> ExitCode {
    let args = HarnessArgs::parse();
    let specs = build_specs(&args);
    let demand = specs[0].device_demand();
    eprintln!(
        "service: {CAMPAIGNS} campaigns x demand {demand}, farm {}, {:?}",
        2 * demand,
        args.scale
    );

    // Uninterrupted references.
    let direct_start = Instant::now();
    let expected: Vec<String> = specs
        .iter()
        .map(|s| {
            let (apps, config) = s.build().expect("bench spec builds");
            run_campaign(apps, &config).coverage_report()
        })
        .collect();
    let direct_ms = direct_start.elapsed().as_millis() as u64;
    eprintln!("  direct reference runs: {direct_ms}ms");

    // Service run, killed mid-flight.
    let dir = std::env::temp_dir().join(format!("taopt-bench-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 2 * demand;
    config.checkpoint_every = CHECKPOINT_EVERY;
    let service = match CampaignService::start(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("service bench FAILED: cannot start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The flagship goes in last: a submission costs about as much host
    // time as a short campaign, so submitted first it could be done before
    // the kill is armed. Submitted last it outranks and preempts whatever
    // is running and is provably early in its run when the poll starts.
    let mut ids: Vec<_> = (1..CAMPAIGNS)
        .chain([0])
        .map(|i| {
            service
                .submit(specs[i].clone(), PRIORITIES[i])
                .expect("bench spec admitted")
        })
        .collect();
    ids.rotate_right(1); // back into spec order: ids[0] is the flagship

    // Kill once a mid-flight checkpoint of the flagship campaign is
    // durable. The status round says what has executed, not what is on
    // disk, so ask the disk.
    let store = CheckpointStore::new(&dir).expect("checkpoint dir exists");
    let poll_start = Instant::now();
    loop {
        if matches!(store.load(&store.path_for(ids[0].0)), Ok(c) if c.round > 0) {
            break;
        }
        match service.status(ids[0]).expect("known campaign") {
            CampaignStatus::Done | CampaignStatus::Failed(_) => break,
            _ if poll_start.elapsed().as_secs() > 60 => break,
            _ => std::thread::yield_now(),
        }
    }
    let kill_status = service.status(ids[0]).expect("known campaign");
    service.crash();
    eprintln!("  killed service with flagship at {kill_status:?}");

    // What survived on disk, and how far along each checkpoint was.
    let mut checkpoint_rounds: Vec<(u64, u64)> = Vec::new();
    for path in store.list().expect("listable checkpoint dir") {
        match store.load(&path) {
            Ok(c) => checkpoint_rounds.push((c.campaign, c.round)),
            Err(e) => {
                eprintln!("service bench FAILED: unreadable checkpoint {path:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mid_flight = checkpoint_rounds.iter().filter(|(_, r)| *r > 0).count();

    // Recover and drain.
    let recover_start = Instant::now();
    let (service, recovery) = match CampaignService::recover(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("service bench FAILED: recover: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !recovery.rejected.is_empty() {
        eprintln!(
            "service bench FAILED: recover rejected checkpoints: {:?}",
            recovery.rejected
        );
        return ExitCode::FAILURE;
    }
    // Campaigns that completed before the kill removed their checkpoints
    // and lost their reports with the process: run them again.
    let mut final_ids = ids.clone();
    for (i, id) in ids.iter().enumerate() {
        if !recovery.resumed.contains(id) {
            final_ids[i] = service
                .submit(specs[i].clone(), PRIORITIES[i])
                .expect("resubmission admitted");
        }
    }
    service.wait_all();
    let recover_ms = recover_start.elapsed().as_millis() as u64;

    let mut table = TextTable::new(["Campaign", "Priority", "Path", "CkptRound", "Identical"]);
    let mut all_identical = true;
    for (i, id) in final_ids.iter().enumerate() {
        let resumed = recovery.resumed.contains(id);
        let report = service.result(*id).expect("known campaign");
        let identical = report.as_deref() == Some(expected[i].as_str());
        all_identical &= identical;
        table.row([
            specs[i].name.clone(),
            PRIORITIES[i].to_string(),
            if resumed { "resumed" } else { "rerun" }.to_owned(),
            checkpoint_rounds
                .iter()
                .find(|(c, _)| *c == id.0)
                .map_or("-".to_owned(), |(_, r)| r.to_string()),
            if identical { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    println!(
        "Campaign service: {CAMPAIGNS} campaigns, farm {} devices, kill + recover mid-run",
        2 * demand
    );
    print!("{}", table.render());

    let snapshot = taopt_telemetry::global().snapshot();
    let resume_hist = snapshot.histogram_total("service_resume_latency_us");
    let (resume_p50_us, resume_max_us, resumes) = resume_hist
        .as_ref()
        .map_or((0, 0, 0), |h| (h.p50(), h.max, h.count));
    // A p95 needs samples beyond it; two replays have a median and a max.
    let resume_p95_us = resume_hist
        .as_ref()
        .filter(|h| h.count >= MIN_PERCENTILE_SAMPLES)
        .and_then(|h| h.quantile(0.95));
    let checkpoints_written = snapshot.counter_total("service_checkpoints_written_total");
    let checkpoints_superseded = snapshot.counter_total("service_checkpoints_superseded_total");
    println!(
        "recovered {} campaigns ({mid_flight} mid-flight), resume p50 {:.1}ms / p95 {} / \
         max {:.1}ms over n={resumes} replays, {checkpoints_written} checkpoints written \
         ({checkpoints_superseded} superseded unwritten), drain {recover_ms}ms (direct {direct_ms}ms)",
        recovery.resumed.len(),
        resume_p50_us as f64 / 1000.0,
        resume_p95_us.map_or_else(
            || format!("n/a (n < {MIN_PERCENTILE_SAMPLES})"),
            |p95| format!("{:.1}ms", p95 as f64 / 1000.0)
        ),
        resume_max_us as f64 / 1000.0,
    );

    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::Str("service".to_owned())),
        ("campaigns".to_owned(), Value::UInt(CAMPAIGNS as u64)),
        ("farm_capacity".to_owned(), Value::UInt(2 * demand as u64)),
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("checkpoint_every".to_owned(), Value::UInt(CHECKPOINT_EVERY)),
        (
            "resumed".to_owned(),
            Value::UInt(recovery.resumed.len() as u64),
        ),
        (
            "mid_flight_resumes".to_owned(),
            Value::UInt(mid_flight as u64),
        ),
        ("replays".to_owned(), Value::UInt(resumes)),
        ("byte_identical".to_owned(), Value::Bool(all_identical)),
        ("resume_p50_us".to_owned(), Value::UInt(resume_p50_us)),
        (
            "resume_p95_us".to_owned(),
            resume_p95_us.map_or(Value::Null, Value::UInt),
        ),
        ("resume_max_us".to_owned(), Value::UInt(resume_max_us)),
        (
            "checkpoints_written".to_owned(),
            Value::UInt(checkpoints_written),
        ),
        (
            "checkpoints_superseded".to_owned(),
            Value::UInt(checkpoints_superseded),
        ),
        ("direct_ms".to_owned(), Value::UInt(direct_ms)),
        ("recover_drain_ms".to_owned(), Value::UInt(recover_ms)),
    ]);
    let mut report = BenchReport::new("service bench");
    let out = "BENCH_service.json";
    let bytes = report.write_json(out, &doc);
    println!("service bench: wrote {out} ({bytes} bytes)");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    report.gate(all_identical, || {
        "a recovered campaign diverged from its direct run".to_owned()
    });
    report.gate(mid_flight > 0, || {
        "no campaign was mid-flight at the kill".to_owned()
    });
    // The slowest replay bounds the p95 from above whatever n is.
    let gated_us = resume_p95_us.unwrap_or(resume_max_us);
    report.gate(gated_us <= MAX_RESUME_P95_US, || {
        format!("resume latency {gated_us}us (n={resumes}) exceeds {MAX_RESUME_P95_US}us")
    });
    report.finish()
}
