//! Service-level integration and property tests: checkpoint-at-any-round
//! resume is byte-identical (including across host-thread budgets and
//! under fault plans), damaged checkpoints are rejected cleanly, the
//! service queue/priority/crash/recover lifecycle reproduces direct
//! [`run_campaign`] results exactly, and the write-behind checkpoint
//! writer keeps its promises (kill anywhere, no resurrection, pause
//! ordering, write failures surface, fairness).

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use taopt::campaign::run_campaign;
use taopt::experiments::ExperimentScale;
use taopt::{run_campaign_sequence, Campaign, KillEvent, RunMode};
use taopt_app_sim::AppEvolution;
use taopt_chaos::{FaultPlan, FaultRates};
use taopt_service::{
    AppSource, AppSpec, CampaignService, CampaignSpec, CampaignStatus, Checkpoint, CheckpointStore,
    EvolutionSpec, ServiceConfig, ServiceError, CHECKPOINT_VERSION,
};
use taopt_tools::ToolKind;
use taopt_ui_model::json::Value;
use taopt_ui_model::VirtualDuration;

/// A fresh scratch dir under the system temp root.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("taopt-service-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A tiny but fully-featured campaign spec: `n` two-instance generated
/// apps, mixed tools/modes, and (on even seeds) a fault plan plus a
/// scheduled device kill, so resume is also exercised under chaos.
fn tiny_spec(n_apps: usize, seed: u64, host_threads: usize) -> CampaignSpec {
    let scale = ExperimentScale {
        instances: 2,
        duration: VirtualDuration::from_mins(3),
        tick: VirtualDuration::from_secs(10),
        stall_timeout: VirtualDuration::from_secs(60),
        l_min_short: VirtualDuration::from_secs(40),
        l_min_long: VirtualDuration::from_secs(100),
        grid_points: 4,
    };
    let apps = (0..n_apps)
        .map(|i| AppSpec {
            source: AppSource::Small {
                name: format!("svc{i}"),
                seed: seed ^ (i as u64 + 1),
            },
            tool: if i % 2 == 0 {
                ToolKind::Monkey
            } else {
                ToolKind::Ape
            },
            mode: if i % 3 == 2 {
                RunMode::TaoptResource
            } else {
                RunMode::TaoptDuration
            },
            seed: seed.wrapping_add(i as u64),
        })
        .collect();
    let mut spec = CampaignSpec::new(format!("tiny-{n_apps}-{seed}"), apps, scale);
    spec.host_threads = host_threads;
    if seed.is_multiple_of(2) {
        spec.faults = Some(FaultPlan::new(seed, FaultRates::uniform(0.02)));
        spec.kills = vec![KillEvent {
            round: 4,
            victim: seed % (n_apps as u64 * 2),
        }];
    }
    spec
}

/// The canonical uninterrupted result of a spec.
fn direct_report(spec: &CampaignSpec) -> String {
    let (apps, config) = spec.build().unwrap();
    run_campaign(apps, &config).coverage_report()
}

/// Spins (yielding) until `probe` returns a value; panics with `what`
/// after a minute so a broken service fails the test instead of hanging.
fn poll_until<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// A campaign of `mins` virtual minutes (6 rounds each): long enough
/// that a test can act on it mid-run.
fn long_spec(n_apps: usize, seed: u64, mins: u64) -> CampaignSpec {
    let mut spec = tiny_spec(n_apps, seed, 1);
    spec.scale.duration = VirtualDuration::from_mins(mins);
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Core durability law: stop a campaign at *any* round, round-trip the
    /// checkpoint through disk, resume — possibly under a different
    /// host-thread budget (the budget travels through the durable
    /// encoding both ways) — and the finished coverage report is
    /// byte-identical to an uninterrupted run.
    #[test]
    fn checkpoint_any_round_resume_is_byte_identical(
        n_apps in 1usize..4,
        seed in 0u64..500,
        budget_sel in 0usize..4,
        resume_sel in 0usize..4,
        stop_round in 1u64..12,
    ) {
        let budgets = [1usize, 2, 4, 8];
        let host_threads = budgets[budget_sel];
        let resume_threads = budgets[resume_sel];
        let spec = tiny_spec(n_apps, seed, host_threads);
        let reference = direct_report(&spec);

        let (apps, config) = spec.build().unwrap();
        let mut campaign = Campaign::new(apps, &config);
        let mut live = true;
        while live && campaign.round() < stop_round {
            live = campaign.advance_round();
        }
        if !live {
            // The campaign ended before `stop_round`; the uninterrupted
            // equality must still hold.
            prop_assert_eq!(campaign.finish().coverage_report(), reference);
            return Ok(());
        }

        // Mid-flight: checkpoint through an actual file.
        let digest = campaign.digest();
        drop(campaign);
        let store = CheckpointStore::new(scratch(&format!(
            "prop-{n_apps}-{seed}-{host_threads}-{resume_threads}-{stop_round}"
        )))
        .unwrap();
        let path = store
            .save(&Checkpoint {
                version: CHECKPOINT_VERSION,
                campaign: 1,
                priority: 0,
                round: stop_round,
                sequence_version: 0,
                spec: spec.clone(),
                digest: Some(digest),
            })
            .unwrap();
        let ckpt = store.load(&path).unwrap();
        prop_assert_eq!(&ckpt.spec, &spec);

        // Resume: rebuild, replay, verify the digest, run to completion.
        let mut resumed_spec = ckpt.spec;
        resumed_spec.host_threads = resume_threads;
        let (apps, config) = resumed_spec.build().unwrap();
        let mut resumed = Campaign::new(apps, &config);
        while resumed.round() < ckpt.round {
            prop_assert!(resumed.advance_round(), "replay ended early");
        }
        let replayed = resumed.digest();
        prop_assert_eq!(ckpt.digest.unwrap().diff(&replayed), None);
        while resumed.advance_round() {}
        prop_assert_eq!(resumed.finish().coverage_report(), reference);
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Host-budget law: the campaign compute-pool budget is pure mechanism
    /// and never affects results — the coverage report is byte-identical
    /// across `host_threads` ∈ {1, 2, 4, 8} (resuming under another
    /// budget is the durability law's).
    #[test]
    fn host_threads_never_affect_results(
        n_apps in 1usize..4,
        seed in 0u64..500,
    ) {
        let reference = direct_report(&tiny_spec(n_apps, seed, 1));
        for b in [2usize, 4, 8] {
            prop_assert_eq!(
                direct_report(&tiny_spec(n_apps, seed, b)),
                reference.clone(),
                "host_threads={} diverged from host_threads=1",
                b
            );
        }
    }

    /// Any truncation or byte flip of a checkpoint file must surface as a
    /// clean `Err` — never a panic, never a silently wrong resume.
    #[test]
    fn damaged_checkpoint_is_always_rejected(
        damage_at in 0usize..4096,
        flip in 1u8..255,
        truncate in 0u8..2,
    ) {
        let truncate = truncate == 1;
        let store = CheckpointStore::new(scratch("prop-damage")).unwrap();
        let path = store
            .save(&Checkpoint {
                version: CHECKPOINT_VERSION,
                campaign: 9,
                priority: 2,
                round: 6,
                sequence_version: 0,
                spec: tiny_spec(2, 42, 1),
                digest: None,
            })
            .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        if truncate {
            let cut = 1 + damage_at % (bytes.len() - 1);
            bytes.truncate(cut);
        } else {
            let idx = damage_at % bytes.len();
            bytes[idx] = bytes[idx].wrapping_add(flip);
        }
        fs::write(&path, &bytes).unwrap();
        prop_assert!(store.load(&path).is_err());
        let _ = fs::remove_dir_all(store.dir());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill-anywhere law: with a checkpoint handed off every round and two
    /// campaigns running side by side, kill the service at any point,
    /// recover, and every report is byte-identical to the direct run —
    /// however far the durable snapshots trailed. Along the way no
    /// checkpoint on disk is ever ahead of what its campaign executed.
    #[test]
    fn kill_anywhere_recovers_byte_identical(
        seed in 0u64..500,
        kill_round in 0u64..18,
        watched in 0usize..2,
    ) {
        let dir = scratch(&format!("kill-{seed}-{kill_round}-{watched}"));
        let mut config = ServiceConfig::new(&dir);
        config.farm_capacity = 8;
        config.checkpoint_every = 1;
        let specs = [tiny_spec(2, seed, 1), tiny_spec(2, seed + 1, 2)];
        let expected = [direct_report(&specs[0]), direct_report(&specs[1])];
        let service = CampaignService::start(config.clone()).unwrap();
        let ids = [
            service.submit(specs[0].clone(), 4).unwrap(),
            service.submit(specs[1].clone(), 4).unwrap(),
        ];
        let store = CheckpointStore::new(&dir).unwrap();

        poll_until("the kill point", || {
            for id in ids {
                // Disk first, status second: a round is published in the
                // status before it is handed off, so a durable round ahead
                // of the status read *afterwards* was never executed.
                if let Ok(ckpt) = store.load(&store.path_for(id.0)) {
                    if let CampaignStatus::Running { round } = service.status(id).unwrap() {
                        assert!(
                            ckpt.round <= round,
                            "campaign {id:?}: round {} on disk, {round} executed",
                            ckpt.round
                        );
                    }
                }
            }
            match service.status(ids[watched]).unwrap() {
                CampaignStatus::Running { round } if round >= kill_round => Some(()),
                CampaignStatus::Done | CampaignStatus::Failed(_) => Some(()),
                _ => None,
            }
        });
        let finished = ids.map(|id| service.result(id).unwrap());
        service.crash();

        // Process death leaves whole checkpoints only: the write in flight
        // was waited out, everything unwritten was dropped.
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            prop_assert!(
                path.extension().is_some_and(|x| x == "ckpt"),
                "crash left {path:?} behind"
            );
        }

        let (service, recovery) = CampaignService::recover(config).unwrap();
        prop_assert!(recovery.rejected.is_empty(), "{:?}", recovery.rejected);
        service.wait_all();
        for (i, id) in ids.iter().enumerate() {
            if recovery.resumed.contains(id) {
                prop_assert_eq!(service.status(*id).unwrap(), CampaignStatus::Done);
                prop_assert_eq!(service.result(*id).unwrap(), Some(expected[i].clone()));
            } else if let Some(report) = &finished[i] {
                // Completed before the kill: its checkpoint was deleted.
                prop_assert_eq!(report, &expected[i]);
            }
        }
        prop_assert!(store.list().unwrap().is_empty());
        service.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn service_queue_runs_everything_byte_identical() {
    let dir = scratch("queue");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 4;
    config.checkpoint_every = 3;
    let service = CampaignService::start(config).unwrap();

    // Three campaigns of demand 4 against a 4-device farm: strictly
    // serialized, admitted highest-priority-first.
    let mut specs = [
        tiny_spec(2, 10, 1),
        tiny_spec(2, 11, 2),
        tiny_spec(3, 12, 1),
    ];
    specs[2].capacity = Some(4);
    let expected: Vec<String> = specs.iter().map(direct_report).collect();
    let ids: Vec<_> = specs
        .iter()
        .zip([1u8, 5, 3])
        .map(|(s, pri)| service.submit(s.clone(), pri).unwrap())
        .collect();

    service.wait_all();
    for (id, want) in ids.iter().zip(&expected) {
        assert_eq!(service.status(*id).unwrap(), CampaignStatus::Done);
        assert_eq!(service.result(*id).unwrap().as_deref(), Some(want.as_str()));
    }

    // Completed campaigns leave no checkpoints behind.
    let store = CheckpointStore::new(&dir).unwrap();
    assert!(store.list().unwrap().is_empty());
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_rejects_impossible_and_invalid_specs() {
    let dir = scratch("admission");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 2;
    let service = CampaignService::start(config).unwrap();

    // Demand 4 > farm 2: can never run.
    assert!(matches!(
        service.submit(tiny_spec(2, 1, 1), 0),
        Err(ServiceError::Rejected(_))
    ));
    // Unknown catalog app: fails the submitter, not a runner thread.
    let mut bad = tiny_spec(1, 1, 1);
    bad.capacity = Some(1);
    bad.apps[0].source = AppSource::Catalog("NoSuchApp".to_owned());
    assert!(matches!(
        service.submit(bad, 0),
        Err(ServiceError::UnknownApp(_))
    ));
    // Zero instances per app: the app could never hold a device.
    let mut idle = tiny_spec(1, 1, 1);
    idle.scale.instances = 0;
    assert!(matches!(
        service.submit(idle, 0),
        Err(ServiceError::Rejected(why)) if why.contains("instances")
    ));
    assert!(matches!(
        service.status(taopt_service::CampaignId(77)),
        Err(ServiceError::UnknownCampaign(77))
    ));
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn preemption_keeps_results_byte_identical() {
    let dir = scratch("preempt");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 4;
    config.checkpoint_every = 1;
    let service = CampaignService::start(config).unwrap();

    // A long low-priority campaign, then a high-priority one that outranks
    // it while the farm is full: the low one is asked to checkpoint and
    // yield, resumes later, and must still finish byte-identical.
    let mut long_spec = tiny_spec(3, 20, 1);
    long_spec.scale.duration = VirtualDuration::from_mins(30);
    long_spec.capacity = Some(4);
    let short_spec = tiny_spec(2, 21, 1);
    let long_want = direct_report(&long_spec);
    let short_want = direct_report(&short_spec);

    let low = service.submit(long_spec, 1).unwrap();
    let high = service.submit(short_spec, 9).unwrap();

    assert_eq!(service.wait(high).unwrap(), CampaignStatus::Done);
    assert_eq!(service.wait(low).unwrap(), CampaignStatus::Done);
    assert_eq!(
        service.result(low).unwrap().as_deref(),
        Some(long_want.as_str())
    );
    assert_eq!(
        service.result(high).unwrap().as_deref(),
        Some(short_want.as_str())
    );
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_and_recover_completes_every_unfinished_campaign() {
    let dir = scratch("crash");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 4;
    config.checkpoint_every = 2;
    let service = CampaignService::start(config.clone()).unwrap();

    // Campaign 1 is long and runs first; 2 and 3 queue behind it, so at
    // least two campaigns are guaranteed unfinished at the crash.
    let mut specs = [
        tiny_spec(2, 30, 2),
        tiny_spec(2, 31, 1),
        tiny_spec(3, 32, 1),
    ];
    specs[0].scale.duration = VirtualDuration::from_mins(30);
    specs[0].capacity = Some(4);
    specs[2].capacity = Some(4);
    let expected: Vec<String> = specs.iter().map(direct_report).collect();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| service.submit(s.clone(), 4).unwrap())
        .collect();

    // Let the first campaign make some progress, then kill the process.
    for _ in 0..20_000 {
        match service.status(ids[0]).unwrap() {
            CampaignStatus::Running { round } if round >= 3 => break,
            CampaignStatus::Done | CampaignStatus::Failed(_) => break,
            _ => std::thread::yield_now(),
        }
    }
    service.crash();

    let (service, recovery) = CampaignService::recover(config).unwrap();
    assert!(recovery.rejected.is_empty());
    // Everything that had not completed pre-crash — at minimum the two
    // queued campaigns — comes back from its durable checkpoint.
    assert!(
        recovery.resumed.len() >= 2,
        "resumed {:?}",
        recovery.resumed
    );
    service.wait_all();
    for (id, want) in ids.iter().zip(&expected) {
        if recovery.resumed.contains(id) {
            assert_eq!(service.status(*id).unwrap(), CampaignStatus::Done);
            assert_eq!(
                service.result(*id).unwrap().as_deref(),
                Some(want.as_str()),
                "resumed campaign {id:?} diverged from uninterrupted run"
            );
        }
    }
    let store = CheckpointStore::new(&dir).unwrap();
    assert!(store.list().unwrap().is_empty());
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tampered_digest_fails_the_resume_cleanly() {
    let dir = scratch("tamper");
    let spec = tiny_spec(2, 40, 1);
    let (apps, config) = spec.build().unwrap();
    let mut campaign = Campaign::new(apps, &config);
    for _ in 0..3 {
        assert!(campaign.advance_round());
    }
    let mut digest = campaign.digest();
    digest.grants += 1;
    let store = CheckpointStore::new(&dir).unwrap();
    store
        .save(&Checkpoint {
            version: CHECKPOINT_VERSION,
            campaign: 1,
            priority: 0,
            round: campaign.round(),
            sequence_version: 0,
            spec,
            digest: Some(digest),
        })
        .unwrap();

    let mut svc_config = ServiceConfig::new(&dir);
    svc_config.farm_capacity = 8;
    let (service, recovery) = CampaignService::recover(svc_config).unwrap();
    assert_eq!(recovery.resumed.len(), 1);
    let id = recovery.resumed[0];
    match service.wait(id).unwrap() {
        CampaignStatus::Failed(msg) => {
            assert!(msg.contains("diverged"), "unexpected failure: {msg}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A small evolution spec: `versions` releases of two TaOPT-mode apps
/// with warm-start threading.
fn evolution_spec(seed: u64, versions: u64) -> CampaignSpec {
    let mut spec = tiny_spec(2, seed, 2);
    spec.evolution = Some(EvolutionSpec {
        seed: seed ^ 0xe0,
        versions,
        warm: true,
    });
    spec
}

#[test]
fn evolution_campaign_reports_every_release() {
    let spec = evolution_spec(61, 3);
    let evo = spec.evolution.unwrap();
    let (apps, config) = spec.build().unwrap();
    let direct = run_campaign_sequence(
        apps,
        &config,
        &AppEvolution::new(evo.seed),
        evo.versions,
        evo.warm,
    )
    .unwrap();

    let dir = scratch("evolution");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 8;
    let service = CampaignService::start(config).unwrap();

    let id = service.submit(spec, 4).unwrap();
    assert_eq!(service.wait(id).unwrap(), CampaignStatus::Done);
    let report = service.result(id).unwrap().unwrap();
    // The streamed document is exactly what its value tree would write.
    let v = Value::parse(&report).unwrap();
    assert_eq!(v.to_json_string(), report);
    let versions = v.require("versions").unwrap().as_array().unwrap();
    assert_eq!(versions.len(), 3);
    for ((i, ver), outcome) in versions.iter().enumerate().zip(&direct) {
        assert_eq!(
            ver.require("version").unwrap().as_u64(),
            Some(i as u64),
            "versions out of order"
        );
        // Each release carries its evolution report and, byte for byte,
        // its own coverage report.
        let evo = ver.require("evolution").unwrap();
        assert!(evo.require("apps").unwrap().as_array().unwrap().len() == 2);
        let coverage = outcome.result.coverage_report();
        assert_eq!(ver.require("coverage").unwrap().to_json_string(), coverage);
        assert!(report.contains(&format!(",\"coverage\":{coverage}}}")));
    }
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn evolution_mid_version_crash_recovers_byte_identical() {
    // Reference: the same evolution spec run uninterrupted.
    let spec = evolution_spec(62, 3);
    let ref_dir = scratch("evo-ref");
    let mut ref_config = ServiceConfig::new(&ref_dir);
    ref_config.farm_capacity = 8;
    let reference = {
        let service = CampaignService::start(ref_config).unwrap();
        let id = service.submit(spec.clone(), 4).unwrap();
        assert_eq!(service.wait(id).unwrap(), CampaignStatus::Done);
        let report = service.result(id).unwrap().unwrap();
        service.shutdown();
        report
    };
    let _ = fs::remove_dir_all(&ref_dir);

    // Interrupted run: checkpoint every round, kill the service once a
    // checkpoint lands *inside* a later release (sequence cursor ≥ 1).
    let dir = scratch("evo-crash");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 8;
    config.checkpoint_every = 1;
    let service = CampaignService::start(config.clone()).unwrap();
    let id = service.submit(spec, 4).unwrap();
    let store = CheckpointStore::new(&dir).unwrap();
    let mut saw_mid_version = false;
    for _ in 0..200_000 {
        if let Ok(ckpt) = store.load(&store.path_for(id.0)) {
            if ckpt.sequence_version >= 1 && ckpt.round >= 1 {
                saw_mid_version = true;
                break;
            }
        }
        if matches!(
            service.status(id).unwrap(),
            CampaignStatus::Done | CampaignStatus::Failed(_)
        ) {
            break;
        }
        std::thread::yield_now();
    }
    assert!(
        saw_mid_version,
        "campaign never checkpointed inside a later release"
    );
    service.crash();

    let (service, recovery) = CampaignService::recover(config).unwrap();
    assert!(recovery.rejected.is_empty());
    assert_eq!(recovery.resumed, vec![id]);
    assert_eq!(service.wait(id).unwrap(), CampaignStatus::Done);
    assert_eq!(
        service.result(id).unwrap().as_deref(),
        Some(reference.as_str()),
        "mid-version resume diverged from uninterrupted release train"
    );
    let store = CheckpointStore::new(&dir).unwrap();
    assert!(store.list().unwrap().is_empty());
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recover_reports_unreadable_checkpoints_without_dying() {
    let dir = scratch("reject");
    let store = CheckpointStore::new(&dir).unwrap();
    store
        .save(&Checkpoint {
            version: CHECKPOINT_VERSION,
            campaign: 1,
            priority: 0,
            round: 0,
            sequence_version: 0,
            spec: tiny_spec(1, 50, 1),
            digest: None,
        })
        .unwrap();
    fs::write(store.path_for(2), "garbage, not a checkpoint").unwrap();

    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 8;
    let (service, recovery) = CampaignService::recover(config).unwrap();
    assert_eq!(recovery.resumed.len(), 1);
    assert_eq!(recovery.rejected.len(), 1);
    assert!(matches!(
        recovery.rejected[0].1,
        ServiceError::Corrupt { .. }
    ));
    service.wait_all();
    assert_eq!(
        service.status(recovery.resumed[0]).unwrap(),
        CampaignStatus::Done
    );
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn finished_campaigns_never_reappear_on_disk() {
    // 200 short campaigns, four at a time, a hand-off every round: each
    // one's last cadence checkpoints race its completion. Completion must
    // win every time — a checkpoint that outlives its campaign would be
    // resurrected by the next recover().
    let dir = scratch("no-resurrection");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 8;
    config.checkpoint_every = 1;
    let service = CampaignService::start(config).unwrap();
    let store = CheckpointStore::new(&dir).unwrap();
    let mut ids = Vec::new();
    for batch in 0..25u64 {
        let submitted: Vec<_> = (0..8u64)
            .map(|i| {
                let mut spec = tiny_spec(1, 1 + 2 * (batch * 8 + i), 1);
                spec.max_rounds = 2 + i % 5;
                service.submit(spec, 4).unwrap()
            })
            .collect();
        for id in submitted {
            assert_eq!(service.wait(id).unwrap(), CampaignStatus::Done);
            assert!(
                !store.path_for(id.0).exists(),
                "campaign {id:?} is done but its checkpoint is on disk"
            );
            ids.push(id);
        }
    }
    // And none crept back while the later ones ran, or at shutdown.
    assert!(store.list().unwrap().is_empty());
    service.shutdown();
    assert!(store.list().unwrap().is_empty());
    assert_eq!(ids.len(), 200);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pause_checkpoint_is_the_one_on_disk() {
    let dir = scratch("pause-order");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 4;
    config.checkpoint_every = 1;
    let service = CampaignService::start(config).unwrap();
    let store = CheckpointStore::new(&dir).unwrap();

    // The low-priority campaign fills the farm and hands off a checkpoint
    // every round; the high-priority one preempts it mid-run, so the
    // pause checkpoint is taken with cadence writes still in the writer.
    let mut low_spec = long_spec(3, 71, 30);
    low_spec.capacity = Some(4);
    let high_spec = long_spec(2, 73, 10);
    let low_want = direct_report(&low_spec);
    let low = service.submit(low_spec, 1).unwrap();
    poll_until("the low-priority campaign to get going", || {
        matches!(
            service.status(low).unwrap(),
            CampaignStatus::Running { round } if round >= 3
        )
        .then_some(())
    });
    let high = service.submit(high_spec, 9).unwrap();

    // While it sits preempted, the file must stay exactly the pause
    // checkpoint: same round, digest attached, no older write landing late.
    let paused_round = poll_until("the preemption", || match service.status(low).unwrap() {
        CampaignStatus::Paused { round } => Some(round),
        _ => None,
    });
    let mut checked = 0;
    loop {
        let loaded = store.load(&store.path_for(low.0));
        if service.status(low).unwrap()
            != (CampaignStatus::Paused {
                round: paused_round,
            })
        {
            break; // resumed: the file moves on from here
        }
        let ckpt = loaded.expect("a paused campaign has its checkpoint on disk");
        assert_eq!(ckpt.round, paused_round);
        assert!(ckpt.digest.is_some(), "pause checkpoint lost its digest");
        checked += 1;
        std::thread::yield_now();
    }
    assert!(checked > 0, "never observed the paused campaign on disk");

    assert_eq!(service.wait(high).unwrap(), CampaignStatus::Done);
    assert_eq!(service.wait(low).unwrap(), CampaignStatus::Done);
    assert_eq!(
        service.result(low).unwrap().as_deref(),
        Some(low_want.as_str())
    );
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cadence_write_failure_fails_the_campaign_and_is_counted() {
    let dir = scratch("write-fail");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 4;
    config.checkpoint_every = 1;
    let service = CampaignService::start(config).unwrap();
    let errors = taopt_telemetry::global().counter("service_checkpoint_write_errors_total");
    let errors_before = errors.get();

    let id = service.submit(long_spec(2, 81, 120), 4).unwrap();
    poll_until("the campaign to get going", || {
        matches!(
            service.status(id).unwrap(),
            CampaignStatus::Running { round } if round >= 2
        )
        .then_some(())
    });
    // Make the checkpoint unwritable mid-run (works as root too): a
    // directory squatting on the temp path fails the writer's create.
    // If a write is between create and rename right now, try again.
    let tmp = dir.join(format!("campaign-{:08}.ckpt.tmp", id.0));
    poll_until("the temp path to be free", || fs::create_dir(&tmp).ok());

    // The campaign has ~700 rounds to go; it must fail at its next
    // hand-off after the failed write, not run on without durability.
    match service.wait(id).unwrap() {
        CampaignStatus::Failed(why) => {
            assert!(why.contains("checkpoint io"), "unexpected failure: {why}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert!(
        errors.get() > errors_before,
        "the write error was swallowed"
    );
    // The last good checkpoint is still there for an operator to recover.
    let store = CheckpointStore::new(&dir).unwrap();
    assert!(store.load(&store.path_for(id.0)).is_ok());
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn writer_serves_concurrent_campaigns_fairly() {
    let dir = scratch("fairness");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 8;
    config.checkpoint_every = 1;
    let service = CampaignService::start(config).unwrap();
    let store = CheckpointStore::new(&dir).unwrap();
    let ids = [
        service.submit(long_spec(2, 91, 120), 4).unwrap(),
        service.submit(long_spec(2, 93, 120), 4).unwrap(),
    ];

    // Both run at once and both hand off every round: each file's round
    // must keep advancing — neither tenant's checkpoints wait for the
    // other to finish.
    let mut advances = [0u32; 2];
    let mut last = [0u64; 2];
    poll_until("both checkpoints to advance side by side", || {
        let both_running = ids
            .iter()
            .all(|id| matches!(service.status(*id).unwrap(), CampaignStatus::Running { .. }));
        for (i, id) in ids.iter().enumerate() {
            if let Ok(ckpt) = store.load(&store.path_for(id.0)) {
                if both_running && ckpt.round > last[i] {
                    advances[i] += 1;
                }
                last[i] = last[i].max(ckpt.round);
            }
        }
        assert!(
            ids.iter()
                .all(|id| service.status(*id).unwrap() != CampaignStatus::Done),
            "a campaign finished before both files advanced 3 times: {advances:?}"
        );
        advances.iter().all(|n| *n >= 3).then_some(())
    });
    // How far durability trails, and what it costs, is on /metrics.
    let metrics = service.metrics_text();
    for series in [
        "service_checkpoint_lag_rounds",
        "service_checkpoint_encode_us",
        "service_checkpoint_fsync_us",
        "service_checkpoints_superseded_total",
        "service_checkpoint_write_errors_total",
    ] {
        assert!(metrics.contains(series), "{series} missing from /metrics");
    }
    service.crash();
    let _ = fs::remove_dir_all(&dir);
}
