//! End-to-end integration tests: full parallel sessions across every tool
//! and run mode, on generated apps, checking the system-level invariants
//! the paper's design promises.

use std::sync::Arc;

use taopt::session::{ParallelSession, RunMode, SessionConfig};
use taopt_app_sim::{generate_app, App, GeneratorConfig};
use taopt_tools::ToolKind;
use taopt_ui_model::{VirtualDuration, VirtualTime};

fn quick_config(tool: ToolKind, mode: RunMode) -> SessionConfig {
    let mut cfg = SessionConfig::new(tool, mode);
    cfg.instances = 3;
    cfg.duration = VirtualDuration::from_mins(8);
    cfg.stall_timeout = VirtualDuration::from_secs(60);
    cfg.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
    cfg.analyzer.analysis_interval = VirtualDuration::from_secs(20);
    cfg
}

fn app(seed: u64) -> Arc<App> {
    Arc::new(generate_app(&GeneratorConfig::small("e2e", seed)).expect("valid app"))
}

#[test]
fn every_tool_and_mode_completes() {
    for tool in ToolKind::ALL {
        for mode in [
            RunMode::Baseline,
            RunMode::TaoptDuration,
            RunMode::TaoptResource,
            RunMode::ActivityPartition,
        ] {
            let r = ParallelSession::run(app(1), &quick_config(tool, mode));
            assert!(r.union_coverage() > 0, "{tool:?}/{mode:?} covered nothing");
            assert!(!r.instances.is_empty());
            assert!(r.machine_time > VirtualDuration::ZERO);
        }
    }
}

#[test]
fn sessions_are_reproducible() {
    for mode in [
        RunMode::Baseline,
        RunMode::TaoptDuration,
        RunMode::TaoptResource,
    ] {
        let cfg = quick_config(ToolKind::Ape, mode);
        let a = ParallelSession::run(app(2), &cfg);
        let b = ParallelSession::run(app(2), &cfg);
        assert_eq!(
            a.union_coverage(),
            b.union_coverage(),
            "{mode:?} not deterministic"
        );
        assert_eq!(a.unique_crashes(), b.unique_crashes());
        assert_eq!(a.machine_time, b.machine_time);
        assert_eq!(a.subspaces.len(), b.subspaces.len());
        assert_eq!(a.instances.len(), b.instances.len());
    }
}

#[test]
fn different_seeds_change_baseline_outcomes() {
    let mut c1 = quick_config(ToolKind::Monkey, RunMode::Baseline);
    c1.seed = 1;
    let mut c2 = c1.clone();
    c2.seed = 99;
    let a = ParallelSession::run(app(3), &c1);
    let b = ParallelSession::run(app(3), &c2);
    assert_ne!(
        (a.union_coverage(), a.machine_time),
        (b.union_coverage(), b.machine_time),
        "seeds should matter"
    );
}

#[test]
fn duration_modes_respect_the_wall_clock() {
    for mode in [
        RunMode::Baseline,
        RunMode::TaoptDuration,
        RunMode::ActivityPartition,
    ] {
        let cfg = quick_config(ToolKind::Monkey, mode);
        let r = ParallelSession::run(app(4), &cfg);
        // Wall clock never exceeds the budget by more than one tick.
        assert!(
            r.wall_clock.as_secs() <= cfg.duration.as_secs() + cfg.tick.as_secs(),
            "{mode:?} ran {} > {}",
            r.wall_clock,
            cfg.duration
        );
        // No instance outlives the session.
        for i in &r.instances {
            assert!(i.deallocated_at <= VirtualTime::ZERO + cfg.duration + cfg.tick);
        }
    }
}

#[test]
fn resource_mode_respects_the_machine_budget() {
    let mut cfg = quick_config(ToolKind::WcTester, RunMode::TaoptResource);
    cfg.machine_budget = Some(VirtualDuration::from_mins(12));
    let r = ParallelSession::run(app(5), &cfg);
    let slack = cfg.tick.as_secs() * cfg.instances as u64 + 60;
    assert!(
        r.machine_time.as_secs() <= 12 * 60 + slack,
        "machine time {} exceeds 12m budget",
        r.machine_time
    );
}

#[test]
fn taopt_identifies_and_dedicates_subspaces() {
    // Confirmation needs a couple of analysis rounds past l_min; give this
    // session a little more room than the quick config's 8 minutes.
    let mut cfg = quick_config(ToolKind::Monkey, RunMode::TaoptDuration);
    cfg.duration = VirtualDuration::from_mins(12);
    let r = ParallelSession::run(app(6), &cfg);
    let confirmed: Vec<_> = r.subspaces.iter().filter(|s| s.confirmed).collect();
    assert!(!confirmed.is_empty(), "no subspaces identified");
    for s in &confirmed {
        assert!(s.owner.is_some(), "{} has no owner", s.id);
        assert!(!s.entrypoints.is_empty());
        assert!(s.screens.len() >= 3);
    }
}

#[test]
fn instance_coverage_is_a_subset_of_union() {
    let r = ParallelSession::run(app(7), &quick_config(ToolKind::Ape, RunMode::TaoptDuration));
    let union = r.union_covered();
    for i in &r.instances {
        let covered: std::collections::BTreeSet<_> = i.covered.iter().collect();
        assert!(covered.iter().all(|m| union.contains(*m)));
        // Cover events reconstruct the covered set.
        let from_events: std::collections::BTreeSet<_> = i.cover_events().map(|(_, m)| m).collect();
        assert_eq!(from_events, covered, "{} cover events diverge", i.instance);
    }
    assert_eq!(r.union_coverage(), union.len());
}

#[test]
fn union_curve_is_monotone_and_consistent() {
    for mode in [RunMode::Baseline, RunMode::TaoptResource] {
        let r = ParallelSession::run(app(8), &quick_config(ToolKind::Monkey, mode));
        assert!(r
            .union_curve
            .windows(2)
            .all(|w| w[0].covered < w[1].covered && w[0].time <= w[1].time));
        assert!(r
            .union_curve
            .windows(2)
            .all(|w| w[0].machine_time <= w[1].machine_time));
        assert_eq!(
            r.union_curve.last().map(|p| p.covered).unwrap_or(0),
            r.union_coverage()
        );
    }
}

#[test]
fn login_gated_apps_are_testable() {
    let mut gcfg = GeneratorConfig::small("gated", 9);
    gcfg.login = true;
    let app = Arc::new(generate_app(&gcfg).unwrap());
    let r = ParallelSession::run(
        app.clone(),
        &quick_config(ToolKind::Monkey, RunMode::Baseline),
    );
    // Auto-login must unlock the bulk of the app, not just the wall.
    assert!(
        r.union_coverage() * 3 > app.method_count(),
        "covered {} of {}",
        r.union_coverage(),
        app.method_count()
    );
}
