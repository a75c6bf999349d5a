//! Integration tests of the coordination contract: enforcement really
//! seals subspaces, ownership is exclusive, and the tool-agnosticism
//! boundary holds across the whole stack.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use taopt::coordinator::CoordinatorEvent;
use taopt::session::{ParallelSession, RunMode, SessionConfig};
use taopt_app_sim::{generate_app, App, GeneratorConfig};
use taopt_toller::InstanceId;
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualDuration;

fn run(seed: u64, tool: ToolKind) -> (Arc<App>, taopt::session::SessionResult) {
    let app = Arc::new(generate_app(&GeneratorConfig::small("coord", seed)).unwrap());
    let mut cfg = SessionConfig::new(tool, RunMode::TaoptDuration);
    cfg.instances = 3;
    cfg.duration = VirtualDuration::from_mins(10);
    cfg.stall_timeout = VirtualDuration::from_secs(60);
    cfg.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
    cfg.analyzer.analysis_interval = VirtualDuration::from_secs(20);
    let r = ParallelSession::run(Arc::clone(&app), &cfg);
    (app, r)
}

/// Reconstructs, per instance, the (screen, widget) pairs blocked on it
/// and the time of blocking, from the coordinator log.
fn blocked_rules(
    result: &taopt::session::SessionResult,
) -> BTreeMap<InstanceId, BTreeSet<(u64, String)>> {
    let mut map: BTreeMap<InstanceId, BTreeSet<(u64, String)>> = BTreeMap::new();
    for e in &result.coordinator_events {
        if let CoordinatorEvent::EntrypointBlocked { instance, rule, .. } = e {
            map.entry(*instance)
                .or_default()
                .insert((rule.screen.0, rule.widget_rid.clone()));
        }
    }
    map
}

#[test]
fn blocked_widgets_are_never_fired_while_blocked() {
    let (_, r) = run(11, ToolKind::Monkey);
    let blocked = blocked_rules(&r);
    // For every instance, once a (host screen, widget) pair is blocked it
    // must not appear as a fired action later in the trace. We verify the
    // weaker, order-free property for owners-excluded rules that were
    // installed at registration time (instances allocated later than the
    // dedication): for those, ANY firing is a violation.
    for i in &r.instances {
        let Some(rules) = blocked.get(&i.instance) else {
            continue;
        };
        // Rules installed at or before this instance's first event.
        for (host, rid) in rules {
            let fired_while_blocked = i.trace.events().windows(2).any(|w| {
                w[0].abstract_id.0 == *host
                    && w[1].action_widget_rid.as_deref() == Some(rid.as_str())
                    && w[1].time >= i.allocated_at
                    // Only count firings after blocking could have applied:
                    // instances allocated after the dedication are blocked
                    // from the start.
                    && i.allocated_at > r.coordinator_events.iter().filter_map(|e| match e {
                        CoordinatorEvent::SubspaceDedicated { at, .. } => Some(*at),
                        _ => None,
                    }).min().unwrap_or(i.allocated_at)
            });
            assert!(
                !fired_while_blocked,
                "{} fired blocked widget {rid} on screen {host}",
                i.instance
            );
        }
    }
}

#[test]
fn each_subspace_has_exactly_one_live_owner_per_dedication() {
    let (_, r) = run(12, ToolKind::Ape);
    // The last dedication event per subspace determines the final owner.
    let mut last_owner = BTreeMap::new();
    for e in &r.coordinator_events {
        if let CoordinatorEvent::SubspaceDedicated {
            subspace, owner, ..
        } = e
        {
            last_owner.insert(*subspace, *owner);
        }
    }
    for s in r.subspaces.iter().filter(|s| s.confirmed) {
        assert_eq!(
            s.owner,
            last_owner.get(&s.id).copied(),
            "{} final owner diverges from the event log",
            s.id
        );
    }
}

#[test]
fn confirmed_subspaces_meet_the_confirmation_policy() {
    let (_, r) = run(13, ToolKind::Monkey);
    for s in &r.subspaces {
        if s.confirmed {
            assert!(
                s.reporters.len() >= 2,
                "duration mode requires two independent reporters; {} has {:?}",
                s.id,
                s.reporters
            );
        }
    }
}

#[test]
fn subspace_screens_are_disjoint_from_hub_transit() {
    // The hub (start screen) must never be claimed by a subspace: blocking
    // it would break all navigation.
    let (app, r) = run(14, ToolKind::Monkey);
    let mut rt = taopt_app_sim::AppRuntime::launch(Arc::clone(&app), 0);
    let hub_abs = rt.observe(taopt_ui_model::VirtualTime::ZERO).abstract_id();
    for s in r.subspaces.iter().filter(|s| s.confirmed) {
        assert!(
            !s.screens.contains(&hub_abs),
            "{} claims the hub screen",
            s.id
        );
    }
}

#[test]
fn behavior_preservation_bound_holds_loosely() {
    // TaOPT must not lose most of the baseline's covered methods — the
    // paper reports >95% retention; the quick-scale bound here is 60%.
    let app = Arc::new(generate_app(&GeneratorConfig::small("coordbp", 15)).unwrap());
    let mk = |mode| {
        let mut cfg = SessionConfig::new(ToolKind::Monkey, mode);
        cfg.instances = 3;
        cfg.duration = VirtualDuration::from_mins(10);
        cfg.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
        ParallelSession::run(Arc::clone(&app), &cfg)
    };
    let base = mk(RunMode::Baseline);
    let taopt = mk(RunMode::TaoptDuration);
    let base_set = base.union_covered();
    let taopt_set = taopt.union_covered();
    let retained = base_set.intersection_len(&taopt_set);
    assert!(
        retained as f64 >= 0.6 * base_set.len() as f64,
        "TaOPT retained only {retained}/{} baseline methods",
        base_set.len()
    );
}
