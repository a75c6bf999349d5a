//! Property-based tests for TaOPT's core algorithms: FindSpace laws
//! (validity, engine/naive agreement, invariances), metric laws, Theorem-1
//! sampling, and partitioner invariants.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use taopt::findspace::{
    find_space, find_space_naive, FindSpaceConfig, FindSpaceEngine, SimilarityCache, SplitCandidate,
};
use taopt::metrics::curves::{coverage_at, time_to_reach, CurvePoint};
use taopt::metrics::jaccard::{average_jaccard, jaccard};
use taopt::partition::{partition_graph, PartitionConfig};
use taopt::theorem::{required_samples, separation_success_rate, CliquePairConfig};
use taopt_app_sim::{MethodId, MethodSet};
use taopt_ui_model::abstraction::{AbstractHierarchy, AbstractNode};
use taopt_ui_model::{
    Action, ActionId, ActivityId, ScreenId, StochasticDigraph, TraceEvent, VirtualDuration,
    VirtualTime, WidgetClass,
};

/// Synthesizes a trace event for abstract state `label`.
fn ev(t: u64, label: u32) -> TraceEvent {
    let abstraction = Arc::new(AbstractHierarchy::from_root(AbstractNode {
        class: WidgetClass::FrameLayout,
        resource_id: Some(format!("state-{label}")),
        children: vec![AbstractNode {
            class: WidgetClass::TextView,
            resource_id: Some(format!("body-{label}")),
            children: Vec::new(),
        }],
    }));
    TraceEvent {
        time: VirtualTime::from_secs(t),
        screen: ScreenId(label),
        activity: ActivityId(0),
        abstract_id: abstraction.id(),
        abstraction,
        action: Some(Action::Widget(ActionId(label))),
        action_widget_rid: Some(Arc::from(format!("w{label}"))),
    }
}

/// An arbitrary trace over a small alphabet of abstract states, with
/// strictly increasing timestamps.
fn arb_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(0u32..8, 2..150).prop_map(|labels| {
        labels
            .into_iter()
            .enumerate()
            .map(|(i, l)| ev(i as u64 * 3, l))
            .collect()
    })
}

fn fs_config() -> FindSpaceConfig {
    FindSpaceConfig {
        l_min: VirtualDuration::from_secs(30),
        min_prefix_events: 4,
        min_prefix_distinct: 2,
        ..FindSpaceConfig::default()
    }
}

/// Bitwise equality of two candidate lists: same indices, same score bits.
fn assert_bitwise(a: &[SplitCandidate], b: &[SplitCandidate]) -> TestCaseResult {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.index, y.index);
        prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
    Ok(())
}

/// An arbitrary trace whose timestamps may repeat (several events in the
/// same virtual instant — e.g. a jump plus its first observation) and
/// whose gaps vary, exercising `l_min` window edges.
fn arb_dup_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u32..8, 0u64..3), 2..120).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(label, gap)| {
                t += gap; // gap 0 → duplicate timestamp
                ev(t, label)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn findspace_fast_equals_naive(events in arb_trace()) {
        let cfg = fs_config();
        let fast: Vec<_> = find_space(&events, &cfg).into_iter().collect();
        assert_bitwise(&fast, &find_space_naive(&events, &cfg, 1))?;
    }

    #[test]
    fn findspace_split_index_is_valid(events in arb_trace()) {
        let cfg = fs_config();
        if let Some(split) = find_space(&events, &cfg) {
            prop_assert!(split.index >= cfg.min_prefix_events);
            prop_assert!(split.index < events.len());
            prop_assert!(split.score < cfg.max_score);
            // l_min guarantee: at least l_min of trace remains after the
            // split.
            let remaining = events[events.len() - 1].time.since(events[split.index].time);
            prop_assert!(remaining >= VirtualDuration::ZERO);
        }
    }

    #[test]
    fn findspace_fast_equals_naive_with_duplicate_timestamps(
        events in arb_dup_trace(),
        l_min_secs in 0u64..80,
    ) {
        // The engine and the naive scorer must agree on degenerate
        // clocks too: repeated timestamps, zero-length windows, and
        // l_min anywhere from 0 (every suffix admissible) past the whole
        // trace span (no suffix admissible).
        let mut cfg = fs_config();
        cfg.l_min = VirtualDuration::from_secs(l_min_secs);
        let fast: Vec<_> = find_space(&events, &cfg).into_iter().collect();
        assert_bitwise(&fast, &find_space_naive(&events, &cfg, 1))?;
    }

    #[test]
    fn findspace_engine_incremental_equals_naive_at_every_step(
        events in arb_dup_trace(),
        chunk in 1usize..=17,
        l_min_secs in 0u64..80,
    ) {
        // Feeding the trace to the persistent engine in arbitrary chunk
        // sizes must reproduce the naive oracle *bit-identically* on
        // every prefix — same indices, same score bits — including under
        // duplicate timestamps and degenerate l_min windows.
        let mut cfg = fs_config();
        cfg.l_min = VirtualDuration::from_secs(l_min_secs);
        let mut engine = FindSpaceEngine::new(cfg.clone());
        let cache = SimilarityCache::new();
        let mut end = 0usize;
        while end < events.len() {
            end = (end + chunk).min(events.len());
            engine.extend_from(&events[..end], &cache);
            prop_assert_eq!(engine.len(), end);
            assert_bitwise(&engine.analyze(5), &find_space_naive(&events[..end], &cfg, 5))?;
        }
    }

    #[test]
    fn findspace_engine_reset_matches_fresh_engine(
        events in arb_dup_trace(),
        rebase_num in 0usize..100,
    ) {
        // Simulated re-dedication: after an accepted split (or a device
        // replacement) the analysis window rebases, the engine resets and
        // is re-fed the new window. That must be indistinguishable from a
        // brand-new engine — and from the naive oracle.
        let cfg = fs_config();
        let rebase = rebase_num * events.len().saturating_sub(1) / 100;
        let cache = SimilarityCache::new();
        let mut reused = FindSpaceEngine::new(cfg.clone());
        reused.extend_from(&events, &cache);
        let _ = reused.analyze(5);
        reused.reset();
        prop_assert!(reused.is_empty());
        reused.extend_from(&events[rebase..], &cache);
        let mut fresh = FindSpaceEngine::new(cfg.clone());
        fresh.extend_from(&events[rebase..], &SimilarityCache::new());
        let a = reused.analyze(5);
        assert_bitwise(&a, &fresh.analyze(5))?;
        assert_bitwise(&a, &find_space_naive(&events[rebase..], &cfg, 5))?;
    }

    #[test]
    fn findspace_split_is_valid_with_duplicate_timestamps(events in arb_dup_trace()) {
        let cfg = fs_config();
        if let Some(split) = find_space(&events, &cfg) {
            prop_assert!(split.index >= cfg.min_prefix_events);
            prop_assert!(split.index < events.len());
            prop_assert!(split.score < cfg.max_score);
        }
    }

    #[test]
    fn findspace_is_invariant_under_label_permutation(
        events in arb_trace(),
        offset in 1u32..50
    ) {
        // Renaming abstract states (consistently) must not change the
        // split index: the algorithm sees only identities and similarity.
        let cfg = fs_config();
        let renamed: Vec<TraceEvent> = events
            .iter()
            .enumerate()
            .map(|(i, e)| ev(i as u64 * 3, e.screen.0 + offset * 100))
            .collect();
        let a = find_space(&events, &cfg).map(|s| s.index);
        let b = find_space(&renamed, &cfg).map(|s| s.index);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn jaccard_laws(
        // Different id ranges give sets of different word lengths.
        a in proptest::collection::btree_set(0u32..64, 0..40),
        b in proptest::collection::btree_set(0u32..320, 0..40),
        c in proptest::collection::btree_set(0u32..130, 0..40),
    ) {
        let bits = |s: &BTreeSet<u32>| {
            let mut m = MethodSet::default();
            m.extend(s.iter().map(|&i| MethodId(i)));
            m
        };
        let (ma, mb, mc) = (bits(&a), bits(&b), bits(&c));
        prop_assert_eq!(ma.intersection_len(&mb), a.intersection(&b).count());
        let j = jaccard(&ma, &mb);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((j - jaccard(&mb, &ma)).abs() < 1e-12);
        prop_assert_eq!(jaccard(&ma, &ma), 1.0);
        let ajs = average_jaccard(&[ma, mb, mc]);
        prop_assert!((0.0..=1.0).contains(&ajs));
    }

    #[test]
    fn curve_lookups_are_monotone(
        counts in proptest::collection::vec(1usize..50, 1..40)
    ) {
        // Build a monotone curve from random increments.
        let mut covered = 0;
        let curve: Vec<CurvePoint> = counts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                covered += c;
                CurvePoint {
                    time: VirtualTime::from_secs(10 * (i as u64 + 1)),
                    covered,
                    machine_time: VirtualDuration::from_secs(10 * (i as u64 + 1)),
                }
            })
            .collect();
        let mut prev = 0;
        for t in (0..=curve.len() as u64 * 10 + 10).step_by(5) {
            let at = coverage_at(&curve, VirtualTime::from_secs(t));
            prop_assert!(at >= prev);
            prev = at;
        }
        // time_to_reach is consistent with coverage_at.
        if let Some(t) = time_to_reach(&curve, covered) {
            prop_assert_eq!(coverage_at(&curve, t), covered);
        }
        prop_assert_eq!(time_to_reach(&curve, covered + 1), None);
    }

    #[test]
    fn partition_is_a_disjoint_family(
        edges in proptest::collection::vec((0u64..16, 0u64..16, 0.05f64..1.0), 4..80)
    ) {
        let mut g = StochasticDigraph::new();
        for (a, b, w) in &edges {
            if a != b {
                g.add_edge(*a, *b, *w).unwrap();
            }
        }
        let g = g.normalized();
        let clusters = partition_graph(&g, &PartitionConfig::default());
        // Disjoint and drawn from the node set.
        let nodes: BTreeSet<u64> = g.nodes().collect();
        let mut seen = BTreeSet::new();
        for c in &clusters {
            for n in c {
                prop_assert!(nodes.contains(n));
                prop_assert!(seen.insert(*n), "node {n} in two clusters");
            }
        }
    }
}

/// Statistical validation of Theorem 1 at the proven sample complexity.
/// Not a proptest: the randomness is the subject under test.
#[test]
fn theorem1_separation_succeeds_at_prescribed_samples() {
    for n in [6usize, 10] {
        let cfg = CliquePairConfig { n, alpha: 16.0 };
        let samples = required_samples(n, 24.0);
        let rate = separation_success_rate(&cfg, samples, 15, 99);
        assert!(rate >= 0.85, "n={n}: success rate {rate} below 0.85");
    }
}

#[test]
fn theorem1_separation_fails_when_starved() {
    let cfg = CliquePairConfig { n: 12, alpha: 16.0 };
    let rate = separation_success_rate(&cfg, 40, 15, 5);
    assert!(rate <= 0.5, "starved rate {rate} too high");
}

mod campaign_props {
    use std::sync::Arc;

    use proptest::prelude::*;

    use taopt::campaign::{run_campaign, CampaignApp, CampaignConfig, KillEvent};
    use taopt::session::{RunMode, SessionConfig};
    use taopt_app_sim::{generate_app, GeneratorConfig};
    use taopt_tools::ToolKind;
    use taopt_ui_model::VirtualDuration;

    /// A tiny campaign: `n` two-instance apps with short sessions, so a
    /// proptest case finishes in milliseconds of host time.
    pub fn tiny_apps(n: usize, seed: u64) -> Vec<CampaignApp> {
        (0..n)
            .map(|i| {
                let mode = if i % 3 == 2 {
                    RunMode::TaoptResource
                } else {
                    RunMode::TaoptDuration
                };
                let tool = if i % 2 == 0 {
                    ToolKind::Monkey
                } else {
                    ToolKind::Ape
                };
                let mut config = SessionConfig::new(tool, mode);
                config.instances = 2;
                config.duration = VirtualDuration::from_mins(3);
                config.tick = VirtualDuration::from_secs(10);
                config.stall_timeout = VirtualDuration::from_secs(60);
                config.seed = seed.wrapping_add(i as u64);
                config.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
                config.analyzer.analysis_interval = VirtualDuration::from_secs(20);
                if mode == RunMode::TaoptResource {
                    config.machine_budget = Some(VirtualDuration::from_mins(4));
                }
                let name = format!("p{i}");
                CampaignApp {
                    app: Arc::new(
                        generate_app(&GeneratorConfig::small(&name, seed ^ (i as u64 + 1)))
                            .unwrap(),
                    ),
                    name,
                    config,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn no_starvation_dmax_and_termination_under_lease_churn(
            n_apps in 2usize..5,
            capacity in 1usize..4,
            host_threads in 1usize..4,
            seed in 0u64..1_000,
        ) {
            // Even with fewer devices than apps the rotating fair lease +
            // starvation revocation must run every session to completion.
            let config = CampaignConfig {
                host_threads,
                capacity: Some(capacity),
                ..CampaignConfig::default()
            };
            let result = run_campaign(tiny_apps(n_apps, seed), &config);
            prop_assert!(result.rounds < 10_000, "campaign failed to converge");
            prop_assert_eq!(result.lease_conflicts, 0);
            prop_assert!(result.peak_active <= capacity);
            prop_assert_eq!(result.farm_active_at_end, 0);
            for app in &result.apps {
                // No starvation: every app eventually held ≥ 1 device and
                // ran its whole session.
                prop_assert!(
                    !app.session.instances.is_empty(),
                    "{} never received a device",
                    app.name
                );
                prop_assert!(
                    app.session.union_coverage() > 0,
                    "{} held devices but covered nothing",
                    app.name
                );
                // d_max never exceeded.
                prop_assert!(
                    app.session.peak_concurrency() <= 2,
                    "{} exceeded its d_max",
                    app.name
                );
            }
        }

        #[test]
        fn killing_devices_leaves_no_orphaned_subspaces(
            n_apps in 2usize..4,
            kills in proptest::collection::vec((2u64..15, 0u64..8), 1..3),
            seed in 0u64..1_000,
        ) {
            // k < devices kills mid-campaign: replacements restore the
            // fleet and orphan repair re-homes every confirmed subspace.
            let config = CampaignConfig {
                host_threads: 2,
                kills: kills
                    .iter()
                    .map(|&(round, victim)| KillEvent { round, victim })
                    .collect(),
                ..CampaignConfig::default()
            };
            let result = run_campaign(tiny_apps(n_apps, seed), &config);
            prop_assert!(result.rounds < 10_000);
            let lost: usize = result.apps.iter().map(|a| a.devices_lost).sum();
            prop_assert!(lost <= kills.len());
            for app in &result.apps {
                prop_assert_eq!(
                    app.unresolved_orphans,
                    0,
                    "{} finished with orphaned subspaces after {} kills",
                    app.name,
                    lost
                );
                prop_assert!(!app.session.instances.is_empty());
            }
        }
    }
}

mod chaos_campaign_props {
    use proptest::prelude::*;

    use taopt::campaign::{run_campaign, CampaignConfig};
    use taopt_chaos::{FaultPlan, FaultRates};

    use super::campaign_props::tiny_apps;

    /// Moderate random rates: low enough that campaigns stay productive,
    /// high enough that every seam fires across a test run.
    fn arb_rates() -> impl Strategy<Value = FaultRates> {
        (
            0.0f64..0.05,
            0.0f64..0.10,
            0.0f64..0.05,
            0.0f64..0.05,
            0.0f64..0.05,
            0.0f64..0.05,
            0.0f64..0.30,
        )
            .prop_map(|(loss, refusal, spike, drop, dup, delay, enf)| {
                let mut r = FaultRates::none();
                r.device_loss = loss;
                r.alloc_refusal = refusal;
                r.latency_spike = spike;
                r.event_drop = drop;
                r.event_duplicate = dup;
                r.event_delay = delay;
                r.enforcement_failure = enf;
                r
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn chaos_campaigns_terminate_and_heal_for_any_host_budget(
            n_apps in 2usize..4,
            plan_seed in 0u64..1_000,
            seed in 0u64..1_000,
            rates in arb_rates(),
        ) {
            // One fault plan, three host budgets: every run must
            // terminate, respect each app's d_max and the farm capacity,
            // leave no orphaned subspace, and — the determinism pin —
            // produce byte-identical coverage reports and identical fault
            // statistics regardless of parallelism.
            let plan = FaultPlan::new(plan_seed, rates);
            let mut reports = Vec::new();
            let mut stats = Vec::new();
            for host_threads in [1usize, 2, 4] {
                let config = CampaignConfig {
                    host_threads,
                    faults: Some(plan.clone()),
                    ..CampaignConfig::default()
                };
                let result = run_campaign(tiny_apps(n_apps, seed), &config);
                prop_assert!(result.rounds < 10_000, "chaos campaign failed to converge");
                prop_assert_eq!(result.lease_conflicts, 0);
                prop_assert!(result.peak_active <= result.capacity);
                prop_assert_eq!(result.farm_active_at_end, 0);
                for app in &result.apps {
                    prop_assert!(
                        app.session.peak_concurrency() <= 2,
                        "{} exceeded its d_max under faults",
                        app.name
                    );
                    prop_assert_eq!(
                        app.unresolved_orphans,
                        0,
                        "{} finished with orphaned subspaces",
                        app.name
                    );
                }
                reports.push(result.coverage_report());
                stats.push(result.fault_stats.clone().expect("fault plan was set"));
            }
            prop_assert_eq!(&reports[0], &reports[1], "1 vs 2 host threads diverged");
            prop_assert_eq!(&reports[0], &reports[2], "1 vs 4 host threads diverged");
            prop_assert_eq!(&stats[0], &stats[1], "fault stats diverged at 2 host threads");
            prop_assert_eq!(&stats[0], &stats[2], "fault stats diverged at 4 host threads");
        }

        #[test]
        fn an_inert_fault_plan_is_byte_equivalent_to_no_plan(
            n_apps in 2usize..4,
            seed in 0u64..1_000,
            host_threads in 1usize..4,
        ) {
            // Campaign-level inert parity: wiring the chaos layers with a
            // zero-rate plan must not perturb a single byte of the
            // deterministic coverage report.
            let plain = run_campaign(
                tiny_apps(n_apps, seed),
                &CampaignConfig { host_threads, ..CampaignConfig::default() },
            );
            let inert = run_campaign(
                tiny_apps(n_apps, seed),
                &CampaignConfig {
                    host_threads,
                    faults: Some(FaultPlan::new(seed, FaultRates::none())),
                    ..CampaignConfig::default()
                },
            );
            prop_assert_eq!(plain.coverage_report(), inert.coverage_report());
            let stats = inert.fault_stats.expect("fault plan was set");
            prop_assert_eq!(stats.total_injected(), 0);
        }
    }
}

mod coordinator_fuzz {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use taopt::analyzer::AnalyzerConfig;
    use taopt::coordinator::TestCoordinator;
    use taopt_toller::enforce::{shared_block_list, EntrypointRule, SharedBlockList};
    use taopt_toller::InstanceId;
    use taopt_ui_model::{AbstractScreenId, VirtualTime};

    /// One fuzzed coordinator operation.
    #[derive(Debug, Clone)]
    enum Op {
        Register(u32),
        Unregister(u32),
        Report { instance: u32, cluster: u64 },
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u32..6).prop_map(Op::Register),
                (0u32..6).prop_map(Op::Unregister),
                ((0u32..6), (0u64..5))
                    .prop_map(|(instance, cluster)| Op::Report { instance, cluster }),
            ],
            1..60,
        )
    }

    /// Disjoint screen sets per cluster id, so reports for the same
    /// cluster merge and reports for different clusters do not.
    fn screens_of(cluster: u64) -> BTreeSet<AbstractScreenId> {
        (0..8u64)
            .map(|i| AbstractScreenId(cluster * 100 + i))
            .collect()
    }

    fn rule_of(cluster: u64) -> EntrypointRule {
        EntrypointRule::new(AbstractScreenId(9_000), format!("tab_{cluster}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn coordinator_invariants_hold_under_fuzzing(ops in arb_ops()) {
            let mut c = TestCoordinator::new(AnalyzerConfig::resource_mode());
            let mut lists: BTreeMap<InstanceId, SharedBlockList> = BTreeMap::new();
            let mut confirmed_before = 0usize;
            for (step, op) in ops.into_iter().enumerate() {
                let now = VirtualTime::from_secs(step as u64);
                match op {
                    Op::Register(i) => {
                        let iid = InstanceId(i);
                        if let std::collections::btree_map::Entry::Vacant(e) = lists.entry(iid) {
                            let bl = shared_block_list();
                            c.register_instance(iid, bl.clone());
                            e.insert(bl);
                        }
                    }
                    Op::Unregister(i) => {
                        let iid = InstanceId(i);
                        if lists.remove(&iid).is_some() {
                            c.unregister_instance(iid);
                        }
                    }
                    Op::Report { instance, cluster } => {
                        let iid = InstanceId(instance);
                        if lists.contains_key(&iid) {
                            c.register_report(
                                iid,
                                rule_of(cluster),
                                screens_of(cluster),
                                now,
                            )
                            .expect("reported subspace is always known");
                        }
                    }
                }
                // Invariant 1: confirmed subspaces never un-confirm.
                let confirmed = c.analyzer().confirmed().count();
                prop_assert!(confirmed >= confirmed_before);
                confirmed_before = confirmed;
                // Invariant 2: a *registered* owner is never blocked from
                // its own subspace's entrypoints.
                for s in c.analyzer().confirmed() {
                    if let Some(owner) = s.owner {
                        if let Some(bl) = lists.get(&owner) {
                            let bl = bl.read();
                            for rule in &s.entrypoints {
                                prop_assert!(
                                    !bl.rules().contains(rule),
                                    "owner {owner} blocked from own {}",
                                    s.id
                                );
                            }
                        }
                    }
                }
                // Invariant 3: every confirmed subspace with a registered
                // owner has all its entrypoints blocked on every *other*
                // registered instance.
                for s in c.analyzer().confirmed() {
                    let Some(owner) = s.owner else { continue };
                    if !lists.contains_key(&owner) {
                        continue; // tombstoned/orphaned
                    }
                    for (iid, bl) in &lists {
                        if *iid == owner {
                            continue;
                        }
                        let bl = bl.read();
                        for rule in &s.entrypoints {
                            prop_assert!(
                                bl.rules().contains(rule),
                                "{iid} not blocked from {} owned by {owner}",
                                s.id
                            );
                        }
                    }
                }
            }
        }
    }
}
