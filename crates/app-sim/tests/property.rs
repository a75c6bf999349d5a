//! Property-based tests for the app simulator: generator validity across
//! the configuration space, runtime safety under arbitrary action
//! sequences, coverage monotonicity, and the dense covered-method set
//! against an ordered-set oracle.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use taopt_app_sim::{generate_app, AppBuilder, AppRuntime, GeneratorConfig, MethodId, MethodSet};
use taopt_ui_model::{Action, VirtualTime};

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        2usize..8,     // functionalities
        3usize..10,    // min screens
        0usize..8,     // extra screens above min
        1usize..8,     // activities
        0usize..4,     // local actions
        0usize..6,     // crash points
        any::<bool>(), // login
        0u64..1000,    // seed
    )
        .prop_map(|(nf, smin, extra, acts, locals, crashes, login, seed)| {
            let mut cfg = GeneratorConfig::small("prop", seed);
            cfg.n_functionalities = nf;
            cfg.min_screens_per_functionality = smin;
            cfg.max_screens_per_functionality = smin + extra;
            cfg.n_activities = acts;
            cfg.local_actions_per_screen = locals;
            cfg.crash_points = crashes;
            cfg.login = login;
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_apps_are_always_valid(cfg in arb_config()) {
        let app = generate_app(&cfg).expect("generator must produce valid apps");
        prop_assert!(app.screen_count() >= cfg.n_functionalities * cfg.min_screens_per_functionality);
        prop_assert_eq!(app.login().is_some(), cfg.login);
        // All action targets resolve and weights are sane.
        for s in app.screens() {
            for a in &s.actions {
                for t in &a.targets {
                    prop_assert!(app.screen(t.screen).is_some());
                    prop_assert!(t.weight >= 0.0 && t.weight.is_finite());
                }
            }
        }
        // Structural transition graph is stochastic.
        let g = app.structural_graph();
        for n in g.nodes() {
            let row: f64 = g.out_edges(n).map(|(_, w)| w).sum();
            prop_assert!(row == 0.0 || (row - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn random_walks_never_break_the_runtime(
        cfg in arb_config(),
        choices in proptest::collection::vec((0usize..16, 0u8..10), 1..120)
    ) {
        let app = Arc::new(generate_app(&cfg).unwrap());
        let mut rt = AppRuntime::launch(Arc::clone(&app), 1);
        rt.auto_login(VirtualTime::ZERO);
        let mut covered_before = rt.covered_methods().len();
        for (i, (pick, kind)) in choices.into_iter().enumerate() {
            let t = VirtualTime::from_secs(i as u64 + 1);
            let obs = rt.observe(t);
            let actions = obs.enabled_actions();
            let action = match kind {
                0 => Action::Back,
                1 => Action::Noop,
                _ if actions.is_empty() => Action::Back,
                _ => Action::Widget(actions[pick % actions.len()].0),
            };
            let newly = rt
                .execute(action, t)
                .expect("offered actions always execute")
                .newly_covered
                .len();
            // Coverage is monotone.
            let now = rt.covered_methods().len();
            prop_assert!(now >= covered_before);
            prop_assert_eq!(now - covered_before, newly);
            prop_assert_eq!(rt.newly_covered().len(), newly);
            covered_before = now;
            // The current screen always exists and renders.
            prop_assert!(app.screen(rt.current_screen()).is_some());
        }
    }

    #[test]
    fn observations_are_stable_between_steps(cfg in arb_config()) {
        let app = Arc::new(generate_app(&cfg).unwrap());
        let mut rt = AppRuntime::launch(app, 5);
        let a = rt.observe(VirtualTime::ZERO);
        let b = rt.observe(VirtualTime::ZERO);
        // Observing twice without executing yields the same abstract
        // screen and the same action menu.
        prop_assert_eq!(a.abstract_id(), b.abstract_id());
        let ids_a: Vec<_> = a.enabled_actions().iter().map(|(x, _)| *x).collect();
        let ids_b: Vec<_> = b.enabled_actions().iter().map(|(x, _)| *x).collect();
        prop_assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn same_seed_same_walk(cfg in arb_config(), picks in proptest::collection::vec(0usize..8, 1..40)) {
        let app = Arc::new(generate_app(&cfg).unwrap());
        let walk = |seed: u64| {
            let mut rt = AppRuntime::launch(Arc::clone(&app), seed);
            rt.auto_login(VirtualTime::ZERO);
            let mut screens = Vec::new();
            for (i, p) in picks.iter().enumerate() {
                let t = VirtualTime::from_secs(i as u64);
                let obs = rt.observe(t);
                let actions = obs.enabled_actions();
                let action = if actions.is_empty() {
                    Action::Back
                } else {
                    Action::Widget(actions[p % actions.len()].0)
                };
                rt.execute(action, t).unwrap();
                screens.push(rt.current_screen());
            }
            screens
        };
        prop_assert_eq!(walk(3), walk(3));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `MethodSet` answers every query exactly as a `BTreeSet` fed the same
    /// inserts, including ids past its initial capacity and a capacity of
    /// zero (an app without methods).
    #[test]
    fn method_set_matches_an_ordered_set(
        capacity in prop_oneof![Just(0usize), 0usize..300],
        ids in proptest::collection::vec(0u32..700, 0..200),
        probes in proptest::collection::vec(0u32..800, 0..32),
    ) {
        let mut set = MethodSet::with_capacity(capacity);
        let mut oracle = BTreeSet::new();
        for id in ids {
            prop_assert_eq!(set.insert(MethodId(id)), oracle.insert(MethodId(id)));
            prop_assert_eq!(set.len(), oracle.len());
            prop_assert_eq!(set.is_empty(), oracle.is_empty());
        }
        for id in probes {
            prop_assert_eq!(set.contains(MethodId(id)), oracle.contains(&MethodId(id)));
        }
        prop_assert!(set.iter().eq(oracle.iter().copied()));
    }
}

#[test]
fn an_app_without_methods_covers_nothing() {
    let mut b = AppBuilder::new("nomethods");
    let f = b.add_functionality("F");
    let act = b.add_activity();
    let s0 = b.add_screen(act, f, "A");
    let s1 = b.add_screen(act, f, "B");
    b.add_click(s0, s1, "w", "go");
    b.set_start(s0);
    let app = Arc::new(b.build().unwrap());
    assert_eq!(app.method_count(), 0);
    let mut rt = AppRuntime::launch(app, 1);
    let aid = rt.observe(VirtualTime::ZERO).enabled_actions()[0].0;
    let out = rt
        .execute(Action::Widget(aid), VirtualTime::from_secs(1))
        .unwrap();
    assert!(out.transitioned);
    assert!(out.newly_covered.is_empty());
    assert!(rt.covered_methods().is_empty());
    assert_eq!(rt.covered_methods().iter().count(), 0);
}
