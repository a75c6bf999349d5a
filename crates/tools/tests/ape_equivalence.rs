//! The incremental [`Ape`] against a transcription of the policy it
//! replaced: a model of hashed maps whose frontier search collects and
//! sorts every state's actions and scans every action's outcome map on
//! each planning step.
//!
//! Both tools see the same observations, with block rules installed and
//! removed mid-run (widgets disabled by resource id, as the Toller shim
//! does), and must choose the same action at every step.
//!
//! ```sh
//! cargo test --release -q -p taopt-tools --test ape_equivalence
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use taopt_app_sim::{generate_app, AppRuntime, GeneratorConfig};
use taopt_tools::{Ape, TestingTool};
use taopt_ui_model::{
    AbstractScreenId, Action, ActionId, ScreenObservation, VirtualDuration, VirtualTime,
};

const EPSILON: f64 = 0.05;
const EXPLOIT_PROB: f64 = 0.25;
const MAX_PLAN: usize = 5;

#[derive(Debug, Default, Clone)]
struct ActionStats {
    tries: u32,
    outcomes: HashMap<AbstractScreenId, u32>,
}

impl ActionStats {
    fn likely_successor(&self) -> Option<AbstractScreenId> {
        self.outcomes
            .iter()
            .max_by_key(|(s, c)| (**c, *s))
            .map(|(s, _)| *s)
    }
}

#[derive(Debug, Default, Clone)]
struct StateModel {
    visits: u32,
    known_actions: Vec<ActionId>,
    actions: HashMap<ActionId, ActionStats>,
}

impl StateModel {
    fn has_frontier(&self) -> bool {
        self.known_actions
            .iter()
            .any(|a| self.actions.get(a).map(|s| s.tries == 0).unwrap_or(true))
    }
}

/// The reference policy, as `Ape` implemented it before its model became
/// incremental.
#[derive(Debug)]
struct ReferenceApe {
    rng: StdRng,
    model: HashMap<AbstractScreenId, StateModel>,
}

impl ReferenceApe {
    fn new(seed: u64) -> Self {
        ReferenceApe {
            rng: StdRng::seed_from_u64(seed),
            model: HashMap::new(),
        }
    }

    fn plan_to_frontier(&self, start: AbstractScreenId) -> Option<ActionId> {
        let mut queue = VecDeque::new();
        let mut seen = HashSet::new();
        queue.push_back((start, None, 0));
        seen.insert(start);
        while let Some((state, first, depth)) = queue.pop_front() {
            if state != start {
                if let Some(m) = self.model.get(&state) {
                    if m.has_frontier() {
                        return first;
                    }
                }
            }
            if depth >= MAX_PLAN {
                continue;
            }
            if let Some(m) = self.model.get(&state) {
                let mut actions: Vec<(&ActionId, &ActionStats)> = m.actions.iter().collect();
                actions.sort_by_key(|(aid, _)| **aid);
                for (aid, stats) in actions {
                    if let Some(succ) = stats.likely_successor() {
                        if seen.insert(succ) {
                            queue.push_back((succ, first.or(Some(*aid)), depth + 1));
                        }
                    }
                }
            }
        }
        None
    }

    fn next_action(&mut self, obs: &ScreenObservation) -> Action {
        let state_id = obs.abstract_id();
        let enabled = obs.enabled_actions().to_vec();
        if enabled.is_empty() {
            return Action::Back;
        }
        {
            let state = self.model.entry(state_id).or_default();
            state.visits += 1;
            state.known_actions = enabled.iter().map(|(a, _)| *a).collect();
        }
        if self.rng.gen::<f64>() < EPSILON {
            let (id, _) = enabled.choose(&mut self.rng).expect("nonempty");
            return Action::Widget(*id);
        }
        if self.rng.gen::<f64>() < EXPLOIT_PROB {
            let tried: Vec<ActionId> = {
                let st = self.model.get(&state_id);
                enabled
                    .iter()
                    .map(|(a, _)| *a)
                    .filter(|a| {
                        st.and_then(|m| m.actions.get(a))
                            .map(|s| s.tries > 0)
                            .unwrap_or(false)
                    })
                    .collect()
            };
            if let Some(id) = tried.choose(&mut self.rng) {
                return Action::Widget(*id);
            }
        }
        let state = &self.model[&state_id];
        for (id, _) in &enabled {
            let tried = state.actions.get(id).map(|s| s.tries).unwrap_or(0);
            if tried == 0 {
                return Action::Widget(*id);
            }
        }
        if let Some(id) = self.plan_to_frontier(state_id) {
            if enabled.iter().any(|(a, _)| *a == id) {
                return Action::Widget(id);
            }
        }
        if self.rng.gen::<f64>() < 0.2 {
            return Action::Back;
        }
        enabled
            .choose(&mut self.rng)
            .map(|(id, _)| Action::Widget(*id))
            .unwrap_or(Action::Back)
    }

    fn on_transition(&mut self, from: AbstractScreenId, action: Action, to: &ScreenObservation) {
        if let Action::Widget(id) = action {
            let st = self.model.entry(from).or_default();
            let stats = st.actions.entry(id).or_default();
            stats.tries += 1;
            *stats.outcomes.entry(to.abstract_id()).or_insert(0) += 1;
        }
        self.model.entry(to.abstract_id()).or_default();
    }
}

/// Block rules as the Toller shim applies them: (screen, resource id).
type Rules = Vec<(AbstractScreenId, Arc<str>)>;

fn enforce(rules: &Rules, obs: &mut ScreenObservation) {
    let screen = obs.abstract_id();
    for (s, rid) in rules {
        if *s == screen {
            obs.hierarchy.disable_by_resource_id(rid);
        }
    }
}

/// Drives both tools over one app for `steps` steps and returns how many
/// steps fired a widget. Rules go in at a third of the run (the first
/// widget of every screen seen so far, up to eight screens) and half of
/// them come out at two thirds.
fn drive_both(app_seed: u64, seed: u64, steps: usize) -> usize {
    let app = Arc::new(generate_app(&GeneratorConfig::small("ape-eq", app_seed)).unwrap());
    let mut rt = AppRuntime::launch(Arc::clone(&app), seed);
    let (mut new, mut reference) = (Ape::new(seed), ReferenceApe::new(seed));
    let mut rules: Rules = Vec::new();
    let mut candidates: Rules = Vec::new();
    let mut t = VirtualTime::ZERO;
    let mut obs = rt.observe(t);
    let mut widgets = 0;
    for step in 0..steps {
        if step == steps / 3 {
            rules = candidates.iter().take(8).cloned().collect();
            assert!(!rules.is_empty(), "some screen offers a widget");
        }
        if step == 2 * steps / 3 {
            rules.truncate(rules.len() / 2);
        }
        enforce(&rules, &mut obs);
        if let Some(a) = obs.hierarchy.affordances().first() {
            let rule = (
                obs.abstract_id(),
                a.resource_id.clone().expect("widgets have rids"),
            );
            if !candidates.iter().any(|(s, _)| *s == rule.0) {
                candidates.push(rule);
            }
        }
        let action = new.next_action(&obs);
        assert_eq!(
            action,
            reference.next_action(&obs),
            "app {app_seed}, seed {seed}, step {step}"
        );
        widgets += usize::from(matches!(action, Action::Widget(_)));
        t += VirtualDuration::from_secs(1);
        let out = rt.execute(action, t).expect("offered actions execute");
        let mut next = out.observation;
        enforce(&rules, &mut next);
        new.on_transition(obs.abstract_id(), action, &next);
        reference.on_transition(obs.abstract_id(), action, &next);
        if out.crash.is_some() {
            new.on_crash();
        }
        obs = next;
    }
    assert_eq!(new.model_size(), reference.model.len());
    widgets
}

#[test]
fn incremental_ape_picks_every_action_the_reference_picks() {
    for app_seed in [11, 12, 13] {
        for seed in [1, 2, 3] {
            let widgets = drive_both(app_seed, seed, 3_000);
            assert!(widgets > 2_000, "the run exercises the model: {widgets}");
        }
    }
}
