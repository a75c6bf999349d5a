//! WCTester — activity-transition prioritizing weighted random testing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taopt_ui_model::idhash::IdMap;
use taopt_ui_model::{AbstractScreenId, Action, ActionId, ActivityId, ScreenObservation};

use crate::tool::TestingTool;

/// Weight of an action never tried before.
const W_UNKNOWN: f64 = 6.0;
/// Weight floor for actions that never changed the activity.
const W_LOCAL: f64 = 1.0;
/// Extra weight per observed activity transition (saturating).
const W_ACTIVITY_BONUS: f64 = 4.0;
/// Probability of pressing Back to escape a screen.
const BACK_PROB: f64 = 0.05;
/// Uniform exploration noise, keeping the tool out of tarpits.
const EPSILON: f64 = 0.10;

#[derive(Debug, Default, Clone, Copy)]
struct ActionRecord {
    tries: u32,
    activity_changes: u32,
}

/// A reimplementation of WCTester's strategy (Zheng et al., ICSE-SEIP'17).
///
/// WCTester performs weighted random selection and "prioritizes the UI
/// actions that trigger Activity transitions" (§3.3) — actions observed to
/// change the foreground activity earn a large weight bonus, untried
/// actions get an optimistic prior, and actions that keep the activity
/// unchanged decay towards a floor weight.
#[derive(Debug)]
pub struct WcTester {
    rng: StdRng,
    records: IdMap<ActionId, ActionRecord>,
    last_activity: Option<ActivityId>,
    /// The current screen's action weights, reused from step to step.
    weights: Vec<f64>,
}

impl WcTester {
    /// Creates a WCTester instance with the given random seed.
    pub fn new(seed: u64) -> Self {
        WcTester {
            rng: StdRng::seed_from_u64(seed),
            records: IdMap::default(),
            last_activity: None,
            weights: Vec::new(),
        }
    }
}

/// An action's selection weight given what the tool has learned.
fn weight(records: &IdMap<ActionId, ActionRecord>, id: ActionId) -> f64 {
    match records.get(&id) {
        None => W_UNKNOWN,
        Some(r) if r.tries == 0 => W_UNKNOWN,
        Some(r) => {
            let rate = r.activity_changes as f64 / r.tries as f64;
            W_LOCAL + W_ACTIVITY_BONUS * rate
        }
    }
}

impl TestingTool for WcTester {
    fn name(&self) -> &'static str {
        "WCTester"
    }

    fn next_action(&mut self, obs: &ScreenObservation) -> Action {
        if self.rng.gen::<f64>() < BACK_PROB {
            return Action::Back;
        }
        let enabled = obs.enabled_actions();
        if enabled.is_empty() {
            return Action::Back;
        }
        if self.rng.gen::<f64>() < EPSILON {
            let i = self.rng.gen_range(0..enabled.len());
            let (id, _) = enabled[i];
            self.last_activity = Some(obs.activity);
            return Action::Widget(id);
        }
        self.weights.clear();
        self.weights
            .extend(enabled.iter().map(|(id, _)| weight(&self.records, *id)));
        let total: f64 = self.weights.iter().sum();
        let mut pick = self.rng.gen::<f64>() * total;
        for ((id, _), w) in enabled.iter().zip(&self.weights) {
            if pick < *w {
                self.last_activity = Some(obs.activity);
                return Action::Widget(*id);
            }
            pick -= w;
        }
        let (id, _) = enabled[enabled.len() - 1];
        self.last_activity = Some(obs.activity);
        Action::Widget(id)
    }

    fn on_transition(&mut self, _from: AbstractScreenId, action: Action, to: &ScreenObservation) {
        if let Action::Widget(id) = action {
            let rec = self.records.entry(id).or_default();
            rec.tries += 1;
            if let Some(last) = self.last_activity {
                if last != to.activity {
                    rec.activity_changes += 1;
                }
            }
        }
        self.last_activity = Some(to.activity);
    }

    fn on_crash(&mut self) {
        self.last_activity = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use taopt_app_sim::{generate_app, AppRuntime, GeneratorConfig};
    use taopt_ui_model::VirtualTime;

    #[test]
    fn untried_actions_have_optimistic_weight() {
        let w = WcTester::new(1);
        assert_eq!(weight(&w.records, ActionId(5)), W_UNKNOWN);
    }

    #[test]
    fn activity_changing_actions_gain_weight() {
        let mut w = WcTester::new(1);
        w.records.insert(
            ActionId(1),
            ActionRecord {
                tries: 10,
                activity_changes: 9,
            },
        );
        w.records.insert(
            ActionId(2),
            ActionRecord {
                tries: 10,
                activity_changes: 0,
            },
        );
        assert!(weight(&w.records, ActionId(1)) > 4.0 * weight(&w.records, ActionId(2)));
    }

    #[test]
    fn learns_from_transitions() {
        let app = Arc::new(generate_app(&GeneratorConfig::small("wc", 6)).unwrap());
        let mut rt = AppRuntime::launch(app, 6);
        let mut tool = WcTester::new(6);
        let mut t = 0u64;
        for _ in 0..300 {
            let obs = rt.observe(VirtualTime::from_secs(t));
            let from = obs.abstract_id();
            let a = tool.next_action(&obs);
            t += 1;
            if let Ok(out) = rt.execute(a, VirtualTime::from_secs(t)) {
                tool.on_transition(from, a, &out.observation);
            }
        }
        // Some action must have been observed to change activities.
        let learned = tool.records.values().any(|r| r.activity_changes > 0);
        assert!(learned, "WCTester should discover activity transitions");
    }

    #[test]
    fn deterministic_under_seed() {
        let app = Arc::new(generate_app(&GeneratorConfig::small("wc", 6)).unwrap());
        let obs = AppRuntime::launch(app, 1).observe(VirtualTime::ZERO);
        let mut a = WcTester::new(42);
        let mut b = WcTester::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_action(&obs), b.next_action(&obs));
        }
    }
}
