//! Badge — multi-armed-bandit event prioritization (extension tool).
//!
//! The paper evaluates three tools but cites Badge (Ran et al., ICSE'23),
//! which "prioritizes UI events with hierarchical multi-armed bandits…
//! balancing between exploiting known promising paths and exploring new UI
//! states" (§9). This reimplementation treats each (abstract screen,
//! action) pair as a bandit arm whose reward is *novelty* — whether firing
//! it produced a screen not seen before — and selects arms by UCB1.
//!
//! Badge is **not** part of the paper's evaluation matrix; it exists to
//! demonstrate TaOPT's tool-agnosticism on a fourth, unseen exploration
//! policy (see the `extended_tools` harness binary).

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use taopt_ui_model::{AbstractScreenId, Action, ActionId, ScreenObservation};

use crate::tool::TestingTool;

/// UCB exploration constant.
const UCB_C: f64 = 1.2;
/// Probability of pressing Back to diversify walks.
const BACK_PROB: f64 = 0.05;

#[derive(Debug, Default, Clone, Copy)]
struct Arm {
    pulls: u32,
    reward: f64,
}

impl Arm {
    fn ucb(&self, total_pulls: u32) -> f64 {
        if self.pulls == 0 {
            return f64::MAX;
        }
        let mean = self.reward / self.pulls as f64;
        mean + UCB_C * ((total_pulls.max(2) as f64).ln() / self.pulls as f64).sqrt()
    }
}

/// A Badge-style bandit explorer.
#[derive(Debug)]
pub struct Badge {
    rng: StdRng,
    arms: HashMap<(AbstractScreenId, ActionId), Arm>,
    state_pulls: HashMap<AbstractScreenId, u32>,
    seen_states: HashSet<AbstractScreenId>,
    last_arm: Option<(AbstractScreenId, ActionId)>,
}

impl Badge {
    /// Creates a Badge instance with the given random seed.
    pub fn new(seed: u64) -> Self {
        Badge {
            rng: StdRng::seed_from_u64(seed),
            arms: HashMap::new(),
            state_pulls: HashMap::new(),
            seen_states: HashSet::new(),
            last_arm: None,
        }
    }

    /// Number of distinct abstract states observed.
    pub fn states_seen(&self) -> usize {
        self.seen_states.len()
    }
}

impl TestingTool for Badge {
    fn name(&self) -> &'static str {
        "Badge"
    }

    fn next_action(&mut self, obs: &ScreenObservation) -> Action {
        let state = obs.abstract_id();
        self.seen_states.insert(state);
        if self.rng.gen::<f64>() < BACK_PROB {
            self.last_arm = None;
            return Action::Back;
        }
        let enabled = obs.enabled_actions();
        if enabled.is_empty() {
            self.last_arm = None;
            return Action::Back;
        }
        let total = self.state_pulls.get(&state).copied().unwrap_or(0);
        // Select the highest-UCB arm; break ties uniformly among the
        // untried arms so seeds diversify the first sweep.
        let untried: Vec<ActionId> = enabled
            .iter()
            .map(|(a, _)| *a)
            .filter(|a| !self.arms.contains_key(&(state, *a)))
            .collect();
        let pick = if let Some(a) = untried.choose(&mut self.rng) {
            *a
        } else {
            let mut best = enabled[0].0;
            let mut best_ucb = f64::MIN;
            for (a, _) in enabled {
                let ucb = self
                    .arms
                    .get(&(state, *a))
                    .copied()
                    .unwrap_or_default()
                    .ucb(total);
                if ucb > best_ucb {
                    best_ucb = ucb;
                    best = *a;
                }
            }
            best
        };
        self.last_arm = Some((state, pick));
        Action::Widget(pick)
    }

    fn on_transition(&mut self, from: AbstractScreenId, action: Action, to: &ScreenObservation) {
        let novel = self.seen_states.insert(to.abstract_id());
        if let (Some((state, arm_action)), Action::Widget(fired)) = (self.last_arm, action) {
            if state == from && arm_action == fired {
                let arm = self.arms.entry((state, arm_action)).or_default();
                arm.pulls += 1;
                if novel {
                    arm.reward += 1.0;
                }
                *self.state_pulls.entry(state).or_insert(0) += 1;
            }
        }
        self.last_arm = None;
    }

    fn on_crash(&mut self) {
        self.last_arm = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use taopt_app_sim::{generate_app, AppRuntime, GeneratorConfig};
    use taopt_ui_model::VirtualTime;

    fn drive(seed: u64, steps: usize) -> (Badge, AppRuntime) {
        let app = Arc::new(generate_app(&GeneratorConfig::small("badge", 4)).unwrap());
        let mut rt = AppRuntime::launch(app, seed);
        let mut tool = Badge::new(seed);
        let mut t = 0u64;
        for _ in 0..steps {
            let obs = rt.observe(VirtualTime::from_secs(t));
            let from = obs.abstract_id();
            let a = tool.next_action(&obs);
            t += 1;
            if let Ok(out) = rt.execute(a, VirtualTime::from_secs(t)) {
                tool.on_transition(from, a, &out.observation);
                if out.crash.is_some() {
                    tool.on_crash();
                }
            }
        }
        (tool, rt)
    }

    #[test]
    fn untried_arms_have_infinite_ucb() {
        let arm = Arm::default();
        assert_eq!(arm.ucb(100), f64::MAX);
        let pulled = Arm {
            pulls: 10,
            reward: 5.0,
        };
        assert!(pulled.ucb(100) > 0.5);
        assert!(pulled.ucb(100) < f64::MAX);
    }

    #[test]
    fn explores_a_decent_share_of_the_app() {
        let (tool, rt) = drive(1, 500);
        let total = rt.app().screen_count();
        let visited = rt.visited_screens().len();
        assert!(
            visited * 2 >= total,
            "Badge visited {visited}/{total} in 500 steps"
        );
        assert!(tool.states_seen() >= visited / 2);
    }

    #[test]
    fn rewards_accumulate_on_novelty() {
        let (tool, _) = drive(2, 300);
        let rewarded = tool.arms.values().filter(|a| a.reward > 0.0).count();
        assert!(rewarded > 5, "only {rewarded} rewarded arms");
        // Rewards never exceed pulls.
        for arm in tool.arms.values() {
            assert!(arm.reward <= arm.pulls as f64);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (a, ra) = drive(9, 200);
        let (b, rb) = drive(9, 200);
        assert_eq!(a.states_seen(), b.states_seen());
        assert_eq!(ra.visited_screens(), rb.visited_screens());
    }
}
