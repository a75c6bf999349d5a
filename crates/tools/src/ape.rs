//! Ape — model-based exploration with abstraction and refinement.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use taopt_ui_model::{AbstractScreenId, Action, ActionId, ScreenObservation};

use crate::tool::TestingTool;

/// Exploration noise: probability of a uniformly random choice instead of
/// the model-guided action.
const EPSILON: f64 = 0.05;
/// Exploitation mix: probability of re-exercising an already-tried action
/// instead of chasing the frontier (the real Ape balances refinement of
/// its model against expansion, and its state abstraction is imperfect,
/// so it re-executes known actions regularly).
const EXPLOIT_PROB: f64 = 0.25;
/// Maximum planned path length towards a frontier state.
const MAX_PLAN: usize = 5;

#[derive(Debug, Default, Clone)]
struct ActionStats {
    tries: u32,
    /// Observed successor states and counts.
    outcomes: HashMap<AbstractScreenId, u32>,
}

impl ActionStats {
    /// The most frequently observed successor (ties broken by id for
    /// determinism).
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
    /// Actions seen enabled on this state (last observation wins).
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

/// A reimplementation of Ape's model-based strategy (Gu et al., ICSE'19).
///
/// Ape dynamically builds a finite-state model over *abstract* UI states
/// and steers exploration towards the **frontier**: unexecuted actions
/// first, and when the current state is exhausted, a model-guided walk
/// (shortest path over learned transitions) towards the nearest state that
/// still has unexecuted actions.
///
/// The policy is nearly deterministic given the same app: two Ape
/// instances with different seeds chase the same frontier in nearly the
/// same order — which is exactly why the paper finds Ape suffers the
/// *most* from overlapping explorations in uncoordinated parallel runs
/// (§3.2, Fig. 3) and benefits the most from TaOPT (Table 6).
#[derive(Debug)]
pub struct Ape {
    rng: StdRng,
    model: HashMap<AbstractScreenId, StateModel>,
}

impl Ape {
    /// Creates an Ape instance with the given random seed.
    pub fn new(seed: u64) -> Self {
        Ape {
            rng: StdRng::seed_from_u64(seed),
            model: HashMap::new(),
        }
    }

    /// Number of abstract states in the learned model.
    pub fn model_size(&self) -> usize {
        self.model.len()
    }

    /// BFS over the learned model from `start` to any state with frontier
    /// actions; returns the first action of the path.
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
                // Deterministic expansion order (HashMap iteration order
                // would otherwise leak OS entropy into the tool's policy).
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
}

impl TestingTool for Ape {
    fn name(&self) -> &'static str {
        "Ape"
    }

    fn next_action(&mut self, obs: &ScreenObservation) -> Action {
        let state_id = obs.abstract_id();
        let enabled = obs.enabled_actions();
        if enabled.is_empty() {
            return Action::Back;
        }
        // Register/update the state.
        {
            let state = self.model.entry(state_id).or_default();
            state.visits += 1;
            state.known_actions = enabled.iter().map(|(a, _)| *a).collect();
        }
        // ε-greedy noise.
        if self.rng.gen::<f64>() < EPSILON {
            let (id, _) = enabled.choose(&mut self.rng).expect("nonempty");
            return Action::Widget(*id);
        }
        // Exploitation/refinement mix.
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
        // 1. Unexecuted action on the current state, in document order
        //    (deterministic frontier chasing — the source of cross-seed
        //    convergence the paper observes).
        let state = &self.model[&state_id];
        for (id, _) in &enabled {
            let tried = state.actions.get(id).map(|s| s.tries).unwrap_or(0);
            if tried == 0 {
                return Action::Widget(*id);
            }
        }
        // 2. Take the first step of a shortest learned path towards the
        //    nearest frontier state (re-planned on every call, since the
        //    next observation may differ from the predicted successor).
        if let Some(id) = self.plan_to_frontier(state_id) {
            if enabled.iter().any(|(a, _)| *a == id) {
                return Action::Widget(id);
            }
        }
        // 3. No reachable frontier: fall back to a random excursion (the
        //    real Ape degrades to fuzzing when its model offers nothing),
        //    with an occasional Back to unwind.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use taopt_app_sim::{generate_app, AppRuntime, GeneratorConfig};
    use taopt_ui_model::VirtualTime;

    fn runtime(seed: u64) -> AppRuntime {
        let app = Arc::new(generate_app(&GeneratorConfig::small("ape", 2)).unwrap());
        AppRuntime::launch(app, seed)
    }

    fn drive(tool: &mut Ape, rt: &mut AppRuntime, steps: usize) -> usize {
        let mut t = 0u64;
        for _ in 0..steps {
            let obs = rt.observe(VirtualTime::from_secs(t));
            let from = obs.abstract_id();
            let action = tool.next_action(&obs);
            t += 1;
            if let Ok(out) = rt.execute(action, VirtualTime::from_secs(t)) {
                tool.on_transition(from, action, &out.observation);
                if out.crash.is_some() {
                    tool.on_crash();
                }
            }
        }
        rt.visited_screens().len()
    }

    #[test]
    fn prefers_unexecuted_actions_first() {
        let mut ape = Ape::new(1);
        let mut rt = runtime(1);
        let obs = rt.observe(VirtualTime::ZERO);
        let first = ape.next_action(&obs);
        assert!(matches!(first, Action::Widget(_)));
    }

    #[test]
    fn builds_a_model_while_exploring() {
        let mut ape = Ape::new(3);
        let mut rt = runtime(3);
        drive(&mut ape, &mut rt, 300);
        assert!(
            ape.model_size() >= 8,
            "model has {} states",
            ape.model_size()
        );
    }

    #[test]
    fn explores_most_of_the_app() {
        let mut ape = Ape::new(4);
        let mut rt = runtime(4);
        let visited = drive(&mut ape, &mut rt, 600);
        let total = rt.app().screen_count();
        assert!(
            visited * 2 >= total,
            "Ape visited {visited}/{total} screens in 600 steps"
        );
    }

    #[test]
    fn two_seeds_converge_on_similar_coverage() {
        // The paper's key observation: Ape instances overlap heavily.
        let mut a = Ape::new(100);
        let mut ra = runtime(100);
        drive(&mut a, &mut ra, 500);
        let mut b = Ape::new(200);
        let mut rb = runtime(200);
        drive(&mut b, &mut rb, 500);
        let sa = ra.visited_screens();
        let sb = rb.visited_screens();
        let inter = sa.intersection(sb).count() as f64;
        let union = sa.union(sb).count() as f64;
        assert!(
            inter / union > 0.5,
            "Ape instances should overlap heavily: {}",
            inter / union
        );
    }
}
