//! Ape — model-based exploration with abstraction and refinement.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use taopt_ui_model::idhash::{IdMap, IdSet};
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
    /// Observed successor states and counts, in first-seen order.
    outcomes: Vec<(AbstractScreenId, u32)>,
    /// `(count, state)` of the most frequently observed successor (ties
    /// broken by the larger id for determinism), kept as outcomes come
    /// in: counts only grow, so the maximum is the old one or the state
    /// just counted.
    likely: Option<(u32, AbstractScreenId)>,
}

impl ActionStats {
    fn record(&mut self, to: AbstractScreenId) {
        let count = match self.outcomes.iter_mut().find(|(s, _)| *s == to) {
            Some((_, c)) => {
                *c += 1;
                *c
            }
            None => {
                self.outcomes.push((to, 1));
                1
            }
        };
        if self.likely.is_none_or(|best| (count, to) > best) {
            self.likely = Some((count, to));
        }
    }
}

#[derive(Debug, Default, Clone)]
struct StateModel {
    visits: u32,
    /// Actions seen enabled on this state (last observation wins).
    known_actions: Vec<ActionId>,
    /// The actions tried on this state, sorted by id: the order a
    /// frontier search expands them in.
    actions: Vec<(ActionId, ActionStats)>,
    /// Entries of `known_actions` never tried: the state is a frontier
    /// while this is non-zero.
    untried: usize,
}

impl StateModel {
    fn tried(&self, id: ActionId) -> bool {
        self.actions.binary_search_by_key(&id, |(a, _)| *a).is_ok()
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
///
/// The model is kept incrementally, so a step allocates nothing once the
/// model stops growing: each state's tried actions stay sorted by id,
/// each action's likely successor and each state's untried count are
/// updated as transitions come in, and the search queue, its visited set
/// and the exploitation list are reused from step to step.
#[derive(Debug)]
pub struct Ape {
    rng: StdRng,
    model: IdMap<AbstractScreenId, StateModel>,
    /// Frontier search queue: (state, first action of the path, depth).
    queue: VecDeque<(AbstractScreenId, Option<ActionId>, usize)>,
    seen: IdSet<AbstractScreenId>,
    /// The current state's enabled actions already tried.
    exploit: Vec<ActionId>,
}

impl Ape {
    /// Creates an Ape instance with the given random seed.
    pub fn new(seed: u64) -> Self {
        Ape {
            rng: StdRng::seed_from_u64(seed),
            model: IdMap::default(),
            queue: VecDeque::new(),
            seen: IdSet::default(),
            exploit: Vec::new(),
        }
    }

    /// Number of abstract states in the learned model.
    pub fn model_size(&self) -> usize {
        self.model.len()
    }

    /// BFS over the learned model from `start` to any state with frontier
    /// actions; returns the first action of the path. A state expands its
    /// tried actions in id order, each towards its likely successor.
    fn plan_to_frontier(&mut self, start: AbstractScreenId) -> Option<ActionId> {
        let Ape {
            model, queue, seen, ..
        } = self;
        queue.clear();
        seen.clear();
        queue.push_back((start, None, 0));
        seen.insert(start);
        while let Some((state, first, depth)) = queue.pop_front() {
            let Some(m) = model.get(&state) else {
                continue;
            };
            if state != start && m.untried > 0 {
                return first;
            }
            if depth >= MAX_PLAN {
                continue;
            }
            for (aid, stats) in &m.actions {
                if let Some((_, succ)) = stats.likely {
                    if seen.insert(succ) {
                        queue.push_back((succ, first.or(Some(*aid)), depth + 1));
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
        // Register/update the state; note its first unexecuted action in
        // document order.
        let state = self.model.entry(state_id).or_default();
        state.visits += 1;
        state.known_actions.clear();
        state.known_actions.extend(enabled.iter().map(|(a, _)| *a));
        let mut first_untried = None;
        state.untried = 0;
        for &(id, _) in enabled {
            if !state.tried(id) {
                state.untried += 1;
                first_untried.get_or_insert(id);
            }
        }
        // ε-greedy noise.
        if self.rng.gen::<f64>() < EPSILON {
            let (id, _) = enabled.choose(&mut self.rng).expect("nonempty");
            return Action::Widget(*id);
        }
        // Exploitation/refinement mix.
        if self.rng.gen::<f64>() < EXPLOIT_PROB {
            let state = &self.model[&state_id];
            self.exploit.clear();
            self.exploit
                .extend(enabled.iter().map(|(a, _)| *a).filter(|a| state.tried(*a)));
            if let Some(id) = self.exploit.choose(&mut self.rng) {
                return Action::Widget(*id);
            }
        }
        // 1. Unexecuted action on the current state, in document order
        //    (deterministic frontier chasing — the source of cross-seed
        //    convergence the paper observes).
        if let Some(id) = first_untried {
            return Action::Widget(id);
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
        let to = to.abstract_id();
        if let Action::Widget(id) = action {
            let st = self.model.entry(from).or_default();
            let i = match st.actions.binary_search_by_key(&id, |(a, _)| *a) {
                Ok(i) => i,
                Err(i) => {
                    // First try: the state loses this frontier action.
                    st.actions.insert(i, (id, ActionStats::default()));
                    st.untried -= st.known_actions.iter().filter(|a| **a == id).count();
                    i
                }
            };
            st.actions[i].1.record(to);
        }
        self.model.entry(to).or_default();
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
        rt.visited_screen_count()
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
        let inter = sa.intersection(&sb).count() as f64;
        let union = sa.union(&sb).count() as f64;
        assert!(
            inter / union > 0.5,
            "Ape instances should overlap heavily: {}",
            inter / union
        );
    }
}
