//! The app execution engine: one running copy of an app on one emulator.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taopt_ui_model::{Action, ScreenId, ScreenObservation, VirtualTime};

use crate::app::{App, PageTemplate};
use crate::crash::CrashSignature;
use crate::error::AppSimError;
use crate::method::{MethodId, MethodSet};

/// The outcome of executing one tool action.
#[derive(Debug, Clone)]
pub struct StepOutcome<'a> {
    /// The screen observed after the step.
    pub observation: ScreenObservation,
    /// Methods newly covered by this step (first time for this instance),
    /// borrowed from the runtime's reused buffer.
    pub newly_covered: &'a [MethodId],
    /// Crash fired by this step, if any (the app has been restarted).
    pub crash: Option<CrashSignature>,
    /// Whether the step changed the current screen.
    pub transitioned: bool,
}

/// A set of small dense ids (screen or action ids) as a bitset that
/// grows on demand.
#[derive(Debug, Clone, Default)]
struct IdFlags(Vec<u64>);

impl IdFlags {
    fn with_capacity(n: usize) -> Self {
        IdFlags(vec![0; n.div_ceil(64)])
    }

    /// Adds `i`; returns `true` if it was not present.
    fn insert(&mut self, i: u32) -> bool {
        let (word, bit) = (i as usize / 64, 1u64 << (i % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    fn contains(&self, i: u32) -> bool {
        self.0
            .get(i as usize / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }
}

/// One running instance of an [`App`]: screen pointer, back stack,
/// per-instance coverage state, flow progress and crash arming.
///
/// Each testing instance in a parallel run owns one `AppRuntime`, seeded
/// independently — the seed plays the role of the per-instance random seed
/// the paper's baseline uses to diversify instances (§3.1).
///
/// Screen, action and functionality ids are counters (`0..n`), so every
/// per-step lookup is an index into a vector or bitset, never a hash or
/// a tree.
#[derive(Debug, Clone)]
pub struct AppRuntime {
    app: Arc<App>,
    rng: StdRng,
    current: ScreenId,
    back_stack: Vec<ScreenId>,
    covered_methods: MethodSet,
    /// Methods the last step or jump covered for the first time; cleared
    /// and refilled in place, so covering allocates nothing once warm.
    newly: Vec<MethodId>,
    executed_actions: IdFlags,
    visited_screens: IdFlags,
    visited_count: usize,
    completed_flows: Vec<bool>,
    /// Distinct screens visited per functionality (crash-arming depth).
    functionality_visits: Vec<usize>,
    logged_in: bool,
    restarts: u32,
    /// The app's templates of the pages this instance has shown, by
    /// screen id then feed page, so a repeat observation takes no lock.
    page_templates: Vec<Vec<Option<PageTemplate>>>,
    /// Current feed page per screen id.
    feed_pages: Vec<usize>,
    /// Deepest feed page reached per screen id.
    feed_pages_seen: Vec<usize>,
}

impl AppRuntime {
    /// Launches the app; startup methods are pre-covered.
    pub fn launch(app: Arc<App>, seed: u64) -> Self {
        let screens = app.screen_count();
        let mut rt = AppRuntime {
            current: app.start_screen(),
            rng: StdRng::seed_from_u64(seed),
            back_stack: Vec::new(),
            covered_methods: MethodSet::with_capacity(app.method_count()),
            newly: Vec::new(),
            executed_actions: IdFlags::with_capacity(app.action_index.len()),
            visited_screens: IdFlags::with_capacity(screens),
            visited_count: 0,
            completed_flows: vec![false; app.flows().len()],
            functionality_visits: vec![0; app.functionalities().len()],
            logged_in: false,
            restarts: 0,
            page_templates: vec![Vec::new(); screens],
            feed_pages: vec![0; screens],
            feed_pages_seen: vec![0; screens],
            app,
        };
        rt.covered_methods
            .extend(rt.app.startup_methods().iter().copied());
        rt.arrive(rt.current);
        rt.newly.clear();
        rt
    }

    /// The app being executed.
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// The current screen id.
    pub fn current_screen(&self) -> ScreenId {
        self.current
    }

    /// Number of crash-induced restarts so far.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Methods covered so far by this instance.
    pub fn covered_methods(&self) -> &MethodSet {
        &self.covered_methods
    }

    /// Consumes the runtime, returning the methods it covered.
    pub fn into_covered_methods(self) -> MethodSet {
        self.covered_methods
    }

    /// Methods the last [`execute`](Self::execute) or
    /// [`jump_to`](Self::jump_to) covered for the first time (launch
    /// coverage is not among them).
    pub fn newly_covered(&self) -> &[MethodId] {
        &self.newly
    }

    /// Number of distinct screens visited so far.
    pub fn visited_screen_count(&self) -> usize {
        self.visited_count
    }

    /// The distinct screens visited so far, in id order.
    pub fn visited_screens(&self) -> BTreeSet<ScreenId> {
        self.app
            .screens()
            .map(|s| s.id)
            .filter(|s| self.visited_screens.contains(s.0))
            .collect()
    }

    /// Runs the auto-login script once, if the app is gated and the wall is
    /// currently shown. Mirrors the paper's manual auto-login scripts
    /// "executed only once before the corresponding app starts to be
    /// tested in each testing instance" (§6.1).
    pub fn auto_login(&mut self, time: VirtualTime) -> Option<StepOutcome<'_>> {
        let login = *self.app.login()?;
        if self.current != login.login_screen || self.logged_in {
            return None;
        }
        let StepOutcome {
            observation,
            crash,
            transitioned,
            ..
        } = self
            .execute(Action::Widget(login.login_action), time)
            .expect("login action must be valid");
        self.logged_in = true;
        Some(StepOutcome {
            observation,
            newly_covered: &self.newly,
            crash,
            transitioned,
        })
    }

    /// Observes the current screen (no state change).
    ///
    /// The observation shares the app's template of the current page:
    /// its widget tree carries no volatile text and is not copied, and its
    /// abstraction is the one every render of the page has, since
    /// abstraction drops text. [`App::render_screen_page`] renders a page
    /// with a visit's text when one is wanted.
    pub fn observe(&mut self, time: VirtualTime) -> ScreenObservation {
        let spec = self
            .app
            .screen(self.current)
            .expect("current screen exists");
        let page = self.feed_page(spec.id);
        let pages = &mut self.page_templates[spec.id.0 as usize];
        if pages.len() <= page {
            pages.resize_with(page + 1, || None);
        }
        let template = pages[page].get_or_insert_with(|| self.app.page_template(spec.id, page));
        ScreenObservation::with_abstraction(
            spec.id,
            spec.activity,
            template.hierarchy.clone(),
            Arc::clone(&template.abstraction),
            time,
        )
    }

    /// Current feed page of a screen (0 when not a feed or never scrolled).
    pub fn feed_page(&self, screen: ScreenId) -> usize {
        self.feed_pages.get(screen.0 as usize).copied().unwrap_or(0)
    }

    /// Jumps directly to a screen, as an `am start` Intent would launch an
    /// activity (used by the ParaAim-style activity-partition baseline).
    /// Clears the back stack and returns methods newly covered by arrival.
    pub fn jump_to(&mut self, screen: ScreenId) -> &[MethodId] {
        self.newly.clear();
        if self.app.screen(screen).is_some() {
            self.back_stack.clear();
            self.current = screen;
            self.arrive(screen);
        }
        &self.newly
    }

    /// Executes one tool action.
    ///
    /// # Errors
    ///
    /// Returns [`AppSimError::ActionNotAvailable`] if a widget action is
    /// fired that the current screen does not define.
    pub fn execute(
        &mut self,
        action: Action,
        time: VirtualTime,
    ) -> Result<StepOutcome<'_>, AppSimError> {
        self.newly.clear();
        let mut crash = None;
        let before = self.current;
        match action {
            Action::Noop => {}
            Action::Back => {
                if let Some(prev) = self.back_stack.pop() {
                    self.current = prev;
                }
                // Back on the root screen keeps the app in foreground.
            }
            Action::Widget(id) => {
                // A local handle on the app lets the specs stay borrowed
                // while `self` is mutated, without cloning them per step.
                let app = Arc::clone(&self.app);
                let spec = app.screen(self.current).expect("current screen exists");
                let act = spec.action(id).ok_or(AppSimError::ActionNotAvailable(id))?;
                // Handler coverage on first execution.
                if self.executed_actions.insert(id.0) {
                    self.cover(&act.methods);
                }
                // Feed pagination: a scroll on a feed screen reveals the
                // next page and covers its methods on first reach.
                if act.kind == taopt_ui_model::ActionKind::Scroll {
                    if let Some(feed) = &spec.feed {
                        let slot = self.current.0 as usize;
                        let page = &mut self.feed_pages[slot];
                        if *page < feed.pages {
                            *page += 1;
                            let reached = *page;
                            let seen = &mut self.feed_pages_seen[slot];
                            if reached > *seen {
                                *seen = reached;
                                self.cover(&feed.page_methods[reached - 1]);
                            }
                        }
                    }
                }
                // Crash check: armed once this instance has explored the
                // hosting functionality deeply enough (distinct screens
                // visited), modelling faults that require rich local state.
                if let Some(cp) = &act.crash {
                    let depth = self
                        .functionality_visits
                        .get(spec.functionality.0 as usize)
                        .copied()
                        .unwrap_or(0);
                    if cp.armed(depth) && self.rng.gen::<f64>() < cp.probability {
                        crash = Some(cp.signature);
                    }
                }
                if crash.is_none() {
                    // Sample a destination.
                    let total = act.total_target_weight();
                    if total > 0.0 {
                        let mut pick = self.rng.gen::<f64>() * total;
                        let mut dest = act.targets.last().map(|t| t.screen);
                        for t in &act.targets {
                            if pick < t.weight {
                                dest = Some(t.screen);
                                break;
                            }
                            pick -= t.weight;
                        }
                        if let Some(d) = dest {
                            if d != self.current {
                                // Android-like `singleTask` semantics: if the
                                // destination is already on the stack, pop
                                // back to it instead of pushing a duplicate.
                                if let Some(pos) = self.back_stack.iter().position(|s| *s == d) {
                                    self.back_stack.truncate(pos);
                                } else {
                                    self.back_stack.push(self.current);
                                    // Bounded like a real task stack.
                                    if self.back_stack.len() > 64 {
                                        self.back_stack.remove(0);
                                    }
                                }
                                self.current = d;
                            }
                        }
                    }
                }
            }
        }

        if crash.is_some() {
            self.restart();
        }
        let transitioned = crash.is_some() || self.current != before;
        self.arrive(self.current);
        let obs = self.observe(time);
        Ok(StepOutcome {
            observation: obs,
            newly_covered: &self.newly,
            crash,
            transitioned,
        })
    }

    /// Covers `methods`, noting the ones covered for the first time.
    fn cover(&mut self, methods: &[MethodId]) {
        for &m in methods {
            if self.covered_methods.insert(m) {
                self.newly.push(m);
            }
        }
    }

    /// Handles arrival on a screen: first-visit methods,
    /// flow progress and crash-arming depth (distinct screens visited per
    /// functionality over the runtime's whole life). Newly covered
    /// methods join [`newly_covered`](Self::newly_covered).
    fn arrive(&mut self, screen: ScreenId) {
        let app = Arc::clone(&self.app);
        let spec = app.screen(screen).expect("screen exists");
        if self.visited_screens.insert(screen.0) {
            self.visited_count += 1;
            // Per-functionality exploration depth (crash arming): a
            // screen belongs to one functionality, so its first visit is
            // the one that deepens it.
            let f = spec.functionality.0 as usize;
            if self.functionality_visits.len() <= f {
                self.functionality_visits.resize(f + 1, 0);
            }
            self.functionality_visits[f] += 1;
            self.cover(&spec.methods);
            // Flow completion check (only needed when the visited set grew).
            for (i, flow) in app.flows().iter().enumerate() {
                if self.completed_flows[i]
                    || !flow
                        .screens
                        .iter()
                        .all(|s| self.visited_screens.contains(s.0))
                {
                    continue;
                }
                self.completed_flows[i] = true;
                self.cover(&flow.methods);
            }
        }
    }

    /// Restarts the app after a crash. Coverage and crash-arming depth
    /// are kept: only a freshly launched runtime starts from zero.
    fn restart(&mut self) {
        self.restarts += 1;
        self.back_stack.clear();
        self.current = match self.app.login() {
            Some(l) if self.logged_in => l.home_screen,
            _ => self.app.start_screen(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AppBuilder;
    use crate::crash::{CrashPoint, CrashSignature};
    use crate::spec::LoginSpec;
    use taopt_ui_model::ActionId;

    fn chain_app(crash_on_last: bool) -> Arc<App> {
        let mut b = AppBuilder::new("chain");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let s0 = b.add_screen(act, f, "S0");
        let s1 = b.add_screen(act, f, "S1");
        let s2 = b.add_screen(act, f, "S2");
        let m0 = b.alloc_methods(2);
        let m1 = b.alloc_methods(2);
        b.set_screen_methods(s0, m0);
        b.set_screen_methods(s1, m1);
        let a01 = b.add_click(s0, s1, "w01", "go1");
        let _a12 = b.add_click(s1, s2, "w12", "go2");
        let am = b.alloc_methods(1);
        b.set_action_methods(a01, am);
        if crash_on_last {
            let last = b.add_click(s2, s0, "boom", "boom");
            b.set_action_crash(last, CrashPoint::new(1.0, 3, CrashSignature(42)));
        }
        b.set_start(s0);
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn launch_covers_start_screen_methods() {
        let app = chain_app(false);
        let rt = AppRuntime::launch(app, 1);
        assert_eq!(rt.covered_methods().len(), 2);
        assert_eq!(rt.visited_screen_count(), 1);
        assert_eq!(rt.visited_screens(), BTreeSet::from([rt.current_screen()]));
    }

    #[test]
    fn click_transitions_and_covers() {
        let app = chain_app(false);
        let mut rt = AppRuntime::launch(app.clone(), 1);
        let obs = rt.observe(VirtualTime::ZERO);
        let (aid, _) = obs.enabled_actions()[0];
        let out = rt
            .execute(Action::Widget(aid), VirtualTime::from_secs(1))
            .unwrap();
        assert!(out.transitioned);
        // Action methods (1) + screen-1 methods (2).
        assert_eq!(out.newly_covered.len(), 3);
        // Re-executing covers nothing new.
        let back = rt.execute(Action::Back, VirtualTime::from_secs(2)).unwrap();
        assert!(back.transitioned);
        assert!(back.newly_covered.is_empty());
        let again = rt
            .execute(Action::Widget(aid), VirtualTime::from_secs(3))
            .unwrap();
        assert!(again.newly_covered.is_empty());
    }

    #[test]
    fn back_pops_stack_and_is_safe_at_root() {
        let app = chain_app(false);
        let mut rt = AppRuntime::launch(app, 1);
        let out = rt.execute(Action::Back, VirtualTime::ZERO).unwrap();
        assert!(!out.transitioned);
        assert_eq!(rt.current_screen(), rt.app().start_screen());
    }

    #[test]
    fn unknown_action_errors() {
        let app = chain_app(false);
        let mut rt = AppRuntime::launch(app, 1);
        assert_eq!(
            rt.execute(Action::Widget(ActionId(777)), VirtualTime::ZERO)
                .unwrap_err(),
            AppSimError::ActionNotAvailable(ActionId(777))
        );
    }

    #[test]
    fn crash_requires_depth_then_fires_and_restarts() {
        let app = chain_app(true);
        let mut rt = AppRuntime::launch(app, 7);
        // Walk the chain to arm the crash: s0 -> s1 -> s2 (3 distinct).
        let a01 = {
            let obs = rt.observe(VirtualTime::ZERO);
            obs.enabled_actions()[0].0
        };
        rt.execute(Action::Widget(a01), VirtualTime::from_secs(1))
            .unwrap();
        let a12 = {
            let obs = rt.observe(VirtualTime::ZERO);
            obs.enabled_actions()[0].0
        };
        rt.execute(Action::Widget(a12), VirtualTime::from_secs(2))
            .unwrap();
        let boom = {
            let obs = rt.observe(VirtualTime::ZERO);
            obs.enabled_actions()[0].0
        };
        let out = rt
            .execute(Action::Widget(boom), VirtualTime::from_secs(3))
            .unwrap();
        assert_eq!(out.crash, Some(CrashSignature(42)));
        assert_eq!(rt.restarts(), 1);
        assert_eq!(rt.current_screen(), rt.app().start_screen());
    }

    #[test]
    fn crash_restart_keeps_arming_depth() {
        let app = chain_app(true);
        let first_action =
            |rt: &mut AppRuntime| rt.observe(VirtualTime::ZERO).enabled_actions()[0].0;
        let mut rt = AppRuntime::launch(app.clone(), 7);
        for t in 1..=2 {
            let a = first_action(&mut rt);
            rt.execute(Action::Widget(a), VirtualTime::from_secs(t))
                .unwrap();
        }
        let s2 = rt.current_screen();
        let boom = first_action(&mut rt);
        let out = rt.execute(Action::Widget(boom), VirtualTime::from_secs(3));
        assert_eq!(out.unwrap().crash, Some(CrashSignature(42)));
        // Straight back to S2 after the restart: S0 and S1 still count,
        // so the fault is armed again at once.
        rt.jump_to(s2);
        let out = rt.execute(Action::Widget(boom), VirtualTime::from_secs(4));
        assert_eq!(out.unwrap().crash, Some(CrashSignature(42)));
        assert_eq!(rt.restarts(), 2);
        // A fresh runtime jumping to S2 has seen only S0 and S2.
        let mut fresh = AppRuntime::launch(app, 7);
        fresh.jump_to(s2);
        let out = fresh.execute(Action::Widget(boom), VirtualTime::from_secs(1));
        assert_eq!(out.unwrap().crash, None);
        assert_eq!(fresh.restarts(), 0);
    }

    #[test]
    fn noop_changes_nothing() {
        let app = chain_app(false);
        let mut rt = AppRuntime::launch(app, 1);
        let before = rt.current_screen();
        let out = rt.execute(Action::Noop, VirtualTime::ZERO).unwrap();
        assert!(!out.transitioned);
        assert!(out.newly_covered.is_empty());
        assert_eq!(rt.current_screen(), before);
    }

    #[test]
    fn flows_cover_methods_when_all_screens_visited() {
        let mut b = AppBuilder::new("flowapp");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let s0 = b.add_screen(act, f, "A");
        let s1 = b.add_screen(act, f, "B");
        b.add_click(s0, s1, "w", "go");
        let fm = b.alloc_methods(4);
        b.add_flow(vec![s0, s1], fm.clone());
        b.set_start(s0);
        let app = Arc::new(b.build().unwrap());
        let mut rt = AppRuntime::launch(app, 1);
        assert!(rt.covered_methods().is_empty());
        let aid = rt.observe(VirtualTime::ZERO).enabled_actions()[0].0;
        let out = rt
            .execute(Action::Widget(aid), VirtualTime::from_secs(1))
            .unwrap();
        assert_eq!(out.newly_covered.len(), 4, "flow methods covered");
    }

    #[test]
    fn auto_login_passes_the_wall_once() {
        let mut b = AppBuilder::new("gated");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let wall = b.add_screen(act, f, "Login");
        let home = b.add_screen(act, f, "Home");
        let login_action = b.add_click(wall, home, "btn_login", "Sign in");
        b.set_login(LoginSpec {
            login_screen: wall,
            login_action,
            home_screen: home,
        });
        b.set_start(wall);
        let app = Arc::new(b.build().unwrap());
        let mut rt = AppRuntime::launch(app, 3);
        let out = rt.auto_login(VirtualTime::ZERO).expect("should log in");
        assert!(out.transitioned);
        assert!(rt.auto_login(VirtualTime::ZERO).is_none(), "idempotent");
    }
}

#[cfg(test)]
mod feed_tests {
    use super::*;
    use crate::builder::AppBuilder;
    use taopt_ui_model::ActionKind;

    fn feed_app() -> Arc<App> {
        let mut b = AppBuilder::new("feed");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let home = b.add_screen(act, f, "Home");
        let list = b.add_screen(act, f, "List");
        b.add_click(home, list, "open", "Open");
        b.add_action(list, ActionKind::Scroll, "list_view", "", Vec::new());
        b.set_feed(list, 3, 5);
        b.set_start(home);
        Arc::new(b.build().unwrap())
    }

    fn scroll_action(rt: &mut AppRuntime) -> Action {
        let obs = rt.observe(VirtualTime::ZERO);
        let &(id, _) = obs
            .enabled_actions()
            .iter()
            .find(|(_, k)| *k == ActionKind::Scroll)
            .expect("list has a scroll");
        Action::Widget(id)
    }

    #[test]
    fn scrolling_reveals_pages_methods_and_new_abstractions() {
        let app = feed_app();
        let mut rt = AppRuntime::launch(app, 1);
        let open = rt.observe(VirtualTime::ZERO).enabled_actions()[0].0;
        rt.execute(Action::Widget(open), VirtualTime::from_secs(1))
            .unwrap();
        let list = rt.current_screen();
        let abs0 = rt.observe(VirtualTime::ZERO).abstract_id();
        let mut abstractions = vec![abs0];
        let mut total_new = 0usize;
        for i in 0..5 {
            let a = scroll_action(&mut rt);
            let out = rt.execute(a, VirtualTime::from_secs(2 + i)).unwrap();
            total_new += out.newly_covered.len();
            abstractions.push(out.observation.abstract_id());
        }
        // 3 pages * 5 methods, revealed once each; extra scrolls add none.
        assert_eq!(total_new, 15);
        assert_eq!(rt.feed_page(list), 3, "page caps at the feed size");
        // Pages 0..3 are distinct abstract screens; the cap repeats page 3.
        let distinct: std::collections::HashSet<_> = abstractions.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn feed_pages_persist_across_navigation() {
        let app = feed_app();
        let mut rt = AppRuntime::launch(app, 2);
        let open = rt.observe(VirtualTime::ZERO).enabled_actions()[0].0;
        rt.execute(Action::Widget(open), VirtualTime::from_secs(1))
            .unwrap();
        let list = rt.current_screen();
        let a = scroll_action(&mut rt);
        rt.execute(a, VirtualTime::from_secs(2)).unwrap();
        assert_eq!(rt.feed_page(list), 1);
        // Leave and come back: the scroll position (page) persists, like a
        // cached RecyclerView state.
        rt.execute(Action::Back, VirtualTime::from_secs(3)).unwrap();
        let open = rt.observe(VirtualTime::ZERO).enabled_actions()[0].0;
        rt.execute(Action::Widget(open), VirtualTime::from_secs(4))
            .unwrap();
        assert_eq!(rt.feed_page(list), 1);
    }

    #[test]
    fn generator_feed_knob_adds_feeds_and_methods() {
        use crate::generator::{generate_app, GeneratorConfig};
        let mut cfg = GeneratorConfig::small("feedgen", 3);
        let plain = generate_app(&cfg).unwrap();
        cfg.feed_fraction = 0.5;
        let fed = generate_app(&cfg).unwrap();
        let feeds = fed.screens().filter(|s| s.feed.is_some()).count();
        assert!(feeds > 0, "feeds should be generated");
        assert!(fed.method_count() > plain.method_count());
    }
}
