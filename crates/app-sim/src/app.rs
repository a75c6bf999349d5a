//! The validated, immutable app specification.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use taopt_ui_model::abstraction::{abstract_hierarchy, AbstractHierarchy};
use taopt_ui_model::{
    ActionId, ActivityId, Bounds, ScreenId, StochasticDigraph, UiHierarchy, Widget, WidgetClass,
};

use crate::error::AppSimError;
use crate::functionality::{Functionality, FunctionalityId};
use crate::method::MethodId;
use crate::spec::{FlowRule, LoginSpec, ScreenSpec};

/// One (screen, feed page) as every observation of it shares it: the
/// widget tree without volatile text with its action table, and that
/// tree's abstraction.
#[derive(Debug, Clone)]
pub(crate) struct PageTemplate {
    pub(crate) hierarchy: UiHierarchy,
    pub(crate) abstraction: Arc<AbstractHierarchy>,
}

/// An app's page templates, keyed by (screen, feed page) and built on the
/// first observation of each page. A clone starts empty, so a cloned or
/// evolved app never shows another version's trees.
#[derive(Default)]
pub(crate) struct TemplateStore(Mutex<HashMap<(ScreenId, usize), PageTemplate>>);

impl TemplateStore {
    fn pages(&self) -> MutexGuard<'_, HashMap<(ScreenId, usize), PageTemplate>> {
        // No panic can leave the map half-written: templates are built
        // outside the lock and inserted whole.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for TemplateStore {
    fn clone(&self) -> Self {
        TemplateStore::default()
    }
}

impl fmt::Debug for TemplateStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TemplateStore")
    }
}

/// A complete App Under Test.
///
/// `App` is an immutable specification; execution state lives in
/// [`crate::runtime::AppRuntime`]. Construct apps with
/// [`crate::builder::AppBuilder`] or [`crate::generator::generate_app`].
#[derive(Debug, Clone)]
pub struct App {
    pub(crate) name: String,
    /// Screen `ScreenId(i)` at index `i`: ids run `0..n` (builders and
    /// evolution hand them out as counters), so a lookup is an index.
    pub(crate) screens: Vec<ScreenSpec>,
    pub(crate) functionalities: Vec<Functionality>,
    pub(crate) start_screen: ScreenId,
    pub(crate) flows: Vec<FlowRule>,
    pub(crate) login: Option<LoginSpec>,
    pub(crate) method_count: usize,
    /// Framework methods covered by merely starting the app.
    pub(crate) startup_methods: Vec<MethodId>,
    pub(crate) action_index: HashMap<ActionId, ScreenId>,
    pub(crate) templates: TemplateStore,
}

impl App {
    /// Validates parts and assembles an app. Used by [`crate::AppBuilder`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        name: String,
        mut screens: Vec<ScreenSpec>,
        functionalities: Vec<Functionality>,
        start_screen: ScreenId,
        flows: Vec<FlowRule>,
        login: Option<LoginSpec>,
        method_count: usize,
        startup_methods: Vec<MethodId>,
    ) -> Result<Self, AppSimError> {
        if screens.is_empty() {
            return Err(AppSimError::NoScreens);
        }
        screens.sort_by_key(|s| s.id);
        let mut action_index = HashMap::new();
        for (i, s) in screens.iter().enumerate() {
            if i > 0 && screens[i - 1].id == s.id {
                return Err(AppSimError::DuplicateScreen(s.id));
            }
            if s.id != ScreenId(i as u32) {
                return Err(AppSimError::ScreenIdGap(s.id));
            }
            for a in &s.actions {
                if action_index.insert(a.id, s.id).is_some() {
                    return Err(AppSimError::DuplicateAction(a.id));
                }
                for t in &a.targets {
                    if !t.weight.is_finite() || t.weight < 0.0 {
                        return Err(AppSimError::BadWeight(t.weight));
                    }
                }
            }
        }
        let exists = |id: ScreenId| (id.0 as usize) < screens.len();
        if !exists(start_screen) {
            return Err(AppSimError::BadStartScreen(start_screen));
        }
        // Check targets exist.
        for s in &screens {
            for a in &s.actions {
                for t in &a.targets {
                    if !exists(t.screen) {
                        return Err(AppSimError::DanglingTarget {
                            action: a.id,
                            target: t.screen,
                        });
                    }
                }
            }
        }
        if let Some(l) = &login {
            let ok = exists(l.home_screen)
                && screens
                    .get(l.login_screen.0 as usize)
                    .is_some_and(|s| s.action(l.login_action).is_some());
            if !ok {
                return Err(AppSimError::BadLoginSpec);
            }
        }
        Ok(App {
            name,
            screens,
            functionalities,
            start_screen,
            flows,
            login,
            method_count,
            startup_methods,
            action_index,
            templates: TemplateStore::default(),
        })
    }

    /// App name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The screen the app starts on (the login wall if gated).
    pub fn start_screen(&self) -> ScreenId {
        self.start_screen
    }

    /// All screens, ordered by id.
    pub fn screens(&self) -> impl Iterator<Item = &ScreenSpec> {
        self.screens.iter()
    }

    /// Number of screens.
    pub fn screen_count(&self) -> usize {
        self.screens.len()
    }

    /// Looks up a screen.
    pub fn screen(&self, id: ScreenId) -> Option<&ScreenSpec> {
        self.screens.get(id.0 as usize)
    }

    /// The screen hosting the given action.
    pub fn screen_of_action(&self, id: ActionId) -> Option<ScreenId> {
        self.action_index.get(&id).copied()
    }

    /// Declared functionalities.
    pub fn functionalities(&self) -> &[Functionality] {
        &self.functionalities
    }

    /// Flow rules.
    pub fn flows(&self) -> &[FlowRule] {
        &self.flows
    }

    /// Login gate, if the app requires authentication.
    pub fn login(&self) -> Option<&LoginSpec> {
        self.login.as_ref()
    }

    /// Total number of methods in the app (the coverage denominator).
    pub fn method_count(&self) -> usize {
        self.method_count
    }

    /// Methods covered by app startup.
    pub fn startup_methods(&self) -> &[MethodId] {
        &self.startup_methods
    }

    /// The set of distinct activities.
    pub fn activities(&self) -> BTreeSet<ActivityId> {
        self.screens.iter().map(|s| s.activity).collect()
    }

    /// Screens hosted by the given activity.
    pub fn screens_of_activity(&self, a: ActivityId) -> Vec<ScreenId> {
        self.screens
            .iter()
            .filter(|s| s.activity == a)
            .map(|s| s.id)
            .collect()
    }

    /// Ground-truth membership: screens per functionality.
    pub fn screens_of_functionality(&self, f: FunctionalityId) -> Vec<ScreenId> {
        self.screens
            .iter()
            .filter(|s| s.functionality == f)
            .map(|s| s.id)
            .collect()
    }

    /// The ground-truth *structural* transition graph over concrete screen
    /// ids, with one unit of weight per (action, target) pair scaled by
    /// target weight. Tools induce different probabilities at run time; this
    /// graph captures app structure for analysis and tests.
    pub fn structural_graph(&self) -> StochasticDigraph {
        let mut g = StochasticDigraph::new();
        for s in &self.screens {
            g.add_node(s.id.0 as u64);
            for a in &s.actions {
                let total = a.total_target_weight();
                if total <= 0.0 {
                    continue;
                }
                for t in &a.targets {
                    g.add_edge(s.id.0 as u64, t.screen.0 as u64, t.weight / total)
                        .expect("validated weights");
                }
            }
        }
        g.normalized()
    }

    /// Renders the widget hierarchy of a screen (feed page 0).
    ///
    /// `visit_count` feeds the volatile text (badge counters, timestamps,
    /// product names…) so consecutive visits differ textually but abstract
    /// to the same [`taopt_ui_model::AbstractScreenId`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a screen of this app.
    pub fn render_screen(&self, id: ScreenId, visit_count: u64) -> UiHierarchy {
        self.render_screen_page(id, visit_count, 0)
    }

    /// Renders a screen at a given feed page. Pages beyond 0 append one
    /// structural row per page, so each page abstracts to a distinct
    /// screen identity (scrolling reveals genuinely new UI).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a screen of this app.
    pub fn render_screen_page(&self, id: ScreenId, visit_count: u64, page: usize) -> UiHierarchy {
        UiHierarchy::new(self.page_tree(id, Some(visit_count), page))
    }

    /// The shared template of a page, built on its first request. An
    /// observation clones its hierarchy (tree and action table) without
    /// copying either; its abstraction equals that of every
    /// [`App::render_screen_page`] of the page, since abstraction drops
    /// text.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a screen of this app.
    pub(crate) fn page_template(&self, id: ScreenId, page: usize) -> PageTemplate {
        if let Some(t) = self.templates.pages().get(&(id, page)) {
            return t.clone();
        }
        let hierarchy = UiHierarchy::new(self.page_tree(id, None, page));
        let abstraction = Arc::new(abstract_hierarchy(&hierarchy));
        // Two first observations may race to build a page; the first
        // insert wins and both get that one.
        self.templates
            .pages()
            .entry((id, page))
            .or_insert(PageTemplate {
                hierarchy,
                abstraction,
            })
            .clone()
    }

    /// The one renderer: a page's widget tree with the volatile text of
    /// visit `visit` (badge counters, timestamps, product names…), or
    /// with none for `None`.
    fn page_tree(&self, id: ScreenId, visit: Option<u64>, page: usize) -> Widget {
        let spec = self.screen(id).expect("render_screen: unknown screen");
        let mut root = Widget::container(WidgetClass::LinearLayout);
        root.resource_id = Some(format!("{}_root", spec.name));
        // Title bar with volatile text.
        let mut title = Widget::leaf(WidgetClass::TextView, &format!("{}_title", spec.name))
            .with_bounds(Bounds::new(0, 0, 1080, 120));
        title.text = visit.map(|v| format!("{} · view {v}", spec.name));
        root = root.with_child(title);
        // Decorative widgets (images, labels) with volatile text.
        for d in 0..spec.decorations {
            let mut deco =
                Widget::leaf(WidgetClass::ImageView, &format!("{}_deco{}", spec.name, d))
                    .with_bounds(Bounds::new(
                        0,
                        120 + 80 * d as i32,
                        1080,
                        200 + 80 * d as i32,
                    ));
            deco.text =
                visit.map(|v| format!("promo {}", v.wrapping_mul(31).wrapping_add(d as u64)));
            root = root.with_child(deco);
        }
        // Feed rows revealed by pagination.
        for pg in 0..page.min(spec.feed.as_ref().map(|f| f.pages).unwrap_or(0)) {
            let mut row = Widget::leaf(
                WidgetClass::TextView,
                &format!("{}_feedrow{}", spec.name, pg),
            )
            .with_bounds(Bounds::new(
                0,
                2000 + 60 * pg as i32,
                1080,
                2060 + 60 * pg as i32,
            ));
            row.text = visit.map(|v| format!("feed item {pg} / view {v}"));
            root = root.with_child(row);
        }
        // Interactive widgets.
        for (i, a) in spec.actions.iter().enumerate() {
            let class = match a.kind {
                taopt_ui_model::ActionKind::Click => WidgetClass::Button,
                taopt_ui_model::ActionKind::LongClick => WidgetClass::ImageButton,
                taopt_ui_model::ActionKind::Scroll => WidgetClass::RecyclerView,
                taopt_ui_model::ActionKind::SetText => WidgetClass::EditText,
                taopt_ui_model::ActionKind::Swipe => WidgetClass::FrameLayout,
                _ => WidgetClass::FrameLayout,
            };
            let y = 400 + 90 * i as i32;
            root = root.with_child(
                Widget::leaf(class, &a.widget_rid)
                    .with_text(&a.label)
                    .with_bounds(Bounds::new(40, y, 1040, y + 80))
                    .with_affordance(a.id, a.kind),
            );
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AppBuilder;
    use crate::evolution::{VersionDiff, VersionOp};
    use crate::generator::{derive_app, generate_app, GeneratorConfig};
    use crate::runtime::AppRuntime;
    use crate::spec::ActionSpec;
    use taopt_ui_model::{ScreenObservation, VirtualTime};

    fn two_screen_app() -> App {
        let mut b = AppBuilder::new("demo");
        let f = b.add_functionality("Main");
        let act = b.add_activity();
        let home = b.add_screen(act, f, "Home");
        let detail = b.add_screen(act, f, "Detail");
        b.add_click(home, detail, "open", "Open");
        b.add_click(detail, home, "close", "Close");
        b.set_start(home);
        b.build().expect("valid app")
    }

    #[test]
    fn assemble_validates_targets() {
        let mut b = AppBuilder::new("bad");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let s = b.add_screen(act, f, "S");
        // Manually create a dangling action.
        b.push_raw_action(
            s,
            ActionSpec::click_to(ActionId(999), "x", "y", ScreenId(4242)),
        );
        b.set_start(s);
        assert!(matches!(
            b.build(),
            Err(AppSimError::DanglingTarget {
                target: ScreenId(4242),
                ..
            })
        ));
    }

    #[test]
    fn assemble_indexes_screens_by_id_and_refuses_gaps() {
        let screen =
            |id| crate::spec::ScreenSpec::new(ScreenId(id), ActivityId(0), FunctionalityId(0), "S");
        let assemble = |ids: &[u32]| {
            App::assemble(
                "ids".into(),
                ids.iter().map(|&i| screen(i)).collect(),
                Vec::new(),
                ScreenId(0),
                Vec::new(),
                None,
                0,
                Vec::new(),
            )
        };
        let app = assemble(&[2, 0, 1]).expect("ids 0..3 in any order");
        for id in 0..3 {
            assert_eq!(app.screen(ScreenId(id)).map(|s| s.id), Some(ScreenId(id)));
        }
        assert!(app.screen(ScreenId(3)).is_none());
        assert_eq!(
            assemble(&[0, 2]).unwrap_err(),
            AppSimError::ScreenIdGap(ScreenId(2))
        );
        assert_eq!(
            assemble(&[0, 1, 1]).unwrap_err(),
            AppSimError::DuplicateScreen(ScreenId(1))
        );
    }

    #[test]
    fn render_is_structurally_stable_across_visits() {
        let app = two_screen_app();
        let home = app.start_screen();
        let h1 = app.render_screen(home, 1);
        let h2 = app.render_screen(home, 2);
        assert_ne!(h1, h2, "volatile text must differ");
        assert_eq!(
            abstract_hierarchy(&h1).id(),
            abstract_hierarchy(&h2).id(),
            "abstraction must be stable"
        );
    }

    #[test]
    fn distinct_screens_render_distinct_abstractions() {
        let app = two_screen_app();
        let ids: Vec<_> = app.screens().map(|s| s.id).collect();
        let a = abstract_hierarchy(&app.render_screen(ids[0], 0));
        let b = abstract_hierarchy(&app.render_screen(ids[1], 0));
        assert_ne!(a.id(), b.id());
    }

    fn strip_text(w: &mut Widget) {
        w.visit_mut(&mut |n| n.text = None);
    }

    #[test]
    fn template_equals_every_render_of_its_page() {
        let mut cfg = GeneratorConfig::small("tpl", 5);
        cfg.feed_fraction = 0.5;
        let app = generate_app(&cfg).unwrap();
        let mut feed_pages_checked = 0;
        for s in app.screens() {
            let pages = s.feed.as_ref().map(|f| f.pages).unwrap_or(0);
            for page in 0..=pages {
                let t = app.page_template(s.id, page);
                let th = &t.hierarchy;
                for visit in [0, 1, 7] {
                    let r = app.render_screen_page(s.id, visit, page);
                    assert_eq!(t.abstraction.id(), abstract_hierarchy(&r).id());
                    assert_eq!(th.enabled_actions(), r.enabled_actions());
                    assert_eq!(th.affordances(), r.affordances());
                    // Apart from text, the template is the render.
                    let (mut a, mut b) = (th.root().clone(), r.root().clone());
                    strip_text(&mut a);
                    strip_text(&mut b);
                    assert_eq!(a, b);
                }
                feed_pages_checked += usize::from(page > 0);
            }
        }
        assert!(feed_pages_checked > 0, "the app has feed pages");
    }

    #[test]
    fn templates_are_built_on_first_observe_and_not_cloned() {
        let app = Arc::new(generate_app(&GeneratorConfig::small("tpl", 6)).unwrap());
        let mut rt = AppRuntime::launch(Arc::clone(&app), 1);
        assert_eq!(
            app.templates.pages().len(),
            0,
            "generation and launch build none"
        );
        let first = rt.observe(VirtualTime::ZERO);
        assert_eq!(app.templates.pages().len(), 1);
        let again = AppRuntime::launch(Arc::clone(&app), 2).observe(VirtualTime::ZERO);
        assert!(std::ptr::eq(first.hierarchy.root(), again.hierarchy.root()));
        assert!(Arc::ptr_eq(&first.abstraction, &again.abstraction));
        assert_eq!(
            app.as_ref().clone().templates.pages().len(),
            0,
            "a clone starts empty"
        );
    }

    #[test]
    fn template_of_an_evolved_app_shows_the_renamed_widget() {
        let cfg = GeneratorConfig::small("tpl", 7);
        let base = Arc::new(derive_app(&cfg, &[]).unwrap());
        let before = AppRuntime::launch(Arc::clone(&base), 1).observe(VirtualTime::ZERO);
        let (aid, _) = before.enabled_actions()[0];
        let diff = VersionDiff {
            from_version: 0,
            to_version: 1,
            ops: vec![VersionOp::RenameWidget {
                action: aid,
                new_rid: "renamed_widget".into(),
            }],
        };
        let next = Arc::new(derive_app(&cfg, &[diff]).unwrap());
        assert_eq!(next.templates.pages().len(), 0);
        let after = AppRuntime::launch(Arc::clone(&next), 1).observe(VirtualTime::ZERO);
        let rid = |o: &ScreenObservation| o.hierarchy.affordance(aid).unwrap().resource_id.clone();
        assert_eq!(rid(&after).as_deref(), Some("renamed_widget"));
        assert_ne!(rid(&before), rid(&after));
        let base_again = AppRuntime::launch(base, 2).observe(VirtualTime::ZERO);
        assert_eq!(rid(&base_again), rid(&before), "the base keeps its tree");
    }

    #[test]
    fn template_is_shared_by_concurrent_first_observations() {
        let app = Arc::new(generate_app(&GeneratorConfig::small("tpl", 8)).unwrap());
        let start = std::sync::Barrier::new(8);
        let obs: Vec<ScreenObservation> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|seed| {
                    let (app, start) = (Arc::clone(&app), &start);
                    scope.spawn(move || {
                        let mut rt = AppRuntime::launch(app, seed);
                        start.wait();
                        rt.observe(VirtualTime::ZERO)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for o in &obs[1..] {
            assert!(std::ptr::eq(o.hierarchy.root(), obs[0].hierarchy.root()));
            assert!(Arc::ptr_eq(&o.abstraction, &obs[0].abstraction));
            assert_eq!(o.abstract_id(), obs[0].abstract_id());
        }
        assert_eq!(app.templates.pages().len(), 1);
    }

    #[test]
    fn action_index_maps_to_hosting_screen() {
        let app = two_screen_app();
        for s in app.screens() {
            for a in &s.actions {
                assert_eq!(app.screen_of_action(a.id), Some(s.id));
            }
        }
        assert_eq!(app.screen_of_action(ActionId(12345)), None);
    }

    #[test]
    fn structural_graph_rows_are_stochastic() {
        let app = two_screen_app();
        let g = app.structural_graph();
        assert_eq!(g.node_count(), 2);
        for n in g.nodes() {
            let row: f64 = g.out_edges(n).map(|(_, w)| w).sum();
            assert!(row == 0.0 || (row - 1.0).abs() < 1e-9);
        }
    }
}
