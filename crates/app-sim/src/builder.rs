//! Hand-construction of app specifications.

use taopt_ui_model::{ActionId, ActionKind, ActivityId, ScreenId};

use crate::app::App;
use crate::crash::CrashPoint;
use crate::error::AppSimError;
use crate::functionality::{Functionality, FunctionalityId};
use crate::method::{MethodAllocator, MethodId};
use crate::spec::{ActionSpec, FlowRule, LoginSpec, ScreenSpec, TransitionTarget};

/// Incrementally builds an [`App`].
///
/// # Examples
///
/// ```
/// use taopt_app_sim::AppBuilder;
///
/// # fn main() -> Result<(), taopt_app_sim::AppSimError> {
/// let mut b = AppBuilder::new("mini");
/// let f = b.add_functionality("Main");
/// let act = b.add_activity();
/// let home = b.add_screen(act, f, "Home");
/// let about = b.add_screen(act, f, "About");
/// b.add_click(home, about, "btn_about", "About");
/// b.set_start(home);
/// let app = b.build()?;
/// assert_eq!(app.screen_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AppBuilder {
    name: String,
    /// Screen `ScreenId(i)` at index `i`: `add_screen` is the only push.
    screens: Vec<ScreenSpec>,
    /// Action `ActionId(i)` at index `i`: the (screen index, slot in its
    /// actions) that `add_action` placed it at, or `None` if its screen
    /// did not exist. Slots stay put: actions are only ever appended.
    /// Raw pushes are not indexed.
    actions: Vec<Option<(u32, u32)>>,
    functionalities: Vec<Functionality>,
    next_activity: u32,
    start: Option<ScreenId>,
    flows: Vec<FlowRule>,
    login: Option<LoginSpec>,
    methods: MethodAllocator,
    startup_methods: Vec<MethodId>,
}

impl AppBuilder {
    /// Starts building an app with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        AppBuilder {
            name: name.into(),
            screens: Vec::new(),
            actions: Vec::new(),
            functionalities: Vec::new(),
            next_activity: 0,
            start: None,
            flows: Vec::new(),
            login: None,
            methods: MethodAllocator::new(),
            startup_methods: Vec::new(),
        }
    }

    /// Declares a functionality and returns its id.
    pub fn add_functionality(&mut self, name: &str) -> FunctionalityId {
        let id = FunctionalityId(self.functionalities.len() as u32);
        self.functionalities.push(Functionality::new(id, name));
        id
    }

    /// Allocates a fresh activity id.
    pub fn add_activity(&mut self) -> ActivityId {
        let id = ActivityId(self.next_activity);
        self.next_activity += 1;
        id
    }

    /// Adds a screen and returns its id.
    pub fn add_screen(
        &mut self,
        activity: ActivityId,
        functionality: FunctionalityId,
        name: &str,
    ) -> ScreenId {
        let id = ScreenId(self.screens.len() as u32);
        self.screens
            .push(ScreenSpec::new(id, activity, functionality, name));
        id
    }

    /// Marks a screen as its functionality's entry screen.
    pub fn mark_entry(&mut self, screen: ScreenId) {
        if let Some(s) = self.screen_mut(screen) {
            s.is_entry = true;
        }
    }

    /// Sets the number of decorative widgets on a screen.
    pub fn set_decorations(&mut self, screen: ScreenId, n: usize) {
        if let Some(s) = self.screen_mut(screen) {
            s.decorations = n;
        }
    }

    /// Allocates `n` fresh method ids.
    pub fn alloc_methods(&mut self, n: usize) -> Vec<MethodId> {
        self.methods.alloc_many(n)
    }

    /// Attaches render methods to a screen.
    pub fn set_screen_methods(&mut self, screen: ScreenId, methods: Vec<MethodId>) {
        if let Some(s) = self.screen_mut(screen) {
            s.methods = methods;
        }
    }

    /// Declares methods covered by app startup (shared framework pool).
    pub fn set_startup_methods(&mut self, methods: Vec<MethodId>) {
        self.startup_methods = methods;
    }

    /// Adds a deterministic click transition; returns the action id.
    pub fn add_click(
        &mut self,
        from: ScreenId,
        to: ScreenId,
        widget_rid: &str,
        label: &str,
    ) -> ActionId {
        self.add_action(from, ActionKind::Click, widget_rid, label, vec![(to, 1.0)])
    }

    /// Adds an action with a target distribution; returns the action id.
    pub fn add_action(
        &mut self,
        from: ScreenId,
        kind: ActionKind,
        widget_rid: &str,
        label: &str,
        targets: Vec<(ScreenId, f64)>,
    ) -> ActionId {
        let id = ActionId(self.actions.len() as u32);
        let spec = ActionSpec {
            id,
            kind,
            widget_rid: widget_rid.to_owned(),
            label: label.to_owned(),
            targets: targets
                .into_iter()
                .map(|(s, w)| TransitionTarget::new(s, w))
                .collect(),
            methods: Vec::new(),
            crash: None,
        };
        let slot = self.screen_mut(from).map(|s| {
            s.actions.push(spec);
            (from.0, s.actions.len() as u32 - 1)
        });
        self.actions.push(slot);
        id
    }

    /// Attaches handler methods to an existing action.
    pub fn set_action_methods(&mut self, action: ActionId, methods: Vec<MethodId>) {
        if let Some(a) = self.action_mut(action) {
            a.methods = methods;
        }
    }

    /// Attaches a crash point to an existing action.
    pub fn set_action_crash(&mut self, action: ActionId, crash: CrashPoint) {
        if let Some(a) = self.action_mut(action) {
            a.crash = Some(crash);
        }
    }

    /// Attaches a paginated content feed to a screen: `pages` extra pages,
    /// each granting `methods_per_page` fresh methods on first reach.
    pub fn set_feed(&mut self, screen: ScreenId, pages: usize, methods_per_page: usize) {
        let page_methods: Vec<Vec<MethodId>> = (0..pages)
            .map(|_| self.methods.alloc_many(methods_per_page))
            .collect();
        if let Some(s) = self.screen_mut(screen) {
            s.feed = Some(crate::spec::FeedSpec {
                pages,
                page_methods,
            });
        }
    }

    /// Adds a flow rule.
    pub fn add_flow(&mut self, screens: Vec<ScreenId>, methods: Vec<MethodId>) {
        self.flows.push(FlowRule { screens, methods });
    }

    /// Configures the login gate.
    pub fn set_login(&mut self, login: LoginSpec) {
        self.login = Some(login);
    }

    /// Sets the start screen.
    pub fn set_start(&mut self, screen: ScreenId) {
        self.start = Some(screen);
    }

    /// Pushes a raw action spec (test helper for invalid specs). The
    /// action is not indexed: the action setters never reach it, and its
    /// id may clash with a built one, which [`AppBuilder::build`] reports.
    pub fn push_raw_action(&mut self, screen: ScreenId, action: ActionSpec) {
        if let Some(s) = self.screen_mut(screen) {
            s.actions.push(action);
        }
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns an [`AppSimError`] if the spec is inconsistent (dangling
    /// targets, duplicate ids, missing start screen…).
    pub fn build(self) -> Result<App, AppSimError> {
        let start = self.start.ok_or(AppSimError::NoScreens)?;
        App::assemble(
            self.name,
            self.screens,
            self.functionalities,
            start,
            self.flows,
            self.login,
            self.methods.allocated(),
            self.startup_methods,
        )
    }

    fn screen_mut(&mut self, id: ScreenId) -> Option<&mut ScreenSpec> {
        self.screens.get_mut(id.0 as usize)
    }

    fn action_mut(&mut self, id: ActionId) -> Option<&mut ActionSpec> {
        let (screen, slot) = (*self.actions.get(id.0 as usize)?)?;
        Some(&mut self.screens[screen as usize].actions[slot as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_fails() {
        assert!(AppBuilder::new("x").build().is_err());
    }

    #[test]
    fn start_screen_must_exist() {
        let mut b = AppBuilder::new("x");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let _s = b.add_screen(act, f, "S");
        b.set_start(ScreenId(99));
        assert_eq!(
            b.build().unwrap_err(),
            AppSimError::BadStartScreen(ScreenId(99))
        );
    }

    #[test]
    fn methods_attach_to_screens_and_actions() {
        let mut b = AppBuilder::new("x");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let s1 = b.add_screen(act, f, "A");
        let s2 = b.add_screen(act, f, "B");
        let m_screen = b.alloc_methods(3);
        let m_action = b.alloc_methods(2);
        b.set_screen_methods(s1, m_screen.clone());
        let a = b.add_click(s1, s2, "w", "l");
        b.set_action_methods(a, m_action.clone());
        b.set_start(s1);
        let app = b.build().unwrap();
        assert_eq!(app.method_count(), 5);
        assert_eq!(app.screen(s1).unwrap().methods, m_screen);
        assert_eq!(app.screen(s1).unwrap().action(a).unwrap().methods, m_action);
    }

    #[test]
    fn action_setters_reach_earlier_screens() {
        let mut b = AppBuilder::new("x");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let s1 = b.add_screen(act, f, "A");
        let s2 = b.add_screen(act, f, "B");
        let first = b.add_click(s1, s2, "w0", "l0");
        let second = b.add_click(s1, s1, "w1", "l1");
        // Later screens and actions must not move the earlier ones.
        for i in 0..5 {
            let s = b.add_screen(act, f, &format!("C{i}"));
            b.add_click(s, s1, "back", "Back");
            b.add_click(s2, s, "open", "Open");
        }
        let m = b.alloc_methods(2);
        b.set_action_methods(second, m.clone());
        let crash = CrashPoint::new(0.5, 1, crate::crash::CrashSignature(7));
        b.set_action_crash(first, crash.clone());
        b.set_start(s1);
        let app = b.build().unwrap();
        let home = app.screen(s1).unwrap();
        assert_eq!(home.action(second).unwrap().methods, m);
        assert_eq!(home.action(second).unwrap().crash, None);
        assert_eq!(home.action(first).unwrap().crash, Some(crash));
        assert!(home.action(first).unwrap().methods.is_empty());
    }

    #[test]
    fn action_setters_ignore_ids_never_placed() {
        let build = |stray: bool| {
            let mut b = AppBuilder::new("x");
            let f = b.add_functionality("F");
            let act = b.add_activity();
            let s = b.add_screen(act, f, "S");
            b.add_click(s, s, "w", "l");
            if stray {
                let crash = CrashPoint::new(1.0, 0, crate::crash::CrashSignature(1));
                // Never allocated.
                b.set_action_methods(ActionId(99), vec![MethodId(0)]);
                b.set_action_crash(ActionId(99), crash.clone());
                // Allocated, but its screen does not exist.
                let lost = b.add_click(ScreenId(42), s, "w", "l");
                b.set_action_methods(lost, vec![MethodId(0)]);
                b.set_action_crash(lost, crash);
            }
            b.set_start(s);
            b.build().unwrap()
        };
        let (plain, stray) = (build(false), build(true));
        assert!(plain.screens().eq(stray.screens()));
    }

    #[test]
    fn raw_actions_still_fail_assembly() {
        let setup = || {
            let mut b = AppBuilder::new("x");
            let f = b.add_functionality("F");
            let act = b.add_activity();
            let s = b.add_screen(act, f, "S");
            let a = b.add_click(s, s, "w", "l");
            b.set_start(s);
            (b, s, a)
        };
        let (mut b, s, _) = setup();
        b.push_raw_action(
            s,
            ActionSpec::click_to(ActionId(9), "x", "y", ScreenId(4242)),
        );
        assert_eq!(
            b.build().unwrap_err(),
            AppSimError::DanglingTarget {
                action: ActionId(9),
                target: ScreenId(4242)
            }
        );
        let (mut b, s, a) = setup();
        b.push_raw_action(s, ActionSpec::click_to(a, "x", "y", s));
        assert_eq!(b.build().unwrap_err(), AppSimError::DuplicateAction(a));
    }

    #[test]
    fn login_spec_is_validated() {
        let mut b = AppBuilder::new("x");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let s = b.add_screen(act, f, "S");
        b.set_start(s);
        b.set_login(LoginSpec {
            login_screen: s,
            login_action: ActionId(77),
            home_screen: s,
        });
        assert_eq!(b.build().unwrap_err(), AppSimError::BadLoginSpec);
    }
}
