//! Entrypoint enforcement — blocking UI subspaces by disabling widgets.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use taopt_telemetry::{Counter, Labels};
use taopt_ui_model::{AbstractScreenId, UiHierarchy};

/// One blocked subspace entrypoint.
///
/// An entrypoint is identified tool-agnostically by the *abstract screen*
/// hosting the entry widget and the widget's stable *resource id* — both
/// observable from UI hierarchies alone, with no knowledge of the app's
/// internals or the testing tool.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntrypointRule {
    /// Abstract identity of the screen the entry widget lives on.
    pub screen: AbstractScreenId,
    /// Resource id of the entry widget to disable.
    pub widget_rid: String,
}

impl EntrypointRule {
    /// Creates a rule.
    pub fn new(screen: AbstractScreenId, widget_rid: impl Into<String>) -> Self {
        EntrypointRule {
            screen,
            widget_rid: widget_rid.into(),
        }
    }
}

impl fmt::Display for EntrypointRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {} on {}", self.widget_rid, self.screen)
    }
}

/// The source of rule-set generations: every change to any list draws
/// a fresh number, so a generation names one rule set process-wide.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// `block_rules_{installed,removed}_total`, resolved once.
fn rule_counters() -> &'static (Counter, Counter) {
    static COUNTERS: OnceLock<(Counter, Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let t = taopt_telemetry::global();
        (
            t.counter_labeled("block_rules_installed_total", Labels::seam("enforce")),
            t.counter_labeled("block_rules_removed_total", Labels::seam("enforce")),
        )
    })
}

/// The set of entrypoints blocked on one testing instance.
///
/// The test coordinator owns one `BlockList` per instance (wrapped in a
/// [`SharedBlockList`]) and updates it when subspaces are dedicated; the
/// instance's step loop applies it to every observation.
///
/// The list carries a [`generation`](Self::generation): a `block` or
/// `unblock` that changes the rules draws a fresh, process-unique one, so
/// two lists (or one list at two moments) with one generation hold the
/// same rules, across clones and assignments too. An instance keeps its
/// enforced pages for as long as the generation stands.
#[derive(Debug, Clone, Default)]
pub struct BlockList {
    rules: Vec<EntrypointRule>,
    generation: u64,
}

impl BlockList {
    /// Creates an empty block list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule (deduplicating).
    pub fn block(&mut self, rule: EntrypointRule) {
        if !self.rules.contains(&rule) {
            self.rules.push(rule);
            self.bump();
            rule_counters().0.inc();
        }
    }

    /// Removes a rule (used when a subspace is dedicated to this very
    /// instance).
    pub fn unblock(&mut self, rule: &EntrypointRule) {
        let before = self.rules.len();
        self.rules.retain(|r| r != rule);
        if self.rules.len() < before {
            self.bump();
            rule_counters().1.inc();
        }
    }

    fn bump(&mut self) {
        self.generation = NEXT_GENERATION.fetch_add(1, Ordering::Relaxed);
    }

    /// The rule set's generation (0 for a list never changed, which is
    /// empty).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether some rule targets screen `screen`.
    pub fn targets(&self, screen: AbstractScreenId) -> bool {
        self.rules.iter().any(|r| r.screen == screen)
    }

    /// The current rules.
    pub fn rules(&self) -> &[EntrypointRule] {
        &self.rules
    }

    /// Whether `rule` is currently present.
    pub fn contains(&self, rule: &EntrypointRule) -> bool {
        self.rules.contains(rule)
    }

    /// The rule changes that would turn this list into `intended`,
    /// as `(to_block, to_unblock)` in stable rule order.
    ///
    /// This is the primitive behind enforcement reconciliation: a
    /// broadcaster diffs a device-side list against the coordinator's
    /// intent and delivers exactly these operations, so retries stay
    /// idempotent and nothing is re-sent once it has landed.
    pub fn diff_to(&self, intended: &BlockList) -> (Vec<EntrypointRule>, Vec<EntrypointRule>) {
        let to_block = intended
            .rules
            .iter()
            .filter(|r| !self.contains(r))
            .cloned()
            .collect();
        let to_unblock = self
            .rules
            .iter()
            .filter(|r| !intended.contains(r))
            .cloned()
            .collect();
        (to_block, to_unblock)
    }

    /// Whether no entrypoints are blocked.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Applies the rules to a hierarchy observed on screen `screen`:
    /// disables every matching widget. Returns how many were disabled.
    pub fn apply(&self, screen: AbstractScreenId, hierarchy: &mut UiHierarchy) -> usize {
        let mut n = 0;
        for rule in &self.rules {
            if rule.screen == screen {
                n += hierarchy.disable_by_resource_id(&rule.widget_rid);
            }
        }
        n
    }
}

/// A block list shared between the coordinator and an instance's step loop.
pub type SharedBlockList = Arc<RwLock<BlockList>>;

/// Creates a fresh shared block list.
pub fn shared_block_list() -> SharedBlockList {
    Arc::new(RwLock::new(BlockList::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_app_sim::{generate_app, AppRuntime, GeneratorConfig};
    use taopt_ui_model::abstraction::abstract_hierarchy;
    use taopt_ui_model::{Action, ActionId, ActionKind, VirtualTime, Widget, WidgetClass};

    fn hierarchy() -> UiHierarchy {
        UiHierarchy::new(
            Widget::container(WidgetClass::LinearLayout)
                .with_child(
                    Widget::button("tab_shop", "Shop")
                        .with_affordance(ActionId(1), ActionKind::Click),
                )
                .with_child(
                    Widget::button("tab_account", "Account")
                        .with_affordance(ActionId(2), ActionKind::Click),
                ),
        )
    }

    #[test]
    fn apply_disables_only_matching_screen_and_rid() {
        let mut h = hierarchy();
        let sid = abstract_hierarchy(&h).id();
        let mut bl = BlockList::new();
        bl.block(EntrypointRule::new(sid, "tab_shop"));
        assert_eq!(bl.apply(sid, &mut h), 1);
        assert_eq!(h.enabled_actions().len(), 1);
        // Different screen id: nothing happens.
        let mut h2 = hierarchy();
        assert_eq!(bl.apply(AbstractScreenId(0), &mut h2), 0);
        assert_eq!(h2.enabled_actions().len(), 2);
    }

    #[test]
    fn block_dedupes_and_unblock_removes() {
        let mut bl = BlockList::new();
        let r = EntrypointRule::new(AbstractScreenId(1), "x");
        bl.block(r.clone());
        bl.block(r.clone());
        assert_eq!(bl.rules().len(), 1);
        bl.unblock(&r);
        assert!(bl.is_empty());
    }

    #[test]
    fn only_a_change_moves_the_generation() {
        let mut bl = BlockList::new();
        assert_eq!(bl.generation(), 0);
        let r = EntrypointRule::new(AbstractScreenId(1), "x");
        bl.block(r.clone());
        let blocked = bl.generation();
        assert_ne!(blocked, 0);
        bl.block(r.clone());
        bl.unblock(&EntrypointRule::new(AbstractScreenId(2), "x"));
        assert_eq!(bl.generation(), blocked, "no-op changes keep it");
        let copy = bl.clone();
        bl.unblock(&r);
        assert!(bl.is_empty());
        assert_ne!(bl.generation(), blocked);
        assert_ne!(bl.generation(), 0, "empty again, but a new rule set");
        assert_eq!(copy.generation(), blocked, "a clone keeps its rules' name");
        let mut other = BlockList::new();
        other.block(r);
        assert_ne!(other.generation(), blocked, "equal rules, other history");
    }

    #[test]
    fn diff_to_yields_exactly_the_missing_and_stale_rules() {
        let mut actual = BlockList::new();
        let mut intended = BlockList::new();
        let keep = EntrypointRule::new(AbstractScreenId(1), "keep");
        let stale = EntrypointRule::new(AbstractScreenId(2), "stale");
        let missing = EntrypointRule::new(AbstractScreenId(3), "missing");
        actual.block(keep.clone());
        actual.block(stale.clone());
        intended.block(keep.clone());
        intended.block(missing.clone());
        let (to_block, to_unblock) = actual.diff_to(&intended);
        assert_eq!(to_block, vec![missing]);
        assert_eq!(to_unblock, vec![stale]);
        // A list is always in sync with itself.
        let (b, u) = actual.diff_to(&actual.clone());
        assert!(b.is_empty() && u.is_empty());
    }

    #[test]
    fn enforcement_preserves_abstraction() {
        let mut h = hierarchy();
        let before = abstract_hierarchy(&h).id();
        let mut bl = BlockList::new();
        bl.block(EntrypointRule::new(before, "tab_shop"));
        bl.apply(before, &mut h);
        assert_eq!(abstract_hierarchy(&h).id(), before);
    }

    #[test]
    fn blocking_on_one_instance_leaves_the_shared_template_alone() {
        let app = Arc::new(generate_app(&GeneratorConfig::small("iso", 4)).unwrap());
        let launch = |seed| AppRuntime::launch(Arc::clone(&app), seed);
        let (mut a, mut b) = (launch(1), launch(2));
        let mut obs_a = a.observe(VirtualTime::ZERO);
        let obs_b = b.observe(VirtualTime::ZERO);
        let same_tree = |x: &UiHierarchy, y: &UiHierarchy| x.shares_tree(y);
        assert!(
            same_tree(&obs_a.hierarchy, &obs_b.hierarchy),
            "one template"
        );
        let (aid, _) = obs_a.enabled_actions()[0];
        let rid = obs_a.hierarchy.affordance(aid).unwrap().resource_id.clone();
        let mut bl = BlockList::new();
        bl.block(EntrypointRule::new(obs_a.abstract_id(), &*rid.unwrap()));
        assert_eq!(bl.apply(obs_a.abstract_id(), &mut obs_a.hierarchy), 1);
        let widget = Action::Widget(aid);
        assert!(
            !obs_a.hierarchy.offers(widget),
            "A's observation is blocked"
        );
        assert!(obs_b.hierarchy.offers(widget), "B's is not");
        let template = launch(3).observe(VirtualTime::ZERO).hierarchy;
        assert!(same_tree(&template, &obs_b.hierarchy));
        assert!(template.offers(widget), "the template is untouched");
        assert!(same_tree(
            &a.observe(VirtualTime::ZERO).hierarchy,
            &template
        ));
    }

    #[test]
    fn shared_list_is_visible_across_clones() {
        let shared = shared_block_list();
        let other = Arc::clone(&shared);
        shared
            .write()
            .block(EntrypointRule::new(AbstractScreenId(5), "w"));
        assert_eq!(other.read().rules().len(), 1);
    }
}
