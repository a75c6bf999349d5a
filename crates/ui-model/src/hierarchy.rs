//! UI hierarchies — the screen content visible to a testing tool.

use std::fmt;
use std::sync::Arc;

use crate::action::{Action, ActionId, ActionKind};
use crate::widget::Widget;

/// One affordance of a page, as its action table lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct Affordance {
    /// The action the widget fires.
    pub id: ActionId,
    /// Its gesture class.
    pub kind: ActionKind,
    /// Whether the widget is enabled (enforcement clears this).
    pub enabled: bool,
    /// The widget's resource id, shared by every clone of the hierarchy.
    pub resource_id: Option<Arc<str>>,
}

/// A page's affordances in document order, derived from its tree.
#[derive(Debug, Default)]
struct ActionTable {
    all: Vec<Affordance>,
    /// `(id, kind)` of the enabled entries of `all`: the tools' menu.
    enabled: Vec<(ActionId, ActionKind)>,
}

impl ActionTable {
    fn of(root: &Widget) -> Self {
        let mut table = ActionTable::default();
        root.visit(&mut |w| {
            if let Some((id, kind)) = w.affordance {
                table.all.push(Affordance {
                    id,
                    kind,
                    enabled: w.enabled,
                    resource_id: w.resource_id.as_deref().map(Arc::from),
                });
                if w.enabled {
                    table.enabled.push((id, kind));
                }
            }
        });
        table
    }
}

/// A full-screen widget tree, analogous to a `uiautomator dump`.
///
/// The hierarchy is the *only* interface between the app under test and a
/// testing tool: tools enumerate enabled affordances from it, and the Toller
/// enforcement shim disables widgets on it before the tool looks.
///
/// Beside the tree the hierarchy carries its *action table*: every
/// affordance in document order with its enabled flag and resource id.
/// Tools and the transition monitor read the table, never the tree, so an
/// observation is answered without a walk. The table is built with the
/// tree ([`UiHierarchy::new`]) and again only after a disable changes the
/// tree.
///
/// Tree and table sit behind `Arc`s and are copied on write: cloning a
/// hierarchy (say, an app's shared page template) copies no widget, and
/// a disable that actually disables something copies the tree once if it
/// is shared, so a change never shows through another holder.
#[derive(Clone)]
pub struct UiHierarchy {
    root: Arc<Widget>,
    actions: Arc<ActionTable>,
}

impl fmt::Debug for UiHierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UiHierarchy")
            .field("root", &self.root)
            .finish()
    }
}

/// Two hierarchies are equal when their trees are; the action table is a
/// function of the tree.
impl PartialEq for UiHierarchy {
    fn eq(&self, other: &Self) -> bool {
        self.root == other.root
    }
}

impl UiHierarchy {
    /// Wraps a widget tree and builds its action table.
    pub fn new(root: Widget) -> Self {
        let actions = Arc::new(ActionTable::of(&root));
        UiHierarchy {
            root: Arc::new(root),
            actions,
        }
    }

    /// The root widget.
    pub fn root(&self) -> &Widget {
        &self.root
    }

    /// Whether `self` and `other` share one tree (neither copied it since
    /// one was cloned from the other).
    pub fn shares_tree(&self, other: &UiHierarchy) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Total number of widgets.
    pub fn node_count(&self) -> usize {
        self.root.subtree_size()
    }

    /// All *enabled* affordances on this screen, in document order.
    ///
    /// This is the action menu a testing tool chooses from; disabled
    /// widgets (blocked entrypoints) do not appear.
    pub fn enabled_actions(&self) -> &[(ActionId, ActionKind)] {
        &self.actions.enabled
    }

    /// Every affordance regardless of enablement, in document order.
    pub fn affordances(&self) -> &[Affordance] {
        &self.actions.all
    }

    /// The first affordance (in document order) firing `id`.
    pub fn affordance(&self, id: ActionId) -> Option<&Affordance> {
        self.actions.all.iter().find(|a| a.id == id)
    }

    /// Whether the given action is currently offered (enabled).
    pub fn offers(&self, action: Action) -> bool {
        match action {
            Action::Widget(id) => self.enabled_actions().iter().any(|(a, _)| *a == id),
            Action::Back => true,
            Action::Noop => true,
        }
    }

    /// Disables every widget carrying one of the given action ids.
    ///
    /// Returns the number of widgets disabled. This is the primitive the
    /// Toller shim uses to block UI-subspace entrypoints (paper §5.3).
    pub fn disable_actions(&mut self, blocked: &[ActionId]) -> usize {
        self.disable_where(|w| matches!(w.affordance, Some((id, _)) if blocked.contains(&id)))
    }

    /// Disables every widget whose resource id equals `rid`.
    ///
    /// Returns the number of widgets disabled. This is the *tool-agnostic*
    /// enforcement primitive: TaOPT identifies entrypoint widgets by their
    /// stable resource ids (not by simulator-internal action ids), exactly
    /// as the real Toller matches UI elements in the hierarchy.
    pub fn disable_by_resource_id(&mut self, rid: &str) -> usize {
        self.disable_where(|w| w.resource_id.as_deref() == Some(rid))
    }

    /// Disables every enabled widget that `hit` selects. The tree is
    /// scanned read-only first, so a disable that matches nothing never
    /// copies a shared tree; one that does rebuilds the action table.
    fn disable_where(&mut self, hit: impl Fn(&Widget) -> bool) -> usize {
        let mut any = false;
        self.root.visit(&mut |w| any |= w.enabled && hit(w));
        if !any {
            return 0;
        }
        let mut n = 0;
        let root = Arc::make_mut(&mut self.root);
        root.visit_mut(&mut |w| {
            if w.enabled && hit(w) {
                w.enabled = false;
                n += 1;
            }
        });
        self.actions = Arc::new(ActionTable::of(root));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::WidgetClass;

    fn screen() -> UiHierarchy {
        UiHierarchy::new(
            Widget::container(WidgetClass::LinearLayout)
                .with_child(
                    Widget::button("buy", "Buy").with_affordance(ActionId(1), ActionKind::Click),
                )
                .with_child(
                    Widget::leaf(WidgetClass::RecyclerView, "list")
                        .with_affordance(ActionId(2), ActionKind::Scroll),
                )
                .with_child(Widget::text_view("title", "Shop")),
        )
    }

    #[test]
    fn enabled_actions_lists_affordances_in_order() {
        let h = screen();
        let ids: Vec<_> = h.enabled_actions().iter().map(|(a, _)| a.0).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn disable_actions_hides_them_from_enumeration() {
        let mut h = screen();
        assert_eq!(h.disable_actions(&[ActionId(1)]), 1);
        let ids: Vec<_> = h.enabled_actions().iter().map(|(a, _)| a.0).collect();
        assert_eq!(ids, vec![2]);
        // The table still lists the disabled affordance, marked so.
        let flags: Vec<_> = h.affordances().iter().map(|a| a.enabled).collect();
        assert_eq!(flags, vec![false, true]);
        // Disabling again is a no-op.
        assert_eq!(h.disable_actions(&[ActionId(1)]), 0);
    }

    #[test]
    fn offers_back_and_noop_always() {
        let h = screen();
        assert!(h.offers(Action::Back));
        assert!(h.offers(Action::Noop));
        assert!(h.offers(Action::Widget(ActionId(1))));
        assert!(!h.offers(Action::Widget(ActionId(99))));
    }

    #[test]
    fn disable_by_resource_id_hides_matching_widgets() {
        let mut h = screen();
        assert_eq!(h.disable_by_resource_id("buy"), 1);
        assert!(!h.offers(Action::Widget(ActionId(1))));
        assert_eq!(h.disable_by_resource_id("buy"), 0, "idempotent");
        assert_eq!(h.disable_by_resource_id("nope"), 0);
    }

    #[test]
    fn disabling_copies_a_shared_tree_only_on_a_hit() {
        let shared = screen();
        let mut copy = shared.clone();
        assert_eq!(copy.disable_by_resource_id("nope"), 0);
        assert!(copy.shares_tree(&shared), "a miss copies nothing");
        assert_eq!(copy.disable_by_resource_id("buy"), 1);
        assert!(!copy.shares_tree(&shared), "a hit copies the tree");
        assert!(
            shared.offers(Action::Widget(ActionId(1))),
            "original intact"
        );
        assert!(!copy.offers(Action::Widget(ActionId(1))));
    }

    #[test]
    fn affordance_finds_carrier() {
        let h = screen();
        let a = h.affordance(ActionId(2)).expect("should find scroll list");
        assert_eq!(a.resource_id.as_deref(), Some("list"));
        assert_eq!(a.kind, ActionKind::Scroll);
        assert!(h.affordance(ActionId(42)).is_none());
    }
}
