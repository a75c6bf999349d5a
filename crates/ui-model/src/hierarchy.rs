//! UI hierarchies — the screen content visible to a testing tool.

use std::sync::Arc;

use crate::action::{Action, ActionId, ActionKind};
use crate::widget::Widget;

/// A full-screen widget tree, analogous to a `uiautomator dump`.
///
/// The hierarchy is the *only* interface between the app under test and a
/// testing tool: tools enumerate enabled affordances from it, and the Toller
/// enforcement shim disables widgets on it before the tool looks.
///
/// The tree sits behind an `Arc` and is copied on write: cloning a
/// hierarchy, or wrapping an app's shared page template with
/// [`UiHierarchy::from_shared`], copies no widget. [`UiHierarchy::root_mut`]
/// and a disable that actually disables something copy the tree once if
/// it is shared, so a change never shows through another holder.
#[derive(Debug, Clone, PartialEq)]
pub struct UiHierarchy {
    root: Arc<Widget>,
}

impl UiHierarchy {
    /// Wraps a widget tree.
    pub fn new(root: Widget) -> Self {
        UiHierarchy {
            root: Arc::new(root),
        }
    }

    /// Wraps a shared widget tree without copying it.
    pub fn from_shared(root: Arc<Widget>) -> Self {
        UiHierarchy { root }
    }

    /// The root widget.
    pub fn root(&self) -> &Widget {
        &self.root
    }

    /// Mutable access to the root widget; copies the tree first if it is
    /// shared.
    pub fn root_mut(&mut self) -> &mut Widget {
        Arc::make_mut(&mut self.root)
    }

    /// Total number of widgets.
    pub fn node_count(&self) -> usize {
        self.root.subtree_size()
    }

    /// All *enabled* affordances on this screen, in document order.
    ///
    /// This is the action menu a testing tool chooses from; disabled
    /// widgets (blocked entrypoints) do not appear.
    pub fn enabled_actions(&self) -> Vec<(ActionId, ActionKind)> {
        let mut out = Vec::new();
        self.root.visit(&mut |w| {
            if w.enabled {
                if let Some(a) = w.affordance {
                    out.push(a);
                }
            }
        });
        out
    }

    /// All affordances regardless of enablement.
    pub fn all_actions(&self) -> Vec<(ActionId, ActionKind)> {
        let mut out = Vec::new();
        self.root.visit(&mut |w| {
            if let Some(a) = w.affordance {
                out.push(a);
            }
        });
        out
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
    /// copies a shared tree.
    fn disable_where(&mut self, hit: impl Fn(&Widget) -> bool) -> usize {
        let mut any = false;
        self.root.visit(&mut |w| any |= w.enabled && hit(w));
        if !any {
            return 0;
        }
        let mut n = 0;
        self.root_mut().visit_mut(&mut |w| {
            if w.enabled && hit(w) {
                w.enabled = false;
                n += 1;
            }
        });
        n
    }

    /// Finds the widget carrying the given action id.
    pub fn widget_for(&self, id: ActionId) -> Option<&Widget> {
        let mut found: Option<&Widget> = None;
        self.root.visit(&mut |w| {
            if found.is_none() {
                if let Some((a, _)) = w.affordance {
                    if a == id {
                        found = Some(w);
                    }
                }
            }
        });
        found
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
        // All-actions still sees the disabled affordance.
        assert_eq!(h.all_actions().len(), 2);
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
        assert!(
            std::ptr::eq(copy.root(), shared.root()),
            "a miss copies nothing"
        );
        assert_eq!(copy.disable_by_resource_id("buy"), 1);
        assert!(
            !std::ptr::eq(copy.root(), shared.root()),
            "a hit copies the tree"
        );
        assert!(
            shared.offers(Action::Widget(ActionId(1))),
            "original intact"
        );
        assert!(!copy.offers(Action::Widget(ActionId(1))));
    }

    #[test]
    fn widget_for_finds_carrier() {
        let h = screen();
        let w = h.widget_for(ActionId(2)).expect("should find scroll list");
        assert_eq!(w.resource_id.as_deref(), Some("list"));
        assert!(h.widget_for(ActionId(42)).is_none());
    }
}
