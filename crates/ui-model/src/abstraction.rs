//! Screen abstraction — removing volatile content from UI hierarchies.
//!
//! The paper abstracts each screen before comparison "to avoid excessive
//! counts of similar screens. This abstraction removes text associated with
//! UI elements" (§5.2, citing Baek & Bae and Su et al.). The abstraction
//! here keeps the tree *structure*, widget *classes* and *resource ids* —
//! the stable identity of a screen — and drops text, enablement and bounds.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::hierarchy::UiHierarchy;
use crate::widget::{Widget, WidgetClass};

/// Hash identity of an abstracted screen. Two screens with the same
/// structure, classes and resource ids share an id even when their text
/// content differs (e.g. two product-detail pages for different goods).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AbstractScreenId(pub u64);

impl fmt::Display for AbstractScreenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ui#{:016x}", self.0)
    }
}

/// One node of a hand-built abstraction (see [`AbstractHierarchy::from_root`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AbstractNode {
    /// Widget class (kept by the abstraction).
    pub class: WidgetClass,
    /// Resource id (kept; stable across visits).
    pub resource_id: Option<String>,
    /// Abstracted children.
    pub children: Vec<AbstractNode>,
}

impl AbstractNode {
    /// Number of nodes in the subtree.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(AbstractNode::subtree_size)
            .sum::<usize>()
    }

    fn collect_signatures(&self, depth: u32, out: &mut Vec<u64>) {
        out.push(signature(depth, self.class, &self.resource_id));
        for c in &self.children {
            c.collect_signatures(depth + 1, out);
        }
    }
}

/// The similarity measure's view of one node: its `(depth, class,
/// resource_id)` triple hashed to `u64`.
fn signature(depth: u32, class: WidgetClass, resource_id: &Option<String>) -> u64 {
    let mut h = DefaultHasher::new();
    depth.hash(&mut h);
    class.hash(&mut h);
    resource_id.hash(&mut h);
    h.finish()
}

fn collect_widget_signatures(w: &Widget, depth: u32, out: &mut Vec<u64>) {
    out.push(signature(depth, w.class, &w.resource_id));
    for c in &w.children {
        collect_widget_signatures(c, depth + 1, out);
    }
}

/// A text-free structural abstraction of a screen's widget tree: the
/// sorted multiset of its node signatures and their hash. The tree
/// itself is not kept; equality is equality of id and signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractHierarchy {
    id: AbstractScreenId,
    signatures: Vec<u64>,
}

impl AbstractHierarchy {
    /// Builds an abstraction from an abstract root node.
    pub fn from_root(root: AbstractNode) -> Self {
        let mut signatures = Vec::with_capacity(root.subtree_size());
        root.collect_signatures(0, &mut signatures);
        Self::from_signatures(signatures)
    }

    fn from_signatures(mut signatures: Vec<u64>) -> Self {
        signatures.sort_unstable();
        let mut h = DefaultHasher::new();
        signatures.hash(&mut h);
        AbstractHierarchy {
            id: AbstractScreenId(h.finish()),
            signatures,
        }
    }

    /// Stable hash identity of this abstraction.
    pub fn id(&self) -> AbstractScreenId {
        self.id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.signatures.len()
    }

    /// Sorted multiset of node signatures (for similarity computation).
    pub(crate) fn signatures(&self) -> &[u64] {
        &self.signatures
    }
}

/// Abstracts a concrete hierarchy: keeps structure, classes, resource ids;
/// removes text, enablement, affordances and geometry.
///
/// The abstraction is *idempotent* with respect to text edits: two
/// hierarchies differing only in widget text produce identical abstractions.
pub fn abstract_hierarchy(hierarchy: &UiHierarchy) -> AbstractHierarchy {
    let mut signatures = Vec::with_capacity(hierarchy.node_count());
    collect_widget_signatures(hierarchy.root(), 0, &mut signatures);
    AbstractHierarchy::from_signatures(signatures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionId, ActionKind};

    fn page(text: &str, extra_row: bool) -> UiHierarchy {
        let mut root = Widget::container(WidgetClass::LinearLayout)
            .with_child(Widget::text_view("title", text))
            .with_child(
                Widget::button("add", "Add to bag").with_affordance(ActionId(1), ActionKind::Click),
            );
        if extra_row {
            root = root.with_child(Widget::leaf(WidgetClass::ImageView, "banner"));
        }
        UiHierarchy::new(root)
    }

    #[test]
    fn text_changes_do_not_change_identity() {
        let a = abstract_hierarchy(&page("Red shoes", false));
        let b = abstract_hierarchy(&page("Blue coat, 50% off!", false));
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
    }

    #[test]
    fn structural_changes_change_identity() {
        let a = abstract_hierarchy(&page("x", false));
        let b = abstract_hierarchy(&page("x", true));
        assert_ne!(a.id(), b.id());
        assert_eq!(b.node_count(), a.node_count() + 1);
    }

    #[test]
    fn disablement_does_not_change_identity() {
        let mut h = page("x", false);
        let before = abstract_hierarchy(&h);
        h.disable_actions(&[ActionId(1)]);
        let after = abstract_hierarchy(&h);
        assert_eq!(before.id(), after.id());
    }

    /// A hand-built abstract tree mirroring a widget tree.
    fn mirror(w: &Widget) -> AbstractNode {
        AbstractNode {
            class: w.class,
            resource_id: w.resource_id.clone(),
            children: w.children.iter().map(mirror).collect(),
        }
    }

    #[test]
    fn hand_built_and_derived_abstractions_agree() {
        for extra_row in [false, true] {
            let h = page("x", extra_row);
            let derived = abstract_hierarchy(&h);
            let built = AbstractHierarchy::from_root(mirror(h.root()));
            assert_eq!(built, derived);
            assert_eq!(built.signatures(), derived.signatures());
        }
    }

    #[test]
    fn equality_is_id_and_signatures() {
        // Sibling order is not part of the signature multiset, so two
        // trees that differ only in it are one abstraction.
        let a = page("x", true);
        let mut root = a.root().clone();
        root.children.reverse();
        let b = UiHierarchy::new(root);
        assert_eq!(abstract_hierarchy(&a), abstract_hierarchy(&b));
        assert_ne!(
            abstract_hierarchy(&a),
            abstract_hierarchy(&page("x", false))
        );
    }

    #[test]
    fn signatures_are_sorted() {
        let a = abstract_hierarchy(&page("x", true));
        let sigs = a.signatures();
        assert!(sigs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sigs.len(), a.node_count());
    }
}
