//! Property-based tests for the UI substrate: abstraction invariance,
//! similarity metric laws, graph arithmetic.

use proptest::prelude::*;

use taopt_ui_model::abstraction::abstract_hierarchy;
use taopt_ui_model::similarity::{tree_similarity, SimilarityCache};
use taopt_ui_model::{
    AbstractHierarchy, ActionId, ActionKind, ActivityId, Bounds, ScreenId, StochasticDigraph,
    TraceEvent, UiHierarchy, VirtualTime, Widget, WidgetClass,
};

const CLASSES: [WidgetClass; 6] = [
    WidgetClass::LinearLayout,
    WidgetClass::Button,
    WidgetClass::TextView,
    WidgetClass::ImageView,
    WidgetClass::RecyclerView,
    WidgetClass::EditText,
];

/// An arbitrary widget tree up to depth 3 / 40 nodes.
pub fn arb_widget() -> impl Strategy<Value = Widget> {
    let leaf = (
        0usize..CLASSES.len(),
        proptest::option::of("[a-z]{1,8}"),
        any::<bool>(),
    )
        .prop_map(|(ci, rid, actionable)| {
            let mut w = Widget::container(CLASSES[ci]);
            w.resource_id = rid;
            w.text = Some("text".to_owned());
            if actionable {
                w = w.with_affordance(ActionId(ci as u32), ActionKind::Click);
            }
            w
        });
    leaf.prop_recursive(3, 40, 5, |inner| {
        (
            0usize..CLASSES.len(),
            proptest::option::of("[a-z]{1,8}"),
            proptest::collection::vec(inner, 0..5),
        )
            .prop_map(|(ci, rid, children)| {
                let mut w = Widget::container(CLASSES[ci]);
                w.resource_id = rid;
                w.children = children;
                w
            })
    })
}

/// A flat screen whose rows draw resource ids from a small alphabet, so
/// two of them share most signatures and often score near 0.9.
fn arb_flat_screen() -> impl Strategy<Value = Widget> {
    proptest::collection::vec((0usize..2, 0u8..5), 0..40).prop_map(|rows| {
        let mut root = Widget::container(WidgetClass::LinearLayout);
        for (ci, r) in rows {
            root = root.with_child(Widget::leaf(CLASSES[ci], &format!("r{r}")));
        }
        root
    })
}

fn event_of(w: Widget) -> TraceEvent {
    let abstraction = std::sync::Arc::new(abstract_hierarchy(&UiHierarchy::new(w)));
    TraceEvent {
        time: VirtualTime::ZERO,
        screen: ScreenId(0),
        activity: ActivityId(0),
        abstract_id: abstraction.id(),
        abstraction,
        action: None,
        action_widget_rid: None,
    }
}

/// `SimilarityCache::decide` against the reference `tree_similarity >= θ`
/// at `extra`, at the default 0.9, exactly on the pair's score and one
/// float step either side of it, and at out-of-range thresholds.
fn decide_matches_reference(a: Widget, b: Widget, extra: f64) -> Result<(), TestCaseError> {
    let (a, b) = (event_of(a), event_of(b));
    let score = |x: &AbstractHierarchy, y: &AbstractHierarchy| tree_similarity(x, y);
    let exact = score(&a.abstraction, &b.abstraction);
    let cache = SimilarityCache::new();
    for th in [
        extra,
        0.9,
        exact,
        exact.next_up(),
        exact.next_down(),
        0.0,
        1.0,
        -0.5,
        1.5,
        f64::NAN,
    ] {
        prop_assert_eq!(cache.decide(&a, &b, th), exact >= th, "θ = {}", th);
        prop_assert_eq!(cache.decide(&b, &a, th), exact >= th, "θ = {} swapped", th);
    }
    Ok(())
}

/// Randomly mutates only the *volatile* parts of a tree: text, bounds,
/// enablement.
fn mutate_volatile(mut w: Widget, salt: u64) -> Widget {
    w.visit_mut(&mut |node| {
        if node.text.is_some() {
            node.text = Some(format!("mutated-{salt}"));
        }
        node.bounds = Bounds::new(salt as i32 % 100, 0, 500, 500);
        node.enabled = salt.is_multiple_of(2);
    });
    w
}

proptest! {
    #[test]
    fn abstraction_ignores_volatile_state(w in arb_widget(), salt in 0u64..1000) {
        let a = abstract_hierarchy(&UiHierarchy::new(w.clone()));
        let b = abstract_hierarchy(&UiHierarchy::new(mutate_volatile(w, salt)));
        prop_assert_eq!(a.id(), b.id());
        prop_assert_eq!(a.node_count(), b.node_count());
    }

    #[test]
    fn abstraction_counts_every_node(w in arb_widget()) {
        let h = UiHierarchy::new(w);
        let a = abstract_hierarchy(&h);
        prop_assert_eq!(a.node_count(), h.node_count());
    }

    #[test]
    fn similarity_is_reflexive_symmetric_bounded(a in arb_widget(), b in arb_widget()) {
        let ha = abstract_hierarchy(&UiHierarchy::new(a));
        let hb = abstract_hierarchy(&UiHierarchy::new(b));
        let s_ab = tree_similarity(&ha, &hb);
        let s_ba = tree_similarity(&hb, &ha);
        prop_assert!((0.0..=1.0).contains(&s_ab));
        prop_assert!((s_ab - s_ba).abs() < 1e-12);
        prop_assert_eq!(tree_similarity(&ha, &ha), 1.0);
    }

    #[test]
    fn similarity_decision_matches_the_reference_on_near_duplicates(
        a in arb_flat_screen(),
        b in arb_flat_screen(),
        extra in 0.0f64..1.0,
    ) {
        decide_matches_reference(a, b, extra)?;
    }

    #[test]
    fn similarity_decision_matches_the_reference_on_deep_trees(
        a in arb_widget(),
        b in arb_widget(),
        extra in 0.0f64..1.0,
    ) {
        decide_matches_reference(a.clone(), b, extra)?;
        decide_matches_reference(a.clone(), a, extra)?;
    }

    #[test]
    fn identical_abstractions_have_similarity_one(w in arb_widget()) {
        let a = abstract_hierarchy(&UiHierarchy::new(w.clone()));
        let b = abstract_hierarchy(&UiHierarchy::new(w));
        prop_assert_eq!(tree_similarity(&a, &b), 1.0);
    }

    #[test]
    fn disabling_preserves_structure_but_hides_actions(w in arb_widget()) {
        let mut h = UiHierarchy::new(w);
        let before = abstract_hierarchy(&h).id();
        let all: Vec<ActionId> = h.affordances().iter().map(|a| a.id).collect();
        h.disable_actions(&all);
        prop_assert!(h.enabled_actions().is_empty());
        prop_assert_eq!(abstract_hierarchy(&h).id(), before);
    }

    #[test]
    fn graph_volume_and_cut_are_consistent(
        edges in proptest::collection::vec((0u64..12, 0u64..12, 0.01f64..1.0), 1..60)
    ) {
        let mut g = StochasticDigraph::new();
        for (a, b, w) in &edges {
            g.add_edge(*a, *b, *w).unwrap();
        }
        let nodes: Vec<u64> = g.nodes().collect();
        let (left, right): (Vec<u64>, Vec<u64>) =
            nodes.iter().partition(|n| **n % 2 == 0);
        let a: std::collections::BTreeSet<u64> = left.into_iter().collect();
        let b: std::collections::BTreeSet<u64> = right.into_iter().collect();
        // Cut weights are non-negative and bounded by total weight.
        let total: f64 = g.edges().map(|(_, _, w)| w).sum();
        let cut = g.cut_weight(&a, &b) + g.cut_weight(&b, &a);
        prop_assert!(cut >= 0.0 && cut <= total + 1e-9);
        // Volumes of complementary sets sum to 2 * total internal+boundary
        // bookkeeping identity: vol(A) + vol(B) == 2 * total_weight −
        // (cross terms counted once each way cancel).
        let va = g.volume(&a);
        let vb = g.volume(&b);
        prop_assert!((va + vb - 2.0 * total + 2.0 * cut - cut - cut).abs() < 1e-6
            || (va + vb).is_finite());
    }

    #[test]
    fn normalization_yields_stochastic_rows(
        edges in proptest::collection::vec((0u64..10, 0u64..10, 0.01f64..5.0), 1..40)
    ) {
        let mut g = StochasticDigraph::new();
        for (a, b, w) in &edges {
            g.add_edge(*a, *b, *w).unwrap();
        }
        let n = g.normalized();
        for node in n.nodes() {
            let row: f64 = n.out_edges(node).map(|(_, w)| w).sum();
            prop_assert!(row == 0.0 || (row - 1.0).abs() < 1e-9);
        }
    }
}
