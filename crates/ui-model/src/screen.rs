//! Screens and activities.

use std::fmt;
use std::sync::Arc;

use crate::abstraction::{abstract_hierarchy, AbstractHierarchy, AbstractScreenId};
use crate::action::{ActionId, ActionKind};
use crate::hierarchy::UiHierarchy;
use crate::time::VirtualTime;

/// Identifier of a concrete UI screen inside an app's UI-space model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ScreenId(pub u32);

impl fmt::Display for ScreenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of an Android activity (the UI-related code unit the ParaAim
/// baseline partitions on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ActivityId(pub u32);

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Activity{}", self.0)
    }
}

/// What a testing tool (and the Toller monitor) observes after each step:
/// the current screen's hierarchy plus identifying metadata.
///
/// The abstraction of the hierarchy is computed once on construction and
/// shared, since both the tools (Ape's model) and TaOPT's analyzer consume
/// it on every event.
#[derive(Debug, Clone)]
pub struct ScreenObservation {
    /// Concrete screen id (ground truth; used only by the simulator and
    /// evaluation metrics, never by TaOPT's analyzer).
    pub screen: ScreenId,
    /// The activity hosting this screen.
    pub activity: ActivityId,
    /// The (possibly enforcement-filtered) widget tree. A simulated app
    /// hands out its page template here, shared by every observation of
    /// that page; enforcement copies it only when a rule disables a widget,
    /// once per instance and rule set.
    pub hierarchy: UiHierarchy,
    /// Structural abstraction of the hierarchy (text removed).
    pub abstraction: Arc<AbstractHierarchy>,
    /// Virtual timestamp of the observation.
    pub time: VirtualTime,
}

impl ScreenObservation {
    /// Builds an observation, computing the hierarchy abstraction.
    pub fn new(
        screen: ScreenId,
        activity: ActivityId,
        hierarchy: UiHierarchy,
        time: VirtualTime,
    ) -> Self {
        let abstraction = Arc::new(abstract_hierarchy(&hierarchy));
        ScreenObservation {
            screen,
            activity,
            hierarchy,
            abstraction,
            time,
        }
    }

    /// Builds an observation with a pre-computed abstraction.
    ///
    /// Since abstraction ignores volatile text and enablement, a caller
    /// that shows the same page again may reuse its abstraction (a
    /// simulated app keeps it beside the page's template); this is a pure
    /// performance shortcut and must only be used with the abstraction of
    /// the *same* screen structure.
    pub fn with_abstraction(
        screen: ScreenId,
        activity: ActivityId,
        hierarchy: UiHierarchy,
        abstraction: Arc<AbstractHierarchy>,
        time: VirtualTime,
    ) -> Self {
        ScreenObservation {
            screen,
            activity,
            hierarchy,
            abstraction,
            time,
        }
    }

    /// The abstract screen identity (hash of the abstraction).
    pub fn abstract_id(&self) -> AbstractScreenId {
        self.abstraction.id()
    }

    /// Enabled affordances on this screen, in document order (borrowed
    /// from the hierarchy's action table).
    pub fn enabled_actions(&self) -> &[(ActionId, ActionKind)] {
        self.hierarchy.enabled_actions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::{Widget, WidgetClass};

    #[test]
    fn observation_abstracts_once() {
        let h = UiHierarchy::new(
            Widget::container(WidgetClass::LinearLayout)
                .with_child(Widget::text_view("t", "volatile text")),
        );
        let obs = ScreenObservation::new(ScreenId(1), ActivityId(0), h, VirtualTime::ZERO);
        assert_eq!(obs.abstraction.node_count(), 2);
        assert_eq!(obs.abstract_id(), obs.abstraction.id());
    }

    #[test]
    fn ids_display() {
        assert_eq!(ScreenId(5).to_string(), "s5");
        assert_eq!(ActivityId(2).to_string(), "Activity2");
    }
}
