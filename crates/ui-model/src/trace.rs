//! UI transition traces — the input to TaOPT's online analysis.
//!
//! A trace is "a sequence of UI screens interspersed with corresponding UI
//! actions" (§5.2), produced by the Toller monitor. Each event records the
//! screen observed *after* executing `action` (the first event has no
//! action: it is the app's start screen).

use std::sync::Arc;

use crate::abstraction::{AbstractHierarchy, AbstractScreenId};
use crate::action::Action;
use crate::error::UiModelError;
use crate::graph::StochasticDigraph;
use crate::screen::{ActivityId, ScreenId};
use crate::time::VirtualTime;

/// One monitored UI transition.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// When the resulting screen was observed.
    pub time: VirtualTime,
    /// Concrete screen id (simulator ground truth; metrics only).
    pub screen: ScreenId,
    /// Hosting activity.
    pub activity: ActivityId,
    /// Abstract identity of the observed screen.
    pub abstract_id: AbstractScreenId,
    /// The abstraction itself (shared; used by tree-similarity analysis).
    pub abstraction: Arc<AbstractHierarchy>,
    /// The action whose execution produced this observation
    /// (`None` for the initial screen).
    pub action: Option<Action>,
    /// Resource id of the widget the action was fired on (the
    /// tool-agnostic handle used to build entrypoint block rules).
    /// Shared, not owned: trace events are cloned on the analyzer hot
    /// path and across stream/snapshot boundaries, so the rid rides
    /// along by refcount instead of by heap copy.
    pub action_widget_rid: Option<Arc<str>>,
}

/// An append-only UI transition trace for one testing instance.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Drops spare capacity (for a trace that is complete).
    pub fn shrink_to_fit(&mut self) {
        self.events.shrink_to_fit();
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The most recent event.
    pub fn last(&self) -> Option<&TraceEvent> {
        self.events.last()
    }

    /// Timestamp of the last event.
    ///
    /// # Errors
    ///
    /// Returns [`UiModelError::EmptyTrace`] for an empty trace.
    pub fn end_time(&self) -> Result<VirtualTime, UiModelError> {
        self.events
            .last()
            .map(|e| e.time)
            .ok_or(UiModelError::EmptyTrace)
    }

    /// The sequence of abstract screen ids visited.
    pub fn abstract_walk(&self) -> Vec<u64> {
        self.events.iter().map(|e| e.abstract_id.0).collect()
    }

    /// The empirical transition graph over abstract screens, normalized to
    /// a stochastic transition function.
    pub fn transition_graph(&self) -> StochasticDigraph {
        StochasticDigraph::from_walk(&self.abstract_walk()).normalized()
    }

    /// Distinct abstract screens seen up to (excluding) index `end`.
    pub fn distinct_before(&self, end: usize) -> std::collections::BTreeSet<AbstractScreenId> {
        self.events[..end.min(self.events.len())]
            .iter()
            .map(|e| e.abstract_id)
            .collect()
    }

    /// Distinct abstract screens seen from index `start` on.
    pub fn distinct_from(&self, start: usize) -> std::collections::BTreeSet<AbstractScreenId> {
        self.events[start.min(self.events.len())..]
            .iter()
            .map(|e| e.abstract_id)
            .collect()
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::abstract_hierarchy;
    use crate::hierarchy::UiHierarchy;
    use crate::widget::{Widget, WidgetClass};

    fn event(t: u64, screen: u32, rid: &str) -> TraceEvent {
        let h = UiHierarchy::new(
            Widget::container(WidgetClass::LinearLayout).with_child(Widget::text_view(rid, "txt")),
        );
        let a = Arc::new(abstract_hierarchy(&h));
        TraceEvent {
            time: VirtualTime::from_secs(t),
            screen: ScreenId(screen),
            activity: ActivityId(0),
            abstract_id: a.id(),
            abstraction: a,
            action: if t == 0 { None } else { Some(Action::Back) },
            action_widget_rid: None,
        }
    }

    #[test]
    fn push_and_query() {
        let mut tr = Trace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.end_time(), Err(UiModelError::EmptyTrace));
        tr.push(event(0, 1, "a"));
        tr.push(event(5, 2, "b"));
        tr.push(event(9, 1, "a"));
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.end_time().unwrap(), VirtualTime::from_secs(9));
        assert_eq!(tr.last().unwrap().screen, ScreenId(1));
    }

    #[test]
    fn distinct_windows() {
        let tr: Trace = [event(0, 1, "a"), event(1, 2, "b"), event(2, 1, "a")]
            .into_iter()
            .collect();
        assert_eq!(tr.distinct_before(2).len(), 2);
        assert_eq!(tr.distinct_from(1).len(), 2);
        assert_eq!(tr.distinct_from(2).len(), 1);
        // Out-of-range indexes saturate.
        assert_eq!(tr.distinct_from(99).len(), 0);
        assert_eq!(tr.distinct_before(99).len(), 2);
    }

    #[test]
    fn transition_graph_is_normalized() {
        let tr: Trace = [
            event(0, 1, "a"),
            event(1, 2, "b"),
            event(2, 1, "a"),
            event(3, 2, "b"),
        ]
        .into_iter()
        .collect();
        let g = tr.transition_graph();
        for n in g.nodes() {
            let total: f64 = g.out_edges(n).map(|(_, w)| w).sum();
            assert!(total == 0.0 || (total - 1.0).abs() < 1e-12);
        }
    }
}
