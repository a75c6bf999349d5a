//! UI transition monitoring.

use taopt_ui_model::{Action, ScreenObservation, Trace, TraceEvent};

use crate::instance::InstanceId;

/// Builds the UI transition trace of one testing instance.
///
/// The monitor sees the same observations the tool sees (after
/// enforcement) plus the action that produced each of them — nothing else.
/// That is the entire information channel into TaOPT's analyzer.
#[derive(Debug)]
pub struct TransitionMonitor {
    instance: InstanceId,
    trace: Trace,
}

impl TransitionMonitor {
    /// Creates a monitor for the given instance.
    pub fn new(instance: InstanceId) -> Self {
        TransitionMonitor {
            instance,
            trace: Trace::new(),
        }
    }

    /// Records an observation. `prev` is the screen the `action` was fired
    /// on (`None` for the very first observation). The fired widget's
    /// resource id is shared from `prev`'s action table, not copied.
    pub fn record(
        &mut self,
        prev: Option<&ScreenObservation>,
        action: Option<Action>,
        obs: &ScreenObservation,
    ) {
        let action_widget_rid = match (prev, action) {
            (Some(p), Some(Action::Widget(id))) => p
                .hierarchy
                .affordance(id)
                .and_then(|a| a.resource_id.clone()),
            _ => None,
        };
        let event = TraceEvent {
            time: obs.time,
            screen: obs.screen,
            activity: obs.activity,
            abstract_id: obs.abstract_id(),
            abstraction: obs.abstraction.clone(),
            action,
            action_widget_rid,
        };
        self.trace.push(event);
    }

    /// The instance this monitor belongs to.
    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    /// The trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the monitor, returning its trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use taopt_app_sim::{generate_app, AppRuntime, GeneratorConfig};
    use taopt_ui_model::VirtualTime;

    #[test]
    fn record_captures_widget_rid() {
        let app = Arc::new(generate_app(&GeneratorConfig::small("mon", 1)).unwrap());
        let mut rt = AppRuntime::launch(app, 1);
        let mut m = TransitionMonitor::new(InstanceId(0));
        let first = rt.observe(VirtualTime::ZERO);
        m.record(None, None, &first);
        let (aid, _) = first.enabled_actions()[0];
        let out = rt
            .execute(Action::Widget(aid), VirtualTime::from_secs(1))
            .unwrap();
        m.record(Some(&first), Some(Action::Widget(aid)), &out.observation);
        let events = m.trace().events();
        assert_eq!(events.len(), 2);
        assert!(events[0].action_widget_rid.is_none());
        assert!(
            events[1].action_widget_rid.is_some(),
            "rid of the fired widget captured"
        );
        assert_eq!(events[1].action, Some(Action::Widget(aid)));
    }
}
