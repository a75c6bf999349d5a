//! Method-coverage tracing — the MiniTrace stand-in.
//!
//! The paper collects method coverage with MiniTrace, a DalvikVM/ART-level
//! tracer needing no app instrumentation (§6.1). Here the app runtime
//! reports the methods each step covers for the first time, and the
//! tracer stamps them with the device clock: one ordered log of
//! `(time, method)` cover events per device. The covered *set* is the
//! runtime's own bitset ([`crate::Emulator::covered`]). What boot covers
//! (startup, the start screen, auto-login) is that set as boot leaves it
//! and is not logged, so the instances of one app can share it.

use taopt_app_sim::MethodId;
use taopt_ui_model::VirtualTime;

/// The time-stamped cover events of one testing instance after boot.
#[derive(Debug, Clone, Default)]
pub struct CoverageTracer {
    events: Vec<(VirtualTime, MethodId)>,
}

impl CoverageTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `methods` as covered at `time`.
    pub fn record(&mut self, time: VirtualTime, methods: &[MethodId]) {
        self.events.extend(methods.iter().map(|&m| (time, m)));
    }

    /// The cover events so far, in recording order (which is time order).
    pub fn events(&self) -> &[(VirtualTime, MethodId)] {
        &self.events
    }

    /// Number of cover events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been covered since boot.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the tracer, returning its events.
    pub fn into_events(self) -> Vec<(VirtualTime, MethodId)> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(ids: &[u32]) -> Vec<MethodId> {
        ids.iter().map(|i| MethodId(*i)).collect()
    }

    #[test]
    fn record_stamps_and_appends_in_order() {
        let mut t = CoverageTracer::new();
        assert!(t.is_empty());
        let (t1, t2) = (VirtualTime::from_secs(1), VirtualTime::from_secs(2));
        t.record(t1, &m(&[1, 2]));
        t.record(t2, &[]);
        t.record(t2, &m(&[70]));
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.into_events(),
            vec![(t1, MethodId(1)), (t1, MethodId(2)), (t2, MethodId(70))]
        );
    }
}
