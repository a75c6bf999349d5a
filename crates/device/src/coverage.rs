//! Method-coverage tracing — the MiniTrace stand-in.
//!
//! The paper collects method coverage with MiniTrace, a DalvikVM/ART-level
//! tracer needing no app instrumentation (§6.1). Here the app runtime
//! reports covered methods directly; the tracer accumulates the per-device
//! covered set as a dense [`MethodSet`]. Coverage over time comes from the
//! session's time-stamped cover events, not from the tracer.

use taopt_app_sim::{MethodId, MethodSet};

/// Accumulates the covered methods of one testing instance.
#[derive(Debug, Clone, Default)]
pub struct CoverageTracer {
    covered: MethodSet,
}

impl CoverageTracer {
    /// Creates an empty tracer sized for an app of `method_count` methods.
    pub fn new(method_count: usize) -> Self {
        CoverageTracer {
            covered: MethodSet::with_capacity(method_count),
        }
    }

    /// Records covered methods.
    pub fn record(&mut self, methods: &[MethodId]) {
        self.covered.extend(methods.iter().copied());
    }

    /// The covered method set.
    pub fn covered(&self) -> &MethodSet {
        &self.covered
    }

    /// Number of covered methods.
    pub fn count(&self) -> usize {
        self.covered.len()
    }

    /// Consumes the tracer, returning its covered set.
    pub fn into_covered(self) -> MethodSet {
        self.covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(ids: &[u32]) -> Vec<MethodId> {
        ids.iter().map(|i| MethodId(*i)).collect()
    }

    #[test]
    fn record_accumulates_and_dedupes() {
        let mut t = CoverageTracer::new(4);
        t.record(&m(&[1, 2]));
        t.record(&m(&[2, 3]));
        t.record(&m(&[3, 70]));
        assert_eq!(t.count(), 4, "ids past the sized range still count");
        assert_eq!(
            t.into_covered().iter().collect::<Vec<_>>(),
            m(&[1, 2, 3, 70])
        );
    }
}
