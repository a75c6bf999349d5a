//! Unique-crash collection.
//!
//! The paper reads crash stack traces from the Android log (logcat) and
//! identifies unique crashes by the code locations in the traces (§6.1). The simulated equivalent deduplicates crashes by
//! [`CrashSignature`], the stand-in for that code location.

use std::collections::BTreeSet;

use taopt_ui_model::VirtualTime;

use taopt_app_sim::CrashSignature;

/// Deduplicating crash collector.
#[derive(Debug, Clone, Default)]
pub struct CrashCollector {
    seen: BTreeSet<CrashSignature>,
    occurrences: Vec<(VirtualTime, CrashSignature)>,
}

impl CrashCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a crash; returns `true` if the signature is new.
    pub fn record(&mut self, time: VirtualTime, sig: CrashSignature) -> bool {
        self.occurrences.push((time, sig));
        self.seen.insert(sig)
    }

    /// Distinct crash signatures.
    pub fn unique_crashes(&self) -> &BTreeSet<CrashSignature> {
        &self.seen
    }

    /// Consumes the collector, returning the distinct signatures and every
    /// occurrence in order.
    pub fn into_parts(self) -> (BTreeSet<CrashSignature>, Vec<(VirtualTime, CrashSignature)>) {
        (self.seen, self.occurrences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_dedupes() {
        let mut c = CrashCollector::new();
        assert!(c.record(VirtualTime::ZERO, CrashSignature(1)));
        assert!(!c.record(VirtualTime::from_secs(1), CrashSignature(1)));
        assert!(c.record(VirtualTime::from_secs(2), CrashSignature(2)));
        assert_eq!(c.unique_crashes().len(), 2);
        let (_, occurrences) = c.into_parts();
        assert_eq!(occurrences.len(), 3);
    }
}
