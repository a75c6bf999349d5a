//! Logcat-style logging and unique-crash collection.
//!
//! The paper obtains stack traces "by monitoring Android Logcat messages"
//! and identifies unique crashes by the code locations in the traces
//! (§6.1). The simulated equivalent records [`LogEntry`] lines per device
//! and deduplicates crashes by [`CrashSignature`].

use std::collections::BTreeSet;

use taopt_ui_model::VirtualTime;

use taopt_app_sim::CrashSignature;

/// One logcat line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Virtual timestamp.
    pub time: VirtualTime,
    /// Log tag (e.g. `AndroidRuntime`).
    pub tag: String,
    /// Message body.
    pub message: String,
}

/// An append-only logcat buffer for one device.
#[derive(Debug, Clone, Default)]
pub struct Logcat {
    entries: Vec<LogEntry>,
}

impl Logcat {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a line.
    pub fn log(&mut self, time: VirtualTime, tag: &str, message: impl Into<String>) {
        self.entries.push(LogEntry {
            time,
            tag: tag.to_owned(),
            message: message.into(),
        });
    }

    /// All lines in order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Lines with the given tag.
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a LogEntry> {
        self.entries.iter().filter(move |e| e.tag == tag)
    }
}

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

    /// Total crash occurrences (including duplicates).
    pub fn occurrence_count(&self) -> usize {
        self.occurrences.len()
    }

    /// All occurrences in order.
    pub fn occurrences(&self) -> &[(VirtualTime, CrashSignature)] {
        &self.occurrences
    }

    /// Consumes the collector, returning the distinct signatures and every
    /// occurrence in order.
    pub fn into_parts(self) -> (BTreeSet<CrashSignature>, Vec<(VirtualTime, CrashSignature)>) {
        (self.seen, self.occurrences)
    }

    /// Merges another collector's unique crashes into this one (for
    /// computing per-run unions across instances).
    pub fn merge(&mut self, other: &CrashCollector) {
        self.seen.extend(other.seen.iter().copied());
        self.occurrences.extend(other.occurrences.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logcat_filters_by_tag() {
        let mut l = Logcat::new();
        l.log(VirtualTime::ZERO, "AndroidRuntime", "FATAL EXCEPTION");
        l.log(
            VirtualTime::from_secs(1),
            "ActivityManager",
            "Displayed ...",
        );
        assert_eq!(l.entries().len(), 2);
        assert_eq!(l.with_tag("AndroidRuntime").count(), 1);
    }

    #[test]
    fn collector_dedupes() {
        let mut c = CrashCollector::new();
        assert!(c.record(VirtualTime::ZERO, CrashSignature(1)));
        assert!(!c.record(VirtualTime::from_secs(1), CrashSignature(1)));
        assert!(c.record(VirtualTime::from_secs(2), CrashSignature(2)));
        assert_eq!(c.unique_crashes().len(), 2);
        assert_eq!(c.occurrence_count(), 3);
    }

    #[test]
    fn merge_unions() {
        let mut a = CrashCollector::new();
        a.record(VirtualTime::ZERO, CrashSignature(1));
        let mut b = CrashCollector::new();
        b.record(VirtualTime::ZERO, CrashSignature(1));
        b.record(VirtualTime::ZERO, CrashSignature(2));
        a.merge(&b);
        assert_eq!(a.unique_crashes().len(), 2);
        assert_eq!(a.occurrence_count(), 3);
    }
}
