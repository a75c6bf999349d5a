//! Runtime observability for the TaOPT reproduction.
//!
//! The paper's coordinator is a long-running service supervising many
//! devices; this crate makes the reproduction's exploration loop
//! observable the way such a service would be in production:
//!
//! * a [`MetricsRegistry`] of atomic counters, gauges and log-bucketed
//!   latency [histograms](histogram::LogHistogram) (p50/p95/p99),
//!   labeled by instance/seam/kind, with Prometheus-style text
//!   exposition — the one telemetry record;
//! * [`BatchedCounter`] tallies, kept by the owner of a per-action
//!   series and published to its counter every [`BATCH`] updates, so a
//!   tool action writes nothing shared;
//! * spans ([`Telemetry::span_histogram`], [`Histogram::span`],
//!   [`SpanGuard`]) timing named regions of the loop (analysis,
//!   FindSpace, subspace dedication, enforcement broadcast) into the
//!   registry's `span_ns` histograms.
//!
//! Per-fault detail (kind, instance, virtual time, recovery latency)
//! lives in each campaign's chaos fault log; the registry counts faults
//! and recoveries per kind.
//!
//! All instrumented crates share one process-global [`Telemetry`]
//! (see [`global`]), so wiring does not thread handles through every
//! constructor. Telemetry is observational only: it never influences
//! session control flow, so deterministic replays stay deterministic.
//! Set `TAOPT_TELEMETRY=off` (or `0`/`false`) to disable collection and
//! measure the no-op baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod registry;
mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

pub use crate::histogram::{HistogramSnapshot, LogHistogram};
pub use crate::registry::{
    BatchedCounter, Counter, Gauge, Histogram, Labels, MetricsRegistry, MetricsSnapshot, BATCH,
};
pub use crate::span::SpanGuard;

/// One telemetry domain: a metrics registry and its enabled flag.
///
/// Most code uses the process-global instance via [`global`]; tests
/// construct private instances to assert in isolation.
#[derive(Debug)]
pub struct Telemetry {
    enabled: Arc<AtomicBool>,
    registry: MetricsRegistry,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An enabled instance.
    pub fn new() -> Self {
        let enabled = Arc::new(AtomicBool::new(true));
        Telemetry {
            registry: MetricsRegistry::new(Arc::clone(&enabled)),
            enabled,
        }
    }

    /// A disabled instance: every handle and span is a near-free no-op.
    pub fn disabled() -> Self {
        let t = Telemetry::new();
        t.set_enabled(false);
        t
    }

    /// Enables or disables collection. Existing handles observe the
    /// change immediately (they share the flag).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// True when collection is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Counter handle without labels.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.registry.counter(name, Labels::none())
    }

    /// Counter handle with labels.
    pub fn counter_labeled(&self, name: &'static str, labels: Labels) -> Counter {
        self.registry.counter(name, labels)
    }

    /// Gauge handle without labels.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.registry.gauge(name, Labels::none())
    }

    /// Histogram handle without labels.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.registry.histogram(name, Labels::none())
    }

    /// Histogram handle with labels.
    pub fn histogram_labeled(&self, name: &'static str, labels: Labels) -> Histogram {
        self.registry.histogram(name, labels)
    }

    /// The latency histogram series backing spans named `name`
    /// (exposed as `span_ns{kind="<name>"}`): resolve it once, then open
    /// each span with [`Histogram::span`].
    pub fn span_histogram(&self, name: &'static str) -> Histogram {
        self.registry.histogram("span_ns", Labels::kind(name))
    }

    /// Records a fault injection: bumps `faults_injected_total`, total
    /// and per kind.
    pub fn fault(&self, kind: &'static str) {
        if !self.is_enabled() {
            return;
        }
        self.counter("faults_injected_total").inc();
        self.counter_labeled("faults_injected_total", Labels::kind(kind))
            .inc();
    }

    /// Records a recovery from an injected fault: bumps
    /// `faults_recovered_total`, total and per kind.
    pub fn recovery(&self, kind: &'static str) {
        if !self.is_enabled() {
            return;
        }
        self.counter("faults_recovered_total").inc();
        self.counter_labeled("faults_recovered_total", Labels::kind(kind))
            .inc();
    }

    /// Snapshot of every metric series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Prometheus text exposition of every metric series.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

/// The process-global telemetry domain used by all instrumented crates.
///
/// Created on first use; starts disabled when the `TAOPT_TELEMETRY`
/// environment variable is `off`, `0` or `false` (any case), enabled
/// otherwise. Flip at runtime with [`Telemetry::set_enabled`].
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let t = Telemetry::new();
        if let Ok(v) = std::env::var("TAOPT_TELEMETRY") {
            let v = v.to_ascii_lowercase();
            if v == "off" || v == "0" || v == "false" {
                t.set_enabled(false);
            }
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_records_its_histogram() {
        let t = Telemetry::new();
        let h = t.span_histogram("unit_work");
        {
            let _g = h.span();
            std::hint::black_box(0u64);
        }
        let snap = t.snapshot();
        let h = snap
            .histograms
            .get("span_ns{kind=\"unit_work\"}")
            .expect("span histogram exists");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn fault_and_recovery_count_total_and_per_kind() {
        let t = Telemetry::new();
        t.fault("device-loss");
        t.recovery("device-loss");
        let snap = t.snapshot();
        assert_eq!(snap.counter_total("faults_injected_total"), 2); // total + per-kind
        assert_eq!(
            snap.counters["faults_injected_total{kind=\"device-loss\"}"],
            1
        );
        assert_eq!(snap.counters["faults_recovered_total"], 1);
    }

    #[test]
    fn disabled_domain_is_silent() {
        let t = Telemetry::disabled();
        t.fault("x");
        let h = t.span_histogram("quiet");
        {
            let _g = h.span();
        }
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const Telemetry;
        let b = global() as *const Telemetry;
        assert_eq!(a, b);
    }
}
