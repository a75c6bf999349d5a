//! Metrics registry: named, labeled counters, gauges and histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones over atomics; hot paths fetch them once at construction time
//! and then update without any map lookup or lock. Every handle shares
//! the registry's enabled flag, so disabling telemetry turns every
//! update into a single relaxed load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::histogram::{bucket_bounds, HistogramSnapshot, LogHistogram, BUCKET_COUNT};
use crate::span::SpanGuard;

/// Label set attached to a metric series. All fields are optional; the
/// cardinality stays bounded because instances are small per-session
/// integers and seams/kinds are static strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels {
    /// Testing-instance id the sample belongs to.
    pub instance: Option<u32>,
    /// Architectural seam ("bus", "farm", "enforce", ...).
    pub seam: Option<&'static str>,
    /// Discriminator within a seam (fault kind, rule kind, ...).
    pub kind: Option<&'static str>,
}

impl Labels {
    /// The empty label set.
    pub fn none() -> Self {
        Labels::default()
    }

    /// Labels carrying only an instance id.
    pub fn instance(instance: u32) -> Self {
        Labels {
            instance: Some(instance),
            ..Labels::default()
        }
    }

    /// Labels carrying only a seam name.
    pub fn seam(seam: &'static str) -> Self {
        Labels {
            seam: Some(seam),
            ..Labels::default()
        }
    }

    /// Labels carrying only a kind discriminator.
    pub fn kind(kind: &'static str) -> Self {
        Labels {
            kind: Some(kind),
            ..Labels::default()
        }
    }

    /// True when no label is set.
    pub fn is_empty(&self) -> bool {
        *self == Labels::default()
    }

    /// Prometheus-style rendering: `{instance="3",seam="bus"}`, or the
    /// empty string for the empty label set.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut parts = Vec::new();
        if let Some(i) = self.instance {
            parts.push(format!("instance=\"{i}\""));
        }
        if let Some(s) = self.seam {
            parts.push(format!("seam=\"{s}\""));
        }
        if let Some(k) = self.kind {
            parts.push(format!("kind=\"{k}\""));
        }
        format!("{{{}}}", parts.join(","))
    }
}

/// Monotone event counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 && self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// How many updates a [`BatchedCounter`] holds before it publishes them.
pub const BATCH: u32 = 64;

/// An owner's private tally of a shared [`Counter`].
///
/// An update is a plain integer add. The tally is published to the
/// counter every [`BATCH`] updates and when it is dropped, so a hot path
/// makes one shared write per batch instead of one per update. Between
/// publications the counter lags its live owners by less than one batch
/// each.
///
/// A clone starts empty: the pending count stays with the source, which
/// publishes it once.
#[derive(Debug)]
pub struct BatchedCounter {
    counter: &'static Counter,
    pending: u64,
    updates: u32,
}

impl BatchedCounter {
    /// An empty tally of `counter`.
    pub fn new(counter: &'static Counter) -> Self {
        BatchedCounter {
            counter,
            pending: 0,
            updates: 0,
        }
    }

    /// Adds `n` to the tally. Returns `true` when this update completed a
    /// batch and published it: one update in [`BATCH`], which callers
    /// may use as their sample.
    #[inline]
    pub fn add(&mut self, n: u64) -> bool {
        self.pending += n;
        self.updates += 1;
        if self.updates < BATCH {
            return false;
        }
        self.publish();
        true
    }

    /// Publishes the pending count to the counter and starts a new batch.
    fn publish(&mut self) {
        self.counter.add(self.pending);
        self.pending = 0;
        self.updates = 0;
    }
}

impl Clone for BatchedCounter {
    fn clone(&self) -> Self {
        BatchedCounter::new(self.counter)
    }
}

impl Drop for BatchedCounter {
    fn drop(&mut self) {
        self.publish();
    }
}

/// Instantaneous level handle (can go up and down).
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds to the level.
    #[inline]
    pub fn add(&self, n: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts from the level.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Latency histogram handle (see [`LogHistogram`]).
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    inner: Arc<LogHistogram>,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.inner.record(value);
        }
    }

    /// Starts a wall-clock timer, or `None` when telemetry is disabled
    /// (so disabled runs never call `Instant::now`).
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        self.enabled.load(Ordering::Relaxed).then(Instant::now)
    }

    /// Records the elapsed nanoseconds of a timer started with
    /// [`Histogram::timer`] and returns them.
    #[inline]
    pub fn stop(&self, timer: Option<Instant>) -> u64 {
        match timer {
            Some(t0) => {
                let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                self.inner.record(ns);
                ns
            }
            None => 0,
        }
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.inner.snapshot()
    }

    /// Opens a span on this histogram: the guard records its duration
    /// on drop, or nothing when telemetry is disabled.
    pub fn span(&self) -> SpanGuard<'_> {
        SpanGuard::enter(self.enabled.load(Ordering::Relaxed).then_some(self))
    }
}

/// Registry of all metric series, keyed by `(name, labels)`.
///
/// The maps are only locked on handle creation and snapshotting; every
/// update goes straight to the shared atomics inside the handles.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<(&'static str, Labels), Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<(&'static str, Labels), Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<(&'static str, Labels), Arc<LogHistogram>>>,
}

impl MetricsRegistry {
    /// An empty registry sharing the given enabled flag.
    pub fn new(enabled: Arc<AtomicBool>) -> Self {
        MetricsRegistry {
            enabled,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counter handle for `(name, labels)`, creating the series on first
    /// use.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Counter {
        let value = Arc::clone(
            self.counters
                .lock()
                .entry((name, labels))
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        );
        Counter {
            enabled: Arc::clone(&self.enabled),
            value,
        }
    }

    /// Gauge handle for `(name, labels)`.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Gauge {
        let value = Arc::clone(
            self.gauges
                .lock()
                .entry((name, labels))
                .or_insert_with(|| Arc::new(AtomicI64::new(0))),
        );
        Gauge {
            enabled: Arc::clone(&self.enabled),
            value,
        }
    }

    /// Histogram handle for `(name, labels)`.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Histogram {
        let inner = Arc::clone(
            self.histograms
                .lock()
                .entry((name, labels))
                .or_insert_with(|| Arc::new(LogHistogram::new())),
        );
        Histogram {
            enabled: Arc::clone(&self.enabled),
            inner,
        }
    }

    /// A point-in-time copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|((name, labels), v)| {
                (
                    format!("{name}{}", labels.render()),
                    v.load(Ordering::Relaxed),
                )
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|((name, labels), v)| {
                (
                    format!("{name}{}", labels.render()),
                    v.load(Ordering::Relaxed),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|((name, labels), h)| (format!("{name}{}", labels.render()), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Prometheus text exposition of every series.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), v) in self.counters.lock().iter() {
            if *name != last_name {
                out.push_str(&format!("# TYPE {name} counter\n"));
                last_name = name;
            }
            out.push_str(&format!(
                "{name}{} {}\n",
                labels.render(),
                v.load(Ordering::Relaxed)
            ));
        }
        last_name = "";
        for ((name, labels), v) in self.gauges.lock().iter() {
            if *name != last_name {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                last_name = name;
            }
            out.push_str(&format!(
                "{name}{} {}\n",
                labels.render(),
                v.load(Ordering::Relaxed)
            ));
        }
        last_name = "";
        for ((name, labels), h) in self.histograms.lock().iter() {
            if *name != last_name {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                last_name = name;
            }
            let s = h.snapshot();
            let base = labels.render();
            // Cumulative `le` buckets, only at occupied boundaries.
            let mut cum = 0u64;
            for (i, &n) in s.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                let (_, hi) = bucket_bounds(i);
                let le = if i == BUCKET_COUNT - 1 {
                    "+Inf".to_string()
                } else {
                    hi.to_string()
                };
                let le_labels = splice_label(&base, &format!("le=\"{le}\""));
                out.push_str(&format!("{name}_bucket{le_labels} {cum}\n"));
            }
            if cum < s.count {
                // Samples recorded mid-snapshot; close the distribution.
                let le_labels = splice_label(&base, "le=\"+Inf\"");
                out.push_str(&format!("{name}_bucket{le_labels} {}\n", s.count));
            }
            out.push_str(&format!("{name}_sum{base} {}\n", s.sum));
            out.push_str(&format!("{name}_count{base} {}\n", s.count));
        }
        out
    }
}

/// Inserts an extra `k="v"` pair into a rendered label set.
fn splice_label(rendered: &str, pair: &str) -> String {
    if rendered.is_empty() {
        format!("{{{pair}}}")
    } else {
        format!("{},{pair}}}", &rendered[..rendered.len() - 1])
    }
}

/// Immutable copy of a [`MetricsRegistry`], keyed by the rendered
/// `name{labels}` series id.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Counter series.
    pub counters: BTreeMap<String, u64>,
    /// Gauge series.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram series.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when every counter is zero and every histogram is empty
    /// (the "nothing was wired" signal `tests/telemetry.rs` checks for).
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0) && self.histograms.values().all(|h| h.is_empty())
    }

    /// Sum of all counter series whose name (ignoring labels) equals
    /// `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.starts_with(&format!("{name}{{")))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Merged snapshot of all histogram series whose name (ignoring
    /// labels) equals `name`, or `None` when no such series exists.
    pub fn histogram_total(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut merged: Option<HistogramSnapshot> = None;
        for (k, h) in &self.histograms {
            if k.as_str() != name && !k.starts_with(&format!("{name}{{")) {
                continue;
            }
            merged = Some(match merged {
                None => h.clone(),
                Some(mut m) => {
                    for (b, &n) in m.buckets.iter_mut().zip(h.buckets.iter()) {
                        *b += n;
                    }
                    m.count += h.count;
                    m.sum += h.sum;
                    m.max = m.max.max(h.max);
                    m
                }
            });
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new(Arc::new(AtomicBool::new(true)))
    }

    #[test]
    fn counters_accumulate_per_label() {
        let r = registry();
        let a = r.counter("events_total", Labels::instance(0));
        let b = r.counter("events_total", Labels::instance(1));
        a.inc();
        a.add(2);
        b.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counters["events_total{instance=\"0\"}"], 3);
        assert_eq!(snap.counter_total("events_total"), 4);
        assert!(!snap.is_empty());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let enabled = Arc::new(AtomicBool::new(false));
        let r = MetricsRegistry::new(Arc::clone(&enabled));
        let c = r.counter("noop_total", Labels::none());
        let h = r.histogram("noop_ns", Labels::none());
        c.inc();
        assert!(h.timer().is_none());
        h.record(99);
        assert!(r.snapshot().is_empty());
        // Re-enabling makes the same handles live again.
        enabled.store(true, Ordering::Relaxed);
        c.inc();
        assert_eq!(r.snapshot().counter_total("noop_total"), 1);
    }

    #[test]
    fn prometheus_rendering_has_types_and_series() {
        let r = registry();
        r.counter("x_total", Labels::seam("bus")).add(7);
        r.gauge("level", Labels::none()).set(-2);
        r.histogram("lat_ns", Labels::none()).record(100);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE x_total counter"));
        assert!(text.contains("x_total{seam=\"bus\"} 7"));
        assert!(text.contains("level -2"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"128\"} 1"));
        assert!(text.contains("lat_ns_count 1"));
    }

    #[test]
    fn batched_counter_publishes_every_batch_and_on_drop() {
        let r = registry();
        let counter: &'static Counter = Box::leak(Box::new(r.counter("b_total", Labels::none())));
        let mut tally = BatchedCounter::new(counter);
        let n = 2 * BATCH + 5;
        let published = (0..n).filter(|_| tally.add(2)).count();
        assert_eq!(published, 2, "one publication per full batch");
        assert_eq!(counter.get(), 2 * 2 * u64::from(BATCH));
        // A clone carries nothing pending, so dropping it publishes nothing.
        drop(tally.clone());
        assert_eq!(counter.get(), 2 * 2 * u64::from(BATCH));
        drop(tally);
        assert_eq!(counter.get(), 2 * u64::from(n));
    }

    #[test]
    fn histogram_total_merges_label_series() {
        let r = registry();
        r.histogram("step_ns", Labels::instance(0)).record(10);
        r.histogram("step_ns", Labels::instance(1)).record(1000);
        let snap = r.snapshot();
        let merged = snap.histogram_total("step_ns").expect("series exist");
        assert_eq!(merged.count, 2);
        assert_eq!(merged.max, 1000);
        assert!(snap.histogram_total("absent_ns").is_none());
    }
}
