//! Stream repair for the bus seam.
//!
//! Under a fault plan, trace events reach the coordinator through an
//! untrusted transport that may drop, duplicate or delay them. Each active
//! instance owns a `BusLane`: it stamps every new trace event with a
//! per-instance sequence number, asks the plan's [`FaultInjector`] for the
//! event's fate, and feeds the survivors to a
//! sequence-order repair buffer. Delayed events are held until their
//! predecessors arrive, duplicates are dropped, and a gap that persists
//! (a genuinely lost event) is skipped so one drop cannot stall analysis
//! forever. What comes out, in order, is the **coordinator-view trace** —
//! the only trace the coordinator analyzes when the bus layer is engaged.
//! The [`StreamStats`] counters expose what the repair layer saw.

use std::collections::BTreeMap;

use taopt_chaos::{EventFate, FaultInjector, RecoveryKind};
use taopt_ui_model::{Trace, TraceEvent, VirtualTime};

/// Skip a sequence gap once this many newer events are buffered behind it.
const GAP_BUFFER_LIMIT: usize = 8;
/// Skip a sequence gap once the stream has advanced this far past it.
const GAP_SPAN_LIMIT: u64 = 32;

/// Stream-repair counters: what the sequence layer observed and did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Sequence numbers given up on (events presumed lost in transit).
    pub gaps: usize,
    /// Events dropped because their sequence number was already seen.
    pub duplicates: usize,
    /// Events that arrived ahead of a predecessor and were buffered.
    pub reordered: usize,
}

impl StreamStats {
    /// Component-wise sum (per-lane stats folded into a session total).
    pub fn merged(self, other: StreamStats) -> StreamStats {
        StreamStats {
            gaps: self.gaps + other.gaps,
            duplicates: self.duplicates + other.duplicates,
            reordered: self.reordered + other.reordered,
        }
    }
}

/// Per-instance sequence-order repair state.
#[derive(Debug, Default)]
pub(crate) struct Reorder {
    /// Next sequence number owed to the analyzer.
    expected: u64,
    /// Out-of-order arrivals waiting for their predecessors.
    pending: BTreeMap<u64, TraceEvent>,
}

impl Reorder {
    /// Accepts one bus event; returns events now deliverable in order.
    /// Updates `stats` for duplicates/reorders.
    pub(crate) fn accept(
        &mut self,
        seq: u64,
        event: TraceEvent,
        stats: &mut StreamStats,
    ) -> Vec<TraceEvent> {
        if seq < self.expected || self.pending.contains_key(&seq) {
            stats.duplicates += 1;
            // Faults are rare, so the registry lookup stays off the
            // in-order delivery path.
            taopt_telemetry::global()
                .counter("stream_duplicates_total")
                .inc();
            return Vec::new();
        }
        if seq > self.expected {
            stats.reordered += 1;
            taopt_telemetry::global()
                .counter("stream_reordered_total")
                .inc();
        }
        self.pending.insert(seq, event);
        let mut out = self.drain_in_order();
        // A wide buffer means the head gap is a real loss, not jitter.
        if self.pending.len() >= GAP_BUFFER_LIMIT || self.span() > GAP_SPAN_LIMIT {
            out.extend(self.skip_gap(stats));
        }
        out
    }

    /// Delivers the contiguous run starting at `expected`.
    fn drain_in_order(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        while let Some(e) = self.pending.remove(&self.expected) {
            self.expected += 1;
            out.push(e);
        }
        out
    }

    /// Distance from `expected` to the newest buffered sequence number.
    fn span(&self) -> u64 {
        self.pending
            .keys()
            .next_back()
            .map_or(0, |max| max.saturating_sub(self.expected))
    }

    /// Gives up on the sequence numbers between `expected` and the oldest
    /// buffered event, then delivers what that unblocks.
    fn skip_gap(&mut self, stats: &mut StreamStats) -> Vec<TraceEvent> {
        let Some(&first) = self.pending.keys().next() else {
            return Vec::new();
        };
        stats.gaps += (first - self.expected) as usize;
        taopt_telemetry::global()
            .counter("stream_gaps_total")
            .add(first - self.expected);
        self.expected = first;
        self.drain_in_order()
    }

    /// Final flush: deliver everything still buffered, counting the gaps.
    pub(crate) fn flush(&mut self, stats: &mut StreamStats) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        while !self.pending.is_empty() {
            out.extend(self.skip_gap(stats));
        }
        out
    }
}

/// Per-instance state of the bus seam inside a [`crate::campaign`]
/// session step: sequence stamping on the publish side, a
/// [`FaultInjector::event_fate`] decision per event, and [`Reorder`]
/// repair of the survivors into the **coordinator-view
/// trace** — the only trace the coordinator analyzes when the bus layer
/// is engaged.
#[derive(Debug)]
pub(crate) struct BusLane {
    /// Next sequence number to stamp.
    seq: u64,
    /// Instance trace events already pushed through the transport.
    forwarded: usize,
    /// Events held back by a delay fault, re-sent next pump.
    delayed: Vec<(u64, TraceEvent)>,
    repair: Reorder,
    coord_trace: Trace,
    stats: StreamStats,
    published_counter: taopt_telemetry::Counter,
    consumed_counter: taopt_telemetry::Counter,
}

impl BusLane {
    pub(crate) fn new() -> Self {
        let telemetry = taopt_telemetry::global();
        BusLane {
            seq: 0,
            forwarded: 0,
            delayed: Vec::new(),
            repair: Reorder::default(),
            coord_trace: Trace::new(),
            stats: StreamStats::default(),
            published_counter: telemetry.counter_labeled(
                "bus_events_published_total",
                taopt_telemetry::Labels::seam("bus"),
            ),
            consumed_counter: telemetry.counter("stream_events_consumed_total"),
        }
    }

    /// Forwards `trace`'s new events through the faulty transport and
    /// appends the survivors, repaired into order, to the coordinator-view
    /// trace. Every sequence gap the repair gives up on is recorded as a
    /// [`RecoveryKind::StreamRepaired`] recovery — the moment a drop is
    /// healed rather than suffered.
    pub(crate) fn pump(
        &mut self,
        injector: &FaultInjector,
        lane: u32,
        trace: &Trace,
        now: VirtualTime,
    ) {
        let gaps_before = self.stats.gaps;
        let mut batch: Vec<(u64, TraceEvent)> = std::mem::take(&mut self.delayed);
        for ev in &trace.events()[self.forwarded..] {
            let seq = self.seq;
            self.seq += 1;
            match injector.event_fate(lane, seq, now) {
                EventFate::Deliver => batch.push((seq, ev.clone())),
                EventFate::Drop => {}
                EventFate::Duplicate => {
                    batch.push((seq, ev.clone()));
                    batch.push((seq, ev.clone()));
                }
                EventFate::Delay => self.delayed.push((seq, ev.clone())),
            }
        }
        self.forwarded = trace.len();
        let published = batch.len() as u64;
        let mut consumed = 0u64;
        for (seq, ev) in batch {
            for ready in self.repair.accept(seq, ev, &mut self.stats) {
                self.coord_trace.push(ready);
                consumed += 1;
            }
        }
        self.published_counter.add(published);
        self.consumed_counter.add(consumed);
        for _ in gaps_before..self.stats.gaps {
            injector.record_recovery(now, now, Some(lane), RecoveryKind::StreamRepaired);
        }
    }

    /// Delivers everything still in flight (end of life for the lane).
    pub(crate) fn flush(&mut self) {
        for (seq, ev) in std::mem::take(&mut self.delayed) {
            for ready in self.repair.accept(seq, ev, &mut self.stats) {
                self.coord_trace.push(ready);
            }
        }
        for ready in self.repair.flush(&mut self.stats) {
            self.coord_trace.push(ready);
        }
    }

    /// What the coordinator sees of this instance.
    pub(crate) fn coord_trace(&self) -> &Trace {
        &self.coord_trace
    }

    /// Repair counters so far.
    pub(crate) fn stats(&self) -> StreamStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Builds a tiny synthetic event for sequence-layer tests.
    fn mini_event(t: u64) -> TraceEvent {
        use taopt_ui_model::abstraction::{AbstractHierarchy, AbstractNode};
        use taopt_ui_model::{ActivityId, ScreenId, WidgetClass};
        let a = Arc::new(AbstractHierarchy::from_root(AbstractNode {
            class: WidgetClass::FrameLayout,
            resource_id: None,
            children: Vec::new(),
        }));
        TraceEvent {
            time: VirtualTime::from_secs(t),
            screen: ScreenId(0),
            activity: ActivityId(0),
            abstract_id: a.id(),
            abstraction: a,
            action: None,
            action_widget_rid: None,
        }
    }

    #[test]
    fn reorder_buffers_and_drains_in_sequence() {
        let mut r = Reorder::default();
        let mut stats = StreamStats::default();
        assert!(
            r.accept(1, mini_event(1), &mut stats).is_empty(),
            "seq 1 waits for 0"
        );
        let out = r.accept(0, mini_event(0), &mut stats);
        assert_eq!(out.len(), 2, "0 arrives, both deliver");
        assert_eq!(out[0].time, VirtualTime::from_secs(0));
        assert_eq!(out[1].time, VirtualTime::from_secs(1));
        assert_eq!(stats.reordered, 1);
        assert_eq!(stats.gaps, 0);
    }

    #[test]
    fn reorder_drops_duplicates() {
        let mut r = Reorder::default();
        let mut stats = StreamStats::default();
        assert_eq!(r.accept(0, mini_event(0), &mut stats).len(), 1);
        assert!(
            r.accept(0, mini_event(0), &mut stats).is_empty(),
            "replay of delivered seq"
        );
        assert!(r.accept(2, mini_event(2), &mut stats).is_empty());
        assert!(
            r.accept(2, mini_event(2), &mut stats).is_empty(),
            "replay of buffered seq"
        );
        assert_eq!(stats.duplicates, 2);
    }

    #[test]
    fn persistent_gap_is_skipped() {
        let mut r = Reorder::default();
        let mut stats = StreamStats::default();
        // seq 0 never arrives; buffer grows until the give-up threshold.
        let mut delivered = 0;
        for seq in 1..=GAP_BUFFER_LIMIT as u64 + 1 {
            delivered += r.accept(seq, mini_event(seq), &mut stats).len();
        }
        assert!(
            delivered >= GAP_BUFFER_LIMIT,
            "gap skipped, buffer delivered"
        );
        assert_eq!(stats.gaps, 1, "exactly seq 0 was given up");
    }

    #[test]
    fn flush_releases_a_tail_gap() {
        let mut r = Reorder::default();
        let mut stats = StreamStats::default();
        assert!(r.accept(3, mini_event(3), &mut stats).is_empty());
        let out = r.flush(&mut stats);
        assert_eq!(out.len(), 1, "stalled event released");
        assert_eq!(stats.gaps, 3, "seqs 0..3 given up");
    }
}
