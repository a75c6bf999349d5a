//! Span tracer: RAII guards timing a named region of the exploration
//! loop.
//!
//! A component resolves its span's series once
//! ([`crate::Telemetry::span_histogram`], `span_ns{kind="<name>"}`) and
//! opens each span on that handle with [`crate::Histogram::span`], so no
//! span takes the registry lock. The guard records one sample when
//! dropped; when telemetry is disabled it is inert and never reads the
//! wall clock.

use std::time::Instant;

use crate::registry::Histogram;

/// Live span opened by [`Histogram::span`]; records its duration when
/// dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    timed: Option<(&'a Histogram, Instant)>,
}

impl<'a> SpanGuard<'a> {
    /// A guard recording into `histogram`, or an inert one for `None`.
    pub(crate) fn enter(histogram: Option<&'a Histogram>) -> Self {
        SpanGuard {
            timed: histogram.map(|h| (h, Instant::now())),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((histogram, start)) = self.timed else {
            return;
        };
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        histogram.record(ns);
    }
}
