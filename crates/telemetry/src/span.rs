//! Span tracer: RAII guards timing a named region of the exploration
//! loop.
//!
//! A guard records one sample in the span name's latency histogram
//! (`span_ns{kind="<name>"}`) when dropped. When telemetry is disabled
//! the guard is inert and never reads the wall clock.

use std::time::Instant;

use crate::Telemetry;

/// Live span opened by [`Telemetry::span`]; records its duration when
/// dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    telemetry: &'a Telemetry,
    name: &'static str,
    start: Option<Instant>,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(telemetry: &'a Telemetry, name: &'static str) -> Self {
        SpanGuard {
            telemetry,
            name,
            start: telemetry.is_enabled().then(Instant::now),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.telemetry.span_histogram(self.name).record(ns);
    }
}
