//! The fault injector — a [`FaultPlan`] bound to a live [`FaultLog`].
//!
//! The injector is the object the runtime actually consults at each seam.
//! It answers the plan's deterministic decisions *and* records every
//! injected fault and recovery, so a run's totals and recovery latencies
//! can be read afterwards ([`FaultInjector::stats`]).
//! It is `Sync`: the log sits behind a mutex because a campaign's app
//! steps consult the bus and enforcement seams from pool threads while
//! the scheduler consults the device seam at the round boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use taopt_ui_model::{VirtualDuration, VirtualTime};

use crate::log::{FaultKind, FaultLog, FaultStats, RecoveryKind};
use crate::plan::FaultPlan;

/// What should happen to one published trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventFate {
    /// Deliver normally.
    Deliver,
    /// Drop: the analyzer never sees it.
    Drop,
    /// Deliver twice back-to-back.
    Duplicate,
    /// Hold it back one delivery round, re-ordering it behind newer
    /// events.
    Delay,
}

/// A seeded fault plan bound to a log; cheap to clone (shared state).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    log: Arc<Mutex<FaultLog>>,
    alloc_attempts: Arc<AtomicU64>,
}

impl FaultInjector {
    /// Builds an injector for `plan` with a fresh log.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            log: Arc::new(Mutex::new(FaultLog::new())),
            alloc_attempts: Arc::new(AtomicU64::new(0)),
        }
    }

    /// An injector that never injects anything (all rates zero).
    pub fn inert(seed: u64) -> Self {
        FaultInjector::new(FaultPlan::new(seed, crate::plan::FaultRates::none()))
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether this injector can never inject anything (all rates zero,
    /// including per-app overrides). Drivers use this to pick the
    /// passthrough wiring for seam layers.
    pub fn is_inert(&self) -> bool {
        self.plan.is_inert()
    }

    fn log_mut(&self) -> std::sync::MutexGuard<'_, FaultLog> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Logs an injected fault and mirrors it into the global telemetry
    /// domain, so the fault log and the flight recorder line up.
    fn record_fault(&self, now: VirtualTime, instance: Option<u32>, kind: FaultKind) {
        taopt_telemetry::global().fault(kind.label(), instance, now);
        self.log_mut().record_fault(now, instance, kind);
    }

    /// Should `instance`'s device die during tick `tick`? Logs on yes.
    pub fn device_loss(&self, instance: u32, tick: u64, now: VirtualTime) -> bool {
        let hit = self.plan.device_loss(instance, tick);
        if hit {
            self.record_fault(now, Some(instance), FaultKind::DeviceLost);
        }
        hit
    }

    /// Should the next allocation attempt be refused? Each call consumes
    /// one attempt number from a shared counter. Logs on yes.
    pub fn refuse_allocation(&self, now: VirtualTime) -> bool {
        let attempt = self.alloc_attempts.fetch_add(1, Ordering::Relaxed);
        let hit = self.plan.alloc_refusal(attempt);
        if hit {
            self.record_fault(now, None, FaultKind::AllocRefused);
        }
        hit
    }

    /// Latency spike for `instance`'s `step`-th action. Logs on yes.
    pub fn latency_spike(
        &self,
        instance: u32,
        step: u64,
        now: VirtualTime,
    ) -> Option<VirtualDuration> {
        let spike = self.plan.latency_spike(instance, step);
        if spike.is_some() {
            self.record_fault(now, Some(instance), FaultKind::LatencySpike);
        }
        spike
    }

    /// Decides the fate of event `seq` from `instance`. Drop beats
    /// duplicate beats delay (a single event suffers one fault). Logs
    /// any non-`Deliver` outcome.
    pub fn event_fate(&self, instance: u32, seq: u64, now: VirtualTime) -> EventFate {
        let (fate, kind) = if self.plan.event_drop(instance, seq) {
            (EventFate::Drop, Some(FaultKind::EventDropped))
        } else if self.plan.event_duplicate(instance, seq) {
            (EventFate::Duplicate, Some(FaultKind::EventDuplicated))
        } else if self.plan.event_delay(instance, seq) {
            (EventFate::Delay, Some(FaultKind::EventDelayed))
        } else {
            (EventFate::Deliver, None)
        };
        if let Some(kind) = kind {
            self.record_fault(now, Some(instance), kind);
        }
        fate
    }

    /// Should delivery `attempt` of broadcast `broadcast` fail at
    /// `instance`? Logs on yes.
    pub fn enforcement_failure(
        &self,
        instance: u32,
        broadcast: u64,
        attempt: u64,
        now: VirtualTime,
    ) -> bool {
        let hit = self.plan.enforcement_failure(instance, broadcast, attempt);
        if hit {
            self.record_fault(now, Some(instance), FaultKind::EnforcementFailed);
        }
        hit
    }

    /// Records a recovery completed by the resilience layer, mirroring
    /// its virtual-time latency into the registry's
    /// `chaos_recovery_latency_us` histogram (labeled per recovery kind),
    /// so percentiles are live series instead of bench-only aggregates.
    pub fn record_recovery(
        &self,
        injected_at: VirtualTime,
        recovered_at: VirtualTime,
        instance: Option<u32>,
        kind: RecoveryKind,
    ) {
        let telemetry = taopt_telemetry::global();
        telemetry.recovery(kind.label(), instance, recovered_at);
        let latency_us = recovered_at
            .as_millis()
            .saturating_sub(injected_at.as_millis())
            .saturating_mul(1000);
        telemetry
            .registry()
            .histogram(
                "chaos_recovery_latency_us",
                taopt_telemetry::Labels::kind(kind.label()),
            )
            .record(latency_us);
        self.log_mut()
            .record_recovery(injected_at, recovered_at, instance, kind);
    }

    /// Aggregated statistics so far.
    pub fn stats(&self) -> FaultStats {
        self.log_mut().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultRates;

    #[test]
    fn injections_are_logged() {
        let inj = FaultInjector::new(FaultPlan::new(3, FaultRates::uniform(0.5)));
        let now = VirtualTime::from_secs(1);
        let mut hits = 0;
        for seq in 0..100 {
            if inj.event_fate(0, seq, now) != EventFate::Deliver {
                hits += 1;
            }
        }
        assert!(hits > 0, "uniform(0.5) should fault some events");
        assert_eq!(inj.stats().total_injected(), hits);
    }

    #[test]
    fn inert_injector_stays_silent() {
        let inj = FaultInjector::inert(9);
        let now = VirtualTime::ZERO;
        for seq in 0..200 {
            assert_eq!(inj.event_fate(1, seq, now), EventFate::Deliver);
            assert!(!inj.device_loss(1, seq, now));
            assert!(!inj.refuse_allocation(now));
            assert!(inj.latency_spike(1, seq, now).is_none());
            assert!(!inj.enforcement_failure(1, seq, 0, now));
        }
        assert_eq!(inj.stats().total_injected(), 0);
    }

    #[test]
    fn clones_share_the_log() {
        let mut rates = FaultRates::uniform(1.0);
        rates.device_loss = 1.0;
        let inj = FaultInjector::new(FaultPlan::new(4, rates));
        let other = inj.clone();
        assert!(other.device_loss(0, 0, VirtualTime::ZERO));
        other.record_recovery(
            VirtualTime::ZERO,
            VirtualTime::from_secs(2),
            Some(0),
            RecoveryKind::DeviceReallocated,
        );
        let stats = inj.stats();
        assert_eq!(stats.total_injected(), 1);
        assert_eq!(stats.total_recovered(), 1);
        assert_eq!(stats.max_recovery_ms, 2000);
    }
}
