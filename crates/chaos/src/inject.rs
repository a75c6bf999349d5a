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

use taopt_device::{DeviceFarm, DeviceId};
use taopt_telemetry::Labels;
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
    /// one attempt number from a shared counter, so callers must ask
    /// exactly once per attempt, in a deterministic order. Logs on yes
    /// and counts `pool_refusals_total{seam="device"}`.
    pub fn refuse_allocation(&self, now: VirtualTime) -> bool {
        let attempt = self.alloc_attempts.fetch_add(1, Ordering::Relaxed);
        let hit = self.plan.alloc_refusal(attempt);
        if hit {
            self.record_fault(now, None, FaultKind::AllocRefused);
            taopt_telemetry::global()
                .counter_labeled("pool_refusals_total", Labels::seam("device"))
                .inc();
        }
        hit
    }

    /// The devices of `farm` that die in round `round`, in device-id
    /// order. Decisions are keyed by device id (unique within a farm), so
    /// the fault stream does not depend on which app holds a device. Only
    /// decides: the caller kills the victims. Logs each loss and counts
    /// `pool_losses_total{seam="device"}`.
    pub fn device_losses(&self, farm: &DeviceFarm, round: u64, now: VirtualTime) -> Vec<DeviceId> {
        let victims: Vec<DeviceId> = farm
            .active_devices()
            .filter(|d| self.device_loss(d.0, round, now))
            .collect();
        if !victims.is_empty() {
            taopt_telemetry::global()
                .counter_labeled("pool_losses_total", Labels::seam("device"))
                .add(victims.len() as u64);
        }
        victims
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
        let mut rates = FaultRates::uniform(0.5);
        rates.device_loss = 0.2;
        let inj = FaultInjector::new(FaultPlan::new(3, rates));
        let now = VirtualTime::from_secs(1);
        let mut hits = 0;
        for seq in 0..100 {
            if inj.event_fate(0, seq, now) != EventFate::Deliver {
                hits += 1;
            }
        }
        assert!(hits > 0, "uniform(0.5) should fault some events");
        // Device seam: refusals consume attempts, losses kill devices.
        let mut farm = DeviceFarm::new(64);
        let mut refused = 0usize;
        for _ in 0..64 {
            if inj.refuse_allocation(now) {
                refused += 1;
            } else if farm.allocate(now).is_err() {
                break;
            }
        }
        assert!(farm.active_count() > 0, "some allocations must succeed");
        assert!(refused > 0, "rate 0.5 must refuse some allocations");
        let mut lost = 0usize;
        for round in 1..20 {
            for d in inj.device_losses(&farm, round, now) {
                farm.kill(d, now).expect("victim is active");
                lost += 1;
            }
        }
        assert!(lost > 0, "rate 0.2 must lose some devices");
        assert_eq!(farm.lost_count(), lost);
        let stats = inj.stats();
        assert_eq!(stats.injected[&FaultKind::AllocRefused], refused);
        assert_eq!(stats.injected[&FaultKind::DeviceLost], lost);
        assert_eq!(stats.total_injected(), hits + refused + lost);
    }

    #[test]
    fn inert_injector_stays_silent() {
        let inj = FaultInjector::inert(9);
        let now = VirtualTime::ZERO;
        let mut farm = DeviceFarm::new(2);
        farm.allocate(now).expect("free slot");
        farm.allocate(now).expect("free slot");
        for seq in 0..200 {
            assert_eq!(inj.event_fate(1, seq, now), EventFate::Deliver);
            assert!(!inj.device_loss(1, seq, now));
            assert!(inj.device_losses(&farm, seq, now).is_empty());
            assert!(!inj.refuse_allocation(now));
            assert!(inj.latency_spike(1, seq, now).is_none());
            assert!(!inj.enforcement_failure(1, seq, 0, now));
        }
        assert_eq!(inj.stats().total_injected(), 0);
    }

    #[test]
    fn device_losses_are_reproducible_for_a_seed() {
        let mut rates = FaultRates::none();
        rates.device_loss = 0.3;
        let run = |seed| {
            let inj = FaultInjector::new(FaultPlan::new(seed, rates));
            let mut farm = DeviceFarm::new(8);
            let now = VirtualTime::ZERO;
            while farm.allocate(now).is_ok() {}
            let mut log = Vec::new();
            for round in 1..30 {
                for d in inj.device_losses(&farm, round, now) {
                    farm.kill(d, now).expect("victim is active");
                    log.push((round, d));
                }
            }
            log
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should diverge");
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
