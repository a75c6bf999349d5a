//! Parallel sessions under deterministic fault injection.
//!
//! [`run_with_chaos`] is the chaos-mode counterpart of
//! [`crate::session::ParallelSession::run`]. Both are thin drivers over
//! the one round engine, [`crate::campaign::SessionStep`]; the only
//! difference is which implementation is plugged into each seam layer:
//!
//! * **device seam** ([`taopt_device::DevicePool`]) — here a
//!   [`taopt_chaos::FaultyPool`], so allocation attempts can be refused
//!   and live devices can be killed on the fault schedule; the plain
//!   driver uses [`taopt_device::PlainPool`];
//! * **bus seam** ([`crate::campaign::BusTransport`]) — a `FaultyBus`
//!   decides a fate (drop / duplicate / delay) per stamped event; the
//!   coordinator sees only the repaired coordinator-view trace
//!   ([`crate::streaming`]'s sequence-order repair);
//! * **enforcement seam** ([`crate::campaign::Enforcement`]) — block-rule
//!   intent goes to a shadow list and an [`EnforcementBroadcaster`]
//!   reconciles it onto devices through the failure-prone channel,
//!   retrying idempotently until acknowledged.
//!
//! The self-healing policies are the ones demanded by the paper's
//! deployment reality: lost devices are re-allocated with bounded
//! retry/backoff, orphaned subspaces are re-dedicated to survivors, and
//! no fault can make the session exceed `d_max` or run past its budget.
//! With an inert injector every layer is observably a no-op and the run
//! is **field-for-field equal** to a plain [`ParallelSession::run`] —
//! the fault-free baseline chaos experiments compare against (and the
//! parity test below pins).
//!
//! [`ParallelSession::run`]: crate::session::ParallelSession::run
//! [`EnforcementBroadcaster`]: crate::resilience::EnforcementBroadcaster

use std::sync::Arc;

use taopt_app_sim::App;
use taopt_chaos::{FaultInjector, FaultLog, FaultStats, FaultyPool, RecoveryKind};
use taopt_device::{DeviceFarm, DevicePool, PoolDecision};

use crate::campaign::{SessionStep, StepLayers};
use crate::resilience::{ReplacementQueue, RetryPolicy};
use crate::session::{RunMode, SessionConfig, SessionResult};
use crate::streaming::StreamStats;
use taopt_ui_model::VirtualTime;

/// Everything a chaos run produces: the ordinary session result plus the
/// fault/recovery audit trail.
#[derive(Debug)]
pub struct ChaosReport {
    /// The session outcome (coverage, crashes, subspaces, …).
    pub session: SessionResult,
    /// Every injected fault and recorded recovery.
    pub fault_log: FaultLog,
    /// Aggregated fault/recovery statistics.
    pub fault_stats: FaultStats,
    /// Bus-repair counters across all instances.
    pub stream: StreamStats,
    /// Devices killed by the fault schedule.
    pub devices_lost: usize,
    /// Lost devices successfully re-allocated.
    pub replacements: usize,
    /// Replacement attempts abandoned after the retry budget.
    pub replacements_abandoned: usize,
    /// Enforcement deliveries that needed at least one retry.
    pub enforcement_retries: usize,
    /// Confirmed, unfinished subspaces still blocked for every live
    /// instance when the session ended (the liveness invariant: should
    /// be 0 whenever any instance survived to inherit).
    pub unresolved_orphans: usize,
}

/// Runs a fault-injected parallel session to completion.
///
/// All [`RunMode`]s are supported; the run is fully deterministic given
/// `config.seed` and the injector's plan seed. The loop below is pure
/// device-seam policy — boot, replace, kill — with every in-round fault
/// (latency, bus, enforcement) handled inside
/// [`SessionStep::advance_round`] by the chaos [`StepLayers`].
pub fn run_with_chaos(
    app: Arc<App>,
    config: &SessionConfig,
    injector: &FaultInjector,
) -> ChaosReport {
    let telemetry = taopt_telemetry::global();
    telemetry.counter("chaos_sessions_started_total").inc();
    let round_counter = telemetry.counter("chaos_rounds_total");

    let mut pool = FaultyPool::new(DeviceFarm::new(config.instances), injector.clone());
    let mut step = SessionStep::new(app, config.clone())
        .with_layers(StepLayers::chaos(injector, 0))
        .with_compute(crate::campaign::pool::ComputePool::shared());
    let mut replacements = ReplacementQueue::new(RetryPolicy {
        max_attempts: 6,
        backoff: config.tick,
    });
    let mut replaced = 0usize;
    // A resource-mode session that can never hold a device (pathological
    // refusal rates) would never burn its machine budget; bound it by
    // wall clock with headroom for a fully serialized burn-down.
    let wall_cap =
        VirtualTime::ZERO + config.duration * (config.instances as u64).max(1) * 4 + config.tick;

    let mut round = 0u64;
    loop {
        round += 1;
        // Device seam, replacements first: each lost device owes one
        // recovery-tracked re-allocation, retried with backoff and
        // abandoned after the retry budget. `d_max` is a hard ceiling.
        for req in replacements.due(step.now()) {
            if step.active_count() >= config.instances {
                replacements.defer(req, step.now());
                continue;
            }
            match pool.allocate(step.now()) {
                PoolDecision::Granted(device) => {
                    let iid = step.grant(device);
                    replaced += 1;
                    injector.record_recovery(
                        req.lost_at,
                        step.now(),
                        Some(iid.0),
                        RecoveryKind::DeviceReallocated,
                    );
                }
                _ => replacements.defer(req, step.now()),
            }
        }
        // Plain top-up to the step's demand, leaving headroom for
        // replacements still backing off. A refusal here simply retries
        // next round (demand persists), without replacement bookkeeping.
        while step.demand() > replacements.outstanding() {
            match pool.allocate(step.now()) {
                PoolDecision::Granted(device) => {
                    step.grant(device);
                }
                _ => break,
            }
        }

        round_counter.inc();
        let out = step.advance_round();
        // Stall-released devices go back before victims are drawn, so a
        // device cannot be "killed" after its instance already retired.
        for d in out.released {
            pool.release(d, step.now());
        }
        // Device seam, losses: the schedule picks victims among devices
        // still active; the pool charges and frees the slot, the step
        // settles the instance, and a replacement is queued.
        for device in pool.round_losses(round, step.now()) {
            pool.kill(device, step.now());
            if step.lose_device(device) {
                replacements.device_lost(step.now());
            }
        }
        if out.done || (config.mode == RunMode::TaoptResource && step.now() >= wall_cap) {
            break;
        }
    }

    let end = step.now();
    let fin = step.finish();
    for d in fin.released {
        pool.release(d, end);
    }
    ChaosReport {
        session: fin.result,
        fault_log: injector.log_snapshot(),
        fault_stats: injector.stats(),
        stream: fin.stream,
        devices_lost: pool.lost_count(),
        replacements: replaced,
        replacements_abandoned: replacements.given_up(),
        enforcement_retries: fin.enforcement_retries,
        unresolved_orphans: fin.unresolved_orphans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalyzerConfig;
    use crate::session::ParallelSession;
    use taopt_app_sim::{generate_app, GeneratorConfig};
    use taopt_chaos::{FaultPlan, FaultRates};
    use taopt_tools::ToolKind;
    use taopt_ui_model::VirtualDuration;

    fn quick_config() -> SessionConfig {
        let mut c = SessionConfig::new(ToolKind::Monkey, RunMode::TaoptDuration);
        c.instances = 3;
        c.duration = VirtualDuration::from_mins(8);
        c.tick = VirtualDuration::from_secs(10);
        c.analyzer = AnalyzerConfig::duration_mode();
        c.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
        c.analyzer.analysis_interval = VirtualDuration::from_secs(20);
        c
    }

    fn app() -> Arc<App> {
        Arc::new(generate_app(&GeneratorConfig::small("chaos-sess", 3)).unwrap())
    }

    /// The parity pin: with an inert injector, every seam layer is a
    /// no-op and the chaos driver must produce a session result equal
    /// **field by field** to the plain driver, in every run mode.
    #[test]
    fn inert_chaos_run_equals_plain_run_field_by_field() {
        for mode in [
            RunMode::Baseline,
            RunMode::TaoptDuration,
            RunMode::TaoptResource,
            RunMode::ActivityPartition,
            RunMode::PatsMasterSlave,
        ] {
            let mut cfg = quick_config();
            cfg.mode = mode;
            cfg.seed = 42;
            if mode == RunMode::TaoptResource {
                cfg.analyzer = AnalyzerConfig::resource_mode();
                cfg.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
                cfg.analyzer.analysis_interval = VirtualDuration::from_secs(20);
            }
            let plain = ParallelSession::run(app(), &cfg);
            let report = run_with_chaos(app(), &cfg, &FaultInjector::inert(9));
            assert_eq!(report.fault_stats.total_injected(), 0);
            assert_eq!(report.devices_lost, 0);
            assert_eq!(report.stream, StreamStats::default());
            assert_eq!(report.unresolved_orphans, 0);
            let chaos = report.session;
            let fields = [
                (
                    "tool",
                    format!("{:?}", plain.tool),
                    format!("{:?}", chaos.tool),
                ),
                (
                    "mode",
                    format!("{:?}", plain.mode),
                    format!("{:?}", chaos.mode),
                ),
                (
                    "instances",
                    format!("{:?}", plain.instances),
                    format!("{:?}", chaos.instances),
                ),
                (
                    "union_curve",
                    format!("{:?}", plain.union_curve),
                    format!("{:?}", chaos.union_curve),
                ),
                (
                    "machine_time",
                    format!("{:?}", plain.machine_time),
                    format!("{:?}", chaos.machine_time),
                ),
                (
                    "wall_clock",
                    format!("{:?}", plain.wall_clock),
                    format!("{:?}", chaos.wall_clock),
                ),
                (
                    "subspaces",
                    format!("{:?}", plain.subspaces),
                    format!("{:?}", chaos.subspaces),
                ),
                (
                    "coordinator_events",
                    format!("{:?}", plain.coordinator_events),
                    format!("{:?}", chaos.coordinator_events),
                ),
                (
                    "concurrency_timeline",
                    format!("{:?}", plain.concurrency_timeline),
                    format!("{:?}", chaos.concurrency_timeline),
                ),
            ];
            for (name, p, c) in fields {
                assert_eq!(p, c, "{mode:?}: field `{name}` diverged under inert chaos");
            }
        }
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let cfg = quick_config();
        let plan = FaultPlan::new(11, FaultRates::uniform(0.05));
        let a = run_with_chaos(app(), &cfg, &FaultInjector::new(plan.clone()));
        let b = run_with_chaos(app(), &cfg, &FaultInjector::new(plan));
        assert_eq!(a.session.union_coverage(), b.session.union_coverage());
        assert_eq!(
            a.fault_stats.total_injected(),
            b.fault_stats.total_injected()
        );
        assert_eq!(a.devices_lost, b.devices_lost);
        assert_eq!(a.stream, b.stream);
    }

    #[test]
    fn device_losses_are_recovered_by_reallocation() {
        let cfg = quick_config();
        let mut rates = FaultRates::none();
        rates.device_loss = 0.03; // per device per 10 s round
        let r = run_with_chaos(app(), &cfg, &FaultInjector::new(FaultPlan::new(5, rates)));
        assert!(r.devices_lost > 0, "schedule should kill devices");
        assert!(r.replacements > 0, "lost devices get replaced");
        assert!(
            r.session.peak_concurrency() <= cfg.instances,
            "d_max holds under churn"
        );
        assert!(r.session.union_coverage() > 0);
    }
}
