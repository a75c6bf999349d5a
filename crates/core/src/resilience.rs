//! Self-healing machinery for chaos runs.
//!
//! The fault injector (crate `taopt-chaos`) breaks three seams: devices
//! die or refuse allocation, bus events are dropped/duplicated/delayed,
//! and enforcement broadcasts fail to apply. This module holds the
//! counterparts that heal two of them (the bus seam heals inside
//! [`crate::streaming`] via sequence numbers):
//!
//! * [`EnforcementBroadcaster`] — the coordinator writes its *intended*
//!   block rules to a shadow list; the broadcaster reconciles shadow →
//!   device each round, pushing every rule change through the (possibly
//!   failing) enforcement channel and retrying idempotently until the
//!   device acknowledges it;
//! * [`ReplacementQueue`] — lost devices are re-allocated with bounded
//!   retry and exponential backoff, so a burst of allocation refusals
//!   delays recovery instead of wedging the session.
//!
//! A faulted [`crate::campaign::SessionStep`] owns one broadcaster and
//! drives it with the campaign's injector.

use std::collections::BTreeMap;

use taopt_chaos::{FaultInjector, RecoveryKind};
use taopt_toller::enforce::shared_block_list;
use taopt_toller::{EntrypointRule, InstanceId, SharedBlockList};
use taopt_ui_model::{VirtualDuration, VirtualTime};

/// Bounded-retry configuration shared by the recovery paths.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Give up after this many failed attempts.
    pub max_attempts: u32,
    /// Base backoff between attempts; doubles per failure (capped at
    /// eight times the base).
    pub backoff: VirtualDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff: VirtualDuration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt` (0-based; exponential, capped).
    pub fn backoff_for(&self, attempt: u32) -> VirtualDuration {
        self.backoff * 1u64.checked_shl(attempt.min(3)).unwrap_or(8)
    }
}

/// One undelivered rule change.
#[derive(Debug, Clone)]
struct PendingOp {
    rule: EntrypointRule,
    /// `true` removes the rule from the device, `false` installs it.
    unblock: bool,
    /// Broadcast id (stable across retries — the fault plan keys on it).
    broadcast: u64,
    attempts: u64,
    first_tried: VirtualTime,
}

#[derive(Debug)]
struct Endpoint {
    /// What the coordinator wants blocked (it writes here directly).
    shadow: SharedBlockList,
    /// What the instance's step loop actually applies.
    actual: SharedBlockList,
    pending: Vec<PendingOp>,
}

/// Reconciles the coordinator's intended block rules onto each device
/// through a failure-prone enforcement channel.
///
/// Deliveries are idempotent ([`taopt_toller::BlockList`] deduplicates),
/// so a retry can never double-apply; a delivery counts as acknowledged
/// the moment the rule lands in the device-side list.
#[derive(Debug, Default)]
pub struct EnforcementBroadcaster {
    endpoints: BTreeMap<InstanceId, Endpoint>,
    next_broadcast: u64,
    reapplied: usize,
    /// Offset added to instance ids when keying the fault plan, so
    /// several broadcasters sharing one plan (a campaign) draw
    /// decorrelated failure streams.
    lane_base: u32,
}

impl EnforcementBroadcaster {
    /// Creates an empty broadcaster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keys the fault plan with `lane_base + instance` instead of the raw
    /// instance id.
    pub fn with_lane_base(mut self, lane_base: u32) -> Self {
        self.lane_base = lane_base;
        self
    }

    /// Boot-time catch-up for a freshly registered instance: queues the
    /// shadow → device diff (the rules the coordinator already holds for
    /// everyone) and attempts each delivery once, immediately. Failures
    /// stay pending for the next [`reconcile`](Self::reconcile). With an
    /// inert injector every attempt lands, so the device starts its first
    /// round exactly as it would under direct enforcement.
    pub fn provision(&mut self, injector: &FaultInjector, instance: InstanceId, now: VirtualTime) {
        let EnforcementBroadcaster {
            endpoints,
            next_broadcast,
            reapplied,
            lane_base,
        } = self;
        if let Some(ep) = endpoints.get_mut(&instance) {
            Self::reconcile_endpoint(
                *lane_base,
                next_broadcast,
                reapplied,
                instance,
                ep,
                injector,
                now,
            );
        }
    }

    /// Registers an instance's device-side block list and returns the
    /// shadow list to hand to the coordinator in its place.
    pub fn register(&mut self, instance: InstanceId, actual: SharedBlockList) -> SharedBlockList {
        let shadow = shared_block_list();
        self.endpoints.insert(
            instance,
            Endpoint {
                shadow: shadow.clone(),
                actual,
                pending: Vec::new(),
            },
        );
        shadow
    }

    /// Forgets a deallocated instance (undelivered ops die with it).
    pub fn unregister(&mut self, instance: InstanceId) {
        self.endpoints.remove(&instance);
    }

    /// One reconciliation round: diffs shadow vs device rules, queues the
    /// changes, and attempts every pending delivery through `injector`.
    /// Failed deliveries stay queued for the next round. Returns how many
    /// operations were applied.
    pub fn reconcile(&mut self, injector: &FaultInjector, now: VirtualTime) -> usize {
        let telemetry = taopt_telemetry::global();
        let _span = telemetry.span("broadcast");
        let EnforcementBroadcaster {
            endpoints,
            next_broadcast,
            reapplied,
            lane_base,
        } = self;
        let mut applied = 0;
        for (iid, ep) in endpoints.iter_mut() {
            applied += Self::reconcile_endpoint(
                *lane_base,
                next_broadcast,
                reapplied,
                *iid,
                ep,
                injector,
                now,
            );
        }
        applied
    }

    /// Diffs one endpoint's shadow vs device rules, queues the changes,
    /// and attempts every pending delivery once through `injector`.
    /// Failed deliveries stay queued. Returns operations applied.
    fn reconcile_endpoint(
        lane_base: u32,
        next_broadcast: &mut u64,
        reapplied: &mut usize,
        iid: InstanceId,
        ep: &mut Endpoint,
        injector: &FaultInjector,
        now: VirtualTime,
    ) -> usize {
        let telemetry = taopt_telemetry::global();
        let applied_counter = telemetry.counter("enforcement_applied_total");
        let retry_counter = telemetry.counter("enforcement_retries_total");
        let mut applied = 0;
        let intended = ep.shadow.read().clone();
        let (to_block, to_unblock) = ep.actual.read().diff_to(&intended);
        for (rules, unblock) in [(to_block, false), (to_unblock, true)] {
            for rule in rules {
                let queued = ep
                    .pending
                    .iter()
                    .any(|p| p.unblock == unblock && p.rule == rule);
                if !queued {
                    ep.pending.push(PendingOp {
                        rule,
                        unblock,
                        broadcast: *next_broadcast,
                        attempts: 0,
                        first_tried: now,
                    });
                    *next_broadcast += 1;
                }
            }
        }
        ep.pending.retain_mut(|op| {
            // The coordinator may have changed its mind (e.g. a
            // re-dedication unblocking a rule queued for delivery);
            // stale ops are dropped, not delivered.
            let still_wanted = if op.unblock {
                !intended.contains(&op.rule)
            } else {
                intended.contains(&op.rule)
            };
            if !still_wanted {
                return false;
            }
            let attempt = op.attempts;
            op.attempts += 1;
            if injector.enforcement_failure(lane_base + iid.0, op.broadcast, attempt, now) {
                retry_counter.inc();
                return true; // retry next round
            }
            {
                let mut bl = ep.actual.write();
                if op.unblock {
                    bl.unblock(&op.rule);
                } else {
                    bl.block(op.rule.clone());
                }
            }
            applied += 1;
            applied_counter.inc();
            if attempt > 0 {
                injector.record_recovery(
                    op.first_tried,
                    now,
                    Some(lane_base + iid.0),
                    RecoveryKind::EnforcementReapplied,
                );
                *reapplied += 1;
            }
            false
        });
        applied
    }

    /// Deliveries still awaiting acknowledgement.
    pub fn pending_count(&self) -> usize {
        self.endpoints.values().map(|e| e.pending.len()).sum()
    }

    /// Deliveries that needed at least one retry before landing.
    pub fn reapplied(&self) -> usize {
        self.reapplied
    }

    /// Whether every device-side list matches the coordinator's intent.
    pub fn fully_synced(&self) -> bool {
        self.endpoints.values().all(|e| {
            e.pending.is_empty() && {
                let intended = e.shadow.read().rules().to_vec();
                let actual = e.actual.read().rules().to_vec();
                intended.iter().all(|r| actual.contains(r))
                    && actual.iter().all(|r| intended.contains(r))
            }
        })
    }
}

/// A replacement request for one lost device.
#[derive(Debug, Clone, Copy)]
pub struct ReplacementRequest {
    /// When the device was lost.
    pub lost_at: VirtualTime,
    /// Do not retry before this time (backoff).
    pub retry_at: VirtualTime,
    /// Failed attempts so far.
    pub attempts: u32,
}

/// Bounded-retry queue for re-allocating lost devices.
#[derive(Debug)]
pub struct ReplacementQueue {
    policy: RetryPolicy,
    pending: Vec<ReplacementRequest>,
}

impl ReplacementQueue {
    /// Creates a queue with the given retry policy.
    pub fn new(policy: RetryPolicy) -> Self {
        ReplacementQueue {
            policy,
            pending: Vec::new(),
        }
    }

    /// Records a device loss needing a replacement.
    pub fn device_lost(&mut self, now: VirtualTime) {
        taopt_telemetry::global()
            .counter("replacements_requested_total")
            .inc();
        self.pending.push(ReplacementRequest {
            lost_at: now,
            retry_at: now,
            attempts: 0,
        });
    }

    /// Takes the requests due at `now`. The caller attempts an allocation
    /// for each and returns failures via [`ReplacementQueue::defer`].
    pub fn due(&mut self, now: VirtualTime) -> Vec<ReplacementRequest> {
        let mut due = Vec::new();
        self.pending.retain(|r| {
            if r.retry_at <= now {
                due.push(*r);
                false
            } else {
                true
            }
        });
        due
    }

    /// Re-queues a failed request with exponential backoff, or gives up
    /// once the attempt budget is exhausted (counted in
    /// `replacements_abandoned_total`).
    pub fn defer(&mut self, mut req: ReplacementRequest, now: VirtualTime) {
        req.attempts += 1;
        if req.attempts >= self.policy.max_attempts {
            taopt_telemetry::global()
                .counter("replacements_abandoned_total")
                .inc();
        } else {
            req.retry_at = now + self.policy.backoff_for(req.attempts);
            self.pending.push(req);
        }
    }

    /// Replacements still being retried.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_chaos::{FaultPlan, FaultRates};
    use taopt_ui_model::AbstractScreenId;

    fn rule(n: u64) -> EntrypointRule {
        EntrypointRule::new(AbstractScreenId(n), format!("w{n}"))
    }

    #[test]
    fn broadcaster_syncs_shadow_to_device_when_channel_is_clean() {
        let inj = FaultInjector::inert(1);
        let mut b = EnforcementBroadcaster::new();
        let actual = shared_block_list();
        let shadow = b.register(InstanceId(0), actual.clone());
        shadow.write().block(rule(1));
        shadow.write().block(rule(2));
        assert!(!b.fully_synced());
        let applied = b.reconcile(&inj, VirtualTime::ZERO);
        assert_eq!(applied, 2);
        assert_eq!(actual.read().rules().len(), 2);
        assert!(b.fully_synced());
        // Unblocking propagates too.
        shadow.write().unblock(&rule(1));
        b.reconcile(&inj, VirtualTime::from_secs(1));
        assert_eq!(actual.read().rules().len(), 1);
        assert!(b.fully_synced());
    }

    #[test]
    fn failed_broadcasts_retry_until_acknowledged() {
        // Every first attempt fails; retries eventually get through
        // because the plan keys on (broadcast, attempt).
        let mut rates = FaultRates::none();
        rates.enforcement_failure = 0.9;
        let inj = FaultInjector::new(FaultPlan::new(7, rates));
        let mut b = EnforcementBroadcaster::new();
        let actual = shared_block_list();
        let shadow = b.register(InstanceId(3), actual.clone());
        for n in 0..6 {
            shadow.write().block(rule(n));
        }
        let mut now = VirtualTime::ZERO;
        for _ in 0..200 {
            now += VirtualDuration::from_secs(10);
            b.reconcile(&inj, now);
            if b.fully_synced() {
                break;
            }
        }
        assert!(b.fully_synced(), "90% failure rate must still converge");
        assert_eq!(actual.read().rules().len(), 6);
        assert!(b.reapplied() > 0, "some deliveries needed retries");
        let stats = inj.stats();
        assert!(stats.total_recovered() >= b.reapplied());
    }

    #[test]
    fn stale_ops_are_dropped_not_delivered() {
        let mut rates = FaultRates::none();
        rates.enforcement_failure = 1.0; // nothing ever applies
        let inj = FaultInjector::new(FaultPlan::new(2, rates));
        let mut b = EnforcementBroadcaster::new();
        let actual = shared_block_list();
        let shadow = b.register(InstanceId(0), actual.clone());
        shadow.write().block(rule(5));
        b.reconcile(&inj, VirtualTime::ZERO);
        assert_eq!(b.pending_count(), 1);
        // Coordinator retracts the rule before it ever landed.
        shadow.write().unblock(&rule(5));
        b.reconcile(&inj, VirtualTime::from_secs(1));
        assert_eq!(b.pending_count(), 0, "retracted rule is not retried");
        assert!(actual.read().is_empty());
    }

    #[test]
    fn replacement_queue_backs_off_and_gives_up() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: VirtualDuration::from_secs(10),
        };
        let mut q = ReplacementQueue::new(policy);
        let t0 = VirtualTime::from_secs(100);
        q.device_lost(t0);
        // Due immediately.
        let due = q.due(t0);
        assert_eq!(due.len(), 1);
        assert_eq!(q.outstanding(), 0);
        // Refused: backs off 20 s (attempt 1).
        q.defer(due[0], t0);
        assert_eq!(q.outstanding(), 1);
        assert!(
            q.due(t0 + VirtualDuration::from_secs(10)).is_empty(),
            "still backing off"
        );
        let due = q.due(t0 + VirtualDuration::from_secs(20));
        assert_eq!(due.len(), 1);
        // Refused twice more: attempt budget (3) exhausted.
        q.defer(due[0], t0 + VirtualDuration::from_secs(20));
        let due = q.due(t0 + VirtualDuration::from_secs(100));
        assert_eq!(due.len(), 1);
        q.defer(due[0], t0 + VirtualDuration::from_secs(100));
        assert_eq!(q.outstanding(), 0);
        assert!(
            q.due(t0 + VirtualDuration::from_hours(1)).is_empty(),
            "an abandoned replacement is never retried"
        );
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff: VirtualDuration::from_secs(10),
        };
        assert_eq!(p.backoff_for(0), VirtualDuration::from_secs(10));
        assert_eq!(p.backoff_for(1), VirtualDuration::from_secs(20));
        assert_eq!(p.backoff_for(2), VirtualDuration::from_secs(40));
        assert_eq!(p.backoff_for(3), VirtualDuration::from_secs(80));
        assert_eq!(
            p.backoff_for(9),
            VirtualDuration::from_secs(80),
            "capped at 8×"
        );
    }
}
