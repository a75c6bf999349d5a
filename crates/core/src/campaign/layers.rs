//! The seam layers the campaign scheduler composes over [`super::step`].
//!
//! The reproduction has exactly three seams where a real testing cloud
//! can misbehave (DESIGN.md §12):
//!
//! * **device** — how the scheduler obtains/loses devices:
//!   [`taopt_device::DevicePool`], with [`taopt_device::PlainPool`] as the
//!   passthrough and [`taopt_chaos::FaultyPool`] as the fault-injecting
//!   wrapper (refusals, scheduled losses). Latency spikes are *decided* at
//!   this seam too (they are a device fault) but *applied* by the step,
//!   which owns the emulators.
//! * **bus** — how instance trace events reach the coordinator: the
//!   injector's [`FaultInjector::event_fate`] decides a
//!   [`taopt_chaos::EventFate`] per published event and the step repairs
//!   the surviving stream back into order with [`crate::streaming`]'s
//!   sequence layer, so the coordinator only ever sees a coordinator-view
//!   trace. The bus lane is engaged exactly when an injector is attached;
//!   plain wiring has no bus layer at all: the coordinator reads instance
//!   traces directly.
//! * **enforcement** — how coordinator block rules land on devices:
//!   [`Enforcement`], with [`DirectEnforcement`] wiring the coordinator
//!   straight to the device list (no retry machinery at all) and
//!   [`crate::resilience::BroadcastEnforcement`] routing every rule change
//!   through the failure-prone broadcast channel with idempotent retry.
//!
//! A [`StepLayers`] bundle picks one implementation per seam.
//! [`StepLayers::direct`] is the plain wiring of a campaign without a
//! fault plan, and [`StepLayers::chaos`] is the chaotic wiring of one
//! with a plan; under an all-zero plan the chaotic wiring produces
//! field-by-field the same session result as the direct one (pinned by
//! `tests/campaign.rs::single_app_campaign_matches_serial_session`),
//! which is what makes a fault-free campaign a valid chaos baseline.

use taopt_chaos::{FaultInjector, FaultyLatency, RecoveryKind};
use taopt_device::{DeviceLatency, NoLatency};
use taopt_toller::{InstanceId, SharedBlockList};
use taopt_ui_model::VirtualTime;

use crate::resilience::BroadcastEnforcement;

/// The enforcement seam: how the coordinator's block rules reach each
/// instance's device-side list.
pub trait Enforcement: Send {
    /// Wires up a freshly booted instance. Returns the list the
    /// coordinator should write its intent into: the device's own list
    /// (direct wiring) or a shadow that [`Enforcement::reconcile`]
    /// propagates.
    fn register(&mut self, instance: InstanceId, actual: SharedBlockList) -> SharedBlockList;

    /// Boot-time catch-up: pushes everything currently intended for
    /// `instance` toward its device, with one immediate delivery attempt
    /// per rule. Called right after registration. Implementations whose
    /// deliveries cannot fail land everything synchronously, so a fresh
    /// device starts its first round fully configured.
    fn provision(&mut self, instance: InstanceId, now: VirtualTime);

    /// Forgets a retired instance (undelivered rule changes die with it).
    fn unregister(&mut self, instance: InstanceId);

    /// One per-round reconciliation pass: propagate intended-vs-actual
    /// rule diffs, retrying failed deliveries. Returns operations applied.
    fn reconcile(&mut self, now: VirtualTime) -> usize;

    /// Deliveries that needed at least one retry before landing.
    fn reapplied(&self) -> usize;
}

/// The passthrough enforcement wiring: the coordinator writes rules
/// directly into the device-side list, so there is nothing to provision,
/// reconcile or retry — the inert path compiles down to no-ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectEnforcement;

impl Enforcement for DirectEnforcement {
    fn register(&mut self, _instance: InstanceId, actual: SharedBlockList) -> SharedBlockList {
        actual
    }

    fn provision(&mut self, _instance: InstanceId, _now: VirtualTime) {}

    fn unregister(&mut self, _instance: InstanceId) {}

    fn reconcile(&mut self, _now: VirtualTime) -> usize {
        0
    }

    fn reapplied(&self) -> usize {
        0
    }
}

/// One implementation per seam, bundled for [`super::SessionStep`].
///
/// The allocation half of the device seam is *not* held here — the
/// scheduler owns the pool because device grants flow scheduler → step,
/// not step → scheduler — but its latency half is ([`DeviceLatency`]: spikes must be
/// applied inside the round, where the emulators live), along with the
/// injector handle that decides bus-seam event fates and stamps recovery
/// records.
pub struct StepLayers {
    /// Enforcement seam.
    pub(crate) enforcement: Box<dyn Enforcement>,
    /// Latency half of the device seam ([`NoLatency`] for plain wiring,
    /// [`FaultyLatency`] for chaos): the step applies what it decides.
    pub(crate) device: Box<dyn DeviceLatency>,
    /// Chaos handle: event fates on the bus seam and recovery records.
    /// `None` for plain wiring, which skips lane bookkeeping entirely
    /// (the coordinator reads instance traces directly).
    pub(crate) injector: Option<FaultInjector>,
    /// Offset added to instance ids to form lane ids (decorrelates apps
    /// sharing one fault plan in a campaign).
    pub(crate) lane_base: u32,
}

impl std::fmt::Debug for StepLayers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepLayers")
            .field("chaotic", &self.injector.is_some())
            .field("lane_base", &self.lane_base)
            .finish()
    }
}

impl Default for StepLayers {
    fn default() -> Self {
        StepLayers::direct()
    }
}

impl StepLayers {
    /// The plain wiring: no bus lanes, direct enforcement, no injector.
    pub fn direct() -> Self {
        StepLayers {
            enforcement: Box::new(DirectEnforcement),
            device: Box::new(NoLatency),
            injector: None,
            lane_base: 0,
        }
    }

    /// The chaotic wiring: every seam consults `injector`, with lanes
    /// offset by `lane_base`. An all-zero plan yields a run
    /// field-by-field identical to [`StepLayers::direct`].
    pub fn chaos(injector: &FaultInjector, lane_base: u32) -> Self {
        StepLayers {
            enforcement: Box::new(
                BroadcastEnforcement::new(injector.clone()).with_lane_base(lane_base),
            ),
            device: Box::new(FaultyLatency::new(injector.clone())),
            injector: Some(injector.clone()),
            lane_base,
        }
    }

    /// Records an orphaned-subspace re-dedication recovery, if a chaos
    /// log is attached.
    pub(crate) fn record_rededication(&self, since: VirtualTime, now: VirtualTime, heir_lane: u32) {
        if let Some(i) = &self.injector {
            i.record_recovery(
                since,
                now,
                Some(heir_lane),
                RecoveryKind::SubspaceRededicated,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_toller::enforce::shared_block_list;
    use taopt_toller::EntrypointRule;
    use taopt_ui_model::AbstractScreenId;

    #[test]
    fn direct_enforcement_is_a_passthrough() {
        let mut e = DirectEnforcement;
        let actual = shared_block_list();
        let handed = e.register(InstanceId(0), actual.clone());
        handed
            .write()
            .block(EntrypointRule::new(AbstractScreenId(1), "w"));
        // Writing to the handed-back list IS writing to the device list.
        assert_eq!(actual.read().rules().len(), 1);
        assert_eq!(e.reconcile(VirtualTime::ZERO), 0);
        assert_eq!(e.reapplied(), 0);
    }
}
