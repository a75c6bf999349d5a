//! The device-pool seam: how the session driver obtains, loses and
//! returns devices.
//!
//! The campaign scheduler — which also runs every single-app and
//! fault-injected session, as one-app campaigns — acquires capacity
//! through this trait instead of talking to [`DeviceFarm`] directly. A
//! plain run uses [`PlainPool`], a transparent passthrough; a chaos run
//! wraps the same farm in a fault-injecting pool (see `taopt-chaos`) that
//! refuses allocations, schedules device losses and keeps the fault log,
//! **without the driver loop changing shape**. That is the first of the
//! three seam layers (device / bus / enforcement) described in DESIGN.md
//! §12.

use taopt_ui_model::{VirtualDuration, VirtualTime};

use crate::emulator::DeviceId;
use crate::farm::DeviceFarm;

/// Outcome of one allocation request against a pool.
///
/// Distinguishing *refusal* (a transient fault — retry later) from
/// *exhaustion* (the farm is genuinely full — stop asking this round) lets
/// drivers keep their grant loops tight without inspecting fault state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolDecision {
    /// A device was allocated.
    Granted(DeviceId),
    /// The pool transiently refused the request (injected fault); the
    /// caller may retry on a later round.
    Refused,
    /// No capacity remains; further requests this round are futile.
    Exhausted,
}

/// The device seam every session driver allocates through.
///
/// Implementations wrap a [`DeviceFarm`] and may interpose fault
/// decisions; the farm itself stays the single source of truth for
/// capacity, machine-time accounting and loss counts, exposed read-only
/// via [`DevicePool::farm`].
pub trait DevicePool: Send {
    /// Requests one device.
    fn allocate(&mut self, now: VirtualTime) -> PoolDecision;

    /// Returns a device after voluntary release (stall shrink, session
    /// finish). Lost devices must go through [`DevicePool::kill`] instead.
    fn release(&mut self, device: DeviceId, now: VirtualTime);

    /// Permanently removes a device (crash, revocation, injected loss).
    fn kill(&mut self, device: DeviceId, now: VirtualTime);

    /// Devices this pool decides to lose in the given round, in
    /// deterministic order. The caller is responsible for acting on the
    /// verdict ([`DevicePool::kill`] plus driver-side bookkeeping); this
    /// method only *decides*, so drivers keep kill handling uniform with
    /// externally-scheduled losses. A plain pool never loses anything.
    fn round_losses(&mut self, round: u64, now: VirtualTime) -> Vec<DeviceId>;

    /// Read-only view of the underlying farm for accounting.
    fn farm(&self) -> &DeviceFarm;

    /// Total slots.
    fn capacity(&self) -> usize {
        self.farm().capacity()
    }

    /// Currently allocated devices.
    fn active_count(&self) -> usize {
        self.farm().active_count()
    }

    /// High-water mark of concurrently allocated devices.
    fn peak_active(&self) -> usize {
        self.farm().peak_active()
    }

    /// Devices permanently lost so far.
    fn lost_count(&self) -> usize {
        self.farm().lost_count()
    }

    /// Machine time consumed by completed leases.
    fn consumed(&self) -> VirtualDuration {
        self.farm().consumed()
    }

    /// Machine time consumed including still-active leases, as of `now`.
    fn consumed_as_of(&self, now: VirtualTime) -> VirtualDuration {
        self.farm().consumed_as_of(now)
    }
}

/// The latency half of the device seam: per-round stall decisions for
/// the devices a session holds.
///
/// Latency spikes are a *device* fault, but they must be applied inside
/// the session round, where the emulator clocks live — so the decision
/// sits behind this trait (installed into the step's layer bundle) while
/// the allocation half of the seam ([`DevicePool`]) stays with the
/// driver. `lane` is a driver-scoped stream id (the instance id, offset
/// per app in a campaign) so decisions are deterministic and decorrelated
/// regardless of scheduling.
pub trait DeviceLatency: Send {
    /// Extra stall to apply to `lane`'s device in round `round`, if any.
    fn latency_spike(&self, lane: u32, round: u64, now: VirtualTime) -> Option<VirtualDuration>;
}

/// The plain wiring: devices never stall.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoLatency;

impl DeviceLatency for NoLatency {
    fn latency_spike(&self, _lane: u32, _round: u64, _now: VirtualTime) -> Option<VirtualDuration> {
        None
    }
}

/// The inert pool: a [`DeviceFarm`] with no fault behaviour. Allocation
/// failures map to [`PoolDecision::Exhausted`]; nothing is ever refused
/// and no losses are scheduled.
#[derive(Debug)]
pub struct PlainPool {
    farm: DeviceFarm,
}

impl PlainPool {
    /// A plain pool over a fresh farm of `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        PlainPool {
            farm: DeviceFarm::new(capacity),
        }
    }

    /// Wraps an existing farm.
    pub fn with_farm(farm: DeviceFarm) -> Self {
        PlainPool { farm }
    }

    /// Consumes the pool, returning the farm for final accounting.
    pub fn into_farm(self) -> DeviceFarm {
        self.farm
    }
}

impl DevicePool for PlainPool {
    fn allocate(&mut self, now: VirtualTime) -> PoolDecision {
        match self.farm.allocate(now) {
            Ok(d) => PoolDecision::Granted(d),
            Err(_) => PoolDecision::Exhausted,
        }
    }

    fn release(&mut self, device: DeviceId, now: VirtualTime) {
        let _ = self.farm.deallocate(device, now);
    }

    fn kill(&mut self, device: DeviceId, now: VirtualTime) {
        let _ = self.farm.kill(device, now);
    }

    fn round_losses(&mut self, _round: u64, _now: VirtualTime) -> Vec<DeviceId> {
        Vec::new()
    }

    fn farm(&self) -> &DeviceFarm {
        &self.farm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_pool_grants_until_exhausted_and_never_refuses() {
        let mut pool = PlainPool::new(2);
        let now = VirtualTime::ZERO;
        let a = match pool.allocate(now) {
            PoolDecision::Granted(d) => d,
            other => panic!("expected grant, got {other:?}"),
        };
        assert!(matches!(pool.allocate(now), PoolDecision::Granted(_)));
        assert_eq!(pool.allocate(now), PoolDecision::Exhausted);
        assert_eq!(pool.active_count(), 2);
        pool.release(a, now + VirtualDuration::from_secs(10));
        assert!(matches!(
            pool.allocate(now + VirtualDuration::from_secs(10)),
            PoolDecision::Granted(_)
        ));
        assert!(pool.round_losses(1, now).is_empty());
        assert_eq!(pool.lost_count(), 0);
    }

    #[test]
    fn plain_pool_kill_reaches_the_farm() {
        let mut pool = PlainPool::new(1);
        let now = VirtualTime::ZERO;
        let d = match pool.allocate(now) {
            PoolDecision::Granted(d) => d,
            other => panic!("expected grant, got {other:?}"),
        };
        pool.kill(d, now + VirtualDuration::from_secs(5));
        assert_eq!(pool.lost_count(), 1);
        assert_eq!(pool.active_count(), 0);
        // The slot frees up again (the cloud replaces dead emulators) and
        // the replacement gets a fresh id.
        match pool.allocate(now + VirtualDuration::from_secs(5)) {
            PoolDecision::Granted(r) => assert_ne!(r, d),
            other => panic!("expected grant, got {other:?}"),
        }
    }
}
