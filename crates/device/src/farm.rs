//! The device farm — bounded capacity and machine-time accounting.

use std::collections::BTreeMap;

use taopt_telemetry::{Counter, Gauge, Labels};
use taopt_ui_model::{VirtualDuration, VirtualTime};

use crate::emulator::DeviceId;
use crate::error::DeviceError;

/// Cached handles into the global metrics registry (fetched once per
/// farm so the allocate/kill paths never take the registry lock).
#[derive(Debug, Clone)]
struct FarmMetrics {
    allocations: Counter,
    refusals: Counter,
    deallocations: Counter,
    kills: Counter,
    active: Gauge,
}

impl FarmMetrics {
    fn new() -> Self {
        let t = taopt_telemetry::global();
        FarmMetrics {
            allocations: t.counter_labeled("farm_allocations_total", Labels::seam("farm")),
            refusals: t.counter_labeled("farm_allocation_refusals_total", Labels::seam("farm")),
            deallocations: t.counter_labeled("farm_deallocations_total", Labels::seam("farm")),
            kills: t.counter_labeled("farm_kills_total", Labels::seam("farm")),
            active: t.gauge("farm_active_devices"),
        }
    }
}

/// A pool of device slots with allocate/deallocate and machine-time
/// accounting.
///
/// Machine time — the sum over devices of (deallocation − allocation) —
/// is the paper's "testing resources" metric (RQ4). The farm itself holds
/// no emulators; the session layer pairs allocated [`DeviceId`]s with
/// [`crate::Emulator`] values.
#[derive(Debug, Clone)]
pub struct DeviceFarm {
    capacity: usize,
    next_id: u32,
    active: BTreeMap<DeviceId, VirtualTime>,
    lost: std::collections::BTreeSet<DeviceId>,
    consumed: VirtualDuration,
    peak_active: usize,
    metrics: FarmMetrics,
}

impl DeviceFarm {
    /// Creates a farm with the given number of device slots.
    pub fn new(capacity: usize) -> Self {
        DeviceFarm {
            capacity,
            next_id: 0,
            active: BTreeMap::new(),
            lost: std::collections::BTreeSet::new(),
            consumed: VirtualDuration::ZERO,
            peak_active: 0,
            metrics: FarmMetrics::new(),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently allocated devices.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// High-water mark of simultaneously allocated devices. A shared-farm
    /// campaign asserts this never exceeds [`DeviceFarm::capacity`].
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Currently allocated device ids.
    pub fn active_devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.active.keys().copied()
    }

    /// Allocates an emulator slot at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NoCapacity`] when all slots are taken.
    pub fn allocate(&mut self, now: VirtualTime) -> Result<DeviceId, DeviceError> {
        if self.active.len() >= self.capacity {
            self.metrics.refusals.inc();
            return Err(DeviceError::NoCapacity {
                capacity: self.capacity,
            });
        }
        let id = DeviceId(self.next_id);
        self.next_id += 1;
        self.active.insert(id, now);
        self.peak_active = self.peak_active.max(self.active.len());
        self.metrics.allocations.inc();
        self.metrics.active.set(self.active.len() as i64);
        Ok(id)
    }

    /// Deallocates a device at `now`, charging its machine time.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::DeviceLost`] if the device was killed by a
    /// fault (the slot was already settled), [`DeviceError::UnknownDevice`]
    /// if the id was never allocated.
    pub fn deallocate(&mut self, id: DeviceId, now: VirtualTime) -> Result<(), DeviceError> {
        let Some(allocated_at) = self.active.remove(&id) else {
            return Err(if self.lost.contains(&id) {
                DeviceError::DeviceLost(id)
            } else {
                DeviceError::UnknownDevice(id)
            });
        };
        let used = now.since(allocated_at);
        self.consumed += used;
        self.metrics.deallocations.inc();
        self.metrics.active.set(self.active.len() as i64);
        Ok(())
    }

    /// Kills an active device at `now` (fault injection: the emulator died
    /// or the farm revoked the slot). The slot frees up and the machine
    /// time used until the loss is still charged — clouds bill for the
    /// session, not for a happy ending. Returns the time the device ran.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::DeviceLost`] if the device is already dead,
    /// [`DeviceError::UnknownDevice`] if the id was never allocated.
    pub fn kill(&mut self, id: DeviceId, now: VirtualTime) -> Result<VirtualDuration, DeviceError> {
        let Some(allocated_at) = self.active.remove(&id) else {
            return Err(if self.lost.contains(&id) {
                DeviceError::DeviceLost(id)
            } else {
                DeviceError::UnknownDevice(id)
            });
        };
        let used = now.since(allocated_at);
        self.consumed += used;
        self.lost.insert(id);
        self.metrics.kills.inc();
        self.metrics.active.set(self.active.len() as i64);
        Ok(used)
    }

    /// Devices lost to faults so far.
    pub fn lost_count(&self) -> usize {
        self.lost.len()
    }

    /// Whether a device was lost to a fault.
    pub fn is_lost(&self, id: DeviceId) -> bool {
        self.lost.contains(&id)
    }

    /// Machine time consumed by *deallocated* devices so far.
    pub fn consumed(&self) -> VirtualDuration {
        self.consumed
    }

    /// Machine time consumed including still-running devices, as of `now`.
    pub fn consumed_as_of(&self, now: VirtualTime) -> VirtualDuration {
        let running: u64 = self
            .active
            .values()
            .map(|t| now.since(*t).as_millis())
            .sum();
        self.consumed + VirtualDuration::from_millis(running)
    }
}

/// Max-min fair device targets: water-fill `capacity` slots across
/// `wants`, one slot per pass, skipping tenants already at their want.
///
/// Equivalent to [`fair_targets_from`] starting at index 0.
pub fn fair_targets(capacity: usize, wants: &[usize]) -> Vec<usize> {
    fair_targets_from(capacity, wants, 0)
}

/// Max-min fair device targets with a rotating start index.
///
/// Water-fills `capacity` slots across `wants` round-robin beginning at
/// `start % wants.len()`. With fewer slots than tenants, a fixed start
/// would hand the remainder to the same low indices every round and
/// permanently starve the tail; callers rotate `start` (e.g. by round
/// number) so the remainder cycles across all tenants.
pub fn fair_targets_from(capacity: usize, wants: &[usize], start: usize) -> Vec<usize> {
    let n = wants.len();
    let mut targets = vec![0usize; n];
    if n == 0 {
        return targets;
    }
    let mut left = capacity.min(wants.iter().sum());
    while left > 0 {
        let mut gave = false;
        for k in 0..n {
            if left == 0 {
                break;
            }
            let i = (start + k) % n;
            if targets[i] < wants[i] {
                targets[i] += 1;
                left -= 1;
                gave = true;
            }
        }
        if !gave {
            break;
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_active_tracks_high_water_mark() {
        let mut farm = DeviceFarm::new(3);
        let a = farm.allocate(VirtualTime::ZERO).unwrap();
        let b = farm.allocate(VirtualTime::ZERO).unwrap();
        farm.deallocate(a, VirtualTime::from_secs(1)).unwrap();
        farm.kill(b, VirtualTime::from_secs(1)).unwrap();
        farm.allocate(VirtualTime::from_secs(2)).unwrap();
        assert_eq!(farm.peak_active(), 2, "peak was two concurrent devices");
    }

    #[test]
    fn fair_targets_water_fills() {
        // Plenty of capacity: everyone gets their want.
        assert_eq!(fair_targets(10, &[2, 3, 1]), vec![2, 3, 1]);
        // Contended: equal shares first, remainder from the start index.
        assert_eq!(fair_targets(4, &[3, 3, 3]), vec![2, 1, 1]);
        assert_eq!(fair_targets_from(4, &[3, 3, 3], 1), vec![1, 2, 1]);
        assert_eq!(fair_targets_from(4, &[3, 3, 3], 2), vec![1, 1, 2]);
        // Zero wants never receive a target.
        assert_eq!(fair_targets(5, &[0, 4, 0]), vec![0, 4, 0]);
        // Fewer slots than tenants: the remainder rotates with start.
        assert_eq!(fair_targets_from(1, &[1, 1, 1], 0), vec![1, 0, 0]);
        assert_eq!(fair_targets_from(1, &[1, 1, 1], 1), vec![0, 1, 0]);
        assert_eq!(fair_targets_from(1, &[1, 1, 1], 2), vec![0, 0, 1]);
        assert_eq!(fair_targets(0, &[5, 5]), vec![0, 0]);
        assert!(fair_targets(3, &[]).is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut farm = DeviceFarm::new(2);
        farm.allocate(VirtualTime::ZERO).unwrap();
        farm.allocate(VirtualTime::ZERO).unwrap();
        assert_eq!(
            farm.allocate(VirtualTime::ZERO),
            Err(DeviceError::NoCapacity { capacity: 2 })
        );
        assert_eq!(farm.active_count(), 2);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut farm = DeviceFarm::new(1);
        let a = farm.allocate(VirtualTime::ZERO).unwrap();
        farm.deallocate(a, VirtualTime::from_secs(1)).unwrap();
        let b = farm.allocate(VirtualTime::from_secs(1)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn machine_time_accounting() {
        let mut farm = DeviceFarm::new(3);
        let a = farm.allocate(VirtualTime::ZERO).unwrap();
        let b = farm.allocate(VirtualTime::from_secs(10)).unwrap();
        farm.deallocate(a, VirtualTime::from_secs(60)).unwrap();
        assert_eq!(farm.consumed(), VirtualDuration::from_secs(60));
        // b still running: 50s as of t=60.
        assert_eq!(
            farm.consumed_as_of(VirtualTime::from_secs(60)),
            VirtualDuration::from_secs(110)
        );
        farm.deallocate(b, VirtualTime::from_secs(70)).unwrap();
        assert_eq!(farm.consumed(), VirtualDuration::from_secs(120));
    }

    #[test]
    fn deallocate_unknown_errors() {
        let mut farm = DeviceFarm::new(1);
        assert_eq!(
            farm.deallocate(DeviceId(9), VirtualTime::ZERO),
            Err(DeviceError::UnknownDevice(DeviceId(9)))
        );
    }

    #[test]
    fn killed_devices_free_the_slot_and_stay_consumed() {
        let mut farm = DeviceFarm::new(1);
        let a = farm.allocate(VirtualTime::ZERO).unwrap();
        let used = farm.kill(a, VirtualTime::from_secs(120)).unwrap();
        assert_eq!(used, VirtualDuration::from_secs(120));
        assert_eq!(farm.consumed(), VirtualDuration::from_secs(120));
        assert_eq!(farm.lost_count(), 1);
        assert!(farm.is_lost(a));
        // The slot is free again.
        let b = farm.allocate(VirtualTime::from_secs(120)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn dead_devices_reject_further_operations_cleanly() {
        let mut farm = DeviceFarm::new(2);
        let a = farm.allocate(VirtualTime::ZERO).unwrap();
        farm.kill(a, VirtualTime::from_secs(5)).unwrap();
        assert_eq!(
            farm.deallocate(a, VirtualTime::from_secs(6)),
            Err(DeviceError::DeviceLost(a))
        );
        assert_eq!(
            farm.kill(a, VirtualTime::from_secs(6)),
            Err(DeviceError::DeviceLost(a))
        );
        // Never-allocated ids are still UnknownDevice, not DeviceLost.
        assert_eq!(
            farm.kill(DeviceId(77), VirtualTime::ZERO),
            Err(DeviceError::UnknownDevice(DeviceId(77)))
        );
        // Consumed time unchanged by the failed operations.
        assert_eq!(farm.consumed(), VirtualDuration::from_secs(5));
    }
}
