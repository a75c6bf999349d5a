//! Property tests: [`DeviceFarm`] invariants under arbitrary interleaved
//! allocate / deallocate / kill / time-advance sequences.
//!
//! These are the guarantees the chaos harness leans on — a fault schedule
//! may kill devices and refuse allocations in any order, and the farm's
//! accounting must never go wrong underneath it.

use proptest::prelude::*;

use taopt_device::{DeviceError, DeviceFarm, DeviceId};
use taopt_ui_model::{VirtualDuration, VirtualTime};

/// One scripted farm operation. Victim indexes select among currently
/// live (or previously killed) devices modulo the population size, so
/// every generated script is executable.
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc,
    Dealloc(usize),
    Kill(usize),
    DeallocDead(usize),
    Advance(u64),
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        Just(Op::Alloc),
        (0usize..16).prop_map(Op::Dealloc),
        (0usize..16).prop_map(Op::Kill),
        (0usize..16).prop_map(Op::DeallocDead),
        (1u64..300).prop_map(Op::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn farm_invariants_hold_under_interleaving(
        capacity in 1usize..6,
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut farm = DeviceFarm::new(capacity);
        let mut now = VirtualTime::ZERO;
        let mut live: Vec<DeviceId> = Vec::new();
        let mut dead: Vec<DeviceId> = Vec::new();
        let mut prev_consumed = VirtualDuration::ZERO;

        for op in ops {
            match op {
                Op::Alloc => match farm.allocate(now) {
                    Ok(id) => {
                        prop_assert!(!live.contains(&id), "fresh id");
                        prop_assert!(!dead.contains(&id), "ids never reused");
                        live.push(id);
                    }
                    Err(e) => {
                        prop_assert_eq!(e, DeviceError::NoCapacity { capacity });
                        prop_assert_eq!(live.len(), capacity, "refusal only at capacity");
                    }
                },
                Op::Dealloc(i) if !live.is_empty() => {
                    let id = live.remove(i % live.len());
                    prop_assert_eq!(farm.deallocate(id, now), Ok(()));
                }
                Op::Kill(i) if !live.is_empty() => {
                    let id = live.remove(i % live.len());
                    prop_assert!(farm.kill(id, now).is_ok());
                    dead.push(id);
                }
                Op::DeallocDead(i) if !dead.is_empty() => {
                    // Deallocating (or re-killing) an already-dead device
                    // is a clean, state-preserving error.
                    let id = dead[i % dead.len()];
                    let before = farm.consumed();
                    prop_assert_eq!(
                        farm.deallocate(id, now),
                        Err(DeviceError::DeviceLost(id))
                    );
                    prop_assert_eq!(farm.kill(id, now), Err(DeviceError::DeviceLost(id)));
                    prop_assert_eq!(farm.consumed(), before);
                }
                Op::Advance(secs) => {
                    now += VirtualDuration::from_secs(secs);
                }
                // Victim ops with nobody to victimize are no-ops.
                Op::Dealloc(_) | Op::Kill(_) | Op::DeallocDead(_) => {}
            }

            // Capacity is never exceeded, and the farm agrees with the
            // model about who is live.
            prop_assert!(farm.active_count() <= capacity);
            prop_assert_eq!(farm.active_count(), live.len());
            prop_assert_eq!(farm.lost_count(), dead.len());
            for id in &dead {
                prop_assert!(farm.is_lost(*id));
            }

            // Machine time is monotone.
            let consumed = farm.consumed();
            prop_assert!(consumed >= prev_consumed, "consumed went backwards");
            prev_consumed = consumed;

            // Settled time never exceeds total time including live devices.
            prop_assert!(farm.consumed_as_of(now) >= consumed);
        }
    }
}
