//! Deterministic fault injection for the TaOPT reproduction.
//!
//! Parallel UI testing in a real device cloud is exposed to infrastructure
//! faults the paper's clean simulations never see: emulators die mid-run,
//! allocation requests bounce, instrumented events vanish in transit, and
//! enforcement messages fail to land. This crate injects exactly those
//! faults — **deterministically** — at the three seams of the
//! reproduction's architecture:
//!
//! * the **device** seam (farm + emulator): device loss mid-run,
//!   allocation refusals, latency spikes;
//! * the **event-bus** seam (Toller → analyzer): dropped, duplicated, and
//!   delayed trace events;
//! * the **enforcement** seam (coordinator → instances): block-rule
//!   broadcasts that fail to apply.
//!
//! A [`FaultPlan`] maps a seed plus per-seam [`FaultRates`] to pure
//! per-query decisions, so a chaos run replays bit-for-bit from its seed.
//! A [`FaultInjector`] binds a plan to a [`FaultLog`] recording every
//! injected fault and — via [`FaultInjector::record_recovery`] — every
//! repair the resilience layer performs, yielding recovery-latency
//! statistics ([`FaultStats`]).
//!
//! The campaign scheduler holds an `Option<FaultInjector>` and consults
//! it in place at each seam: [`FaultInjector::refuse_allocation`] before
//! every [`taopt_device::DeviceFarm`] allocation and
//! [`FaultInjector::device_losses`] once per round, so clean and chaotic
//! campaigns run the same loop and differ only in that branch.

pub mod inject;
pub mod log;
pub mod plan;

pub use inject::{EventFate, FaultInjector};
pub use log::{FaultKind, FaultLog, FaultRecord, FaultStats, RecoveryKind, RecoveryRecord};
pub use plan::{FaultPlan, FaultRates, Seam, APP_LANE_SHIFT};
