//! Campaign runtime: many app sessions over one shared device farm.
//!
//! A *campaign* schedules N independent TaOPT app sessions onto a single
//! [`taopt_device::DeviceFarm`], interleaving their per-round loops under
//! a work-stealing worker pool while keeping every shared-resource
//! decision deterministic. The module tree:
//!
//! * [`step`] — [`step::SessionStep`], one app session as a resumable
//!   round-step state machine the scheduler advances;
//! * [`lease`] — [`lease::LeaseLedger`], device → app ownership records
//!   and lease-churn counters;
//! * [`pool`] — [`pool::ComputePool`], the persistent campaign-wide
//!   host-thread budget, capped at the app count: one condvar-parked
//!   pool, each thread draining its own contiguous home range of tasks
//!   and stealing only when it runs dry, serving the per-app step tasks;
//! * [`scheduler`] — [`scheduler::run_campaign`], the round loop:
//!   parallel step phase, then a sequential boundary for leasing,
//!   scheduled kills, rate-planned fault losses, replacements and session
//!   completion. It is the crate's only round driver: a single-app
//!   session (`ParallelSession::run`) is a one-app campaign. With
//!   [`scheduler::CampaignConfig::faults`] set, the whole campaign runs
//!   under deterministic fault injection (a chaos campaign): the
//!   scheduler and every step consult one [`taopt_chaos::FaultInjector`]
//!   in place at the device, bus and enforcement seams, and skip those
//!   branches when there is no plan.
//!   [`scheduler::Campaign`] is the same loop held open one round at a
//!   time, for callers that interleave checkpointing with execution;
//! * [`sequence`] — [`sequence::run_campaign_sequence`], longitudinal
//!   sequences over app releases: one campaign per version, threading
//!   [`crate::warmstart::WarmStart`] bundles across release boundaries
//!   and emitting per-version [`sequence::EvolutionReport`]s;
//! * [`snapshot`] — [`snapshot::CampaignDigest`], the round-boundary
//!   fingerprint a durable checkpoint stores and a restore replay must
//!   reproduce.
//!
//! See `DESIGN.md` §10 for the scheduler model and the determinism
//! argument, §12 for the fault seams, §13 for checkpoint/resume.

pub mod lease;
pub mod pool;
pub mod scheduler;
pub mod sequence;
pub mod snapshot;
pub mod step;

pub use lease::LeaseLedger;
pub use pool::ComputePool;
pub use scheduler::{
    run_campaign, AppReport, Campaign, CampaignApp, CampaignConfig, CampaignResult, KillEvent,
};
pub use sequence::{
    run_campaign_sequence, CampaignSequence, EvolutionAppReport, EvolutionReport, VersionOutcome,
};
pub use snapshot::{CampaignDigest, SlotDigest};
pub use step::{
    instance_seed, MachineMeter, RoundOutcome, SessionFinish, SessionStep, StepProgress,
};
