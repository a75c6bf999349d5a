//! # taopt-service — persistent farm-as-a-service over the campaign runtime
//!
//! The crates below this one answer "run *one* campaign, deterministically"
//! ([`taopt::run_campaign`]). This crate turns that runtime into a
//! long-lived, multi-tenant service (DESIGN.md §13):
//!
//! - **Submission queue** — tenants submit serializable [`CampaignSpec`]s
//!   ([`spec`]); admission control checks device demand against the
//!   farm-capacity budget before anything runs.
//! - **Priorities and preemption** — higher-priority campaigns outrank
//!   queued work, and when capacity is exhausted the lowest-priority
//!   running campaigns are asked to checkpoint and yield
//!   ([`service`]).
//! - **Durable checkpoint/resume** — every unfinished campaign always has
//!   a validated, versioned snapshot on disk ([`checkpoint`]): written
//!   synchronously where a caller is promised durability (submit, import,
//!   pause), write-behind on the running cadence so the round loop never
//!   waits for the disk ([`service`], `# Durability`); a killed
//!   service ([`CampaignService::crash`]) recovers every in-flight
//!   campaign ([`CampaignService::recover`]) and finishes it
//!   *byte-identical* to an uninterrupted run, because restore is
//!   deterministic replay verified against a [`taopt::CampaignDigest`].
//! - **Live status** — per-campaign rounds, queue depth, leased capacity
//!   and resume latency are published through the process-global
//!   [`taopt_telemetry`] registry ([`CampaignService::metrics_text`]).
//! - **Longitudinal campaigns** — a spec with an [`EvolutionSpec`]
//!   section runs one campaign per app release ([`taopt::CampaignSequence`]),
//!   threading warm-start analyzer state across versions; checkpoints
//!   carry a sequence cursor so a killed release train resumes
//!   mid-version, and the final report combines every release's
//!   [`taopt::EvolutionReport`] with its coverage report.
//!
//! ```no_run
//! use taopt_service::{AppSource, AppSpec, CampaignSpec, CampaignService, ServiceConfig};
//! use taopt::experiments::ExperimentScale;
//! use taopt::RunMode;
//! use taopt_tools::ToolKind;
//!
//! let service = CampaignService::start(ServiceConfig::new("/tmp/taopt-ckpt")).unwrap();
//! let spec = CampaignSpec::new(
//!     "nightly",
//!     vec![AppSpec {
//!         source: AppSource::Catalog("AbsWorkout".to_owned()),
//!         tool: ToolKind::Monkey,
//!         mode: RunMode::TaoptDuration,
//!         seed: 7,
//!     }],
//!     ExperimentScale::quick(),
//! );
//! let id = service.submit(spec, 5).unwrap();
//! service.wait(id).unwrap();
//! println!("{}", service.result(id).unwrap().unwrap());
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod service;
pub mod spec;
mod writer;

pub use checkpoint::{Checkpoint, CheckpointStore, CHECKPOINT_VERSION};
pub use error::ServiceError;
pub use service::{
    CampaignId, CampaignService, CampaignStatus, Priority, RecoveryReport, ServiceConfig,
};
pub use spec::{AppSource, AppSpec, CampaignSpec, EvolutionSpec};
