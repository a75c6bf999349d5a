//! # TaOPT — Tool-Agnostic Optimization of Parallelized Automated Mobile UI Testing
//!
//! This crate implements the paper's contribution (Ran et al., ASPLOS'25)
//! on top of the simulated substrates in the sibling crates:
//!
//! * [`findspace`] — **Algorithm 1 (`FindSpace`)**: online identification
//!   of loosely coupled UI subspaces from a single instance's UI transition
//!   trace, via screen abstraction, tree-similarity overlap scoring and a
//!   purity term;
//! * [`analyzer`] — the **on-the-fly trace analyzer**: runs `FindSpace`
//!   periodically per instance, deduplicates/merges subspace reports across
//!   instances, and applies the paper's confirmation policy
//!   (`l_min^long = 5 min` accepted at once; `l_min^short = 1 min` needs
//!   two independent reports);
//! * [`mod@conductance`] — the weighted-directed **conductance** of Eq. (2)
//!   and the MC-GPP partition objective of Eq. (3);
//! * [`partition`] — the conservative **offline subspace partitioner**
//!   used by the preliminary study (Table 1);
//! * [`theorem`] — the sampling machinery of **Theorem 1** (two n-cliques
//!   joined by a weak edge; `N ≥ C·n²·log n` samples separate them with
//!   high probability);
//! * [`coordinator`] — the **test coordinator**: duration-constrained and
//!   resource-constrained scheduling, subspace dedication, entrypoint
//!   broadcast and stall-based deallocation;
//! * [`session`] — end-to-end **parallel sessions** wiring devices, tools,
//!   the Toller shim and the coordinator together, including the two
//!   baselines (uncoordinated parallelism; ParaAim-style activity
//!   partitioning); a session runs as a one-app campaign;
//! * [`metrics`] — Jaccard/AJS coverage-overlap, UI-screen overlap
//!   (Table 6) and coverage-curve utilities;
//! * [`experiments`] — runnable reproductions of every table and figure
//!   in the paper's evaluation;
//! * [`campaign`] — the crate's one round driver: the round-based
//!   [`SessionStep`] engine and campaign scheduling of one or many apps
//!   over a shared farm ([`run_campaign`]), optionally fault-injected via
//!   `CampaignConfig::faults`, whose one injector the scheduler and the
//!   steps consult in place at the device, bus and enforcement seams;
//! * [`streaming`] + [`resilience`] — the self-healing machinery a faulted
//!   campaign runs on: sequence-order repair of the event stream,
//!   replacement queues, enforcement broadcast with retry.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use taopt::session::{ParallelSession, RunMode, SessionConfig};
//! use taopt_app_sim::{generate_app, GeneratorConfig};
//! use taopt_tools::ToolKind;
//! use taopt_ui_model::VirtualDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = Arc::new(generate_app(&GeneratorConfig::small("demo", 1))?);
//! let config = SessionConfig {
//!     instances: 3,
//!     duration: VirtualDuration::from_mins(5),
//!     ..SessionConfig::new(ToolKind::Monkey, RunMode::TaoptDuration)
//! };
//! let result = ParallelSession::run(app, &config);
//! println!(
//!     "covered {} methods, found {} subspaces",
//!     result.union_coverage(),
//!     result.subspaces.len()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod campaign;
pub mod conductance;
pub mod coordinator;
pub mod error;
pub mod experiments;
pub mod findspace;
pub mod metrics;
pub mod partition;
pub mod report;
pub mod resilience;
pub mod session;
pub mod streaming;
pub mod theorem;
pub mod warmstart;

pub use analyzer::{AnalyzerConfig, OnlineTraceAnalyzer, SubspaceId, SubspaceInfo};
pub use campaign::{
    run_campaign, run_campaign_sequence, AppReport, Campaign, CampaignApp, CampaignConfig,
    CampaignDigest, CampaignResult, CampaignSequence, ComputePool, EvolutionAppReport,
    EvolutionReport, KillEvent, SessionStep, StepProgress, VersionOutcome,
};
pub use conductance::{conductance, partition_score};
pub use coordinator::{CoordinatorEvent, TestCoordinator};
pub use error::TaoptError;
pub use findspace::{find_space, FindSpaceConfig, SplitCandidate};
pub use resilience::{EnforcementBroadcaster, ReplacementQueue, RetryPolicy};
pub use session::{ParallelSession, RunMode, SessionConfig, SessionResult};
pub use streaming::StreamStats;
pub use warmstart::{WarmReuse, WarmStart, WarmSubspace};
