//! A Toller-style instrumentation shim.
//!
//! The real Toller (Wang et al., ISSTA'21) is an infrastructure layer
//! injected into the Android system services: it can (a) report every UI
//! action together with the surrounding UI hierarchy *without modifying
//! the testing tool or the AUT*, and (b) manipulate UI elements — TaOPT
//! uses it to **disable** the widgets that lead into blocked UI subspaces
//! before the test-generation tool can interact with them (§5.2–§5.3).
//!
//! This crate reproduces that interposition point for the simulated stack:
//!
//! * [`TransitionMonitor`] — builds the per-instance UI transition
//!   [`taopt_ui_model::Trace`] from observations; the coordinator reads
//!   that trace once per round (through a sequence-repairing bus layer in
//!   `taopt` when a fault plan is active);
//! * [`BlockList`] / [`EntrypointRule`] — the shared, dynamically updated
//!   set of blocked subspace entrypoints, applied to every hierarchy
//!   *before* the tool observes it;
//! * [`InstrumentedInstance`] — one testing instance: an emulator, a
//!   black-box tool, a monitor and the shared block list, advanced one
//!   tool step at a time.
//!
//! The key invariant (behaviour preservation, RQ5): enforcement only ever
//! flips `enabled` bits on widgets. It never changes the tool, the app's
//! transition model, or the screen abstraction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enforce;
pub mod instance;
pub mod monitor;

pub use enforce::{BlockList, EntrypointRule, SharedBlockList};
pub use instance::{Findings, InstanceId, InstrumentedInstance, StepReport};
pub use monitor::TransitionMonitor;
