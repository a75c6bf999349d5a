//! From-scratch automated UI testing tools.
//!
//! The paper evaluates TaOPT on three tools it treats as **black boxes**:
//!
//! * **Monkey** — Android's stock random event injector: uniform random
//!   events, many of which hit dead coordinates;
//! * **Ape** — the state-of-the-art model-based tool: it builds an abstract
//!   model of visited UI states and greedily steers towards unexecuted
//!   actions and rarely-visited states;
//! * **WCTester** — the state-of-practice tool used on WeChat: weighted
//!   random selection that "prioritizes the UI actions that trigger
//!   Activity transitions" (§3.3).
//!
//! Each is reimplemented here from its published description. The
//! [`TestingTool`] trait is the *entire* interface the rest of the system
//! uses — tools see only [`taopt_ui_model::ScreenObservation`]s (already filtered by the
//! Toller enforcement shim) and emit [`taopt_ui_model::Action`]s, which is exactly the
//! tool-agnosticism contract TaOPT depends on: blocking an entrypoint
//! changes what a tool *sees*, never how it *works*.
//!
//! The tools' differing selection policies are what make the transition
//! probabilities `P` of the paper's graph model tool-specific (§1): the
//! same app yields a different stochastic graph under each tool, which is
//! why TaOPT must infer subspaces *online from the running tool's trace*
//! rather than from static structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ape;
pub mod badge;
pub mod monkey;
pub mod scripted;
pub mod tool;
pub mod wctester;

pub use ape::Ape;
pub use badge::Badge;
pub use monkey::Monkey;
pub use scripted::{ScriptStep, Scripted};
pub use tool::{TestingTool, ToolKind};
pub use wctester::WcTester;
