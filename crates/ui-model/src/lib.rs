//! UI substrate for the TaOPT reproduction.
//!
//! This crate models everything a mobile UI testing stack observes and
//! manipulates *below* the level of any concrete app or tool:
//!
//! * [`Widget`] trees and [`UiHierarchy`] values — the screen content a tool
//!   sees, analogous to an Android view hierarchy dump;
//! * [`Action`]s — the inputs a tool can inject (widget interactions and the
//!   global Back button);
//! * screen **abstraction** ([`abstraction`]) — removing volatile text so
//!   that similar screens compare equal, as in the paper's trace analysis;
//! * abstract-hierarchy **tree similarity** ([`similarity`]) used by the
//!   paper's `CountIn` primitive (Algorithm 1, line 7);
//! * the stochastic **UI transition graph** ([`graph::StochasticDigraph`])
//!   `G = (V, E, P)` of Section 4.1;
//! * UI transition **traces** ([`trace`]) — the timestamped screen/action
//!   logs that Toller reports and TaOPT analyzes;
//! * a virtual [`time`] base used by the simulated testing cloud.
//!
//! # Examples
//!
//! ```
//! use taopt_ui_model::{Widget, WidgetClass, UiHierarchy};
//! use taopt_ui_model::abstraction::abstract_hierarchy;
//!
//! let root = Widget::container(WidgetClass::LinearLayout)
//!     .with_child(Widget::button("btn_checkout", "Check out now!"))
//!     .with_child(Widget::text_view("lbl_total", "$ 41.99"));
//! let hierarchy = UiHierarchy::new(root);
//! let abstracted = abstract_hierarchy(&hierarchy);
//! // Text is gone after abstraction, structure remains.
//! assert_eq!(abstracted.node_count(), hierarchy.node_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstraction;
pub mod action;
pub mod dump;
pub mod error;
pub mod geometry;
pub mod graph;
pub mod hierarchy;
pub mod idhash;
pub mod json;
pub mod screen;
pub mod similarity;
pub mod time;
pub mod trace;
pub mod widget;

pub use abstraction::{abstract_hierarchy, AbstractHierarchy, AbstractScreenId};
pub use action::{Action, ActionId, ActionKind};
pub use dump::to_xml;
pub use error::UiModelError;
pub use geometry::Bounds;
pub use graph::StochasticDigraph;
pub use hierarchy::{Affordance, UiHierarchy};
pub use json::{JsonError, Value};
pub use screen::{ActivityId, ScreenId, ScreenObservation};
pub use similarity::tree_similarity;
pub use time::{VirtualDuration, VirtualTime};
pub use trace::{Trace, TraceEvent};
pub use widget::{Widget, WidgetClass};
