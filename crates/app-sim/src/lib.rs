//! Synthetic Apps Under Test (AUTs) for the TaOPT reproduction.
//!
//! The paper evaluates on 18 closed-source Play-Store apps running inside
//! Android emulators. Neither the apps nor the emulators exist here, so this
//! crate provides the closest synthetic equivalent: a **generative model of
//! mobile apps** whose UI spaces have exactly the structure the paper's
//! analysis relies on — *loosely coupled UI subspaces* that are Globally
//! Sparse and Locally Dense (GS-LD, §3.2/§4.2):
//!
//! * apps are unions of **functionality clusters** (shopping, account
//!   settings, search, …) with dense internal transition structure;
//! * clusters connect to the rest of the app only through **hub screens**
//!   (main tab bars) and rare deep links;
//! * functionalities deliberately **span several activities** and activities
//!   host several functionalities (fragments), which is what defeats the
//!   ParaAim activity-granularity baseline (§3.3);
//! * a **method-coverage model** (screen methods, action-handler methods,
//!   multi-screen *flow* methods and a shared framework pool) stands in for
//!   DalvikVM-level MiniTrace coverage;
//! * **latent crash points** deep inside clusters stand in for real crashes
//!   collected from logcat.
//!
//! The [`runtime::AppRuntime`] executes tool actions against an [`App`]
//! spec: it samples successor screens from the stochastic transition model,
//! reports covered methods and crash events, and hands out each page's
//! widget hierarchy as a template shared by every observation of it;
//! [`App::render_screen_page`] renders a page with per-visit volatile text,
//! which screen *abstraction* must see through.
//!
//! [`mod@catalog`] instantiates the paper's 18 subject apps (Table 3) with
//! per-app shape parameters seeded from the app name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod builder;
pub mod catalog;
pub mod crash;
pub mod error;
pub mod evolution;
pub mod functionality;
pub mod generator;
pub mod method;
pub mod runtime;
pub mod spec;

pub use app::App;
pub use builder::AppBuilder;
pub use catalog::{catalog, catalog_entries, CatalogEntry};
pub use crash::{CrashPoint, CrashSignature};
pub use error::AppSimError;
pub use evolution::{AppEvolution, TouchedSurface, VersionDiff, VersionOp};
pub use functionality::{Functionality, FunctionalityId};
pub use generator::{derive_app, generate_app, GeneratorConfig};
pub use method::{MethodId, MethodSet};
pub use runtime::{AppRuntime, StepOutcome};
pub use spec::{ActionSpec, FeedSpec, FlowRule, LoginSpec, ScreenSpec, TransitionTarget};
