//! Facade crate for the TaOPT reproduction workspace.
//!
//! Re-exports the public API of every workspace crate so the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`)
//! have a single import root. See `README.md` for the project overview
//! and `DESIGN.md` for the system inventory.
//!
//! * [`ui_model`] — widget hierarchies, actions, abstraction, similarity,
//!   transition graphs, traces;
//! * [`app_sim`] — synthetic GS-LD apps, the app runtime and the 18-app
//!   catalog;
//! * [`device`] — emulators, device farm, coverage tracer, crash collector;
//! * [`tools`] — Monkey, Ape and WCTester reimplementations;
//! * [`toller`] — monitoring + entrypoint-enforcement shim;
//! * [`core`] — TaOPT itself: `FindSpace`, the online analyzer, the test
//!   coordinator, sessions, metrics and experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use taopt as core;
pub use taopt_app_sim as app_sim;
pub use taopt_device as device;
pub use taopt_toller as toller;
pub use taopt_tools as tools;
pub use taopt_ui_model as ui_model;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_line_up() {
        // A compile-time smoke test that the key types are reachable
        // through the facade.
        fn assert_exists<T>() {}
        assert_exists::<crate::core::session::SessionConfig>();
        assert_exists::<crate::app_sim::App>();
        assert_exists::<crate::device::Emulator>();
        assert_exists::<crate::toller::InstrumentedInstance>();
        assert_exists::<crate::ui_model::UiHierarchy>();
    }
}
