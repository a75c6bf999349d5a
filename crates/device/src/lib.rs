//! Simulated testing cloud for the TaOPT reproduction.
//!
//! The paper runs Android x64 emulators on a many-core server and rents
//! capacity from "testing clouds" (AWS Device Farm etc.). This crate is the
//! synthetic counterpart:
//!
//! * [`Emulator`] — one device running one [`taopt_app_sim::AppRuntime`],
//!   with a per-device virtual clock, per-action latency, a
//!   [`CoverageTracer`] (the MiniTrace stand-in: time-stamped cover
//!   events since boot) and a [`CrashCollector`] recording the crashes
//!   it hits;
//! * [`DeviceFarm`] — a bounded pool of devices with allocate/deallocate
//!   and machine-time accounting (the "testing resources" of RQ4); the
//!   campaign scheduler allocates from it directly, and under a fault
//!   plan `taopt-chaos` decides refusals and losses the scheduler applies;
//! * [`CrashCollector`] — unique-crash deduplication by stack-trace
//!   signature.
//!
//! Virtual time makes hour-long parallel runs execute in milliseconds while
//! preserving every scheduling decision the paper's coordinator makes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod coverage;
pub mod emulator;
pub mod error;
pub mod farm;
pub mod logcat;

pub use clock::VirtualClock;
pub use coverage::CoverageTracer;
pub use emulator::{DeviceId, Emulator, EmulatorConfig};
pub use error::DeviceError;
pub use farm::{fair_targets, fair_targets_from, DeviceFarm};
pub use logcat::CrashCollector;
