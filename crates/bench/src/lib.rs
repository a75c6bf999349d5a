//! Shared harness for the evaluation binaries.
//!
//! `all` regenerates every table and figure of the paper's evaluation
//! from one matrix; the other binaries in `src/bin/` run the extension
//! experiments (see `DESIGN.md` for the index). The harness binaries
//! parse their optional arguments with [`HarnessArgs`]:
//!
//! ```text
//! cargo run --release -p taopt-bench --bin all [-- quick|paper] [n_apps] [seed]
//! ```
//!
//! `paper` (default) runs the full §6.1 setting — 18 apps, 5 instances,
//! 1 virtual hour per run; `quick` shrinks the setting for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use taopt::experiments::ExperimentScale;
use taopt_app_sim::{catalog_entries, App};

/// A named subject app.
pub type NamedApp = (String, Arc<App>);

/// Loads the first `n` catalog apps (18 = the paper's full set).
pub fn load_apps(n: usize) -> Vec<NamedApp> {
    catalog_entries()
        .into_iter()
        .take(n)
        .map(|e| (e.name.to_owned(), Arc::new(e.generate())))
        .collect()
}

/// Parsed command line of a regeneration binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessArgs {
    /// Evaluation scale.
    pub scale: ExperimentScale,
    /// Number of catalog apps to use.
    pub n_apps: usize,
    /// Base seed.
    pub seed: u64,
}

impl HarnessArgs {
    /// Parses `[quick|paper] [n_apps] [seed]` from `std::env::args`.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_strs(&args.iter().map(String::as_str).collect::<Vec<_>>())
    }

    /// Parses from raw strings (testable). The first number is the app
    /// count and the second the seed, in any position; `quick` lowers the
    /// default app count to 4, but never an explicit one.
    pub fn from_strs(args: &[&str]) -> Self {
        let mut scale = ExperimentScale::paper();
        let mut quick = false;
        let mut n_apps = None;
        let mut seed = 2025;
        for a in args {
            match *a {
                "quick" => {
                    scale = ExperimentScale::quick();
                    quick = true;
                }
                "paper" => scale = ExperimentScale::paper(),
                other => {
                    if let Ok(v) = other.parse::<u64>() {
                        if n_apps.is_none() {
                            n_apps = Some(v as usize);
                        } else {
                            seed = v;
                        }
                    }
                }
            }
        }
        let n_apps = n_apps.unwrap_or(if quick { 4 } else { 18 });
        HarnessArgs {
            scale,
            n_apps: n_apps.clamp(1, 18),
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_to_paper_scale() {
        let a = HarnessArgs::from_strs(&[]);
        assert_eq!(a.n_apps, 18);
        assert_eq!(a.scale, ExperimentScale::paper());
    }

    #[test]
    fn parse_quick_and_counts() {
        let a = HarnessArgs::from_strs(&["quick", "6", "7"]);
        assert_eq!(a.scale, ExperimentScale::quick());
        assert_eq!(a.n_apps, 6);
        assert_eq!(a.seed, 7);
        // An explicit app count wins over `quick`'s default, in any order.
        assert_eq!(HarnessArgs::from_strs(&["18", "quick"]).n_apps, 18);
        assert_eq!(HarnessArgs::from_strs(&["quick", "18"]).n_apps, 18);
        assert_eq!(HarnessArgs::from_strs(&["quick"]).n_apps, 4);
    }

    #[test]
    fn load_apps_returns_named_catalog_entries() {
        let apps = load_apps(2);
        assert_eq!(apps.len(), 2);
        assert_eq!(apps[0].0, "AbsWorkout");
        assert!(apps[0].1.screen_count() > 10);
    }
}
