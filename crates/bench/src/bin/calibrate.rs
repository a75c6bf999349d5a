//! Calibration probe: runs one app × one tool across all modes and prints
//! the headline quantities, for tuning the simulation against the paper's
//! shapes before running the full harness.

use std::sync::Arc;

use taopt::experiments::run_and_summarize;
use taopt::session::RunMode;
use taopt_bench::{load_apps, HarnessArgs};
use taopt_tools::ToolKind;

fn main() {
    let HarnessArgs {
        scale,
        n_apps,
        seed,
    } = HarnessArgs::parse();
    let apps = load_apps(n_apps);
    for (name, app) in &apps {
        println!(
            "== {name} (methods: {}, screens: {})",
            app.method_count(),
            app.screen_count()
        );
        for tool in ToolKind::ALL {
            for mode in [
                RunMode::Baseline,
                RunMode::TaoptDuration,
                RunMode::TaoptResource,
            ] {
                let s = run_and_summarize(name, Arc::clone(app), tool, mode, &scale, seed);
                // AJS is an overlap metric of uncoordinated runs only.
                let ajs_end = s
                    .baseline
                    .and_then(|b| b.ajs_curve.last().map(|(_, v)| format!("  ajs-end {v:.2}")))
                    .unwrap_or_default();
                println!(
                    "  {:<9} {:<17} cov {:>6} ({:>4.1}%)  crashes {:>2}  machine {:>8}  wall {:>7}  subspaces {:>2}  ui-occ {:>7.1}{ajs_end}",
                    tool.name(),
                    mode.label(),
                    s.union_coverage,
                    100.0 * s.union_coverage as f64 / app.method_count() as f64,
                    s.unique_crashes,
                    s.machine_time.to_string(),
                    s.wall_clock.to_string(),
                    s.confirmed_subspaces,
                    s.avg_ui_occurrences,
                );
            }
        }
    }
}
