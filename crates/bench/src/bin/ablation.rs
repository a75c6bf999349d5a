//! Ablations over TaOPT's design choices (DESIGN.md §7):
//!
//! * `l_min` sensitivity (Theorem 1's accuracy-vs-latency trade-off);
//! * confirmation policy (accept-at-once vs two independent reports);
//! * `FindSpace` acceptance bound (`max_score`).

use std::sync::Arc;

use taopt::session::{ParallelSession, RunMode};
use taopt_bench::{load_apps, HarnessArgs};
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualDuration;

fn main() {
    let args = HarnessArgs::parse();
    let apps = load_apps(args.n_apps.min(3));
    eprintln!("ablation: {} apps, {:?}", apps.len(), args.scale);
    let scale = args.scale;

    let run = |label: &str, f: &dyn Fn(&mut taopt::session::SessionConfig)| {
        let mut cov = 0usize;
        let mut subspaces = 0usize;
        for (_, app) in &apps {
            let mut cfg = scale.session_config(ToolKind::Monkey, RunMode::TaoptDuration, args.seed);
            f(&mut cfg);
            let r = ParallelSession::run(Arc::clone(app), &cfg);
            cov += r.union_coverage();
            subspaces += r.subspaces.iter().filter(|s| s.confirmed).count();
        }
        println!("  {label:<42} coverage {cov:>8}  confirmed subspaces {subspaces:>3}");
    };

    println!("Ablation: l_min (duration-mode split threshold)");
    for secs in [20u64, 60, 180, 300] {
        run(&format!("l_min = {secs}s"), &move |cfg| {
            cfg.analyzer.find_space.l_min = VirtualDuration::from_secs(secs);
        });
    }

    println!("Ablation: confirmation policy");
    for conf in [1usize, 2, 3] {
        run(&format!("confirmations_required = {conf}"), &move |cfg| {
            cfg.analyzer.confirmations_required = conf;
        });
    }

    println!("Ablation: FindSpace acceptance bound");
    for ms in [0.3f64, 0.6, 0.9] {
        run(&format!("max_score = {ms}"), &move |cfg| {
            cfg.analyzer.find_space.max_score = ms;
        });
    }

    println!("Ablation: stall timeout");
    for mins in [1u64, 3, 6] {
        run(&format!("stall_timeout = {mins}m"), &move |cfg| {
            cfg.stall_timeout = VirtualDuration::from_mins(mins);
        });
    }

    // Content feeds (extension): paginated screens make the UI space
    // effectively inexhaustible, as on real apps.
    println!("Ablation: content feeds (inexhaustible UI spaces)");
    for fraction in [0.0f64, 0.25, 0.5] {
        let mut cov_base = 0usize;
        let mut cov_taopt = 0usize;
        for entry in taopt_app_sim::catalog_entries().iter().take(apps.len()) {
            let mut gcfg = entry.config();
            gcfg.feed_fraction = fraction;
            let app = Arc::new(taopt_app_sim::generate_app(&gcfg).unwrap());
            for (mode, slot) in [
                (RunMode::Baseline, &mut cov_base),
                (RunMode::TaoptDuration, &mut cov_taopt),
            ] {
                let cfg = scale.session_config(ToolKind::Monkey, mode, args.seed);
                *slot += ParallelSession::run(Arc::clone(&app), &cfg).union_coverage();
            }
        }
        println!(
            "  feed_fraction = {fraction:<4} baseline {cov_base:>8}  taopt(D) {cov_taopt:>8}  ({:+.1}%)",
            100.0 * (cov_taopt as f64 / cov_base.max(1) as f64 - 1.0)
        );
    }
}
