//! Longitudinal evolution bench: a five-version release train driven by
//! [`run_campaign_sequence`], warm-start versus cold-start arms. Writes
//! `BENCH_evolution.json` with per-version [`taopt::EvolutionReport`]s
//! from both arms plus the rounds-to-first-dedication comparison.
//!
//! Exit gates (CI smoke): the warm-start sequence must be byte-identical
//! on host budgets 1 and 4 (per-version coverage reports and evolution
//! reports), every version past the base must inject at least one
//! regression crash and the campaign must catch all of them, and the
//! warm arm must reach its first subspace dedication strictly earlier
//! than the cold arm on every post-base version (carried territory is
//! re-dedicated in the first repair pass; cold discovery has to sit out
//! the full `l_min` confirmation window).

use std::process::ExitCode;
use std::sync::Arc;

use taopt::session::{RunMode, SessionConfig};
use taopt::{run_campaign_sequence, CampaignApp, CampaignConfig, VersionOutcome};
use taopt_app_sim::{generate_app, AppEvolution, GeneratorConfig};
use taopt_bench::BenchReport;
use taopt_tools::ToolKind;
use taopt_ui_model::{Value, VirtualDuration};

/// Releases in the train (`V0` plus four evolved versions).
const VERSIONS: u64 = 5;

/// Subject apps per arm.
const N_APPS: usize = 2;

/// Parsed command line: `[quick|paper] [seed]`.
struct Args {
    /// Per-release session budget.
    duration: VirtualDuration,
    /// Base seed for app generation and the evolution sampler.
    seed: u64,
    /// Scale label echoed into the JSON document.
    scale: &'static str,
}

fn parse_args() -> Args {
    let mut duration = VirtualDuration::from_mins(18);
    let mut scale = "paper";
    let mut seed = 21;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "quick" => {
                duration = VirtualDuration::from_mins(12);
                scale = "quick";
            }
            "paper" => {
                duration = VirtualDuration::from_mins(18);
                scale = "paper";
            }
            other => {
                if let Ok(v) = other.parse::<u64>() {
                    seed = v;
                }
            }
        }
    }
    Args {
        duration,
        seed,
        scale,
    }
}

/// The base (`V0`) apps: small generated subjects at a scale where the
/// analyzer reliably confirms subspaces within one release.
fn base_apps(args: &Args) -> Vec<CampaignApp> {
    (0..N_APPS)
        .map(|i| {
            let name = format!("evo{i}");
            let mut config = SessionConfig::new(ToolKind::Monkey, RunMode::TaoptDuration);
            config.instances = 3;
            config.duration = args.duration;
            config.tick = VirtualDuration::from_secs(10);
            config.analyzer.find_space.l_min = VirtualDuration::from_secs(30);
            config.analyzer.analysis_interval = VirtualDuration::from_secs(20);
            config.seed = args.seed + i as u64;
            CampaignApp {
                name: name.clone(),
                app: Arc::new(
                    generate_app(&GeneratorConfig::small(&name, args.seed + i as u64))
                        .expect("generator config is valid"),
                ),
                config,
            }
        })
        .collect()
}

/// The bench's release train: milder than [`AppEvolution::new`] so
/// learned subspaces regularly survive a release (no renames or screen
/// splits — added affordances are the only touched surface), with
/// shallow always-firing regression crashes a release-length campaign
/// reliably reaches.
fn release_train(seed: u64) -> AppEvolution {
    AppEvolution {
        widget_renames: 0,
        screen_renames: 0,
        screen_splits: 0,
        crash_probability: 1.0,
        crash_min_depth: 1,
        ..AppEvolution::new(seed ^ 0xe0)
    }
}

/// Runs one arm of the comparison.
fn run_arm(args: &Args, host_threads: usize, warm: bool) -> Vec<VersionOutcome> {
    let config = CampaignConfig {
        host_threads,
        ..CampaignConfig::default()
    };
    run_campaign_sequence(
        base_apps(args),
        &config,
        &release_train(args.seed),
        VERSIONS,
        warm,
    )
    .expect("evolution sequence runs")
}

/// Earliest dedication round across an outcome's apps (`None` = no app
/// dedicated anything this release).
fn first_dedication(outcome: &VersionOutcome) -> Option<u64> {
    outcome
        .report
        .apps
        .iter()
        .filter_map(|a| a.rounds_to_first_dedication)
        .min()
}

fn arm_json(outcomes: &[VersionOutcome]) -> Value {
    Value::Array(outcomes.iter().map(|o| o.report.to_value()).collect())
}

fn main() -> ExitCode {
    let args = parse_args();
    eprintln!(
        "evolution: {N_APPS} apps x {VERSIONS} versions, {} per release, seed {}",
        args.duration, args.seed
    );

    let warm1 = run_arm(&args, 1, true);
    let warm4 = run_arm(&args, 4, true);
    let cold = run_arm(&args, 1, false);

    let mut report = BenchReport::new("evolution bench");

    // Gate 1: the warm-start release train is byte-deterministic across
    // host budgets — per-version coverage reports and evolution reports.
    let mut deterministic = true;
    for (a, b) in warm1.iter().zip(&warm4) {
        let same = a.result.coverage_report() == b.result.coverage_report() && a.report == b.report;
        report.gate(same, || {
            format!("version {} differs between host budgets 1 and 4", a.version)
        });
        deterministic &= same;
    }

    // Gate 2: every post-base version injects at least one regression
    // crash and the campaign catches all of them.
    for o in warm1.iter().skip(1) {
        let injected: usize = o.report.apps.iter().map(|a| a.injected_crashes).sum();
        let missed: usize = o.report.apps.iter().map(|a| a.missed_regressions).sum();
        report.gate(injected >= 1, || {
            format!("version {} injected no regression crash", o.version)
        });
        report.gate(missed == 0, || {
            format!(
                "version {} missed {missed} of {injected} regressions",
                o.version
            )
        });
    }

    // Gate 3: warm-start reaches its first dedication strictly earlier
    // than cold on every post-base version (None = never = infinity).
    let mut dedication = Vec::new();
    for (w, c) in warm1.iter().zip(&cold).skip(1) {
        let wr = first_dedication(w);
        let cr = first_dedication(c);
        report.gate(wr.unwrap_or(u64::MAX) < cr.unwrap_or(u64::MAX), || {
            format!(
                "version {}: warm first dedication {wr:?} not strictly below cold {cr:?}",
                w.version
            )
        });
        dedication.push(Value::Object(vec![
            ("version".to_owned(), Value::UInt(w.version)),
            (
                "warm_rounds".to_owned(),
                wr.map(Value::UInt).unwrap_or(Value::Null),
            ),
            (
                "cold_rounds".to_owned(),
                cr.map(Value::UInt).unwrap_or(Value::Null),
            ),
        ]));
    }

    for o in &warm1 {
        let caught: usize = o.report.apps.iter().map(|a| a.caught_regressions).sum();
        let injected: usize = o.report.apps.iter().map(|a| a.injected_crashes).sum();
        let coverage: usize = o.report.apps.iter().map(|a| a.coverage).sum();
        eprintln!(
            "  V{}: coverage {coverage}, regressions {caught}/{injected} caught, \
             carried {} / invalidated {}",
            o.version,
            o.report
                .apps
                .iter()
                .map(|a| a.subspaces_carried)
                .sum::<usize>(),
            o.report
                .apps
                .iter()
                .map(|a| a.subspaces_invalidated)
                .sum::<usize>(),
        );
    }

    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::Str("evolution".to_owned())),
        ("scale".to_owned(), Value::Str(args.scale.to_owned())),
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("versions".to_owned(), Value::UInt(VERSIONS)),
        ("n_apps".to_owned(), Value::UInt(N_APPS as u64)),
        ("deterministic".to_owned(), Value::Bool(deterministic)),
        ("warm".to_owned(), arm_json(&warm1)),
        ("cold".to_owned(), arm_json(&cold)),
        ("dedication".to_owned(), Value::Array(dedication)),
    ]);
    let out = "BENCH_evolution.json";
    let bytes = report.write_json(out, &doc);
    println!("evolution bench: deterministic {deterministic}, wrote {out} ({bytes} bytes)");
    report.finish()
}
