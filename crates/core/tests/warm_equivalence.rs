//! Warm-start purity: across an *empty* release diff, warm-starting is a
//! pure accelerator.
//!
//! When version N+1 is a re-release of the same binary
//! ([`VersionDiff::empty`]), the sequence layer carries only the
//! accelerator half of the captured [`WarmStart`]
//! ([`WarmStart::accelerators_only`]) — cached similarity decisions, no
//! behavioral carry-over. This suite pins the law that makes that safe:
//! a warm-started campaign on the re-released app is **byte-identical**
//! (per the canonical coverage report) to a cold start on the same seed.

use std::sync::Arc;

use proptest::prelude::*;

use taopt::session::{RunMode, SessionConfig};
use taopt::warmstart::WarmStart;
use taopt::{run_campaign, CampaignApp, CampaignConfig, CampaignResult};
use taopt_app_sim::{generate_app, App, GeneratorConfig, VersionDiff};
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualDuration;

/// A session at the scale the sequence suites use: small app, short
/// release, confirmation threshold reachable within it.
fn session(seed: u64, instances: usize, mins: u64) -> SessionConfig {
    let mut config = SessionConfig::new(ToolKind::Monkey, RunMode::TaoptDuration);
    config.instances = instances;
    config.duration = VirtualDuration::from_mins(mins);
    config.tick = VirtualDuration::from_secs(10);
    config.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
    config.analyzer.analysis_interval = VirtualDuration::from_secs(20);
    config.seed = seed;
    config
}

/// Runs one campaign over `app`, optionally warm-started.
fn run_once(
    app: &Arc<App>,
    seed: u64,
    instances: usize,
    mins: u64,
    warm: Option<WarmStart>,
) -> CampaignResult {
    let mut config = session(seed, instances, mins);
    config.capture_warm_start = true;
    config.warm_start = warm.map(Arc::new);
    run_campaign(
        vec![CampaignApp {
            name: "warmprop".into(),
            app: Arc::clone(app),
            config,
        }],
        &CampaignConfig::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An empty diff is a version bump with no observable change; the
    /// accelerator-only warm bundle captured from V0 must not perturb a
    /// single byte of V1's canonical coverage report.
    #[test]
    fn empty_diff_warm_start_is_byte_identical_to_cold(
        seed in 0u64..1_000,
        instances in 2usize..=3,
        mins in 3u64..=5,
    ) {
        let base = Arc::new(
            generate_app(&GeneratorConfig::small("warmprop", seed)).expect("valid app"),
        );
        // V1 = empty diff applied to V0: a re-release of the same binary.
        let next = Arc::new(VersionDiff::empty(0).apply(&base).expect("identity diff"));

        let v0 = run_once(&base, seed, instances, mins, None);
        let bundle = v0.apps[0].warm.clone().expect("TaOPT session captures warm state");

        let cold = run_once(&next, seed, instances, mins, None);
        let warm = run_once(&next, seed, instances, mins, Some(bundle.accelerators_only()));

        prop_assert_eq!(
            cold.coverage_report(),
            warm.coverage_report(),
            "accelerator-only warm start perturbed the campaign (seed {})",
            seed
        );
        // And the warm arm captures its own bundle for the next release.
        prop_assert!(warm.apps[0].warm.is_some());
    }
}
