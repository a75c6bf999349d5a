//! Longitudinal campaign sequences: one campaign per app release,
//! threaded through [`WarmStart`] bundles.
//!
//! A release train is `V0 → V1 → … → Vk`, each step derived by an
//! [`AppEvolution`]-sampled [`VersionDiff`]. [`run_campaign_sequence`]
//! runs one full campaign per version. In the *warm* arm each campaign
//! captures a [`WarmStart`] at the end; the next version re-validates it
//! against the diff's touched surface ([`WarmStart::invalidate`]) before
//! seeding its analyzer — untouched subspaces are re-dedicated at round
//! one, invalidated ones fall back to cold discovery. The *cold* arm
//! (`warm = false`) runs every version from scratch, which is the
//! baseline the longitudinal gates compare against.
//!
//! Each version yields an [`EvolutionReport`]: coverage delta against the
//! previous release, injected-regression catch rate, warm-reuse ratio and
//! rounds-to-first-dedication — the metrics a continuous-testing pipeline
//! would chart per release.

use std::collections::BTreeSet;
use std::sync::Arc;

use taopt_app_sim::{AppEvolution, CrashSignature, VersionDiff};
use taopt_ui_model::{Value, VirtualTime};

use crate::campaign::scheduler::{run_campaign, CampaignApp, CampaignConfig, CampaignResult};
use crate::coordinator::CoordinatorEvent;
use crate::error::TaoptError;
use crate::warmstart::{WarmReuse, WarmStart};

/// Per-app slice of one version's longitudinal report.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionAppReport {
    /// App name.
    pub name: String,
    /// Union method coverage this version.
    pub coverage: usize,
    /// Coverage change against the previous version (0 for `V0`).
    pub coverage_delta: i64,
    /// Regression crashes this version's diff injected.
    pub injected_crashes: usize,
    /// Injected regression crashes the campaign caught.
    pub caught_regressions: usize,
    /// Injected regression crashes the campaign missed.
    pub missed_regressions: usize,
    /// Warm subspaces carried intact across the release boundary.
    pub subspaces_carried: usize,
    /// Warm subspaces invalidated by the diff's touched surface.
    pub subspaces_invalidated: usize,
    /// Carried fraction, `[0, 1]` (1.0 when nothing was learned yet).
    pub warm_reuse_ratio: f64,
    /// First global round with a subspace dedication (`None` = never).
    /// Warm starts re-dedicate carried territory at round one; cold
    /// starts pay the discovery + confirmation latency again.
    pub rounds_to_first_dedication: Option<u64>,
}

impl EvolutionAppReport {
    /// Serializes to a JSON value.
    pub fn to_value(&self) -> Value {
        let rounds = match self.rounds_to_first_dedication {
            Some(r) => Value::UInt(r),
            None => Value::Null,
        };
        Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("coverage".into(), Value::UInt(self.coverage as u64)),
            ("coverage_delta".into(), Value::Int(self.coverage_delta)),
            (
                "injected_crashes".into(),
                Value::UInt(self.injected_crashes as u64),
            ),
            (
                "caught_regressions".into(),
                Value::UInt(self.caught_regressions as u64),
            ),
            (
                "missed_regressions".into(),
                Value::UInt(self.missed_regressions as u64),
            ),
            (
                "subspaces_carried".into(),
                Value::UInt(self.subspaces_carried as u64),
            ),
            (
                "subspaces_invalidated".into(),
                Value::UInt(self.subspaces_invalidated as u64),
            ),
            (
                "warm_reuse_ratio".into(),
                Value::Float(self.warm_reuse_ratio),
            ),
            ("rounds_to_first_dedication".into(), rounds),
        ])
    }
}

/// One version's longitudinal report across every app in the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionReport {
    /// The release this report covers (`0` = the base version).
    pub version: u64,
    /// Whether this version's campaign was warm-started.
    pub warm: bool,
    /// Per-app slices, in campaign input order.
    pub apps: Vec<EvolutionAppReport>,
}

impl EvolutionReport {
    /// Serializes to a JSON value.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".into(), Value::UInt(self.version)),
            ("warm".into(), Value::Bool(self.warm)),
            (
                "apps".into(),
                Value::Array(self.apps.iter().map(|a| a.to_value()).collect()),
            ),
        ])
    }
}

/// One finished release of a campaign sequence.
#[derive(Debug)]
pub struct VersionOutcome {
    /// The release index (`0` = base version).
    pub version: u64,
    /// The full campaign result (its
    /// [`coverage_report`](CampaignResult::coverage_report) is the
    /// determinism currency, per version).
    pub result: CampaignResult,
    /// The longitudinal report for this release.
    pub report: EvolutionReport,
}

/// First global round with a post-start subspace dedication.
///
/// Redistribution events synthesized while unwinding a retiring instance
/// carry `at == VirtualTime::ZERO` and are not dedications *earned* this
/// session, so they are excluded.
fn rounds_to_first_dedication(result: &CampaignResult, app: usize) -> Option<u64> {
    let tick = result.tick.as_millis().max(1);
    result.apps[app]
        .session
        .coordinator_events
        .iter()
        .filter_map(|e| match e {
            CoordinatorEvent::SubspaceDedicated { at, .. } if *at > VirtualTime::ZERO => {
                Some(at.as_millis().div_ceil(tick))
            }
            _ => None,
        })
        .min()
}

/// A release train held open one version at a time.
///
/// [`run_campaign_sequence`] is a loop over this: `begin_version` derives
/// the next release's apps (applying the sampled diff and re-validating
/// any carried [`WarmStart`]) and returns the campaign inputs;
/// `complete_version` folds the finished [`CampaignResult`] back in and
/// emits the release's [`EvolutionReport`]. External drivers (the
/// campaign service) use the split to interleave durable checkpoints with
/// version execution — a killed sequence resumes by replaying completed
/// versions and then replaying into the in-flight one.
#[derive(Debug)]
pub struct CampaignSequence {
    evolution: AppEvolution,
    versions: u64,
    warm: bool,
    /// Next version to begin (or the version in flight once begun).
    version: u64,
    /// Apps at `version` once begun; at `version - 1`'s state before.
    current: Vec<CampaignApp>,
    carried: Vec<Option<WarmStart>>,
    prev_coverage: Vec<Option<usize>>,
    /// Set between `begin_version` and `complete_version`.
    pending: Option<PendingVersion>,
}

#[derive(Debug)]
struct PendingVersion {
    diffs: Vec<VersionDiff>,
    reuse: Vec<WarmReuse>,
}

impl CampaignSequence {
    /// Starts a release train at `V0`. `base` holds the `V0` apps;
    /// `evolution` samples each release's diff (decorrelated per app name
    /// and version); `versions` is the total number of releases (so
    /// `versions = 1` runs only `V0`). With `warm = true` each release
    /// seeds its analyzers from the previous release's captured
    /// [`WarmStart`], re-validated against the diff; with `warm = false`
    /// every release starts cold.
    pub fn new(base: Vec<CampaignApp>, evolution: AppEvolution, versions: u64, warm: bool) -> Self {
        let n = base.len();
        CampaignSequence {
            evolution,
            versions,
            warm,
            version: 0,
            current: base,
            carried: vec![None; n],
            prev_coverage: vec![None; n],
            pending: None,
        }
    }

    /// The version `begin_version` will derive next (the in-flight
    /// version once begun).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether every release has completed.
    pub fn is_done(&self) -> bool {
        self.pending.is_none() && self.version >= self.versions
    }

    /// Derives the next release and returns its campaign inputs: the diff
    /// is applied to every app, carried warm bundles are re-validated
    /// against its touched surface, and the per-app session configs get
    /// their warm seed/capture knobs set.
    ///
    /// # Errors
    ///
    /// Returns [`TaoptError::Evolution`] when a diff op references state
    /// the previous release no longer has, or when called out of order
    /// (sequence done, or a begun version not yet completed).
    pub fn begin_version(&mut self) -> Result<Vec<CampaignApp>, TaoptError> {
        if self.pending.is_some() {
            return Err(TaoptError::Evolution(
                "previous version not completed".to_owned(),
            ));
        }
        if self.version >= self.versions {
            return Err(TaoptError::Evolution("sequence is done".to_owned()));
        }
        let mut diffs: Vec<VersionDiff> = Vec::with_capacity(self.current.len());
        let mut reuse: Vec<WarmReuse> = vec![WarmReuse::default(); self.current.len()];
        if self.version > 0 {
            for (i, entry) in self.current.iter_mut().enumerate() {
                let diff = self.evolution.diff(&entry.app, self.version - 1);
                let next = diff
                    .apply(&entry.app)
                    .map_err(|e| TaoptError::Evolution(e.to_string()))?;
                if let Some(bundle) = self.carried[i].take() {
                    self.carried[i] = Some(if diff.is_empty() {
                        // A re-release of the same binary: caches carry,
                        // exhausted territory is not re-dedicated (the
                        // pure-accelerator law keeps this byte-identical
                        // to cold).
                        bundle.accelerators_only()
                    } else {
                        let (survived, tally) = bundle.invalidate(&diff.touched(&entry.app));
                        reuse[i] = tally;
                        survived
                    });
                }
                entry.app = Arc::new(next);
                diffs.push(diff);
            }
        }
        self.pending = Some(PendingVersion { diffs, reuse });
        Ok(self
            .current
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let mut entry = entry.clone();
                entry.config.capture_warm_start = self.warm && entry.config.mode.uses_taopt();
                entry.config.warm_start = if self.warm {
                    self.carried[i].as_ref().map(|w| Arc::new(w.clone()))
                } else {
                    None
                };
                entry
            })
            .collect())
    }

    /// Folds a finished release's result back in (coverage baseline, next
    /// warm bundles) and emits its [`EvolutionReport`].
    ///
    /// # Panics
    ///
    /// Panics when no version is in flight (no matching `begin_version`).
    pub fn complete_version(&mut self, result: &CampaignResult) -> EvolutionReport {
        let pending = self.pending.take().expect("a version is in flight");
        let apps = result
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let injected: BTreeSet<CrashSignature> = pending
                    .diffs
                    .get(i)
                    .map(|d| d.injected_signatures().into_iter().collect())
                    .unwrap_or_default();
                let caught = injected.intersection(&a.session.unique_crashes()).count();
                let coverage = a.session.union_coverage();
                EvolutionAppReport {
                    name: a.name.clone(),
                    coverage,
                    coverage_delta: self.prev_coverage[i]
                        .map(|p| coverage as i64 - p as i64)
                        .unwrap_or(0),
                    injected_crashes: injected.len(),
                    caught_regressions: caught,
                    missed_regressions: injected.len() - caught,
                    subspaces_carried: pending.reuse[i].carried,
                    subspaces_invalidated: pending.reuse[i].invalidated,
                    warm_reuse_ratio: pending.reuse[i].ratio(),
                    rounds_to_first_dedication: rounds_to_first_dedication(result, i),
                }
            })
            .collect();
        for (i, a) in result.apps.iter().enumerate() {
            self.prev_coverage[i] = Some(a.session.union_coverage());
            if self.warm {
                self.carried[i] = a.warm.clone();
            }
        }
        let report = EvolutionReport {
            version: self.version,
            warm: self.warm,
            apps,
        };
        self.version += 1;
        report
    }
}

/// Runs one campaign per release of an evolving app set (the closed-loop
/// driver over [`CampaignSequence`]).
///
/// # Errors
///
/// Returns [`TaoptError::Evolution`] when deriving a next version fails
/// (an op referencing state the previous release no longer has).
pub fn run_campaign_sequence(
    base: Vec<CampaignApp>,
    config: &CampaignConfig,
    evolution: &AppEvolution,
    versions: u64,
    warm: bool,
) -> Result<Vec<VersionOutcome>, TaoptError> {
    let mut sequence = CampaignSequence::new(base, evolution.clone(), versions, warm);
    let mut outcomes = Vec::with_capacity(versions as usize);
    while !sequence.is_done() {
        let version = sequence.version();
        let run_apps = sequence.begin_version()?;
        let result = run_campaign(run_apps, config);
        let report = sequence.complete_version(&result);
        outcomes.push(VersionOutcome {
            version,
            result,
            report,
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{RunMode, SessionConfig};
    use taopt_app_sim::{generate_app, GeneratorConfig};
    use taopt_tools::ToolKind;
    use taopt_ui_model::VirtualDuration;

    fn quick_apps() -> Vec<CampaignApp> {
        let mut config = SessionConfig::new(ToolKind::Monkey, RunMode::TaoptDuration);
        config.instances = 3;
        config.duration = VirtualDuration::from_mins(8);
        config.tick = VirtualDuration::from_secs(10);
        config.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
        config.analyzer.analysis_interval = VirtualDuration::from_secs(20);
        vec![CampaignApp {
            name: "seq".into(),
            app: Arc::new(generate_app(&GeneratorConfig::small("sess", 2)).unwrap()),
            config,
        }]
    }

    #[test]
    fn sequence_reports_regressions_and_is_deterministic() {
        let evo = AppEvolution::new(21);
        let cfg = CampaignConfig::default();
        let run =
            || run_campaign_sequence(quick_apps(), &cfg, &evo, 2, true).expect("sequence runs");
        let a = run();
        let b = run();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].version, 0);
        assert_eq!(a[1].version, 1);
        // V0 has no diff, so nothing injected and no delta.
        assert_eq!(a[0].report.apps[0].injected_crashes, 0);
        assert_eq!(a[0].report.apps[0].coverage_delta, 0);
        // V1's diff injects exactly one regression crash.
        let v1 = &a[1].report.apps[0];
        assert_eq!(v1.injected_crashes, 1);
        assert_eq!(v1.caught_regressions + v1.missed_regressions, 1);
        assert!(v1.warm_reuse_ratio >= 0.0 && v1.warm_reuse_ratio <= 1.0);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result.coverage_report(), y.result.coverage_report());
            assert_eq!(x.report, y.report);
        }
    }

    /// Two small apps on a 12-minute release budget, where the analyzer
    /// reliably confirms subspaces within one release.
    fn release_apps(seed: u64) -> Vec<CampaignApp> {
        (0..2u64)
            .map(|i| {
                let name = format!("evo{i}");
                let mut config = SessionConfig::new(ToolKind::Monkey, RunMode::TaoptDuration);
                config.instances = 3;
                config.duration = VirtualDuration::from_mins(12);
                config.tick = VirtualDuration::from_secs(10);
                config.analyzer.find_space.l_min = VirtualDuration::from_secs(30);
                config.analyzer.analysis_interval = VirtualDuration::from_secs(20);
                config.seed = seed + i;
                CampaignApp {
                    app: Arc::new(generate_app(&GeneratorConfig::small(&name, seed + i)).unwrap()),
                    name,
                    config,
                }
            })
            .collect()
    }

    #[test]
    fn warm_rededicates_earlier_than_cold() {
        // A mild release train (V0..V4): no renames or splits, so learned
        // subspaces survive a release, and shallow always-firing
        // regression crashes a release-length campaign reliably reaches.
        let seed = 21;
        let evo = AppEvolution {
            widget_renames: 0,
            screen_renames: 0,
            screen_splits: 0,
            crash_probability: 1.0,
            crash_min_depth: 1,
            ..AppEvolution::new(seed ^ 0xe0)
        };
        let train = |host_threads: usize, warm: bool| {
            let cfg = CampaignConfig {
                host_threads,
                ..CampaignConfig::default()
            };
            run_campaign_sequence(release_apps(seed), &cfg, &evo, 5, warm).expect("sequence runs")
        };
        let warm = train(1, true);
        let cold = train(1, false);
        let first_dedication = |o: &VersionOutcome| {
            o.report
                .apps
                .iter()
                .filter_map(|a| a.rounds_to_first_dedication)
                .min()
                .unwrap_or(u64::MAX)
        };
        for (w, c) in warm.iter().zip(&cold).skip(1) {
            // Carried territory is re-dedicated in the first repair pass;
            // cold discovery has to sit out the full `l_min` window.
            let (wr, cr) = (first_dedication(w), first_dedication(c));
            assert!(
                wr < cr,
                "V{}: warm first dedication {wr} not strictly below cold {cr}",
                w.version
            );
            let injected: usize = w.report.apps.iter().map(|a| a.injected_crashes).sum();
            let missed: usize = w.report.apps.iter().map(|a| a.missed_regressions).sum();
            assert!(injected >= 1, "V{} injected no regression", w.version);
            assert_eq!(missed, 0, "V{} missed {missed} regressions", w.version);
            // Same release train either way (diffs depend only on the seed
            // and app, never on campaign outcomes); cold never reuses.
            for (wa, ca) in w.report.apps.iter().zip(&c.report.apps) {
                assert_eq!(wa.injected_crashes, ca.injected_crashes);
                assert_eq!(ca.subspaces_carried, 0);
                assert_eq!(ca.warm_reuse_ratio, 1.0);
            }
        }
        // The host budget is a throughput knob, never a result knob.
        for (a, b) in warm.iter().zip(&train(4, true)) {
            assert_eq!(a.result.coverage_report(), b.result.coverage_report());
            assert_eq!(
                a.report, b.report,
                "V{} differs across host budgets",
                a.version
            );
        }
    }

    #[test]
    fn report_serializes_with_null_for_never_dedicated() {
        let report = EvolutionReport {
            version: 3,
            warm: true,
            apps: vec![EvolutionAppReport {
                name: "a".into(),
                coverage: 10,
                coverage_delta: -2,
                injected_crashes: 1,
                caught_regressions: 0,
                missed_regressions: 1,
                subspaces_carried: 2,
                subspaces_invalidated: 1,
                warm_reuse_ratio: 2.0 / 3.0,
                rounds_to_first_dedication: None,
            }],
        };
        let json = report.to_value().to_json_string();
        assert!(json.contains("\"rounds_to_first_dedication\":null"));
        assert!(json.contains("\"coverage_delta\":-2"));
        assert!(json.contains("\"warm\":true"));
    }
}
