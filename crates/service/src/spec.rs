//! Serializable campaign specifications.
//!
//! A [`CampaignSpec`] is the *complete* input of a deterministic campaign
//! run: which apps (by catalog name or generator recipe — never by live
//! object), which tool/mode/seed per app, the experiment scale, and every
//! [`taopt::CampaignConfig`] knob. Because the campaign runtime is a pure
//! function of this spec, a durable checkpoint only ever needs to store
//! the spec plus a round number and digest — rebuilding and replaying
//! reproduces the interrupted run byte-for-byte (DESIGN.md §13).

use std::sync::Arc;

use taopt::experiments::ExperimentScale;
use taopt::{CampaignApp, CampaignConfig, KillEvent, RunMode};
use taopt_app_sim::{catalog_entries, generate_app, App, CatalogEntry, GeneratorConfig};
use taopt_chaos::FaultPlan;
use taopt_tools::ToolKind;
use taopt_ui_model::json::{JsonError, Value};
use taopt_ui_model::VirtualDuration;

use crate::error::ServiceError;

/// Where an app under test comes from. Only *recipes* are serializable;
/// the app object itself is rebuilt deterministically on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppSource {
    /// A named entry of the built-in catalog.
    Catalog(String),
    /// A generated small app ([`GeneratorConfig::small`]).
    Small {
        /// Generator name (also the report key).
        name: String,
        /// Generator seed.
        seed: u64,
    },
}

impl AppSource {
    /// The app's display name.
    pub fn name(&self) -> &str {
        match self {
            AppSource::Catalog(name) => name,
            AppSource::Small { name, .. } => name,
        }
    }

    /// Checks the recipe without generating a catalog app: a catalog
    /// name is looked up (catalog generation cannot fail), while a small
    /// app is generated — cheap, and generation is its only check — and
    /// handed on so [`CampaignSpec::build`] does not generate it twice.
    fn check(&self) -> Result<CheckedApp, ServiceError> {
        match self {
            AppSource::Catalog(name) => catalog_entries()
                .into_iter()
                .find(|e| e.name == name)
                .map(CheckedApp::Catalog)
                .ok_or_else(|| ServiceError::UnknownApp(name.clone())),
            AppSource::Small { name, seed } => generate_app(&GeneratorConfig::small(name, *seed))
                .map(CheckedApp::Small)
                .map_err(|e| ServiceError::Rejected(format!("app generation failed: {e}"))),
        }
    }
}

/// An app recipe that passed [`AppSource::check`].
enum CheckedApp {
    Catalog(CatalogEntry),
    Small(App),
}

impl CheckedApp {
    fn into_app(self) -> Arc<App> {
        Arc::new(match self {
            CheckedApp::Catalog(entry) => entry.generate(),
            CheckedApp::Small(app) => app,
        })
    }
}

/// Longitudinal-sequence section of a campaign spec: run the campaign
/// once per app release instead of once, evolving every app between
/// versions and optionally threading warm-start analyzer state across
/// release boundaries.
///
/// Absent from pre-evolution specs (and their checkpoints); parsing
/// defaults to `None`, which means a plain single-version campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvolutionSpec {
    /// Seed of the [`taopt_app_sim::AppEvolution`] release sampler.
    pub seed: u64,
    /// Total releases to run (`1` = only `V0`).
    pub versions: u64,
    /// Thread [`taopt::WarmStart`] bundles across release boundaries.
    pub warm: bool,
}

impl EvolutionSpec {
    fn to_value(self) -> Value {
        Value::Object(vec![
            ("seed".to_owned(), Value::UInt(self.seed)),
            ("versions".to_owned(), Value::UInt(self.versions)),
            ("warm".to_owned(), Value::Bool(self.warm)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, JsonError> {
        let u = |key: &str| -> Result<u64, JsonError> {
            v.require(key)?
                .as_u64()
                .ok_or_else(|| JsonError::conversion(format!("evolution `{key}` must be a u64")))
        };
        let warm = match v.require("warm")? {
            Value::Bool(b) => *b,
            _ => return Err(JsonError::conversion("evolution `warm` must be a bool")),
        };
        Ok(EvolutionSpec {
            seed: u("seed")?,
            versions: u("versions")?.max(1),
            warm,
        })
    }
}

/// One app slot of a campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// The app recipe.
    pub source: AppSource,
    /// Testing tool driving this app's instances.
    pub tool: ToolKind,
    /// Run mode.
    pub mode: RunMode,
    /// Session base seed.
    pub seed: u64,
}

/// The complete, serializable input of one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign display name.
    pub name: String,
    /// Apps under test, in input order.
    pub apps: Vec<AppSpec>,
    /// Per-app experiment scale (instances, duration, tick, ...).
    pub scale: ExperimentScale,
    /// Campaign-wide host compute-thread budget shared by round
    /// advancement and analysis (`0` = auto-detect). Never affects
    /// results — only host-side speed — so a checkpoint written under
    /// one budget restores byte-identical under another.
    pub host_threads: usize,
    /// Shared farm capacity override.
    pub capacity: Option<usize>,
    /// Rounds a lease is protected from starvation revocation.
    pub min_hold_rounds: u64,
    /// Hard round stop.
    pub max_rounds: u64,
    /// Scheduled device kills.
    pub kills: Vec<KillEvent>,
    /// Optional deterministic fault plan.
    pub faults: Option<FaultPlan>,
    /// Optional longitudinal sequence over app releases.
    pub evolution: Option<EvolutionSpec>,
}

impl CampaignSpec {
    /// A spec with the default campaign knobs for `apps`.
    pub fn new(name: impl Into<String>, apps: Vec<AppSpec>, scale: ExperimentScale) -> Self {
        let defaults = CampaignConfig::default();
        CampaignSpec {
            name: name.into(),
            apps,
            scale,
            host_threads: defaults.host_threads,
            capacity: defaults.capacity,
            min_hold_rounds: defaults.min_hold_rounds,
            max_rounds: defaults.max_rounds,
            kills: Vec::new(),
            faults: None,
            evolution: None,
        }
    }

    /// Peak device demand: what the campaign asks of the shared farm when
    /// uncontended (admission-control currency).
    pub fn device_demand(&self) -> usize {
        self.capacity
            .unwrap_or(self.apps.len() * self.scale.instances)
            .max(1)
    }

    /// Runs every check [`build`](Self::build) makes — apps present,
    /// `scale.instances ≥ 1`, every catalog name known, every small app
    /// generating — without generating a catalog app. Admission calls
    /// this; `build` runs the same checks first.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.checked_apps().map(drop)
    }

    /// The checks behind [`validate`](Self::validate) and
    /// [`build`](Self::build), yielding each app's checked recipe.
    fn checked_apps(&self) -> Result<Vec<CheckedApp>, ServiceError> {
        if self.apps.is_empty() {
            return Err(ServiceError::Rejected("spec has no apps".to_owned()));
        }
        if self.scale.instances == 0 {
            // An app with d_max = 0 never holds a device, so its campaign
            // would idle until `max_rounds`.
            return Err(ServiceError::Rejected(
                "scale.instances must be at least 1".to_owned(),
            ));
        }
        self.apps.iter().map(|a| a.source.check()).collect()
    }

    /// Materializes the spec into runnable campaign inputs. Pure: the
    /// same spec always builds the same apps and config.
    pub fn build(&self) -> Result<(Vec<CampaignApp>, CampaignConfig), ServiceError> {
        let apps = self
            .apps
            .iter()
            .zip(self.checked_apps()?)
            .map(|(a, checked)| CampaignApp {
                name: a.source.name().to_owned(),
                app: checked.into_app(),
                config: self.scale.session_config(a.tool, a.mode, a.seed),
            })
            .collect();
        let config = CampaignConfig {
            host_threads: self.host_threads,
            capacity: self.capacity,
            min_hold_rounds: self.min_hold_rounds,
            kills: self.kills.clone(),
            faults: self.faults.clone(),
            max_rounds: self.max_rounds,
        };
        Ok((apps, config))
    }

    /// Serializes the spec to a JSON value.
    pub fn to_value(&self) -> Value {
        let apps = self
            .apps
            .iter()
            .map(|a| {
                let source = match &a.source {
                    AppSource::Catalog(name) => {
                        Value::Object(vec![("catalog".to_owned(), Value::Str(name.clone()))])
                    }
                    AppSource::Small { name, seed } => Value::Object(vec![
                        ("small".to_owned(), Value::Str(name.clone())),
                        ("app_seed".to_owned(), Value::UInt(*seed)),
                    ]),
                };
                Value::Object(vec![
                    ("source".to_owned(), source),
                    ("tool".to_owned(), Value::Str(a.tool.name().to_owned())),
                    ("mode".to_owned(), Value::Str(a.mode.label().to_owned())),
                    ("seed".to_owned(), Value::UInt(a.seed)),
                ])
            })
            .collect();
        let kills = self
            .kills
            .iter()
            .map(|k| {
                Value::Object(vec![
                    ("round".to_owned(), Value::UInt(k.round)),
                    ("victim".to_owned(), Value::UInt(k.victim)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("name".to_owned(), Value::Str(self.name.clone())),
            ("apps".to_owned(), Value::Array(apps)),
            ("scale".to_owned(), scale_to_value(&self.scale)),
            (
                "host_threads".to_owned(),
                Value::UInt(self.host_threads as u64),
            ),
            (
                "capacity".to_owned(),
                self.capacity.map_or(Value::Null, |c| Value::UInt(c as u64)),
            ),
            (
                "min_hold_rounds".to_owned(),
                Value::UInt(self.min_hold_rounds),
            ),
            ("max_rounds".to_owned(), Value::UInt(self.max_rounds)),
            ("kills".to_owned(), Value::Array(kills)),
        ];
        if let Some(plan) = &self.faults {
            fields.push(("faults".to_owned(), plan.to_value()));
        }
        if let Some(evo) = self.evolution {
            fields.push(("evolution".to_owned(), evo.to_value()));
        }
        Value::Object(fields)
    }

    /// Deserializes a spec, failing with [`JsonError`] on missing or
    /// mistyped fields.
    pub fn from_value(v: &Value) -> Result<Self, JsonError> {
        let apps_v = v
            .require("apps")?
            .as_array()
            .ok_or_else(|| JsonError::conversion("apps must be an array"))?;
        let mut apps = Vec::with_capacity(apps_v.len());
        for av in apps_v {
            let sv = av.require("source")?;
            let source = if let Some(name) = sv.get("catalog").and_then(|n| n.as_str()) {
                AppSource::Catalog(name.to_owned())
            } else if let Some(name) = sv.get("small").and_then(|n| n.as_str()) {
                AppSource::Small {
                    name: name.to_owned(),
                    seed: sv
                        .require("app_seed")?
                        .as_u64()
                        .ok_or_else(|| JsonError::conversion("app_seed must be a u64"))?,
                }
            } else {
                return Err(JsonError::conversion(
                    "source must carry `catalog` or `small`",
                ));
            };
            apps.push(AppSpec {
                source,
                tool: parse_tool(
                    av.require("tool")?
                        .as_str()
                        .ok_or_else(|| JsonError::conversion("tool must be a string"))?,
                )?,
                mode: parse_mode(
                    av.require("mode")?
                        .as_str()
                        .ok_or_else(|| JsonError::conversion("mode must be a string"))?,
                )?,
                seed: av
                    .require("seed")?
                    .as_u64()
                    .ok_or_else(|| JsonError::conversion("seed must be a u64"))?,
            });
        }
        let kills_v = v
            .require("kills")?
            .as_array()
            .ok_or_else(|| JsonError::conversion("kills must be an array"))?;
        let mut kills = Vec::with_capacity(kills_v.len());
        for kv in kills_v {
            let u = |key: &str| -> Result<u64, JsonError> {
                kv.require(key)?
                    .as_u64()
                    .ok_or_else(|| JsonError::conversion(format!("kill `{key}` must be a u64")))
            };
            kills.push(KillEvent {
                round: u("round")?,
                victim: u("victim")?,
            });
        }
        let u = |key: &str| -> Result<u64, JsonError> {
            v.require(key)?
                .as_u64()
                .ok_or_else(|| JsonError::conversion(format!("field `{key}` must be a u64")))
        };
        Ok(CampaignSpec {
            name: v
                .require("name")?
                .as_str()
                .ok_or_else(|| JsonError::conversion("name must be a string"))?
                .to_owned(),
            apps,
            scale: scale_from_value(v.require("scale")?)?,
            // Optional for back-compat: checkpoints written before the
            // host-budget knob parse as 0 (auto-detect) — safe because
            // the budget never affects results. The same argument lets
            // older specs' `workers` key be ignored.
            host_threads: match v.get("host_threads") {
                None | Some(Value::Null) => 0,
                Some(h) => h
                    .as_u64()
                    .ok_or_else(|| JsonError::conversion("host_threads must be a u64"))?
                    as usize,
            },
            capacity: match v.get("capacity") {
                None | Some(Value::Null) => None,
                Some(c) => Some(
                    c.as_u64()
                        .ok_or_else(|| JsonError::conversion("capacity must be a u64"))?
                        as usize,
                ),
            },
            min_hold_rounds: u("min_hold_rounds")?,
            max_rounds: u("max_rounds")?,
            kills,
            faults: match v.get("faults") {
                None | Some(Value::Null) => None,
                Some(fv) => Some(FaultPlan::from_value(fv)?),
            },
            // Optional for back-compat: pre-evolution specs (and their
            // checkpoints) have no `evolution` section and stay plain
            // single-version campaigns.
            evolution: match v.get("evolution") {
                None | Some(Value::Null) => None,
                Some(ev) => Some(EvolutionSpec::from_value(ev)?),
            },
        })
    }
}

fn scale_to_value(s: &ExperimentScale) -> Value {
    Value::Object(vec![
        ("instances".to_owned(), Value::UInt(s.instances as u64)),
        (
            "duration_ms".to_owned(),
            Value::UInt(s.duration.as_millis()),
        ),
        ("tick_ms".to_owned(), Value::UInt(s.tick.as_millis())),
        (
            "stall_timeout_ms".to_owned(),
            Value::UInt(s.stall_timeout.as_millis()),
        ),
        (
            "l_min_short_ms".to_owned(),
            Value::UInt(s.l_min_short.as_millis()),
        ),
        (
            "l_min_long_ms".to_owned(),
            Value::UInt(s.l_min_long.as_millis()),
        ),
        ("grid_points".to_owned(), Value::UInt(s.grid_points as u64)),
    ])
}

fn scale_from_value(v: &Value) -> Result<ExperimentScale, JsonError> {
    let u = |key: &str| -> Result<u64, JsonError> {
        v.require(key)?
            .as_u64()
            .ok_or_else(|| JsonError::conversion(format!("scale `{key}` must be a u64")))
    };
    Ok(ExperimentScale {
        instances: u("instances")? as usize,
        duration: VirtualDuration::from_millis(u("duration_ms")?),
        tick: VirtualDuration::from_millis(u("tick_ms")?),
        stall_timeout: VirtualDuration::from_millis(u("stall_timeout_ms")?),
        l_min_short: VirtualDuration::from_millis(u("l_min_short_ms")?),
        l_min_long: VirtualDuration::from_millis(u("l_min_long_ms")?),
        grid_points: u("grid_points")? as usize,
    })
}

fn parse_tool(s: &str) -> Result<ToolKind, JsonError> {
    ToolKind::EXTENDED
        .into_iter()
        .find(|t| t.name() == s)
        .ok_or_else(|| JsonError::conversion(format!("unknown tool `{s}`")))
}

fn parse_mode(s: &str) -> Result<RunMode, JsonError> {
    [
        RunMode::Baseline,
        RunMode::TaoptDuration,
        RunMode::TaoptResource,
        RunMode::ActivityPartition,
        RunMode::PatsMasterSlave,
    ]
    .into_iter()
    .find(|m| m.label() == s)
    .ok_or_else(|| JsonError::conversion(format!("unknown run mode `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_chaos::FaultRates;

    fn sample() -> CampaignSpec {
        let mut spec = CampaignSpec::new(
            "smoke",
            vec![
                AppSpec {
                    source: AppSource::Small {
                        name: "alpha".to_owned(),
                        seed: 11,
                    },
                    tool: ToolKind::Monkey,
                    mode: RunMode::TaoptDuration,
                    seed: 1,
                },
                AppSpec {
                    source: AppSource::Catalog("AbsWorkout".to_owned()),
                    tool: ToolKind::Ape,
                    mode: RunMode::Baseline,
                    seed: 2,
                },
            ],
            ExperimentScale::quick(),
        );
        spec.host_threads = 3;
        spec.capacity = Some(4);
        spec.kills = vec![KillEvent {
            round: 9,
            victim: 3,
        }];
        spec.faults = Some(FaultPlan::new(5, FaultRates::uniform(0.01)));
        spec.evolution = Some(EvolutionSpec {
            seed: 77,
            versions: 3,
            warm: true,
        });
        spec
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = sample();
        let text = spec.to_value().to_json_string();
        let back = CampaignSpec::from_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn build_materializes_apps_and_config() {
        let spec = sample();
        let (apps, config) = spec.build().unwrap();
        assert_eq!(apps.len(), 2);
        assert_eq!(apps[0].name, "alpha");
        assert_eq!(apps[1].name, "AbsWorkout");
        assert_eq!(config.host_threads, 3);
        assert_eq!(config.capacity, Some(4));
        assert_eq!(config.kills.len(), 1);
        assert!(config.faults.is_some());
        assert_eq!(spec.device_demand(), 4);
    }

    #[test]
    fn pre_host_threads_checkpoint_parses_as_auto() {
        // A spec serialized before the host-budget knob existed has no
        // `host_threads` field; it must parse as 0 (auto-detect).
        let spec = sample();
        let v = spec.to_value();
        let Value::Object(fields) = v else {
            panic!("spec serializes to an object")
        };
        let legacy = Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "host_threads")
                .collect(),
        );
        let back = CampaignSpec::from_value(&legacy).unwrap();
        assert_eq!(back.host_threads, 0);
        assert_eq!(back.apps, spec.apps);
    }

    #[test]
    fn pre_evolution_spec_parses_as_single_version() {
        // A spec serialized before the evolution section existed must
        // parse with `evolution: None` (a plain one-version campaign).
        let spec = sample();
        let v = spec.to_value();
        let Value::Object(fields) = v else {
            panic!("spec serializes to an object")
        };
        let legacy = Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "evolution")
                .collect(),
        );
        let back = CampaignSpec::from_value(&legacy).unwrap();
        assert_eq!(back.evolution, None);
        assert_eq!(back.apps, spec.apps);
    }

    #[test]
    fn checked_in_legacy_fixture_still_parses_and_builds() {
        // The fixture is a spec file written by the pre-evolution format
        // (no `evolution`, no `host_threads`, no `faults`, and the
        // since-removed `workers: 2`) — exactly what an old v1-header
        // checkpoint embeds. It must keep parsing and materializing
        // forever, with the `workers` key ignored.
        let text = include_str!("../testdata/legacy_spec_v1.json");
        let spec = CampaignSpec::from_value(&Value::parse(text).unwrap()).unwrap();
        assert_eq!(spec.name, "legacy-smoke");
        assert_eq!(spec.evolution, None);
        assert_eq!(spec.host_threads, 0);
        assert_eq!(spec.faults, None);
        let (apps, config) = spec.build().unwrap();
        assert_eq!(apps.len(), 2);
        assert_eq!(config.host_threads, 0);
        assert_eq!(config.capacity, Some(4));
        assert!(!spec.to_value().to_json_string().contains("workers"));
    }

    #[test]
    fn unknown_catalog_app_is_rejected() {
        let mut spec = sample();
        spec.apps[1].source = AppSource::Catalog("NoSuchApp".to_owned());
        assert!(matches!(
            spec.build(),
            Err(ServiceError::UnknownApp(name)) if name == "NoSuchApp"
        ));
    }

    #[test]
    fn validate_and_build_agree() {
        let small_only = {
            let mut spec = sample();
            spec.apps.truncate(1);
            spec
        };
        let unknown = {
            let mut spec = sample();
            spec.apps[1].source = AppSource::Catalog("NoSuchApp".to_owned());
            spec
        };
        let unknown_first = {
            let mut spec = sample();
            spec.apps[0].source = AppSource::Catalog("Nope".to_owned());
            spec
        };
        let no_apps = {
            let mut spec = sample();
            spec.apps.clear();
            spec
        };
        let zero_instances = {
            let mut spec = sample();
            spec.scale.instances = 0;
            spec
        };
        let zero_instances_unknown = {
            let mut spec = unknown.clone();
            spec.scale.instances = 0;
            spec
        };
        let table = [
            ("catalog + small", sample(), true),
            ("small only", small_only, true),
            ("unknown catalog name", unknown, false),
            ("unknown first app", unknown_first, false),
            ("no apps", no_apps, false),
            ("zero instances", zero_instances, false),
            ("zero instances, unknown app", zero_instances_unknown, false),
        ];
        for (case, spec, ok) in table {
            let validated = spec.validate();
            let built = spec.build();
            assert_eq!(validated.is_ok(), ok, "{case}: validate");
            assert_eq!(built.is_ok(), ok, "{case}: build");
            if let (Err(v), Err(b)) = (&validated, &built) {
                assert_eq!(
                    std::mem::discriminant(v),
                    std::mem::discriminant(b),
                    "{case}: error variant"
                );
                assert_eq!(v.to_string(), b.to_string(), "{case}: error");
            }
        }
    }

    #[test]
    fn unknown_tool_or_mode_is_a_clean_error() {
        let spec = sample();
        let text = spec.to_value().to_json_string();
        let bad = text.replace("\"Monkey\"", "\"Gorilla\"");
        assert!(CampaignSpec::from_value(&Value::parse(&bad).unwrap()).is_err());
        let bad = text.replace("\"Baseline\"", "\"Turbo\"");
        assert!(CampaignSpec::from_value(&Value::parse(&bad).unwrap()).is_err());
    }
}
