//! The four workloads: what they run and why, as pure functions of the
//! seed. The program under test only ever receives the generated inputs.

use crate::surface::{
    AppEvolution, AppSource, AppSpec, CampaignSpec, ExperimentScale, FaultPlan, FaultRates,
    KillEvent, RunMode, ToolKind, VirtualDuration,
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many small campaign tasks per round.
    FarmWide,
    /// Few large tasks with long analysis windows.
    CatalogDeep,
    /// Warm-started release train.
    ReleaseTrain,
    /// Multi-tenant service over the wire, then crash recovery.
    ServiceChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::FarmWide,
        Workload::CatalogDeep,
        Workload::ReleaseTrain,
        Workload::ServiceChurn,
    ];

    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FarmWide => "farm-wide",
            Workload::CatalogDeep => "catalog-deep",
            Workload::ReleaseTrain => "release-train",
            Workload::ServiceChurn => "service-churn",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (mirrored in BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FarmWide => {
                "100 small apps x 2 instances: ~100 tasks of ~70 us per round, so the campaign \
                 scheduler/pool/lease and the tool->toller->device step path dominate"
            }
            Workload::CatalogDeep => {
                "18 catalog apps x 5 instances for a virtual hour: few large tasks, long windows, \
                 so analyzer/FindSpace/similarity and report rendering dominate"
            }
            Workload::ReleaseTrain => {
                "24 small apps x 6 releases, warm-started: the analyzer seeded from carried \
                 state and re-validated against diffs; the simulated outcome metrics live here"
            }
            Workload::ServiceChurn => {
                "12 campaigns (half faulted) over loopback HTTP with a checkpoint every round, \
                 then recovery from 75% checkpoints: writes beside reads, replay on resume"
            }
        }
    }
}

/// Tools rotated across a catalog, the paper's three.
fn rotated_tool(i: usize) -> ToolKind {
    ToolKind::ALL[i % ToolKind::ALL.len()]
}

/// Apps in `farm-wide`.
pub const FARM_APPS: usize = 100;
/// Apps in `release-train`.
pub const TRAIN_APPS: usize = 24;
/// Releases in `release-train` (`V0..V5`).
pub const TRAIN_VERSIONS: u64 = 6;
/// Campaigns in `service-churn`.
pub const CHURN_SPECS: usize = 12;
/// Campaigns `service-churn` resumes from seeded checkpoints.
pub const CHURN_RESUMED: usize = 4;
/// Share of a campaign's rounds the seeded checkpoints sit at.
pub const CHURN_RESUME_AT: f64 = 0.75;

/// `farm-wide`: 100 `GeneratorConfig::small` apps x 2 instances, tools
/// rotated, 40 virtual minutes at a 10 s tick, capacity 200 (uncontended).
pub fn farm_wide(seed: u64) -> CampaignSpec {
    let apps = (0..FARM_APPS)
        .map(|i| AppSpec {
            source: AppSource::Small {
                name: format!("farm-{i:03}"),
                seed: seed.wrapping_add(i as u64),
            },
            tool: rotated_tool(i),
            mode: RunMode::TaoptDuration,
            seed: seed.wrapping_add(i as u64),
        })
        .collect();
    let scale = ExperimentScale {
        instances: 2,
        duration: VirtualDuration::from_mins(40),
        ..ExperimentScale::quick()
    };
    let mut spec = CampaignSpec::new("farm-wide", apps, scale);
    spec.capacity = Some(2 * FARM_APPS);
    spec
}

/// `catalog-deep`: the 18 catalog apps x 5 instances at the paper's scale
/// (one virtual hour), tools rotated, even apps duration-constrained, odd
/// apps resource-constrained, uncontended.
pub fn catalog_deep(seed: u64) -> CampaignSpec {
    let apps = crate::surface::catalog_configs()
        .into_iter()
        .enumerate()
        .map(|(i, (name, _))| AppSpec {
            source: AppSource::Catalog(name),
            tool: rotated_tool(i),
            mode: if i % 2 == 0 {
                RunMode::TaoptDuration
            } else {
                RunMode::TaoptResource
            },
            seed: seed.wrapping_add(i as u64),
        })
        .collect();
    CampaignSpec::new("catalog-deep", apps, ExperimentScale::paper())
}

/// `release-train`: the `V0` spec (24 small apps x 3 instances x 30
/// virtual minutes, tools rotated) and the release sampler — the
/// evolution bench's mild train: no renames or splits, so learned
/// subspaces regularly survive a release, and shallow always-firing
/// regression crashes a release-length campaign can reach.
pub fn release_train(seed: u64) -> (CampaignSpec, AppEvolution) {
    let apps = (0..TRAIN_APPS)
        .map(|i| AppSpec {
            source: AppSource::Small {
                name: format!("train-{i:02}"),
                seed: seed.wrapping_add(i as u64),
            },
            tool: rotated_tool(i),
            mode: RunMode::TaoptDuration,
            seed: seed.wrapping_add(i as u64),
        })
        .collect();
    let scale = ExperimentScale {
        instances: 3,
        duration: VirtualDuration::from_mins(30),
        ..ExperimentScale::quick()
    };
    let evolution = AppEvolution {
        widget_renames: 0,
        screen_renames: 0,
        screen_splits: 0,
        crash_probability: 1.0,
        crash_min_depth: 1,
        ..AppEvolution::new(seed ^ 0xe0)
    };
    (CampaignSpec::new("release-train", apps, scale), evolution)
}

/// `service-churn`: 12 tenants of 2 catalog apps x 3 instances for a
/// virtual hour, Monkey/Ape, equal priority. Odd tenants run under a
/// uniform 2% fault plan plus four scheduled device kills. Every seed
/// draws on the same 13 catalog apps (sizes differ fourfold across the
/// catalog, and a seed-chosen subset would make seeds incomparable); the
/// seed drives the sessions, the fault plans and the kill victims.
pub fn service_churn(seed: u64) -> Vec<CampaignSpec> {
    let names: Vec<String> = crate::surface::catalog_configs()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let scale = ExperimentScale {
        instances: 3,
        ..ExperimentScale::paper()
    };
    let rounds = scale.duration.as_millis() / scale.tick.as_millis();
    (0..CHURN_SPECS)
        .map(|i| {
            let apps = (0..2)
                .map(|j| AppSpec {
                    source: AppSource::Catalog(names[(i + j) % names.len()].clone()),
                    tool: if (i + j) % 2 == 0 {
                        ToolKind::Monkey
                    } else {
                        ToolKind::Ape
                    },
                    mode: RunMode::TaoptDuration,
                    seed: seed.wrapping_add((i * 2 + j) as u64 * 31),
                })
                .collect();
            let mut spec = CampaignSpec::new(format!("tenant-{i:02}"), apps, scale);
            if i % 2 == 1 {
                spec.faults = Some(FaultPlan::new(
                    seed.wrapping_add(i as u64),
                    FaultRates::uniform(0.02),
                ));
                spec.kills = (1..=4)
                    .map(|k| KillEvent {
                        round: rounds * k / 5,
                        victim: seed.wrapping_add(k),
                    })
                    .collect();
            }
            spec
        })
        .collect()
}

/// Rounds a spec's campaign runs when nothing stalls it: its virtual
/// duration over its tick.
pub fn nominal_rounds(spec: &CampaignSpec) -> u64 {
    spec.scale.duration.as_millis() / spec.scale.tick.as_millis().max(1)
}

/// FNV-1a over bytes — the benchmark's fingerprint for specs and reports.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of everything `workload` generates for `seed`.
#[cfg(test)]
pub fn input_fnv(workload: Workload, seed: u64) -> u64 {
    let text = match workload {
        Workload::FarmWide => farm_wide(seed).to_value().to_json_string(),
        Workload::CatalogDeep => catalog_deep(seed).to_value().to_json_string(),
        Workload::ReleaseTrain => {
            let (spec, evolution) = release_train(seed);
            format!("{}{evolution:?}", spec.to_value().to_json_string())
        }
        Workload::ServiceChurn => service_churn(seed)
            .iter()
            .map(|s| s.to_value().to_json_string())
            .collect(),
    };
    fnv64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(input_fnv(w, 2025), input_fnv(w, 2025), "{}", w.name());
            assert_ne!(input_fnv(w, 2025), input_fnv(w, 2026), "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is one short line", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn workload_shapes_match_their_description() {
        let farm = farm_wide(1);
        assert_eq!(farm.apps.len(), FARM_APPS);
        assert_eq!(farm.device_demand(), 200);
        assert_eq!(nominal_rounds(&farm), 240);
        let deep = catalog_deep(1);
        assert_eq!(deep.apps.len(), 18);
        assert_eq!(nominal_rounds(&deep), 360);
        let churn = service_churn(1);
        assert_eq!(churn.len(), CHURN_SPECS);
        assert!(churn
            .iter()
            .enumerate()
            .all(|(i, s)| s.faults.is_some() == (i % 2 == 1) && s.kills.len() == 4 * (i % 2)));
        assert!(churn.iter().all(|s| s.device_demand() == 6));
    }
}
