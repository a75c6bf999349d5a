//! Runnable reproductions of the paper's evaluation (RQ1–RQ6).
//!
//! The heart of this module is [`evaluation_matrix`]: it runs every
//! (app × tool × {Baseline, TaOPT-duration, TaOPT-resource}) parallel
//! session — in parallel across apps — and reduces each session to a
//! compact [`RunSummary`]. All tables and figures then derive from the
//! matrix:
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Fig. 3 (RQ1, Jaccard over time) | [`fig3_rows`] |
//! | Table 1 (RQ1, subspace overlap) | [`table1_histogram`] |
//! | Table 2 (RQ2, activity partitioning) | [`table2_rows`] |
//! | Fig. 5 (RQ3, duration saved) | [`savings_rows`] |
//! | Fig. 6 (RQ4, machine time saved) | [`savings_rows`] |
//! | Table 4 (RQ5, coverage) | [`table4_rows`] |
//! | Table 5 (RQ5, crashes) | [`table5_rows`] |
//! | RQ5 behaviour preservation | [`behavior_rows`] |
//! | Table 6 (RQ6, UI overlap) | [`table6_rows`] |

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use taopt_app_sim::{App, MethodId};
use taopt_tools::ToolKind;
use taopt_ui_model::{VirtualDuration, VirtualTime};

use crate::metrics::curves::{machine_time_to_reach, saved_fraction, time_to_reach, CurvePoint};
use crate::metrics::jaccard::{average_jaccard, jaccard};
use crate::metrics::overlap::{average_ui_occurrences, subspace_overlap_histogram};
use crate::partition::{partition_traces, PartitionConfig};
use crate::session::{ParallelSession, RunMode, SessionConfig, SessionResult};

/// Scale knobs shared by a whole evaluation: the paper's full setting or a
/// proportionally shrunk one for tests and quick runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// `d_max` concurrent instances.
    pub instances: usize,
    /// `l_p` per-run wall clock.
    pub duration: VirtualDuration,
    /// Lock-step round length.
    pub tick: VirtualDuration,
    /// Stall timeout.
    pub stall_timeout: VirtualDuration,
    /// `l_min^short` (duration mode).
    pub l_min_short: VirtualDuration,
    /// `l_min^long` (resource mode).
    pub l_min_long: VirtualDuration,
    /// Points on time-grid curves (Fig. 3).
    pub grid_points: usize,
}

impl ExperimentScale {
    /// The paper's full setting: 5 instances, 1 hour, 1/5-minute `l_min`.
    pub fn paper() -> Self {
        ExperimentScale {
            instances: 5,
            duration: VirtualDuration::from_hours(1),
            tick: VirtualDuration::from_secs(10),
            stall_timeout: VirtualDuration::from_mins(3),
            l_min_short: VirtualDuration::from_mins(1),
            l_min_long: VirtualDuration::from_mins(5),
            grid_points: 12,
        }
    }

    /// A shrunk setting (~10 virtual minutes) for tests and benches.
    pub fn quick() -> Self {
        ExperimentScale {
            instances: 3,
            duration: VirtualDuration::from_mins(10),
            tick: VirtualDuration::from_secs(10),
            stall_timeout: VirtualDuration::from_secs(45),
            l_min_short: VirtualDuration::from_secs(40),
            l_min_long: VirtualDuration::from_secs(100),
            grid_points: 8,
        }
    }

    /// Builds the session configuration for a tool/mode at this scale.
    pub fn session_config(&self, tool: ToolKind, mode: RunMode, seed: u64) -> SessionConfig {
        let mut cfg = SessionConfig::new(tool, mode);
        cfg.instances = self.instances;
        cfg.duration = self.duration;
        cfg.tick = self.tick;
        cfg.stall_timeout = self.stall_timeout;
        cfg.seed = seed;
        cfg.analyzer.find_space.l_min = match mode {
            RunMode::TaoptResource => self.l_min_long,
            _ => self.l_min_short,
        };
        cfg
    }
}

/// Everything the tables need from one session, with the heavy per-event
/// data already reduced.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// App name.
    pub app: String,
    /// Tool under test.
    pub tool: ToolKind,
    /// Run mode.
    pub mode: RunMode,
    /// Final cumulative union method coverage.
    pub union_coverage: usize,
    /// The union covered set (for behaviour-preservation Jaccard).
    pub union_covered: BTreeSet<MethodId>,
    /// Distinct crashes across instances.
    pub unique_crashes: usize,
    /// Machine time consumed.
    pub machine_time: VirtualDuration,
    /// Wall clock of the session.
    pub wall_clock: VirtualDuration,
    /// Union coverage curve over global time.
    pub union_curve: Vec<CurvePoint>,
    /// Table 6 metric.
    pub avg_ui_occurrences: f64,
    /// Fig. 3 metric: AJS of per-instance covered sets over time.
    pub ajs_curve: Vec<(u64, f64)>,
    /// Table 1 metric: offline-partition subspace → explorer histogram.
    pub overlap_histogram: BTreeMap<usize, usize>,
    /// Confirmed subspaces (TaOPT modes).
    pub confirmed_subspaces: usize,
}

/// Runs one session and reduces it.
pub fn run_and_summarize(
    app_name: &str,
    app: Arc<App>,
    tool: ToolKind,
    mode: RunMode,
    scale: &ExperimentScale,
    seed: u64,
) -> RunSummary {
    let cfg = scale.session_config(tool, mode, seed);
    let result = ParallelSession::run(app, &cfg);
    summarize(app_name, &result, scale)
}

/// Reduces a raw session result to a [`RunSummary`].
pub fn summarize(app_name: &str, result: &SessionResult, scale: &ExperimentScale) -> RunSummary {
    // AJS over a time grid.
    let total = scale.duration.as_secs().max(1);
    let grid: Vec<u64> = (1..=scale.grid_points)
        .map(|i| total * i as u64 / scale.grid_points as u64)
        .collect();
    let mut ajs_curve = Vec::with_capacity(grid.len());
    for t in &grid {
        let at = VirtualTime::from_secs(*t);
        let sets: Vec<BTreeSet<MethodId>> =
            result.instances.iter().map(|i| i.covered_at(at)).collect();
        ajs_curve.push((*t, average_jaccard(&sets)));
    }
    // Offline subspace partition + explorer histogram (Table 1).
    let traces = result.traces();
    let subspaces = partition_traces(&traces, &PartitionConfig::default());
    let overlap_histogram = subspace_overlap_histogram(&subspaces, &traces, 2);
    RunSummary {
        app: app_name.to_owned(),
        tool: result.tool,
        mode: result.mode,
        union_coverage: result.union_coverage(),
        union_covered: result.union_covered(),
        unique_crashes: result.unique_crashes().len(),
        machine_time: result.machine_time,
        wall_clock: result.wall_clock,
        union_curve: result.union_curve.clone(),
        avg_ui_occurrences: average_ui_occurrences(&traces),
        ajs_curve,
        overlap_histogram,
        confirmed_subspaces: result.subspaces.iter().filter(|s| s.confirmed).count(),
    }
}

/// The modes of the main evaluation matrix.
pub const EVAL_MODES: [RunMode; 3] = [
    RunMode::Baseline,
    RunMode::TaoptDuration,
    RunMode::TaoptResource,
];

/// Runs the full (apps × tools × modes) matrix, parallelized across apps.
pub fn evaluation_matrix(
    apps: &[(String, Arc<App>)],
    scale: &ExperimentScale,
    base_seed: u64,
) -> Vec<RunSummary> {
    let mut out: Vec<RunSummary> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = apps
            .iter()
            .map(|(name, app)| {
                let scale = *scale;
                scope.spawn(move || {
                    let mut rows = Vec::new();
                    for tool in ToolKind::ALL {
                        for mode in EVAL_MODES {
                            let seed = base_seed
                                ^ fnv(name)
                                ^ (tool as u64 + 1).wrapping_mul(0x517c_c1b7_2722_0a95);
                            rows.push(run_and_summarize(
                                name,
                                Arc::clone(app),
                                tool,
                                mode,
                                &scale,
                                seed,
                            ));
                        }
                    }
                    rows
                })
            })
            .collect();
        for h in handles {
            // Propagating a worker panic is deliberate: a poisoned
            // evaluation row would silently skew the paper tables.
            out.extend(h.join().expect("evaluation worker panicked"));
        }
    });
    out
}

/// Looks up a matrix cell.
pub fn matrix_get<'a>(
    matrix: &'a [RunSummary],
    app: &str,
    tool: ToolKind,
    mode: RunMode,
) -> Option<&'a RunSummary> {
    matrix
        .iter()
        .find(|r| r.app == app && r.tool == tool && r.mode == mode)
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Per-artifact reductions.
// ---------------------------------------------------------------------

/// Fig. 3: per tool, the AJS-over-time curve averaged across apps
/// (baseline runs only).
pub fn fig3_rows(matrix: &[RunSummary]) -> Vec<(ToolKind, Vec<(u64, f64)>)> {
    ToolKind::ALL
        .into_iter()
        .map(|tool| {
            let runs: Vec<&RunSummary> = matrix
                .iter()
                .filter(|r| r.tool == tool && r.mode == RunMode::Baseline)
                .collect();
            let mut curve: Vec<(u64, f64)> = Vec::new();
            if let Some(first) = runs.first() {
                for (i, (t, _)) in first.ajs_curve.iter().enumerate() {
                    let mean = runs
                        .iter()
                        .filter_map(|r| r.ajs_curve.get(i).map(|(_, v)| *v))
                        .sum::<f64>()
                        / runs.len() as f64;
                    curve.push((*t, mean));
                }
            }
            (tool, curve)
        })
        .collect()
}

/// Table 1: the aggregate subspace-overlap histogram over all baseline
/// runs (how many of the `d_max` instances explored each subspace).
pub fn table1_histogram(matrix: &[RunSummary]) -> BTreeMap<usize, usize> {
    let mut agg: BTreeMap<usize, usize> = BTreeMap::new();
    for r in matrix.iter().filter(|r| r.mode == RunMode::Baseline) {
        for (k, v) in &r.overlap_histogram {
            *agg.entry(*k).or_insert(0) += v;
        }
    }
    agg
}

/// One row of Table 2 (WCTester under activity partitioning).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// App name.
    pub app: String,
    /// Union coverage of uncoordinated parallel WCTester.
    pub baseline: usize,
    /// Union coverage under activity partitioning.
    pub parallel: usize,
}

impl Table2Row {
    /// Relative improvement of activity partitioning over baseline.
    pub fn relative_improvement(&self) -> f64 {
        if self.baseline == 0 {
            0.0
        } else {
            (self.parallel as f64 - self.baseline as f64) / self.baseline as f64
        }
    }
}

/// Table 2: runs WCTester baseline vs. activity-partitioned per app.
pub fn table2_rows(
    apps: &[(String, Arc<App>)],
    scale: &ExperimentScale,
    base_seed: u64,
) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = apps
            .iter()
            .map(|(name, app)| {
                let scale = *scale;
                scope.spawn(move || {
                    let seed = base_seed ^ fnv(name);
                    let base = run_and_summarize(
                        name,
                        Arc::clone(app),
                        ToolKind::WcTester,
                        RunMode::Baseline,
                        &scale,
                        seed,
                    );
                    let part = run_and_summarize(
                        name,
                        Arc::clone(app),
                        ToolKind::WcTester,
                        RunMode::ActivityPartition,
                        &scale,
                        seed,
                    );
                    Table2Row {
                        app: name.clone(),
                        baseline: base.union_coverage,
                        parallel: part.union_coverage,
                    }
                })
            })
            .collect();
        for h in handles {
            // Same policy as `evaluate_matrix`: surface worker panics.
            rows.push(h.join().expect("table2 worker panicked"));
        }
    });
    rows.sort_by(|a, b| a.app.cmp(&b.app));
    rows
}

/// One row of Table 4 / Table 5 (per app, all tools and modes).
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// App name.
    pub app: String,
    /// `[tool][mode]` coverage (modes in [`EVAL_MODES`] order).
    pub coverage: [[usize; 3]; 3],
    /// `[tool][mode]` unique crashes.
    pub crashes: [[usize; 3]; 3],
}

/// Table 4 + Table 5 rows from the evaluation matrix.
pub fn table4_rows(matrix: &[RunSummary]) -> Vec<CoverageRow> {
    let mut apps: Vec<String> = matrix.iter().map(|r| r.app.clone()).collect();
    apps.sort();
    apps.dedup();
    apps.into_iter()
        .map(|app| {
            let mut row = CoverageRow {
                app: app.clone(),
                coverage: [[0; 3]; 3],
                crashes: [[0; 3]; 3],
            };
            for (ti, tool) in ToolKind::ALL.into_iter().enumerate() {
                for (mi, mode) in EVAL_MODES.into_iter().enumerate() {
                    if let Some(r) = matrix_get(matrix, &app, tool, mode) {
                        row.coverage[ti][mi] = r.union_coverage;
                        row.crashes[ti][mi] = r.unique_crashes;
                    }
                }
            }
            row
        })
        .collect()
}

/// Alias for the crash view of the same rows (Table 5).
pub fn table5_rows(matrix: &[RunSummary]) -> Vec<CoverageRow> {
    table4_rows(matrix)
}

/// One row of Table 6.
#[derive(Debug, Clone)]
pub struct OverlapRow {
    /// App name.
    pub app: String,
    /// `[tool][mode]` average occurrences of distinct UIs.
    pub occurrences: [[f64; 3]; 3],
}

/// Table 6 rows from the evaluation matrix.
pub fn table6_rows(matrix: &[RunSummary]) -> Vec<OverlapRow> {
    let mut apps: Vec<String> = matrix.iter().map(|r| r.app.clone()).collect();
    apps.sort();
    apps.dedup();
    apps.into_iter()
        .map(|app| {
            let mut row = OverlapRow {
                app: app.clone(),
                occurrences: [[0.0; 3]; 3],
            };
            for (ti, tool) in ToolKind::ALL.into_iter().enumerate() {
                for (mi, mode) in EVAL_MODES.into_iter().enumerate() {
                    if let Some(r) = matrix_get(matrix, &app, tool, mode) {
                        row.occurrences[ti][mi] = r.avg_ui_occurrences;
                    }
                }
            }
            row
        })
        .collect()
}

/// One row of the RQ3/RQ4 savings analysis (Figs. 5 and 6).
#[derive(Debug, Clone)]
pub struct SavingsRow {
    /// App name.
    pub app: String,
    /// Tool.
    pub tool: ToolKind,
    /// Fraction of wall-clock duration saved by the duration mode.
    pub duration_saved_duration_mode: f64,
    /// Fraction of wall-clock duration saved by the resource mode.
    pub duration_saved_resource_mode: f64,
    /// Fraction of machine time saved by the duration mode.
    pub resource_saved_duration_mode: f64,
    /// Fraction of machine time saved by the resource mode.
    pub resource_saved_resource_mode: f64,
}

/// Figs. 5/6: for each app and tool, how much duration / machine time
/// TaOPT needs to reach the baseline's final coverage.
pub fn savings_rows(matrix: &[RunSummary], scale: &ExperimentScale) -> Vec<SavingsRow> {
    let mut rows = Vec::new();
    let mut apps: Vec<String> = matrix.iter().map(|r| r.app.clone()).collect();
    apps.sort();
    apps.dedup();
    for app in apps {
        for tool in ToolKind::ALL {
            let Some(base) = matrix_get(matrix, &app, tool, RunMode::Baseline) else {
                continue;
            };
            let target = base.union_coverage;
            let total_duration = scale.duration;
            let total_machine = base.machine_time;
            let mut row = SavingsRow {
                app: app.clone(),
                tool,
                duration_saved_duration_mode: 0.0,
                duration_saved_resource_mode: 0.0,
                resource_saved_duration_mode: 0.0,
                resource_saved_resource_mode: 0.0,
            };
            if let Some(dur) = matrix_get(matrix, &app, tool, RunMode::TaoptDuration) {
                let t = time_to_reach(&dur.union_curve, target).map(|t| t.since(VirtualTime::ZERO));
                row.duration_saved_duration_mode = saved_fraction(t, total_duration);
                let m = machine_time_to_reach(&dur.union_curve, target);
                row.resource_saved_duration_mode = saved_fraction(m, total_machine);
            }
            if let Some(res) = matrix_get(matrix, &app, tool, RunMode::TaoptResource) {
                let t = time_to_reach(&res.union_curve, target).map(|t| t.since(VirtualTime::ZERO));
                row.duration_saved_resource_mode = saved_fraction(t, total_duration);
                let m = machine_time_to_reach(&res.union_curve, target);
                row.resource_saved_resource_mode = saved_fraction(m, total_machine);
            }
            rows.push(row);
        }
    }
    rows
}

/// RQ5 behaviour preservation: Jaccard between the baseline's and TaOPT's
/// union covered sets, plus the fraction of baseline methods TaOPT missed.
#[derive(Debug, Clone)]
pub struct BehaviorRow {
    /// Tool.
    pub tool: ToolKind,
    /// Mode compared against baseline.
    pub mode: RunMode,
    /// Mean Jaccard(baseline, TaOPT) across apps.
    pub jaccard: f64,
    /// Mean fraction of baseline-covered methods missed by TaOPT.
    pub missed_fraction: f64,
}

/// Behaviour-preservation rows for both TaOPT modes.
pub fn behavior_rows(matrix: &[RunSummary]) -> Vec<BehaviorRow> {
    let mut rows = Vec::new();
    for tool in ToolKind::ALL {
        for mode in [RunMode::TaoptDuration, RunMode::TaoptResource] {
            let mut jacc = Vec::new();
            let mut missed = Vec::new();
            let mut apps: Vec<String> = matrix.iter().map(|r| r.app.clone()).collect();
            apps.sort();
            apps.dedup();
            for app in &apps {
                let (Some(base), Some(taopt)) = (
                    matrix_get(matrix, app, tool, RunMode::Baseline),
                    matrix_get(matrix, app, tool, mode),
                ) else {
                    continue;
                };
                jacc.push(jaccard(&base.union_covered, &taopt.union_covered));
                let missing = base.union_covered.difference(&taopt.union_covered).count();
                if !base.union_covered.is_empty() {
                    missed.push(missing as f64 / base.union_covered.len() as f64);
                }
            }
            if !jacc.is_empty() {
                rows.push(BehaviorRow {
                    tool,
                    mode,
                    jaccard: jacc.iter().sum::<f64>() / jacc.len() as f64,
                    missed_fraction: missed.iter().sum::<f64>() / missed.len().max(1) as f64,
                });
            }
        }
    }
    rows
}

/// Mean and (population) standard deviation of a sample.
fn mean_sd(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// One row of a multi-seed replication: the per-tool coverage gain of a
/// TaOPT mode over baseline, replicated across seeds.
#[derive(Debug, Clone)]
pub struct ReplicationRow {
    /// Tool.
    pub tool: ToolKind,
    /// Mode compared against baseline.
    pub mode: RunMode,
    /// Mean relative coverage gain across seeds.
    pub mean_gain: f64,
    /// Standard deviation of the gain across seeds.
    pub sd_gain: f64,
    /// Per-seed gains, in seed order.
    pub gains: Vec<f64>,
}

/// Replicates the headline coverage comparison across several seeds and
/// reports mean ± sd per (tool, mode) — the robustness check behind the
/// single-seed tables (each seed reruns the full matrix).
pub fn replicate_gains(
    apps: &[(String, Arc<App>)],
    scale: &ExperimentScale,
    seeds: &[u64],
) -> Vec<ReplicationRow> {
    let mut per_cell: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for seed in seeds {
        let matrix = evaluation_matrix(apps, scale, *seed);
        for (ti, tool) in ToolKind::ALL.into_iter().enumerate() {
            for (mi, mode) in [RunMode::TaoptDuration, RunMode::TaoptResource]
                .into_iter()
                .enumerate()
            {
                let mut base = 0usize;
                let mut taopt = 0usize;
                for (name, _) in apps {
                    base += matrix_get(&matrix, name, tool, RunMode::Baseline)
                        .map(|r| r.union_coverage)
                        .unwrap_or(0);
                    taopt += matrix_get(&matrix, name, tool, mode)
                        .map(|r| r.union_coverage)
                        .unwrap_or(0);
                }
                per_cell
                    .entry((ti, mi))
                    .or_default()
                    .push(taopt as f64 / base.max(1) as f64 - 1.0);
            }
        }
    }
    let mut rows = Vec::new();
    for ((ti, mi), gains) in per_cell {
        let (mean_gain, sd_gain) = mean_sd(&gains);
        rows.push(ReplicationRow {
            tool: ToolKind::ALL[ti],
            mode: [RunMode::TaoptDuration, RunMode::TaoptResource][mi],
            mean_gain,
            sd_gain,
            gains,
        });
    }
    rows
}

/// The RQ4 discussion's non-parallel control: one instance running for the
/// whole machine budget (`d_max × l_p`). Returns its final coverage.
pub fn non_parallel_control(
    app: Arc<App>,
    tool: ToolKind,
    scale: &ExperimentScale,
    seed: u64,
) -> usize {
    let mut cfg = scale.session_config(tool, RunMode::Baseline, seed);
    cfg.instances = 1;
    cfg.duration = scale.duration * scale.instances as u64;
    ParallelSession::run(app, &cfg).union_coverage()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_app_sim::{generate_app, GeneratorConfig};

    fn tiny_apps(n: usize) -> Vec<(String, Arc<App>)> {
        (0..n)
            .map(|i| {
                let name = format!("app{i}");
                let app =
                    Arc::new(generate_app(&GeneratorConfig::small(&name, i as u64 + 1)).unwrap());
                (name, app)
            })
            .collect()
    }

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            instances: 2,
            duration: VirtualDuration::from_mins(4),
            tick: VirtualDuration::from_secs(10),
            stall_timeout: VirtualDuration::from_secs(40),
            l_min_short: VirtualDuration::from_secs(30),
            l_min_long: VirtualDuration::from_secs(60),
            grid_points: 4,
        }
    }

    #[test]
    fn matrix_covers_all_cells() {
        let apps = tiny_apps(2);
        let matrix = evaluation_matrix(&apps, &tiny_scale(), 7);
        assert_eq!(matrix.len(), 2 * 3 * 3);
        for (name, _) in &apps {
            for tool in ToolKind::ALL {
                for mode in EVAL_MODES {
                    assert!(matrix_get(&matrix, name, tool, mode).is_some());
                }
            }
        }
    }

    #[test]
    fn fig3_rows_have_full_grids() {
        let apps = tiny_apps(1);
        let scale = tiny_scale();
        let matrix = evaluation_matrix(&apps, &scale, 3);
        let rows = fig3_rows(&matrix);
        assert_eq!(rows.len(), 3);
        for (_, curve) in rows {
            assert_eq!(curve.len(), scale.grid_points);
            for (_, ajs) in curve {
                assert!((0.0..=1.0).contains(&ajs));
            }
        }
    }

    #[test]
    fn table_rows_are_complete() {
        let apps = tiny_apps(1);
        let scale = tiny_scale();
        let matrix = evaluation_matrix(&apps, &scale, 5);
        assert_eq!(table4_rows(&matrix).len(), 1);
        assert_eq!(table6_rows(&matrix).len(), 1);
        let savings = savings_rows(&matrix, &scale);
        assert_eq!(savings.len(), 3);
        for s in &savings {
            for v in [
                s.duration_saved_duration_mode,
                s.duration_saved_resource_mode,
                s.resource_saved_duration_mode,
                s.resource_saved_resource_mode,
            ] {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        let behavior = behavior_rows(&matrix);
        assert_eq!(behavior.len(), 6);
        for b in behavior {
            assert!((0.0..=1.0).contains(&b.jaccard));
            assert!((0.0..=1.0).contains(&b.missed_fraction));
        }
    }

    #[test]
    fn table2_reports_baseline_and_partitioned() {
        let apps = tiny_apps(1);
        let rows = table2_rows(&apps, &tiny_scale(), 2);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].baseline > 0);
        assert!(rows[0].parallel > 0);
    }
}
