//! End-to-end parallel testing sessions (§5.1, §6.1).
//!
//! A [`ParallelSession`] is one app explored by `d_max` coordinated
//! instances: the device farm, emulators, black-box tools, the Toller
//! shim and the TaOPT coordinator advanced in lock-step virtual-time
//! rounds. It is run as a one-app campaign ([`crate::campaign`]), so the
//! campaign scheduler is the only round driver. This module holds the
//! session's configuration and result types. Five run modes cover the
//! paper's settings and its baselines:
//!
//! * [`RunMode::Baseline`] — uncoordinated parallelism: `d_max` instances
//!   with different seeds, no interference (the §3.1/§6.1 baseline);
//! * [`RunMode::TaoptDuration`] — TaOPT duration-constrained: `d_max`
//!   concurrent instances maintained for `l_p`, stalled instances replaced
//!   immediately;
//! * [`RunMode::TaoptResource`] — TaOPT resource-constrained: starts with
//!   one instance, grows on subspace discovery, bounded by a machine-time
//!   budget;
//! * [`RunMode::ActivityPartition`] — the ParaAim-style baseline of §3.3:
//!   activities are statically assigned round-robin; widgets leading to
//!   foreign activities are blocked, and stalled instances jump to an
//!   owned activity by Intent;
//! * [`RunMode::PatsMasterSlave`] — PATS-style master–slave dispatch
//!   (related work, §9).

use std::collections::BTreeSet;
use std::sync::Arc;

use taopt_app_sim::{App, CrashSignature, MethodId, MethodSet};
use taopt_toller::InstanceId;
use taopt_tools::ToolKind;
use taopt_ui_model::{Trace, VirtualDuration, VirtualTime};

use crate::analyzer::{AnalyzerConfig, SubspaceInfo};
use crate::campaign::{run_campaign, CampaignApp, CampaignConfig};
use crate::coordinator::CoordinatorEvent;
use crate::metrics::curves::CurvePoint;

/// The four parallel-run settings of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunMode {
    /// Uncoordinated parallel testing (different seeds only).
    Baseline,
    /// TaOPT, duration-constrained mode.
    TaoptDuration,
    /// TaOPT, resource-constrained mode.
    TaoptResource,
    /// ParaAim-style activity-granularity partitioning (§3.3).
    ActivityPartition,
    /// PATS-style master–slave dispatch (related work, §9): the master
    /// explores freely; each newly discovered screen is dispatched to a
    /// slave, which jumps there by Intent and explores locally. The paper
    /// notes this "is highly susceptible to overlapping explorations,
    /// mainly due to many UI transitions being bidirectional".
    PatsMasterSlave,
}

impl RunMode {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RunMode::Baseline => "Baseline",
            RunMode::TaoptDuration => "TaOPT(Duration)",
            RunMode::TaoptResource => "TaOPT(Resource)",
            RunMode::ActivityPartition => "ActivityPartition",
            RunMode::PatsMasterSlave => "PATS(MasterSlave)",
        }
    }

    /// Whether this mode runs the TaOPT coordinator.
    pub fn uses_taopt(&self) -> bool {
        matches!(self, RunMode::TaoptDuration | RunMode::TaoptResource)
    }
}

/// Configuration of one parallel session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The black-box tool under coordination.
    pub tool: ToolKind,
    /// The run mode.
    pub mode: RunMode,
    /// `d_max`: maximum concurrent instances (the paper uses 5).
    pub instances: usize,
    /// `l_p`: the wall-clock budget of duration-bounded modes (1 h in the
    /// paper).
    pub duration: VirtualDuration,
    /// Machine-time budget of the resource-constrained mode; defaults to
    /// `instances × duration` (= 5 machine hours in the paper).
    pub machine_budget: Option<VirtualDuration>,
    /// Base random seed; instance `i` uses `seed + i`-derived streams.
    pub seed: u64,
    /// Lock-step round length.
    pub tick: VirtualDuration,
    /// Stall timeout before deallocation (1 min in the paper).
    pub stall_timeout: VirtualDuration,
    /// Analyzer parameters; defaults depend on the mode.
    pub analyzer: AnalyzerConfig,
    /// Emulator timing and flakiness knobs for every device.
    pub emulator: taopt_device::EmulatorConfig,
    /// Learned analyzer state from a previous version's campaign. When
    /// set (and the mode runs the TaOPT coordinator), the analyzer boots
    /// seeded with it instead of cold; see [`crate::warmstart`].
    pub warm_start: Option<Arc<crate::warmstart::WarmStart>>,
    /// Capture a [`crate::warmstart::WarmStart`] bundle when the session
    /// finishes (TaOPT modes only), surfaced through
    /// `SessionFinish::warm` / `AppReport::warm`.
    pub capture_warm_start: bool,
}

impl SessionConfig {
    /// The paper's defaults for the given tool and mode
    /// (`d_max = 5`, `l_p = 1 h`, budget `5` machine-hours).
    pub fn new(tool: ToolKind, mode: RunMode) -> Self {
        let analyzer = match mode {
            RunMode::TaoptResource => AnalyzerConfig::resource_mode(),
            _ => AnalyzerConfig::duration_mode(),
        };
        SessionConfig {
            tool,
            mode,
            instances: 5,
            duration: VirtualDuration::from_hours(1),
            machine_budget: None,
            seed: 0,
            tick: VirtualDuration::from_secs(10),
            stall_timeout: VirtualDuration::from_mins(3),
            analyzer,
            emulator: taopt_device::EmulatorConfig::default(),
            warm_start: None,
            capture_warm_start: false,
        }
    }

    /// The effective machine budget.
    pub fn effective_budget(&self) -> VirtualDuration {
        self.machine_budget
            .unwrap_or(self.duration * self.instances as u64)
    }
}

/// Per-instance results of a session.
///
/// The instance's cover events are its boot set, all at `allocated_at`,
/// followed by its post-boot log; [`cover_events`](Self::cover_events)
/// yields them as one sequence, and `Debug` prints them as one list.
#[derive(Clone)]
pub struct InstanceResult {
    /// Instance id.
    pub instance: InstanceId,
    /// Allocation time.
    pub allocated_at: VirtualTime,
    /// Deallocation time.
    pub deallocated_at: VirtualTime,
    /// Methods covered by this instance.
    pub covered: MethodSet,
    /// Methods covered at boot (startup, start screen, auto-login), in
    /// ascending id order. Every instance of a session whose boot covered
    /// the same set shares one allocation.
    pub boot_covered: Arc<[MethodId]>,
    /// Time-stamped cover events after boot, in order.
    pub cover_log: Vec<(VirtualTime, MethodId)>,
    /// Unique crashes triggered on this instance.
    pub crashes: BTreeSet<CrashSignature>,
    /// Every crash occurrence (time, signature) on this instance.
    pub crash_occurrences: Vec<(VirtualTime, CrashSignature)>,
    /// The device the instance ran on.
    pub device: taopt_device::DeviceId,
    /// The instance's UI transition trace.
    pub trace: Trace,
}

impl InstanceResult {
    /// Every time-stamped cover event of the instance, boot first (for
    /// overlap-over-time analyses). Each covered method appears once.
    pub fn cover_events(&self) -> impl Iterator<Item = (VirtualTime, MethodId)> + '_ {
        let boot = self.boot_covered.iter().map(|&m| (self.allocated_at, m));
        boot.chain(self.cover_log.iter().copied())
    }

    /// Number of [`cover_events`](Self::cover_events).
    pub fn cover_event_count(&self) -> usize {
        self.boot_covered.len() + self.cover_log.len()
    }
}

impl std::fmt::Debug for InstanceResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Events<'a>(&'a InstanceResult);
        impl std::fmt::Debug for Events<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.cover_events()).finish()
            }
        }
        f.debug_struct("InstanceResult")
            .field("instance", &self.instance)
            .field("allocated_at", &self.allocated_at)
            .field("deallocated_at", &self.deallocated_at)
            .field("covered", &self.covered)
            .field("cover_events", &Events(self))
            .field("crashes", &self.crashes)
            .field("crash_occurrences", &self.crash_occurrences)
            .field("device", &self.device)
            .field("trace", &self.trace)
            .finish()
    }
}

/// The complete outcome of one parallel session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The tool used.
    pub tool: ToolKind,
    /// The run mode.
    pub mode: RunMode,
    /// Per-instance results (in allocation order).
    pub instances: Vec<InstanceResult>,
    /// Cumulative union coverage over global time.
    pub union_curve: Vec<CurvePoint>,
    /// Total machine time consumed.
    pub machine_time: VirtualDuration,
    /// Wall-clock length of the session.
    pub wall_clock: VirtualDuration,
    /// Subspaces identified (TaOPT modes; empty otherwise).
    pub subspaces: Vec<SubspaceInfo>,
    /// Coordinator decision log (TaOPT modes).
    pub coordinator_events: Vec<CoordinatorEvent>,
    /// Concurrency over time: (round boundary, active instances).
    pub concurrency_timeline: Vec<(VirtualTime, usize)>,
}

impl SessionResult {
    /// Union method coverage across instances.
    pub fn union_coverage(&self) -> usize {
        self.union_curve.last().map(|p| p.covered).unwrap_or(0)
    }

    /// Union of unique crashes across instances.
    pub fn unique_crashes(&self) -> BTreeSet<CrashSignature> {
        self.instances
            .iter()
            .flat_map(|i| i.crashes.iter().copied())
            .collect()
    }

    /// Union covered-method set.
    pub fn union_covered(&self) -> MethodSet {
        let mut union = MethodSet::default();
        for i in &self.instances {
            union.extend(i.covered.iter());
        }
        union
    }

    /// Traces of all instances.
    pub fn traces(&self) -> Vec<&Trace> {
        self.instances.iter().map(|i| &i.trace).collect()
    }

    /// Peak concurrency reached during the session.
    pub fn peak_concurrency(&self) -> usize {
        self.concurrency_timeline
            .iter()
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(0)
    }
}

/// Runs parallel testing sessions.
#[derive(Debug)]
pub struct ParallelSession;

impl ParallelSession {
    /// Runs a session to completion and returns its results.
    ///
    /// The run is fully deterministic given `config.seed`. A session is a
    /// one-app campaign ([`run_campaign`]) with a default
    /// [`CampaignConfig`]: the farm's capacity is the app's `d_max`, so
    /// every demand is granted at once, and no fault plan is set, so no
    /// seam consults a fault injector. Orphan repair is on, as in every
    /// campaign: a confirmed subspace whose owners all retired in one
    /// round is re-dedicated to a survivor instead of being stranded.
    ///
    /// Panics if `config.instances` is 0.
    pub fn run(app: Arc<App>, config: &SessionConfig) -> SessionResult {
        let one = CampaignApp {
            name: app.name().to_owned(),
            app,
            config: config.clone(),
        };
        let mut result = run_campaign(vec![one], &CampaignConfig::default());
        result
            .apps
            .pop()
            .expect("a campaign reports every app")
            .session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_app_sim::{generate_app, GeneratorConfig};

    fn small_app(seed: u64) -> Arc<App> {
        Arc::new(generate_app(&GeneratorConfig::small("sess", seed)).unwrap())
    }

    fn quick(tool: ToolKind, mode: RunMode) -> SessionConfig {
        let mut c = SessionConfig::new(tool, mode);
        c.instances = 3;
        c.duration = VirtualDuration::from_mins(8);
        c.tick = VirtualDuration::from_secs(10);
        c.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
        c.analyzer.analysis_interval = VirtualDuration::from_secs(20);
        c
    }

    #[test]
    fn baseline_runs_fixed_instances_for_the_duration() {
        let r = ParallelSession::run(small_app(1), &quick(ToolKind::Monkey, RunMode::Baseline));
        assert_eq!(r.instances.len(), 3);
        assert!(r.union_coverage() > 0);
        assert!(r.subspaces.is_empty());
        // Machine time ≈ 3 × 8 min.
        let expect = VirtualDuration::from_mins(24);
        let diff = r.machine_time.as_secs().abs_diff(expect.as_secs());
        assert!(diff < 120, "machine time {} vs {}", r.machine_time, expect);
    }

    #[test]
    fn taopt_duration_finds_and_dedicates_subspaces() {
        let r = ParallelSession::run(small_app(2), &quick(ToolKind::Ape, RunMode::TaoptDuration));
        assert!(
            r.subspaces.iter().any(|s| s.confirmed),
            "expected confirmed subspaces, got {:?}",
            r.subspaces.len()
        );
        assert!(
            r.coordinator_events
                .iter()
                .any(|e| matches!(e, CoordinatorEvent::SubspaceDedicated { .. })),
            "dedication events expected"
        );
    }

    #[test]
    fn taopt_resource_respects_budget() {
        let mut cfg = quick(ToolKind::Monkey, RunMode::TaoptResource);
        cfg.machine_budget = Some(VirtualDuration::from_mins(15));
        let r = ParallelSession::run(small_app(3), &cfg);
        // Budget may be exceeded by at most one tick × instances.
        assert!(
            r.machine_time.as_secs() <= 15 * 60 + 3 * 10 + 60,
            "machine time {} exceeds budget",
            r.machine_time
        );
        assert!(r.union_coverage() > 0);
    }

    #[test]
    fn activity_partition_blocks_cross_activity_widgets() {
        let r = ParallelSession::run(
            small_app(4),
            &quick(ToolKind::WcTester, RunMode::ActivityPartition),
        );
        assert_eq!(r.instances.len(), 3);
        assert!(r.union_coverage() > 0);
    }

    #[test]
    fn sessions_are_deterministic() {
        let cfg = quick(ToolKind::Monkey, RunMode::TaoptDuration);
        let a = ParallelSession::run(small_app(5), &cfg);
        let b = ParallelSession::run(small_app(5), &cfg);
        assert_eq!(a.union_coverage(), b.union_coverage());
        assert_eq!(a.unique_crashes(), b.unique_crashes());
        assert_eq!(a.machine_time, b.machine_time);
        assert_eq!(a.subspaces.len(), b.subspaces.len());
    }

    #[test]
    fn union_curve_is_monotone() {
        let r = ParallelSession::run(small_app(6), &quick(ToolKind::Ape, RunMode::Baseline));
        assert!(r
            .union_curve
            .windows(2)
            .all(|w| w[0].covered < w[1].covered && w[0].time <= w[1].time));
    }

    #[test]
    fn flaky_devices_still_complete_sessions() {
        let mut cfg = quick(ToolKind::Ape, RunMode::TaoptDuration);
        cfg.emulator.event_loss = 0.25;
        let flaky = ParallelSession::run(small_app(12), &cfg);
        assert!(flaky.union_coverage() > 0);
        let mut clean_cfg = quick(ToolKind::Ape, RunMode::TaoptDuration);
        clean_cfg.emulator.event_loss = 0.0;
        let clean = ParallelSession::run(small_app(12), &clean_cfg);
        assert!(
            flaky.union_coverage() <= clean.union_coverage(),
            "losing events cannot increase coverage: {} vs {}",
            flaky.union_coverage(),
            clean.union_coverage()
        );
    }

    #[test]
    fn concurrency_timeline_is_bounded_by_dmax() {
        let cfg = quick(ToolKind::Monkey, RunMode::TaoptResource);
        let r = ParallelSession::run(small_app(9), &cfg);
        assert!(!r.concurrency_timeline.is_empty());
        assert!(r.peak_concurrency() <= cfg.instances);
        // Resource mode starts with a single instance.
        assert_eq!(r.concurrency_timeline[0].1, 1);
    }

    #[test]
    fn every_cover_event_reaches_the_union_in_every_mode() {
        // Paper-default sessions: long enough for stalled instances to
        // jump by Intent in the partition and master-slave modes.
        let app = Arc::new(generate_app(&GeneratorConfig::small("j", 3)).unwrap());
        for mode in [
            RunMode::Baseline,
            RunMode::TaoptDuration,
            RunMode::TaoptResource,
            RunMode::ActivityPartition,
            RunMode::PatsMasterSlave,
        ] {
            let r = ParallelSession::run(
                Arc::clone(&app),
                &SessionConfig::new(ToolKind::Monkey, mode),
            );
            assert_eq!(r.union_coverage(), r.union_covered().len(), "{mode:?}");
            for i in &r.instances {
                assert_eq!(i.cover_event_count(), i.covered.len(), "{mode:?}");
                let mut from_events = MethodSet::default();
                from_events.extend(i.cover_events().map(|(_, m)| m));
                assert_eq!(from_events.len(), i.covered.len(), "{mode:?}");
                assert_eq!(from_events.intersection_len(&i.covered), i.covered.len());
            }
        }
    }

    #[test]
    fn never_exceeds_dmax() {
        // Indirect check: machine time can never exceed d_max × wall clock.
        let cfg = quick(ToolKind::Monkey, RunMode::TaoptDuration);
        let r = ParallelSession::run(small_app(7), &cfg);
        let cap = r.wall_clock * cfg.instances as u64;
        assert!(
            r.machine_time.as_millis() <= cap.as_millis() + 60_000,
            "machine {} vs cap {}",
            r.machine_time,
            cap
        );
    }
}

#[cfg(test)]
mod pats_tests {
    use super::*;
    use taopt_app_sim::{generate_app, GeneratorConfig};

    #[test]
    fn pats_mode_runs_and_dispatches() {
        let app = Arc::new(generate_app(&GeneratorConfig::small("pats", 4)).unwrap());
        let mut cfg = SessionConfig::new(ToolKind::Monkey, RunMode::PatsMasterSlave);
        cfg.instances = 3;
        cfg.duration = VirtualDuration::from_mins(8);
        cfg.stall_timeout = VirtualDuration::from_secs(60);
        let r = ParallelSession::run(app, &cfg);
        assert_eq!(r.instances.len(), 3);
        assert!(r.union_coverage() > 0);
        // Slaves received Intent jumps: their traces contain action-less
        // observations beyond the initial one.
        let slave_jumps: usize = r
            .instances
            .iter()
            .filter(|i| i.instance.0 != 0)
            .map(|i| {
                i.trace
                    .events()
                    .iter()
                    .filter(|e| e.action.is_none())
                    .count()
            })
            .sum();
        assert!(slave_jumps > 2, "expected dispatches, saw {slave_jumps}");
    }

    #[test]
    fn pats_is_deterministic() {
        let app = Arc::new(generate_app(&GeneratorConfig::small("pats", 5)).unwrap());
        let mut cfg = SessionConfig::new(ToolKind::Ape, RunMode::PatsMasterSlave);
        cfg.instances = 3;
        cfg.duration = VirtualDuration::from_mins(6);
        let a = ParallelSession::run(Arc::clone(&app), &cfg);
        let b = ParallelSession::run(app, &cfg);
        assert_eq!(a.union_coverage(), b.union_coverage());
    }
}
