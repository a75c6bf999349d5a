//! One simulated emulator.

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taopt_telemetry::{BatchedCounter, Counter, Histogram, Labels};
use taopt_ui_model::{Action, ScreenObservation, VirtualDuration, VirtualTime};

use taopt_app_sim::{App, AppRuntime, AppSimError, MethodSet, StepOutcome};

use crate::clock::VirtualClock;
use crate::coverage::CoverageTracer;
use crate::logcat::CrashCollector;

/// Identifier of one device in the farm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Emulator timing/behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulatorConfig {
    /// Virtual time consumed by executing one tool action (event
    /// injection + app response + UI settle; roughly 1–2 s on real
    /// emulators).
    pub action_latency: VirtualDuration,
    /// Extra virtual time consumed when a crash restarts the app.
    pub crash_restart_latency: VirtualDuration,
    /// Probability that an injected event is *lost* (the tap lands but the
    /// app misses it — loaded devices and animation races do this on real
    /// hardware). A lost event consumes time and does nothing else.
    pub event_loss: f64,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        EmulatorConfig {
            action_latency: VirtualDuration::from_millis(1500),
            crash_restart_latency: VirtualDuration::from_secs(8),
            event_loss: 0.0,
        }
    }
}

/// One simulated testing device: app runtime + clock + tracer + crash
/// collector.
///
/// The runtime's covered-method bitset is the device's only covered set;
/// the [`CoverageTracer`] adds when each method was first covered.
#[derive(Debug, Clone)]
pub struct Emulator {
    id: DeviceId,
    config: EmulatorConfig,
    runtime: AppRuntime,
    clock: VirtualClock,
    coverage: CoverageTracer,
    crashes: CrashCollector,
    flake_rng: StdRng,
    /// This device's `emulator_actions_total`, published once per
    /// [`BATCH`](taopt_telemetry::BATCH) actions and when it is dropped.
    actions: BatchedCounter,
}

/// The device seam's handles into the global metrics registry, resolved
/// once per process.
#[derive(Debug)]
struct EmulatorMetrics {
    step_ns: Histogram,
    actions: Counter,
    crashes: Counter,
}

fn metrics() -> &'static EmulatorMetrics {
    static METRICS: OnceLock<EmulatorMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let t = taopt_telemetry::global();
        EmulatorMetrics {
            step_ns: t.histogram_labeled("emulator_step_ns", Labels::seam("device")),
            actions: t.counter_labeled("emulator_actions_total", Labels::seam("device")),
            crashes: t.counter_labeled("emulator_crashes_total", Labels::seam("device")),
        }
    })
}

impl Emulator {
    /// Boots a device, installs the app and runs the auto-login script if
    /// the app is gated (paper §6.1). What boot covers is the
    /// [`covered`](Self::covered) set it leaves; the tracer starts empty.
    pub fn boot(id: DeviceId, app: Arc<App>, seed: u64, start: VirtualTime) -> Self {
        Emulator::boot_with(id, app, seed, start, EmulatorConfig::default())
    }

    /// [`Emulator::boot`] with explicit timing configuration.
    pub fn boot_with(
        id: DeviceId,
        app: Arc<App>,
        seed: u64,
        start: VirtualTime,
        config: EmulatorConfig,
    ) -> Self {
        let mut runtime = AppRuntime::launch(app, seed);
        let mut clock = VirtualClock::starting_at(start);
        if runtime.auto_login(clock.now()).is_some() {
            clock.advance(config.action_latency);
        }
        Emulator {
            id,
            config,
            runtime,
            clock,
            coverage: CoverageTracer::new(),
            crashes: CrashCollector::new(),
            flake_rng: StdRng::seed_from_u64(seed ^ 0x00f1_a5e5),
            actions: BatchedCounter::new(&metrics().actions),
        }
    }

    /// Device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Current virtual time on this device.
    pub fn now(&self) -> VirtualTime {
        self.clock.now()
    }

    /// The running app.
    pub fn app(&self) -> &Arc<App> {
        self.runtime.app()
    }

    /// Observes the current screen (free; does not advance time).
    pub fn observe(&mut self) -> ScreenObservation {
        self.runtime.observe(self.clock.now())
    }

    /// Executes a tool action: advances the clock, records the step's
    /// newly covered methods at the clock after the step (crash-restart
    /// latency included), records any crash, and returns the step outcome.
    ///
    /// The action is tallied on the device, not in the shared counter,
    /// and only the action that completes a batch of
    /// [`BATCH`](taopt_telemetry::BATCH) is timed into `emulator_step_ns`,
    /// so the other actions read no clock and write nothing shared.
    ///
    /// # Errors
    ///
    /// Propagates [`AppSimError::ActionNotAvailable`] for widget actions
    /// the current screen does not define.
    pub fn execute(&mut self, action: Action) -> Result<StepOutcome<'_>, AppSimError> {
        let step_ns = &metrics().step_ns;
        let timer = if self.actions.add(1) {
            step_ns.timer()
        } else {
            None
        };
        self.clock.advance(self.config.action_latency);
        // Flaky event delivery: the event may be lost in flight.
        let action = if self.config.event_loss > 0.0
            && action.is_effective()
            && self.flake_rng.gen::<f64>() < self.config.event_loss
        {
            Action::Noop
        } else {
            action
        };
        let StepOutcome {
            observation,
            crash,
            transitioned,
            ..
        } = self.runtime.execute(action, self.clock.now())?;
        if let Some(sig) = crash {
            self.clock.advance(self.config.crash_restart_latency);
            self.crashes.record(self.clock.now(), sig);
            metrics().crashes.inc();
        }
        let newly_covered = self.runtime.newly_covered();
        self.coverage.record(self.clock.now(), newly_covered);
        step_ns.stop(timer);
        Ok(StepOutcome {
            observation,
            newly_covered,
            crash,
            transitioned,
        })
    }

    /// The methods covered so far, boot included.
    pub fn covered(&self) -> &MethodSet {
        self.runtime.covered_methods()
    }

    /// Coverage tracer: the time-stamped cover events since boot.
    pub fn coverage(&self) -> &CoverageTracer {
        &self.coverage
    }

    /// Crash collector.
    pub fn crashes(&self) -> &CrashCollector {
        &self.crashes
    }

    /// Consumes the device, returning what it collected: the covered
    /// methods, the coverage tracer and the crash collector.
    pub fn into_findings(self) -> (MethodSet, CoverageTracer, CrashCollector) {
        (
            self.runtime.into_covered_methods(),
            self.coverage,
            self.crashes,
        )
    }

    /// Number of distinct screens visited.
    pub fn distinct_screens(&self) -> usize {
        self.runtime.visited_screen_count()
    }

    /// Advances the clock without an action (idle wait).
    pub fn idle(&mut self, d: VirtualDuration) {
        self.clock.advance(d);
    }

    /// Launches a specific screen directly, as `am start` launches an
    /// activity by Intent (used by ParaAim-style activity partitioning).
    /// Costs app-restart latency; records arrival coverage at the clock
    /// after the jump.
    pub fn jump_to(&mut self, screen: taopt_ui_model::ScreenId) -> ScreenObservation {
        self.clock.advance(self.config.crash_restart_latency);
        let newly = self.runtime.jump_to(screen);
        self.coverage.record(self.clock.now(), newly);
        self.runtime.observe(self.clock.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_app_sim::{generate_app, GeneratorConfig};

    fn boot_small(login: bool) -> Emulator {
        let mut cfg = GeneratorConfig::small("emu", 42);
        cfg.login = login;
        let app = Arc::new(generate_app(&cfg).unwrap());
        Emulator::boot(DeviceId(0), app, 7, VirtualTime::ZERO)
    }

    #[test]
    fn boot_covers_startup_methods() {
        let e = boot_small(false);
        assert!(e.covered().len() >= 60, "startup pool covered");
        assert!(e.coverage().is_empty(), "boot coverage is not logged");
        assert_eq!(e.crashes().unique_crashes().len(), 0);
    }

    #[test]
    fn boot_auto_logs_in_gated_apps() {
        let mut e = boot_small(true);
        let obs = e.observe();
        // After auto-login the device is on the hub, which has tab actions.
        assert!(obs.enabled_actions().len() > 2);
        // The login script costs one action; an ungated app boots at once.
        let latency = EmulatorConfig::default().action_latency;
        assert_eq!(e.now(), VirtualTime::ZERO + latency);
        assert_eq!(boot_small(false).now(), VirtualTime::ZERO);
    }

    #[test]
    fn execute_advances_clock_and_coverage() {
        let mut e = boot_small(false);
        let before_cov = e.covered().len();
        let before_t = e.now();
        let (aid, _) = e.observe().enabled_actions()[0];
        let newly = e.execute(Action::Widget(aid)).unwrap().newly_covered.len();
        assert!(e.now() > before_t);
        assert_eq!(e.covered().len(), before_cov + newly);
        assert_eq!(e.coverage().len(), newly);
        assert!(e.coverage().events().iter().all(|(t, _)| *t == e.now()));
    }

    #[test]
    fn event_loss_slows_but_does_not_break_testing() {
        let cfg = GeneratorConfig::small("flaky", 1);
        let app = Arc::new(generate_app(&cfg).unwrap());
        let run = |loss: f64, seed: u64| {
            let mut e = Emulator::boot_with(
                DeviceId(0),
                Arc::clone(&app),
                9,
                VirtualTime::ZERO,
                EmulatorConfig {
                    event_loss: loss,
                    ..EmulatorConfig::default()
                },
            );
            use rand::seq::SliceRandom;
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..400 {
                let obs = e.observe();
                let actions = obs.enabled_actions();
                let a = actions
                    .choose(&mut rng)
                    .map(|(id, _)| Action::Widget(*id))
                    .unwrap_or(Action::Back);
                e.execute(a).unwrap();
            }
            e.covered().len()
        };
        // A single walk is noisy (losing events perturbs the whole
        // trajectory), so compare aggregates across seeds.
        let clean: usize = (0..6).map(|s| run(0.0, s)).sum();
        let flaky: usize = (0..6).map(|s| run(0.5, s)).sum();
        assert!(flaky > 0, "flaky device still makes progress");
        assert!(
            flaky < clean,
            "losing half the events cannot help on aggregate"
        );
    }

    #[test]
    fn idle_only_moves_time() {
        let mut e = boot_small(false);
        let cov = e.covered().len();
        e.idle(VirtualDuration::from_secs(30));
        assert_eq!(e.covered().len(), cov);
        assert_eq!(e.now(), VirtualTime::from_secs(30));
    }
}
