//! One instrumented testing instance.

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use taopt_app_sim::{App, CrashSignature, MethodId, MethodSet, StepOutcome};
use taopt_device::{CrashCollector, DeviceId, Emulator};
use taopt_telemetry::{BatchedCounter, Counter, Labels};
use taopt_tools::TestingTool;
use taopt_ui_model::{ScreenObservation, UiHierarchy, VirtualTime};

use crate::enforce::{shared_block_list, SharedBlockList};
use crate::monitor::TransitionMonitor;

/// Identifier of a testing instance within a parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId(pub u32);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

/// The outcome of one instrumented tool step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Device time after the step.
    pub time: VirtualTime,
    /// Crash fired by the step, if any.
    pub crash: Option<CrashSignature>,
    /// Whether a *new* distinct screen was reached (stall detection).
    pub new_screen: bool,
    /// How many widgets enforcement disabled before the tool observed.
    pub widgets_blocked: usize,
    /// The step's cover events (methods covered for the first time by
    /// this instance, stamped with `time`), as a range into
    /// [`InstrumentedInstance::cover_log`].
    pub newly_covered: Range<usize>,
}

/// What a retired instance leaves behind.
#[derive(Debug)]
pub struct Findings {
    /// The UI transition trace.
    pub trace: taopt_ui_model::Trace,
    /// Every method the instance covered, boot included.
    pub covered: MethodSet,
    /// The time-stamped cover events after boot, in order.
    pub cover_log: Vec<(VirtualTime, MethodId)>,
    /// The crashes the device collected.
    pub crashes: CrashCollector,
}

/// One page as this instance's rules leave it.
#[derive(Debug)]
struct EnforcedPage {
    /// The page as observed (an app's shared template). Holding it keeps
    /// its tree alive, so a tree match is never a reused address.
    page: UiHierarchy,
    enforced: UiHierarchy,
    widgets_blocked: usize,
}

/// The enforced pages of one rule-set generation: a blocked page is
/// copied once per instance and rule set, not once per observation.
#[derive(Debug, Default)]
struct EnforcementMemo {
    generation: u64,
    pages: Vec<EnforcedPage>,
}

/// `enforcement_widgets_disabled_total`, resolved once per process.
fn widgets_disabled_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        taopt_telemetry::global().counter_labeled(
            "enforcement_widgets_disabled_total",
            Labels::seam("enforce"),
        )
    })
}

/// One testing instance: emulator + black-box tool + Toller monitor +
/// shared block list, advanced one tool action at a time.
///
/// The step loop reproduces TaOPT's interposition exactly: *observe →
/// enforce (disable blocked entrypoints) → let the tool pick → execute →
/// monitor the transition*. The tool never sees a blocked widget, and
/// TaOPT never sees the tool's internals.
pub struct InstrumentedInstance {
    id: InstanceId,
    emulator: Emulator,
    tool: Box<dyn TestingTool>,
    monitor: TransitionMonitor,
    blocklist: SharedBlockList,
    memo: EnforcementMemo,
    /// This instance's `enforcement_widgets_disabled_total`, published
    /// once per [`BATCH`](taopt_telemetry::BATCH) enforced observations
    /// and when the instance is dropped.
    widgets_disabled: BatchedCounter,
    distinct_screens: usize,
    last_obs: Option<ScreenObservation>,
}

impl fmt::Debug for InstrumentedInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstrumentedInstance")
            .field("id", &self.id)
            .field("device", &self.emulator.id())
            .field("tool", &self.tool.name())
            .field("trace_len", &self.monitor.trace().len())
            .finish()
    }
}

impl InstrumentedInstance {
    /// Boots an instance: device + tool + empty trace + fresh block list.
    pub fn boot(
        id: InstanceId,
        device: DeviceId,
        app: Arc<App>,
        tool: Box<dyn TestingTool>,
        seed: u64,
        start: VirtualTime,
    ) -> Self {
        Self::boot_with(
            id,
            device,
            app,
            tool,
            seed,
            start,
            taopt_device::EmulatorConfig::default(),
        )
    }

    /// [`InstrumentedInstance::boot`] with explicit emulator timing and
    /// flakiness configuration.
    pub fn boot_with(
        id: InstanceId,
        device: DeviceId,
        app: Arc<App>,
        tool: Box<dyn TestingTool>,
        seed: u64,
        start: VirtualTime,
        emulator_config: taopt_device::EmulatorConfig,
    ) -> Self {
        let emulator = Emulator::boot_with(device, app, seed, start, emulator_config);
        let mut inst = InstrumentedInstance {
            id,
            emulator,
            tool,
            monitor: TransitionMonitor::new(id),
            blocklist: shared_block_list(),
            memo: EnforcementMemo::default(),
            widgets_disabled: BatchedCounter::new(widgets_disabled_counter()),
            distinct_screens: 0,
            last_obs: None,
        };
        // Record the initial screen (after auto-login, if any).
        let mut obs = inst.emulator.observe();
        inst.enforce(&mut obs);
        inst.monitor.record(None, None, &obs);
        inst.distinct_screens = inst.emulator.distinct_screens();
        inst.last_obs = Some(obs);
        inst
    }

    /// Instance id.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The emulator (coverage, crashes, clock).
    pub fn emulator(&self) -> &Emulator {
        &self.emulator
    }

    /// Mutable emulator access (used by partition baselines to jump
    /// between activities via Intents).
    pub fn emulator_mut(&mut self) -> &mut Emulator {
        &mut self.emulator
    }

    /// The shared block list handle (held by the coordinator too).
    pub fn blocklist(&self) -> SharedBlockList {
        Arc::clone(&self.blocklist)
    }

    /// The UI transition trace so far.
    pub fn trace(&self) -> &taopt_ui_model::Trace {
        self.monitor.trace()
    }

    /// The time-stamped cover events since boot, in order: every
    /// method this instance covered after boot, by a step or a jump.
    pub fn cover_log(&self) -> &[(VirtualTime, MethodId)] {
        self.emulator.coverage().events()
    }

    /// Consumes a retired instance, moving out what it leaves behind.
    pub fn into_findings(self) -> Findings {
        let (covered, coverage, crashes) = self.emulator.into_findings();
        Findings {
            trace: self.monitor.into_trace(),
            covered,
            cover_log: coverage.into_events(),
            crashes,
        }
    }

    /// The tool's name.
    pub fn tool_name(&self) -> &'static str {
        self.tool.name()
    }

    /// Current device time.
    pub fn now(&self) -> VirtualTime {
        self.emulator.now()
    }

    /// Runs one tool step.
    pub fn step(&mut self) -> StepReport {
        let prev = self
            .last_obs
            .take()
            .unwrap_or_else(|| self.emulator.observe());
        let action = self.tool.next_action(&prev);
        let logged = self.emulator.coverage().len();
        let StepOutcome {
            observation: mut obs,
            crash,
            ..
        } = self
            .emulator
            .execute(action)
            .expect("tools only fire actions offered by the observation");
        // Enforce on the *next* observation before the tool sees it.
        let widgets_blocked = self.enforce(&mut obs);
        self.tool.on_transition(prev.abstract_id(), action, &obs);
        if crash.is_some() {
            self.tool.on_crash();
        }
        self.monitor.record(Some(&prev), Some(action), &obs);
        let screens = self.emulator.distinct_screens();
        let new_screen = screens > self.distinct_screens;
        self.distinct_screens = screens;
        let report = StepReport {
            time: self.emulator.now(),
            crash,
            new_screen,
            widgets_blocked,
            newly_covered: logged..self.emulator.coverage().len(),
        };
        self.last_obs = Some(obs);
        report
    }

    /// Launches a screen directly by Intent (ParaAim-style activity
    /// partitioning); the jump is recorded in the trace as an
    /// action-less observation, and its arrival coverage in the
    /// [`cover_log`](Self::cover_log).
    pub fn jump_to(&mut self, screen: taopt_ui_model::ScreenId) {
        let mut obs = self.emulator.jump_to(screen);
        self.enforce(&mut obs);
        self.monitor.record(None, None, &obs);
        self.distinct_screens = self.emulator.distinct_screens();
        self.last_obs = Some(obs);
    }

    /// Disables the blocked entrypoints on `obs` before anyone sees it;
    /// returns how many widgets that disabled.
    ///
    /// The outcome for a page is a function of the page and the rule set,
    /// so it is computed once per generation of the block list and then
    /// shared: a repeat observation of a blocked page swaps in the
    /// enforced copy, and one of a page no rule targets is left alone.
    /// A `block` or `unblock` moves the generation, so it is in force
    /// from the very next observation.
    fn enforce(&mut self, obs: &mut ScreenObservation) -> usize {
        let rules = self.blocklist.read();
        if rules.generation() != self.memo.generation {
            self.memo.generation = rules.generation();
            self.memo.pages.clear();
        }
        if !rules.targets(obs.abstract_id()) {
            return 0;
        }
        let page = &obs.hierarchy;
        let n = match self.memo.pages.iter().find(|e| e.page.shares_tree(page)) {
            Some(e) => {
                obs.hierarchy = e.enforced.clone();
                e.widgets_blocked
            }
            None => {
                let page = obs.hierarchy.clone();
                let n = rules.apply(obs.abstract_id(), &mut obs.hierarchy);
                self.memo.pages.push(EnforcedPage {
                    page,
                    enforced: obs.hierarchy.clone(),
                    widgets_blocked: n,
                });
                n
            }
        };
        self.widgets_disabled.add(n as u64);
        n
    }

    /// Runs steps until the device clock reaches `deadline`.
    pub fn run_until(&mut self, deadline: VirtualTime) {
        while self.emulator.now() < deadline {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_app_sim::{generate_app, GeneratorConfig};
    use taopt_tools::ToolKind;
    use taopt_ui_model::VirtualDuration;

    fn boot(tool: ToolKind, seed: u64) -> InstrumentedInstance {
        let app = Arc::new(generate_app(&GeneratorConfig::small("inst", 5)).unwrap());
        InstrumentedInstance::boot(
            InstanceId(0),
            DeviceId(0),
            app,
            tool.build(seed),
            seed,
            VirtualTime::ZERO,
        )
    }

    #[test]
    fn stepping_builds_a_trace_and_advances_time() {
        let mut inst = boot(ToolKind::Monkey, 1);
        for _ in 0..50 {
            inst.step();
        }
        assert_eq!(inst.trace().len(), 51, "initial + 50 step events");
        assert!(inst.now() > VirtualTime::ZERO);
        assert!(!inst.emulator().covered().is_empty());
    }

    #[test]
    fn steps_and_jumps_log_their_first_covers() {
        let mut inst = boot(ToolKind::Monkey, 4);
        let at_boot = inst.emulator().covered().len();
        assert!(inst.cover_log().is_empty(), "boot coverage is not logged");
        for _ in 0..200 {
            let r = inst.step();
            assert_eq!(r.newly_covered.end, inst.cover_log().len());
            let events = &inst.cover_log()[r.newly_covered.clone()];
            assert!(events.iter().all(|(t, _)| *t == r.time));
        }
        // A jump's arrival coverage lands in the log at the jump's time.
        let seen: std::collections::BTreeSet<_> =
            inst.trace().events().iter().map(|e| e.screen).collect();
        let target = inst
            .emulator()
            .app()
            .screens()
            .find(|s| !seen.contains(&s.id) && !s.methods.is_empty())
            .map(|s| s.id)
            .expect("an unvisited screen with methods");
        let logged = inst.cover_log().len();
        inst.jump_to(target);
        let jumped = &inst.cover_log()[logged..];
        assert!(!jumped.is_empty());
        assert!(jumped.iter().all(|(t, _)| *t == inst.now()));
        let covered = inst.emulator().covered().len();
        assert_eq!(at_boot + inst.cover_log().len(), covered);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut inst = boot(ToolKind::Ape, 2);
        let deadline = VirtualTime::ZERO + VirtualDuration::from_mins(2);
        inst.run_until(deadline);
        assert!(inst.now() >= deadline);
        // One action is 1.5 s, so ~80 steps in 2 minutes.
        let len = inst.trace().len();
        assert!((60..=120).contains(&len), "trace len {len}");
    }

    #[test]
    fn blocking_an_entrypoint_stops_subspace_entry() {
        use crate::enforce::EntrypointRule;
        // Boot, find the hub observation and one tab widget.
        let mut inst = boot(ToolKind::Monkey, 3);
        let hub_obs = inst.emulator_mut().observe();
        let hub_abs = hub_obs.abstract_id();
        // Identify a tab widget rid from the hierarchy.
        let tab_rid = {
            let mut rid = None;
            hub_obs.hierarchy.root().visit(&mut |w| {
                if rid.is_none() {
                    if let Some(r) = &w.resource_id {
                        if r.starts_with("tab_") {
                            rid = Some(r.clone());
                        }
                    }
                }
            });
            rid.expect("hub has tab widgets")
        };
        inst.blocklist()
            .write()
            .block(EntrypointRule::new(hub_abs, tab_rid.clone()));
        // Drive; whenever we are on the hub, the blocked tab must be gone.
        let mut blocked_seen = 0;
        for _ in 0..400 {
            let r = inst.step();
            blocked_seen += r.widgets_blocked;
        }
        assert!(blocked_seen > 0, "enforcement fired at least once");
        // The tool can never fire the blocked tab: check the trace.
        let fired = inst
            .trace()
            .events()
            .iter()
            .any(|e| e.action_widget_rid.as_deref() == Some(tab_rid.as_str()));
        assert!(!fired, "blocked widget must never be actioned");
    }

    #[test]
    fn enforced_pages_are_shared_until_the_rules_change() {
        use crate::enforce::EntrypointRule;
        use taopt_tools::{ScriptStep, Scripted};
        use taopt_ui_model::Action;
        let app = Arc::new(generate_app(&GeneratorConfig::small("memo", 5)).unwrap());
        // Back on the start screen stays there: every step observes it.
        let stay = |seed: u32| {
            let tool = Scripted::new(vec![ScriptStep::Back; 16], seed.into());
            InstrumentedInstance::boot(
                InstanceId(seed),
                DeviceId(seed),
                Arc::clone(&app),
                Box::new(tool),
                seed.into(),
                VirtualTime::ZERO,
            )
        };
        let (mut a, b) = (stay(1), stay(2));
        let hub = b.last_obs.clone().expect("booted");
        let entry = hub.hierarchy.affordances()[0].clone();
        let widget = Action::Widget(entry.id);
        let rule = EntrypointRule::new(hub.abstract_id(), &*entry.resource_id.unwrap());
        let step = |inst: &mut InstrumentedInstance| {
            let n = inst.step().widgets_blocked;
            (n, inst.last_obs.clone().unwrap())
        };
        let (n, plain) = step(&mut a);
        assert_eq!(n, 0);
        assert!(
            plain.hierarchy.shares_tree(&hub.hierarchy),
            "no rule, no copy"
        );

        a.blocklist().write().block(rule.clone());
        let mut fresh = hub.hierarchy.clone();
        let want = a.blocklist().read().apply(hub.abstract_id(), &mut fresh);
        assert!(want > 0);
        let (n1, first) = step(&mut a);
        let (n2, second) = step(&mut a);
        assert_eq!((n1, n2), (want, want), "a fresh apply's count");
        assert!(!first.hierarchy.offers(widget), "in force at the next step");
        assert_eq!(first.hierarchy, fresh);
        assert!(first.hierarchy.shares_tree(&second.hierarchy), "one copy");
        a.jump_to(hub.screen);
        let jumped = a.last_obs.clone().unwrap();
        assert!(jumped.hierarchy.shares_tree(&first.hierarchy));
        // The template and the other instance keep the widget.
        assert!(hub.hierarchy.offers(widget));
        assert!(b.last_obs.as_ref().unwrap().hierarchy.offers(widget));
        let template = a.emulator_mut().observe().hierarchy;
        assert!(template.shares_tree(&hub.hierarchy) && template.offers(widget));

        a.blocklist().write().unblock(&rule);
        let (n3, after) = step(&mut a);
        assert_eq!(n3, 0, "an unblock is in force at the next step");
        assert!(after.hierarchy.shares_tree(&hub.hierarchy));
        a.blocklist().write().block(rule);
        let (n4, again) = step(&mut a);
        assert_eq!(n4, want);
        assert!(!again.hierarchy.offers(widget));
        assert!(
            !again.hierarchy.shares_tree(&first.hierarchy),
            "a new rule set, a new copy"
        );
    }

    #[test]
    fn all_three_tools_drive_instances() {
        for kind in ToolKind::ALL {
            let mut inst = boot(kind, 9);
            for _ in 0..30 {
                inst.step();
            }
            assert_eq!(inst.tool_name(), kind.name());
            assert!(inst.trace().len() > 1);
        }
    }
}
