//! One app session as a resumable round-step state machine.
//!
//! [`SessionStep`] holds one app's session — instances, coordinator,
//! union coverage, machine meter — and never owns a device farm. It
//! exposes `demand()` / `grant()` / `advance_round()` / `finish()`, and
//! the campaign scheduler ([`crate::campaign::scheduler`]), the one round
//! driver, calls them to interleave many sessions over one shared farm.
//! A single-app session is a one-app campaign.
//!
//! Machine time is accounted by a private [`MachineMeter`] rather than the
//! farm, so per-app resource budgets keep working when the farm is shared
//! by the whole campaign.
//!
//! Fault behaviour is not a separate runtime: a step built
//! [`SessionStep::with_faults`] consults its campaign's
//! [`FaultInjector`] in place at each seam — latency spikes before the
//! round, bus lanes after it, the [`EnforcementBroadcaster`] between the
//! coordinator and the devices — and a step without faults skips those
//! branches, so plain and faulted campaigns run the same round body
//! (DESIGN.md §12).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use taopt_app_sim::{App, MethodId, MethodSet};
use taopt_chaos::{FaultInjector, RecoveryKind};
use taopt_device::DeviceId;
use taopt_telemetry::{Counter, Histogram};
use taopt_toller::{EntrypointRule, Findings, InstanceId, InstrumentedInstance};
use taopt_ui_model::abstraction::abstract_hierarchy;
use taopt_ui_model::{ActivityId, ScreenId, Trace, VirtualDuration, VirtualTime};

use crate::analyzer::SubspaceId;
use crate::coordinator::TestCoordinator;
use crate::metrics::curves::CurvePoint;
use crate::resilience::EnforcementBroadcaster;
use crate::session::{InstanceResult, RunMode, SessionConfig, SessionResult};
use crate::streaming::{BusLane, StreamStats};

/// Decorrelated per-instance seed stream: instance `iid` of a session
/// boots the same tool and device seeds whatever campaign it runs in.
pub fn instance_seed(base_seed: u64, iid: InstanceId) -> u64 {
    base_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(
        (iid.0 as u64)
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(1),
    )
}

/// Per-app machine-time accounting, mirroring the farm's bookkeeping for
/// the devices this session holds.
#[derive(Debug, Default, Clone)]
pub struct MachineMeter {
    consumed: VirtualDuration,
    running: BTreeMap<DeviceId, VirtualTime>,
}

impl MachineMeter {
    /// Starts the meter for a device at `now`.
    pub fn start(&mut self, device: DeviceId, now: VirtualTime) {
        self.running.insert(device, now);
    }

    /// Stops the meter for a device at `now`, charging its runtime.
    pub fn stop(&mut self, device: DeviceId, now: VirtualTime) {
        if let Some(since) = self.running.remove(&device) {
            self.consumed += now.since(since);
        }
    }

    /// Machine time charged by stopped devices.
    pub fn consumed(&self) -> VirtualDuration {
        self.consumed
    }

    /// Machine time including still-running devices, as of `now`.
    pub fn consumed_as_of(&self, now: VirtualTime) -> VirtualDuration {
        let running: u64 = self
            .running
            .values()
            .map(|t| now.since(*t).as_millis())
            .sum();
        self.consumed + VirtualDuration::from_millis(running)
    }
}

/// A cheap, order-independent fingerprint of one session's progress,
/// taken at a round boundary.
///
/// This is the per-app slice of a campaign digest (DESIGN.md §13): it
/// pins everything scheduling can influence — the local clock, machine
/// meter, union size, instance churn, and per-instance trace offsets
/// (the positions feeding the coordinator's FindSpace analysis) — without
/// serializing any live state. Two deterministic runs of the same spec
/// agree on every field at every round boundary, so digest equality is
/// how a checkpoint restore proves its replay converged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepProgress {
    /// Rounds this session has advanced.
    pub round: u64,
    /// Local clock, in virtual ms.
    pub now_ms: u64,
    /// Machine time consumed as of the local clock, in virtual ms.
    pub machine_ms: u64,
    /// Methods in the union coverage set.
    pub union: usize,
    /// Instances already retired.
    pub finished_instances: usize,
    /// Next instance id to boot.
    pub next_instance: u32,
    /// Whether the termination condition was reached.
    pub done: bool,
    /// Per active instance, in boot order: `(instance id, device id,
    /// trace length)`.
    pub active: Vec<(u32, u64, u64)>,
}

/// What one round of a session produced for its scheduler.
#[derive(Debug)]
pub struct RoundOutcome {
    /// Devices released this round (stall deallocation); the driver must
    /// return them to the farm.
    pub released: Vec<DeviceId>,
    /// Whether the session reached its termination condition (duration or
    /// machine budget). Once true, the driver should call
    /// [`SessionStep::finish`].
    pub done: bool,
}

/// End-of-session payload: the result plus the devices still held.
#[derive(Debug)]
pub struct SessionFinish {
    /// The completed session result.
    pub result: SessionResult,
    /// Devices drained at the end; the driver must return them.
    pub released: Vec<DeviceId>,
    /// Confirmed subspaces left without a live owner (measured after the
    /// final repair pass, before the drain) — the liveness invariant.
    pub unresolved_orphans: usize,
    /// Bus-repair counters summed over every lane this session ran
    /// (all-zero without faults or under an inert plan).
    pub stream: StreamStats,
    /// Enforcement deliveries that needed at least one retry (zero
    /// without faults).
    pub enforcement_retries: usize,
    /// Learned analyzer state captured for the next version's campaign
    /// (present iff the config asked for it and the mode ran TaOPT).
    pub warm: Option<crate::warmstart::WarmStart>,
}

/// One live instance plus scheduling bookkeeping.
struct ActiveInstance {
    inst: InstrumentedInstance,
    device: DeviceId,
    allocated_at: VirtualTime,
    last_new_screen: VirtualTime,
    /// What boot covered (see [`SessionStep::grant`]).
    boot_covered: Arc<[MethodId]>,
    /// Entries of the instance's cover log already merged into the union.
    merged: usize,
    /// Activity-partition mode: screens this instance owns.
    owned_screens: Vec<ScreenId>,
    jump_cursor: usize,
    /// Bus-seam lane state (present iff the step has faults): the
    /// coordinator then analyzes the lane's repaired coordinator-view
    /// trace instead of the instance trace.
    bus: Option<BusLane>,
}

/// Activity-partition plan: round-robin activity ownership plus static
/// block rules (ParaAim-style baseline, §3.3).
pub(crate) struct ActivityPlan {
    /// Per-slot owned activities.
    owned: Vec<BTreeSet<ActivityId>>,
    /// Per-slot blocked entry rules (widgets leading to foreign
    /// activities).
    rules: Vec<Vec<EntrypointRule>>,
    /// Per-slot owned screens (jump targets).
    screens: Vec<Vec<ScreenId>>,
}

impl ActivityPlan {
    pub(crate) fn build(app: &App, slots: usize) -> Self {
        let activities: Vec<ActivityId> = app.activities().into_iter().collect();
        let mut owned = vec![BTreeSet::new(); slots];
        for (i, a) in activities.iter().enumerate() {
            owned[i % slots].insert(*a);
        }
        // Abstract ids of every screen (rendered once with zero visits).
        let abstract_of: BTreeMap<ScreenId, _> = app
            .screens()
            .map(|s| (s.id, abstract_hierarchy(&app.render_screen(s.id, 0)).id()))
            .collect();
        let mut rules = vec![Vec::new(); slots];
        let mut screens = vec![Vec::new(); slots];
        for (slot, owned_set) in owned.iter().enumerate() {
            for s in app.screens() {
                if owned_set.contains(&s.activity) {
                    screens[slot].push(s.id);
                }
                for a in &s.actions {
                    let leaves = a.targets.iter().any(|t| {
                        let target_activity = app.screen(t.screen).map(|sp| sp.activity);
                        target_activity
                            .map(|ta| !owned_set.contains(&ta))
                            .unwrap_or(false)
                    });
                    if leaves {
                        rules[slot].push(EntrypointRule::new(abstract_of[&s.id], &a.widget_rid));
                    }
                }
            }
        }
        ActivityPlan {
            owned,
            rules,
            screens,
        }
    }
}

/// The fault wiring of one faulted step.
struct StepFaults {
    injector: FaultInjector,
    /// Offset added to instance ids to form lane ids (decorrelates apps
    /// sharing one fault plan in a campaign).
    lane_base: u32,
    /// The coordinator writes intent into per-instance shadow lists; the
    /// broadcaster delivers it through the failure-prone channel.
    broadcaster: EnforcementBroadcaster,
}

/// A single app session advanced one lock-step round at a time by an
/// external device-granting driver.
pub struct SessionStep {
    app: Arc<App>,
    config: SessionConfig,
    coordinator: TestCoordinator,
    activity_plan: Option<ActivityPlan>,
    pats_queue: Vec<ScreenId>,
    pats_dispatched: BTreeSet<ScreenId>,
    active: Vec<ActiveInstance>,
    finished: Vec<InstanceResult>,
    next_instance: u32,
    union: MethodSet,
    union_curve: Vec<CurvePoint>,
    /// The app's boot coverage, shared by every instance whose boot
    /// covered exactly this set.
    boot_set: Option<Arc<[MethodId]>>,
    /// Boot sets built since the last round, with their boot time;
    /// merged into the union at the next round boundary.
    pending_boot: Vec<(VirtualTime, Arc<[MethodId]>)>,
    /// The round's post-boot cover events, pooled across instances
    /// (reused from round to round).
    round_events: Vec<(VirtualTime, MethodId)>,
    concurrency_timeline: Vec<(VirtualTime, usize)>,
    meter: MachineMeter,
    now: VirtualTime,
    budget: VirtualDuration,
    done: bool,
    started: bool,
    /// Resource mode: confirmed-subspace growth not yet granted.
    pending_growth: usize,
    /// Fault wiring, present iff the campaign has a fault plan.
    faults: Option<StepFaults>,
    /// Rounds advanced so far; keys per-round fault decisions (latency).
    round: u64,
    /// When each currently orphaned subspace became orphaned, so a repair
    /// can be recorded with its true recovery latency.
    orphaned_since: BTreeMap<SubspaceId, VirtualTime>,
    /// Bus-repair counters folded in from retired lanes.
    stream_total: StreamStats,
    round_counter: Counter,
    cover_counter: Counter,
    coordinator_errors: Counter,
    allocated_counter: Counter,
    deallocated_counter: Counter,
    /// `span_ns{kind="analysis"}`.
    analysis_span: Histogram,
}

impl std::fmt::Debug for SessionStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStep")
            .field("mode", &self.config.mode)
            .field("now", &self.now)
            .field("active", &self.active.len())
            .field("finished", &self.finished.len())
            .field("done", &self.done)
            .finish()
    }
}

impl SessionStep {
    /// Creates a step for one app session. No devices are held until the
    /// driver grants some.
    pub fn new(app: Arc<App>, config: SessionConfig) -> Self {
        let telemetry = taopt_telemetry::global();
        let activity_plan = if config.mode == RunMode::ActivityPartition {
            Some(ActivityPlan::build(&app, config.instances))
        } else {
            None
        };
        let coordinator = match config.warm_start.as_deref() {
            Some(warm) if config.mode.uses_taopt() => {
                TestCoordinator::with_warm_start(config.analyzer.clone(), warm)
            }
            _ => TestCoordinator::new(config.analyzer.clone()),
        }
        .with_stall_timeout(config.stall_timeout);
        let budget = config.effective_budget();
        let union = MethodSet::with_capacity(app.method_count());
        SessionStep {
            app,
            config,
            coordinator,
            activity_plan,
            pats_queue: Vec::new(),
            pats_dispatched: BTreeSet::new(),
            active: Vec::new(),
            finished: Vec::new(),
            next_instance: 0,
            union,
            union_curve: Vec::new(),
            boot_set: None,
            pending_boot: Vec::new(),
            round_events: Vec::new(),
            concurrency_timeline: Vec::new(),
            meter: MachineMeter::default(),
            now: VirtualTime::ZERO,
            budget,
            done: false,
            started: false,
            pending_growth: 0,
            faults: None,
            round: 0,
            orphaned_since: BTreeMap::new(),
            stream_total: StreamStats::default(),
            round_counter: telemetry.counter("session_rounds_total"),
            cover_counter: telemetry.counter("cover_events_total"),
            coordinator_errors: telemetry.counter("coordinator_errors_total"),
            allocated_counter: telemetry.counter("instances_allocated_total"),
            deallocated_counter: telemetry.counter("instances_deallocated_total"),
            analysis_span: telemetry.span_histogram("analysis"),
        }
    }

    /// Runs this step under fault injection: every seam consults
    /// `injector`, with lanes offset by `lane_base`. An all-zero plan
    /// yields a session result field-by-field identical to a step
    /// without faults.
    pub fn with_faults(mut self, injector: &FaultInjector, lane_base: u32) -> Self {
        self.faults = Some(StepFaults {
            injector: injector.clone(),
            lane_base,
            broadcaster: EnforcementBroadcaster::new().with_lane_base(lane_base),
        });
        self
    }

    /// Devices currently held.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Machine time consumed so far, as of the local clock.
    pub fn machine_time(&self) -> VirtualDuration {
        self.meter.consumed_as_of(self.now)
    }

    /// Fingerprints this session's progress (see [`StepProgress`]).
    pub fn progress(&self) -> StepProgress {
        StepProgress {
            round: self.round,
            now_ms: self.now.as_millis(),
            machine_ms: self.meter.consumed_as_of(self.now).as_millis(),
            union: self.union.len(),
            finished_instances: self.finished.len(),
            next_instance: self.next_instance,
            done: self.done,
            active: self
                .active
                .iter()
                .map(|a| {
                    (
                        a.inst.id().0,
                        a.device.0 as u64,
                        a.inst.trace().len() as u64,
                    )
                })
                .collect(),
        }
    }

    /// How many additional devices this session wants right now, honoring
    /// `d_max` and the mode's allocation policy.
    pub fn demand(&self) -> usize {
        if self.done {
            return 0;
        }
        let cap = self.config.instances.saturating_sub(self.active.len());
        match self.config.mode {
            RunMode::TaoptResource => {
                if !self.started {
                    return cap.min(1);
                }
                let mut want = self.pending_growth.min(cap);
                if self.active.is_empty() {
                    // Keep at least one explorer alive while budget remains.
                    want = want.max(cap.min(1));
                }
                want
            }
            _ => cap,
        }
    }

    /// Boots a new instance on a granted device at the local clock.
    /// Returns the booted instance's id (drivers use it to label
    /// replacement recoveries).
    pub fn grant(&mut self, device: DeviceId) -> InstanceId {
        debug_assert!(
            self.active.len() < self.config.instances,
            "grant beyond d_max"
        );
        self.started = true;
        self.pending_growth = self.pending_growth.saturating_sub(1);
        self.allocated_counter.inc();
        let iid = InstanceId(self.next_instance);
        self.next_instance += 1;
        let seed = instance_seed(self.config.seed, iid);
        let tool = self.config.tool.build(seed);
        let inst = InstrumentedInstance::boot_with(
            iid,
            device,
            Arc::clone(&self.app),
            tool,
            seed ^ 0xabcd,
            self.now,
            self.config.emulator,
        );
        let mut owned_screens = Vec::new();
        if let Some(plan) = &self.activity_plan {
            let slot = (iid.0 as usize) % plan.owned.len().max(1);
            let bl = inst.blocklist();
            let mut bl = bl.write();
            for r in &plan.rules[slot] {
                bl.block(r.clone());
            }
            owned_screens = plan.screens[slot].clone();
        }
        if self.config.mode.uses_taopt() {
            // Without faults the coordinator writes into the device list
            // itself. With faults it writes into a shadow the broadcaster
            // reconciles; provisioning gives every catch-up rule one
            // immediate delivery attempt, so under an inert plan a new
            // device starts fully configured.
            match self.faults.as_mut() {
                Some(f) => {
                    let shadow = f.broadcaster.register(iid, inst.blocklist());
                    self.coordinator.register_instance(iid, shadow);
                    f.broadcaster.provision(&f.injector, iid, self.now);
                }
                None => self.coordinator.register_instance(iid, inst.blocklist()),
            }
        }
        // Startup (and auto-login) coverage happens at boot, before the
        // first tool step; it is accounted like any other cover event,
        // stamped with the boot time. Every boot of an app normally covers
        // the same set, so it is kept once and shared, after checking. A
        // shared set is in the union once merged, where merging it again
        // would add no point, so only a newly built set is queued.
        let covered = inst.emulator().covered();
        let boot_covered = match &self.boot_set {
            Some(set) if set.len() == covered.len() && set.iter().all(|&m| covered.contains(m)) => {
                Arc::clone(set)
            }
            _ => {
                let own: Arc<[MethodId]> = covered.iter().collect();
                self.boot_set.get_or_insert_with(|| Arc::clone(&own));
                self.pending_boot.push((self.now, Arc::clone(&own)));
                own
            }
        };
        self.cover_counter.add(boot_covered.len() as u64);
        self.meter.start(device, self.now);
        self.active.push(ActiveInstance {
            inst,
            device,
            allocated_at: self.now,
            last_new_screen: self.now,
            boot_covered,
            merged: 0,
            owned_screens,
            jump_cursor: 0,
            bus: self.faults.is_some().then(BusLane::new),
        });
        iid
    }

    /// Advances the session by one lock-step round of `tick`.
    pub fn advance_round(&mut self) -> RoundOutcome {
        self.now += self.config.tick;
        self.round += 1;
        self.round_counter.inc();
        self.concurrency_timeline
            .push((self.now, self.active.len()));

        // Device seam, latency half: a spiked device stalls before it
        // runs its round.
        if let Some(f) = &self.faults {
            for a in self.active.iter_mut() {
                let lane = f.lane_base + a.inst.id().0;
                if let Some(extra) = f.injector.latency_spike(lane, self.round, self.now) {
                    a.inst.emulator_mut().idle(extra);
                }
            }
        }

        let deadline = if self.config.mode == RunMode::TaoptResource {
            self.now
        } else {
            // Never run past the wall-clock budget.
            self.now.min(VirtualTime::ZERO + self.config.duration)
        };

        // Step every active instance up to the round boundary, then pool
        // the cover events its log gained since the last merge (the
        // steps', and the arrival coverage of Intent jumps made after the
        // last merge), so the union curve stays time-ordered across
        // instances within the round.
        let mut round_events = std::mem::take(&mut self.round_events);
        round_events.clear();
        for a in self.active.iter_mut() {
            let target = self.now.min(deadline);
            while a.inst.now() < target {
                let r = a.inst.step();
                // Coverage growth counts as progress: the screen
                // abstraction of the simulator is coarser than a real
                // device's, so "no new abstract screen" alone would
                // misfire while the tool still exercises new behaviour.
                if r.new_screen || !r.newly_covered.is_empty() {
                    a.last_new_screen = r.time;
                }
            }
            let log = a.inst.cover_log();
            round_events.extend_from_slice(&log[a.merged..]);
            a.merged = log.len();
        }
        // Bus seam: push new trace events through the injector's faulty
        // transport; the lane repairs the survivors into the
        // coordinator-view trace.
        if let Some(f) = &self.faults {
            for a in self.active.iter_mut() {
                if let Some(lane_state) = a.bus.as_mut() {
                    let lane = f.lane_base + a.inst.id().0;
                    lane_state.pump(&f.injector, lane, a.inst.trace(), self.now);
                }
            }
        }
        // Boot sets come first: they are stamped with the boot time, the
        // last round boundary, and every other event is later.
        round_events.sort_by_key(|(t, _)| *t);
        self.cover_counter.add(round_events.len() as u64);
        let consumed = self.meter.consumed_as_of(self.now);
        for (t, set) in self.pending_boot.drain(..) {
            debug_assert!(round_events.first().is_none_or(|(first, _)| *first >= t));
            let boot = set.iter().map(|&m| (t, m));
            merge_events(&mut self.union, &mut self.union_curve, consumed, boot);
        }
        let steps = round_events.iter().copied();
        merge_events(&mut self.union, &mut self.union_curve, consumed, steps);
        self.round_events = round_events;

        // TaOPT analysis + dedication.
        let mut newly_confirmed = 0usize;
        if self.config.mode.uses_taopt() {
            let _span = self.analysis_span.span();
            // One analyzer call for the whole round.
            let batch: Vec<(InstanceId, &Trace)> = self
                .active
                .iter()
                .map(|a| {
                    // With the bus layer engaged the coordinator sees only
                    // what survived the transport, in repaired order.
                    let view = a
                        .bus
                        .as_ref()
                        .map(|lane| lane.coord_trace())
                        .unwrap_or_else(|| a.inst.trace());
                    (a.inst.id(), view)
                })
                .collect();
            match self.coordinator.process_traces(&batch, self.now) {
                Ok(confirmed) => newly_confirmed += confirmed.len(),
                // A dedication failure is an internal-invariant breach;
                // the session degrades to uncoordinated exploration for
                // this round instead of panicking.
                Err(_) => self.coordinator_errors.inc(),
            }
        }

        // PATS dispatch: the master (instance 0) feeds newly seen screens
        // to the queue; idle slaves jump to the next one.
        if self.config.mode == RunMode::PatsMasterSlave {
            if let Some(master) = self.active.iter().find(|a| a.inst.id().0 == 0) {
                for e in master.inst.trace().events() {
                    if self.pats_dispatched.insert(e.screen) {
                        self.pats_queue.push(e.screen);
                    }
                }
            }
            for a in self.active.iter_mut() {
                if a.inst.id().0 == 0 {
                    continue;
                }
                // A slave with no fresh screens for half the stall timeout
                // picks up the next dispatched target.
                if self.now.since(a.last_new_screen) >= self.config.stall_timeout / 2 {
                    if let Some(target) = self.pats_queue.pop() {
                        a.inst.jump_to(target);
                        a.last_new_screen = self.now;
                    }
                }
            }
        }

        // Stall handling.
        let mut released = Vec::new();
        match self.config.mode {
            RunMode::Baseline | RunMode::PatsMasterSlave => {}
            RunMode::ActivityPartition => {
                // Stalled instances jump to the next owned screen.
                for a in self.active.iter_mut() {
                    if self.now.since(a.last_new_screen) >= self.config.stall_timeout
                        && !a.owned_screens.is_empty()
                    {
                        let s = a.owned_screens[a.jump_cursor % a.owned_screens.len()];
                        a.jump_cursor += 1;
                        a.inst.jump_to(s);
                        a.last_new_screen = self.now;
                    }
                }
            }
            RunMode::TaoptDuration | RunMode::TaoptResource => {
                let mut i = 0;
                while i < self.active.len() {
                    if self
                        .coordinator
                        .should_deallocate(self.active[i].last_new_screen, self.now)
                    {
                        released.push(self.retire(i, self.now));
                    } else {
                        i += 1;
                    }
                }
            }
        }

        // Orphan repair: confirmed subspaces whose owner died without an
        // heir are re-dedicated to a live instance. `has_orphans` keeps
        // the common empty case allocation-free.
        if self.config.mode.uses_taopt() && self.coordinator.has_orphans() {
            for sid in self.coordinator.orphaned_subspaces() {
                self.orphaned_since.entry(sid).or_insert(self.now);
            }
            for sid in self.coordinator.orphaned_subspaces() {
                if let Some(heir) = self.coordinator.rededicate(sid, self.now) {
                    let since = self.orphaned_since.remove(&sid).unwrap_or(self.now);
                    self.record_rededication(since, heir);
                }
            }
        }

        // Enforcement seam: propagate intended rules onto devices,
        // retrying failed broadcasts from previous rounds. Without faults
        // intent and device list are the same, so there is nothing to do.
        if self.config.mode.uses_taopt() {
            if let Some(f) = self.faults.as_mut() {
                f.broadcaster.reconcile(&f.injector, self.now);
            }
        }

        // Termination + growth bookkeeping.
        self.done = match self.config.mode {
            RunMode::TaoptResource => self.meter.consumed_as_of(self.now) >= self.budget,
            _ => self.now >= VirtualTime::ZERO + self.config.duration,
        };
        if self.config.mode == RunMode::TaoptResource {
            // Grow on discovery; the driver grants between rounds.
            self.pending_growth = newly_confirmed;
        }

        RoundOutcome {
            released,
            done: self.done,
        }
    }

    /// Retires the instance running on `device` after the farm revoked or
    /// killed the slot. Machine time is charged up to the local clock.
    /// Returns false when no active instance holds the device.
    pub fn lose_device(&mut self, device: DeviceId) -> bool {
        let Some(idx) = self.active.iter().position(|a| a.device == device) else {
            return false;
        };
        let _ = self.retire(idx, self.now);
        true
    }

    /// Voluntarily gives back one device (lease revocation): the least
    /// recently productive instance retires and its device is returned.
    pub fn shrink_one(&mut self) -> Option<DeviceId> {
        let idx = self
            .active
            .iter()
            .enumerate()
            .min_by_key(|(_, a)| (a.last_new_screen, a.inst.id()))
            .map(|(i, _)| i)?;
        Some(self.retire(idx, self.now))
    }

    /// Finishes the session: final orphan repair, invariant measurement,
    /// drain of the remaining instances.
    pub fn finish(mut self) -> SessionFinish {
        let uses_taopt = self.config.mode.uses_taopt();
        if uses_taopt {
            // Give orphans one last chance while instances are still
            // registered, then measure the invariant.
            for sid in self.coordinator.orphaned_subspaces() {
                let since = self.orphaned_since.remove(&sid).unwrap_or(self.now);
                if let Some(heir) = self.coordinator.rededicate(sid, self.now) {
                    self.record_rededication(since, heir);
                }
            }
        }
        let unresolved_orphans = if uses_taopt {
            self.coordinator.orphaned_subspaces().len()
        } else {
            0
        };
        // Capture the warm bundle before draining, so it reads the analyzer
        // as the last round left it: every confirmed subspace and the whole
        // similarity store. The drain would lose neither: retiring forgets
        // an instance's window, not the store's decisions, and only moves
        // subspace ownership, which the bundle does not carry.
        let warm = (self.config.capture_warm_start && uses_taopt)
            .then(|| self.coordinator.analyzer().warm_start(self.union.len()));
        let end = self.now;
        let mut released = Vec::new();
        while !self.active.is_empty() {
            released.push(self.retire(0, end));
        }
        self.finished.sort_by_key(|r| r.instance);
        // The coordinator dies with the step: move the registry and the
        // decision log out instead of cloning them.
        let (tool, mode) = (self.config.tool, self.config.mode);
        let instances = std::mem::take(&mut self.finished);
        let union_curve = std::mem::take(&mut self.union_curve);
        let machine_time = self.meter.consumed();
        let concurrency_timeline = std::mem::take(&mut self.concurrency_timeline);
        let (subspaces, coordinator_events) = self.coordinator.into_report();
        let result = SessionResult {
            tool,
            mode,
            instances,
            union_curve,
            machine_time,
            wall_clock: end.since(VirtualTime::ZERO),
            subspaces,
            coordinator_events,
            concurrency_timeline,
        };
        SessionFinish {
            result,
            released,
            unresolved_orphans,
            stream: self.stream_total,
            enforcement_retries: self
                .faults
                .as_ref()
                .map_or(0, |f| f.broadcaster.reapplied()),
            warm,
        }
    }

    /// Records an orphaned-subspace re-dedication to `heir` in the fault
    /// log, if the step has faults.
    fn record_rededication(&self, since: VirtualTime, heir: InstanceId) {
        if let Some(f) = &self.faults {
            f.injector.record_recovery(
                since,
                self.now,
                Some(f.lane_base + heir.0),
                RecoveryKind::SubspaceRededicated,
            );
        }
    }

    /// Removes `active[idx]`, settles it with the coordinator and records
    /// its result. Returns the freed device.
    fn retire(&mut self, idx: usize, now: VirtualTime) -> DeviceId {
        let mut a = self.active.swap_remove(idx);
        // Coverage logged since the last merge (an Intent jump's arrival
        // after the final round) still reaches the union.
        let tail = &a.inst.cover_log()[a.merged..];
        if !tail.is_empty() {
            self.cover_counter.add(tail.len() as u64);
            let consumed = self.meter.consumed_as_of(self.now);
            let tail = tail.iter().copied();
            merge_events(&mut self.union, &mut self.union_curve, consumed, tail);
        }
        if let Some(mut lane) = a.bus.take() {
            // Deliver everything still in flight, then fold the lane's
            // repair counters into the session total.
            lane.flush();
            self.stream_total = self.stream_total.merged(lane.stats());
        }
        if let Some(f) = self.faults.as_mut() {
            f.broadcaster.unregister(a.inst.id());
        }
        self.meter.stop(a.device, now);
        self.deallocated_counter.inc();
        self.coordinator
            .unregister_instance_with_trace(a.inst.id(), a.inst.trace());
        let instance = a.inst.id();
        let Findings {
            mut trace,
            covered,
            mut cover_log,
            crashes,
        } = a.inst.into_findings();
        let (crashes, crash_occurrences) = crashes.into_parts();
        trace.shrink_to_fit();
        cover_log.shrink_to_fit();
        self.finished.push(InstanceResult {
            instance,
            allocated_at: a.allocated_at,
            deallocated_at: now,
            covered,
            boot_covered: a.boot_covered,
            cover_log,
            crashes,
            crash_occurrences,
            device: a.device,
            trace,
        });
        a.device
    }
}

/// Adds cover events to the union, with one curve point per method new to
/// it.
fn merge_events(
    union: &mut MethodSet,
    curve: &mut Vec<CurvePoint>,
    machine_time: VirtualDuration,
    events: impl IntoIterator<Item = (VirtualTime, MethodId)>,
) {
    for (time, m) in events {
        if union.insert(m) {
            curve.push(CurvePoint {
                time,
                covered: union.len(),
                machine_time,
            });
        }
    }
}
