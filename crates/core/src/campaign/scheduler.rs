//! The campaign scheduler: N app sessions over one shared device farm.
//!
//! # Scheduling model
//!
//! The campaign advances in global lock-step rounds of length `tick`.
//! Each round has two phases:
//!
//! 1. **Parallel phase** — every *runnable* app (live, holding at least
//!    one device) advances its [`SessionStep`] by one round. Steps touch
//!    only their own state — each app's trace analysis runs inside its
//!    step — so the campaign's persistent [`ComputePool`] (one budget
//!    built at [`Campaign::new`] from `host_threads`, capped at the app
//!    count — no per-round thread spawns) executes them concurrently:
//!    the runnable apps, in app-index order, are split into one
//!    contiguous home range per host thread, so an app keeps running on
//!    the same thread round after round, and a step run by a thread
//!    other than its range's owner counts as a steal. Each step also
//!    snapshots its device demand here, so the boundary need not
//!    recompute it.
//! 2. **Sequential boundary** — all shared-state decisions (farm
//!    allocation, lease grants and revocations, scheduled device kills,
//!    replacement retries, session completion) happen on the scheduler
//!    thread in ascending app-index order.
//!
//! # Determinism
//!
//! Byte-identical results regardless of the host-thread budget follow
//! from the phase split: parallel work is confined to disjoint per-app
//! state, and every decision that consumes a shared resource is made in
//! the boundary, whose iteration order is a pure function of round
//! number and app index. Thread timing can change *when* a step runs within a round
//! and which worker runs it (the steal count), but not any value that
//! feeds back into scheduling.
//!
//! # Leasing
//!
//! Between rounds each app reports its device demand
//! ([`SessionStep::demand`], which honors `d_max` and the mode's
//! allocation policy, merged with due [`ReplacementQueue`] retries).
//! Free devices are granted max-min fairly ([`fair_targets_from`] with a
//! rotating remainder). When the farm is exhausted and an app is starved
//! (zero devices, positive demand, positive fair share), the scheduler
//! revokes a device from the richest donor — over-target holders first,
//! otherwise any holder past `min_hold_rounds` — so every app eventually
//! runs even with fewer devices than apps.
//!
//! An app holding zero devices has a **frozen clock**: its virtual
//! session time does not advance while it waits, so queueing does not
//! burn its `l_p`/budget. A round in which *no* app holds a device (a
//! faulty farm refused every allocation) still runs its boundaries: the
//! global clock advances, so refused allocations and replacements retry
//! with backoff. The campaign stops only when no app is live or at
//! `max_rounds`.
//!
//! # One driver
//!
//! This is the only round driver in the crate. A single-app session
//! ([`crate::session::ParallelSession::run`]) is a one-app campaign with
//! no fault plan, and a fault-injected session is a one-app
//! campaign with [`CampaignConfig::faults`] set.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use taopt_app_sim::App;
use taopt_chaos::{FaultInjector, FaultPlan, FaultStats, APP_LANE_SHIFT};
use taopt_device::{fair_targets_from, DeviceFarm, DeviceId};
use taopt_ui_model::{json, VirtualDuration, VirtualTime};

use crate::campaign::lease::LeaseLedger;
use crate::campaign::pool::{home_worker, ComputePool};
use crate::campaign::snapshot::{CampaignDigest, SlotDigest};
use crate::campaign::step::{RoundOutcome, SessionStep};
use crate::coordinator::CoordinatorEvent;
use crate::resilience::{ReplacementQueue, RetryPolicy};
use crate::session::{SessionConfig, SessionResult};
use crate::streaming::StreamStats;

/// A deterministic mid-campaign device kill: at the end of global round
/// `round`, the `victim % leased`-th currently leased device (in
/// device-id order) dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillEvent {
    /// Global round after which the device dies.
    pub round: u64,
    /// Victim selector (index into the leased-device list, modulo its
    /// length).
    pub victim: u64,
}

/// One app entering a campaign.
#[derive(Debug, Clone)]
pub struct CampaignApp {
    /// Display name (report key).
    pub name: String,
    /// The app under test.
    pub app: Arc<App>,
    /// Its session configuration (`instances` is the app's `d_max`).
    pub config: SessionConfig,
}

/// Campaign-level knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Host compute-thread budget shared by the whole campaign: the
    /// persistent [`ComputePool`] that advances the apps' rounds is sized
    /// once from this, capped at the app count (a round runs at most one
    /// task per app). `0` = auto-detect
    /// ([`std::thread::available_parallelism`]). Never affects results.
    pub host_threads: usize,
    /// Shared farm capacity; defaults to the sum of every app's `d_max`
    /// (uncontended).
    pub capacity: Option<usize>,
    /// Rounds a lease is protected from starvation revocation.
    pub min_hold_rounds: u64,
    /// Scheduled device kills.
    pub kills: Vec<KillEvent>,
    /// Optional fault plan: when set, the whole campaign runs under
    /// deterministic fault injection. The scheduler consults one
    /// [`FaultInjector`] before each farm allocation (refusals) and once
    /// per round (device losses), and every app's step consults it
    /// ([`SessionStep::with_faults`]) on its own lane range (latency
    /// spikes, bus fates, enforcement failures).
    pub faults: Option<FaultPlan>,
    /// Hard stop: never reached by a healthy campaign, but it is what
    /// bounds one whose farm refuses every allocation forever.
    pub max_rounds: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            host_threads: 0,
            capacity: None,
            min_hold_rounds: 3,
            kills: Vec::new(),
            faults: None,
            max_rounds: 1_000_000,
        }
    }
}

/// Per-app campaign outcome.
#[derive(Debug)]
pub struct AppReport {
    /// App name.
    pub name: String,
    /// The completed session result.
    pub session: SessionResult,
    /// Lost devices successfully replaced.
    pub replacements: usize,
    /// Devices killed under this app.
    pub devices_lost: usize,
    /// Confirmed subspaces left without a live owner at the end.
    pub unresolved_orphans: usize,
    /// Bus-repair counters across this app's instances (all zero without
    /// a fault plan).
    pub stream: StreamStats,
    /// Enforcement deliveries that needed at least one retry.
    pub enforcement_retries: usize,
    /// Global rounds this app sat with zero devices while unfinished.
    pub wait_rounds: u64,
    /// Global round at which the app finished.
    pub finished_round: u64,
    /// Learned analyzer state captured for the next version's campaign
    /// (present iff the app's config set `capture_warm_start` and its
    /// mode ran TaOPT). Deliberately excluded from
    /// [`CampaignResult::coverage_report`]: the bundle is an input to the
    /// *next* campaign, not part of this one's compared outcome.
    pub warm: Option<crate::warmstart::WarmStart>,
}

/// The complete outcome of a campaign run.
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-app reports, in input order.
    pub apps: Vec<AppReport>,
    /// Global rounds executed.
    pub rounds: u64,
    /// The global round length.
    pub tick: VirtualDuration,
    /// Campaign wall-clock: `rounds × tick` of shared-farm time.
    pub wall_clock: VirtualDuration,
    /// Total machine time across apps (sum of session meters).
    pub machine_time: VirtualDuration,
    /// Shared farm capacity.
    pub capacity: usize,
    /// Peak devices simultaneously leased.
    pub peak_active: usize,
    /// Lease grants issued.
    pub grants: u64,
    /// Starvation revocations performed.
    pub revocations: u64,
    /// Double-allocation events observed (must be 0).
    pub lease_conflicts: u64,
    /// Devices still allocated in the farm after the drain (must be 0).
    pub farm_active_at_end: usize,
    /// Steps run by a host thread other than the owner of their home
    /// range (always 0 at `host_threads = 1`; not deterministic across
    /// host budgets, so excluded from [`CampaignResult::coverage_report`]).
    pub steals: u64,
    /// Aggregated fault/recovery statistics when a fault plan was set.
    /// Order-independent counts only — the fault *log*'s interleaving is
    /// thread-timing-dependent, so it stays out of compared reports.
    pub fault_stats: Option<FaultStats>,
    /// Host-side milliseconds spent (informational only).
    pub host_ms: u64,
}

impl CampaignResult {
    /// Union coverage summed over apps.
    pub fn total_coverage(&self) -> usize {
        self.apps.iter().map(|a| a.session.union_coverage()).sum()
    }

    /// Canonical per-app coverage report as a JSON string.
    ///
    /// Contains everything scheduling can influence — per-app coverage,
    /// per-instance results, curves, machine/wall clocks, lease churn —
    /// and nothing timing-dependent (no steal counts, no host time), so
    /// two runs are equivalent iff their reports are byte-identical.
    pub fn coverage_report(&self) -> String {
        // The union curves are O(coverage) and dominate the report, so it
        // is written straight into one string sized from the result.
        let points: usize = self.apps.iter().map(|a| a.session.union_curve.len()).sum();
        let instances: usize = self.apps.iter().map(|a| a.session.instances.len()).sum();
        let mut out =
            String::with_capacity(256 + 512 * self.apps.len() + 160 * instances + 24 * points);
        let mut top = JsonObject::open(&mut out);
        top.uint("capacity", self.capacity as u64)
            .uint("rounds", self.rounds)
            .uint("wall_ms", self.wall_clock.as_millis())
            .uint("machine_ms", self.machine_time.as_millis())
            .uint("peak_active", self.peak_active as u64)
            .uint("grants", self.grants)
            .uint("revocations", self.revocations)
            .uint("lease_conflicts", self.lease_conflicts);
        let apps = top.key("apps");
        apps.push('[');
        for (n, a) in self.apps.iter().enumerate() {
            if n > 0 {
                apps.push(',');
            }
            write_app_report(a, apps);
        }
        apps.push(']');
        top.close();
        out
    }
}

/// Appends one app's entry of [`CampaignResult::coverage_report`].
fn write_app_report(a: &AppReport, out: &mut String) {
    let s = &a.session;
    let dedications = s
        .coordinator_events
        .iter()
        .filter(|e| matches!(e, CoordinatorEvent::SubspaceDedicated { .. }))
        .count();
    let mut app = JsonObject::open(out);
    json::write_escaped(&a.name, app.key("name"));
    app.uint("coverage", s.union_coverage() as u64)
        .uint("crashes", s.unique_crashes().len() as u64)
        .uint("machine_ms", s.machine_time.as_millis())
        .uint("wall_ms", s.wall_clock.as_millis())
        .uint("subspaces", s.subspaces.len() as u64)
        .uint(
            "confirmed",
            s.subspaces.iter().filter(|x| x.confirmed).count() as u64,
        )
        .uint("dedications", dedications as u64)
        .uint("unresolved_orphans", a.unresolved_orphans as u64)
        .uint("devices_lost", a.devices_lost as u64)
        .uint("replacements", a.replacements as u64)
        .uint("stream_gaps", a.stream.gaps as u64)
        .uint("stream_duplicates", a.stream.duplicates as u64)
        .uint("stream_reordered", a.stream.reordered as u64)
        .uint("enforcement_retries", a.enforcement_retries as u64)
        .uint("wait_rounds", a.wait_rounds)
        .uint("finished_round", a.finished_round);
    let instances = app.key("instances");
    instances.push('[');
    for (n, i) in s.instances.iter().enumerate() {
        if n > 0 {
            instances.push(',');
        }
        JsonObject::open(instances)
            .uint("instance", i.instance.0 as u64)
            .uint("device", i.device.0 as u64)
            .uint("allocated_ms", i.allocated_at.as_millis())
            .uint("deallocated_ms", i.deallocated_at.as_millis())
            .uint("covered", i.covered.len() as u64)
            .uint("cover_events", i.cover_event_count() as u64)
            .uint("crashes", i.crashes.len() as u64)
            .uint("trace_len", i.trace.len() as u64)
            .close();
    }
    instances.push(']');
    let curve = app.key("curve");
    curve.push('[');
    for (n, p) in s.union_curve.iter().enumerate() {
        curve.push_str(if n > 0 { ",[" } else { "[" });
        json::write_uint(p.time.as_millis(), curve);
        curve.push(',');
        json::write_uint(p.covered as u64, curve);
        curve.push(',');
        json::write_uint(p.machine_time.as_millis(), curve);
        curve.push(']');
    }
    curve.push(']');
    app.close();
}

/// A compact JSON object written field by field, in order, into a string
/// that may already hold the enclosing document.
struct JsonObject<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonObject<'a> {
    fn open(out: &'a mut String) -> Self {
        out.push('{');
        JsonObject { out, empty: true }
    }

    /// Writes the separator and `"key":`, and returns the string the
    /// field's value goes into.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        json::write_escaped(key, self.out);
        self.out.push(':');
        self.out
    }

    fn uint(&mut self, key: &str, n: u64) -> &mut Self {
        json::write_uint(n, self.key(key));
        self
    }

    fn close(&mut self) {
        self.out.push('}');
    }
}

/// One app's scheduling state.
struct Slot {
    name: String,
    d_max: usize,
    /// `Some` while the app is live; taken by `finish`.
    step: Option<SessionStep>,
    queue: ReplacementQueue,
    outcome: Option<RoundOutcome>,
    /// Device demand captured right after the step's round in the
    /// parallel phase (boundary prework, DESIGN.md §16): `demand()` is a
    /// pure read of step state, and nothing between the parallel phase
    /// and the leasing boundary changes it except a boundary-2 device
    /// kill, which clears the snapshot. Consumed (`take`) every leasing
    /// boundary so a stale value can never leak into a later round.
    demand_snapshot: Option<usize>,
    /// Host nanoseconds of this round's `advance_slot` (0 while
    /// telemetry is off), summed into `campaign_parallel_task_us_total`
    /// at boundary 1.
    step_ns: u64,
    done: bool,
    last_grant_round: u64,
    wait_rounds: u64,
    replacements: usize,
    devices_lost: usize,
    report: Option<AppReport>,
}

/// A campaign paused between rounds: the round loop of [`run_campaign`]
/// turned inside out, one [`Campaign::advance_round`] call at a time.
///
/// External drivers (the campaign service) use this to interleave
/// checkpointing with execution: construct with [`Campaign::new`], call
/// [`Campaign::advance_round`] until it returns `false`, take a
/// [`Campaign::digest`] at any boundary, then [`Campaign::finish`]. The
/// sequence is exactly the body of [`run_campaign`], so driving a
/// campaign stepwise — or rebuilding one from its spec and replaying to
/// a checkpointed round — produces byte-identical results at any
/// host-thread budget.
pub struct Campaign {
    /// Shared with in-flight pool tasks during the parallel phase (the
    /// pool requires owned `'static` jobs), exclusively ours at every
    /// boundary — [`ComputePool::run`] returns only after all tasks
    /// finish and drop their clones.
    slots: Arc<Vec<Mutex<Slot>>>,
    ledger: LeaseLedger,
    farm: DeviceFarm,
    /// The campaign-wide host compute budget (DESIGN.md §16): sized
    /// once from the config, advances the apps' steps.
    compute: Arc<ComputePool>,
    /// Consulted in place at every seam when the config has a fault plan.
    injector: Option<FaultInjector>,
    kills_by_round: BTreeMap<u64, Vec<u64>>,
    steals: Arc<AtomicU64>,
    revocations: u64,
    round: u64,
    tick: VirtualDuration,
    capacity: usize,
    min_hold_rounds: u64,
    max_rounds: u64,
    host_start: std::time::Instant,
    rounds_counter: taopt_telemetry::Counter,
    round_host_us: taopt_telemetry::Histogram,
    steals_counter: taopt_telemetry::Counter,
    parallel_wall_us: taopt_telemetry::Counter,
    parallel_task_us: taopt_telemetry::Counter,
    revocations_counter: taopt_telemetry::Counter,
    kills_counter: taopt_telemetry::Counter,
    replacements_counter: taopt_telemetry::Counter,
    active_apps_gauge: taopt_telemetry::Gauge,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("apps", &self.slots.len())
            .field("round", &self.round)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Campaign {
    /// Sets up a campaign and performs the initial leasing boundary.
    ///
    /// Panics if `apps` is empty or an app asks for zero instances (such
    /// an app never holds a device and would idle until `max_rounds`).
    pub fn new(apps: Vec<CampaignApp>, config: &CampaignConfig) -> Self {
        assert!(!apps.is_empty(), "campaign needs at least one app");
        let host_start = std::time::Instant::now();
        let telemetry = taopt_telemetry::global();
        telemetry.counter("campaigns_started_total").inc();

        // One persistent host budget for the whole campaign: 0 means every
        // core the platform reports (1 if it cannot tell). A round runs at
        // most one task per app, so threads past `apps.len()` would never
        // run one.
        let host_threads = match config.host_threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        let compute = ComputePool::new(host_threads.min(apps.len()));
        let tick = apps.iter().map(|a| a.config.tick).max().expect("non-empty");
        let total_want: usize = apps.iter().map(|a| a.config.instances).sum();
        let capacity = config.capacity.unwrap_or(total_want).max(1);
        let injector = config
            .faults
            .as_ref()
            .map(|p| FaultInjector::new(p.clone()));
        let ledger = LeaseLedger::new(apps.len());
        let retry = RetryPolicy {
            max_attempts: 6,
            backoff: tick,
        };
        let slots: Vec<Mutex<Slot>> = apps
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                let d_max = a.config.instances;
                assert!(d_max > 0, "app d_max must be at least 1");
                assert!(
                    d_max < (1usize << APP_LANE_SHIFT),
                    "app d_max must fit below the per-app lane range"
                );
                let mut step = SessionStep::new(a.app, a.config);
                if let Some(inj) = &injector {
                    step = step.with_faults(inj, (i as u32) << APP_LANE_SHIFT);
                }
                Mutex::new(Slot {
                    name: a.name,
                    d_max,
                    step: Some(step),
                    queue: ReplacementQueue::new(retry),
                    outcome: None,
                    demand_snapshot: None,
                    step_ns: 0,
                    done: false,
                    last_grant_round: 0,
                    wait_rounds: 0,
                    replacements: 0,
                    devices_lost: 0,
                    report: None,
                })
            })
            .collect();

        let mut kills_by_round: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for k in &config.kills {
            kills_by_round.entry(k.round).or_default().push(k.victim);
        }

        let mut campaign = Campaign {
            slots: Arc::new(slots),
            ledger,
            farm: DeviceFarm::new(capacity),
            compute,
            injector,
            kills_by_round,
            steals: Arc::new(AtomicU64::new(0)),
            revocations: 0,
            round: 0,
            tick,
            capacity,
            min_hold_rounds: config.min_hold_rounds,
            max_rounds: config.max_rounds,
            host_start,
            rounds_counter: telemetry.counter("campaign_rounds_total"),
            round_host_us: telemetry.histogram("campaign_round_host_us"),
            steals_counter: telemetry.counter("campaign_steals_total"),
            parallel_wall_us: telemetry.counter("campaign_parallel_wall_us_total"),
            parallel_task_us: telemetry.counter("campaign_parallel_task_us_total"),
            revocations_counter: telemetry.counter("campaign_lease_revocations_total"),
            kills_counter: telemetry.counter("campaign_device_kills_total"),
            replacements_counter: telemetry.counter("campaign_replacements_total"),
            active_apps_gauge: telemetry.gauge("campaign_active_apps"),
        };

        // Initial leasing.
        lease_boundary(
            &campaign.slots,
            &mut campaign.ledger,
            &mut campaign.farm,
            campaign.injector.as_ref(),
            campaign.round,
            VirtualTime::ZERO,
            campaign.min_hold_rounds,
            &mut campaign.revocations,
            &campaign.revocations_counter,
            &campaign.replacements_counter,
        );
        campaign
    }

    /// Global rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Advances the campaign one global round. Returns `false` once no
    /// further round can run (every app finished, or the `max_rounds`
    /// stop) — after which the driver must call [`Campaign::finish`].
    ///
    /// A round in which no live app holds a device still runs the
    /// boundaries: no step advances (waiting clocks stay frozen), but the
    /// global round advances, so refused allocations and queued
    /// replacements are retried at the leasing boundary.
    pub fn advance_round(&mut self) -> bool {
        let host_timer = self.round_host_us.timer();
        let mut runnable: Vec<usize> = Vec::new();
        let mut live = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            let s = &mut *slot.lock();
            if let Some(step) = s.step.as_ref() {
                live += 1;
                if step.active_count() > 0 {
                    runnable.push(i);
                } else {
                    s.wait_rounds += 1;
                }
            }
        }
        self.active_apps_gauge.set(live as i64);
        if live == 0 {
            return false;
        }
        self.round += 1;
        self.rounds_counter.inc();

        // Pool efficiency = task time / (wall time × budget), both summed
        // over parallel phases; timed only while telemetry is on.
        let phase_start = host_timer.is_some().then(Instant::now);
        advance_parallel(
            &self.slots,
            runnable.clone(),
            &self.compute,
            &self.steals,
            phase_start.is_some(),
        );
        if let Some(t0) = phase_start {
            self.parallel_wall_us.add(t0.elapsed().as_micros() as u64);
        }

        let global_now = VirtualTime::ZERO + self.tick * self.round;

        // Boundary 1: stall-released devices back to the farm.
        let mut task_ns = 0u64;
        for &i in &runnable {
            let s = &mut *self.slots[i].lock();
            task_ns += s.step_ns;
            let out = s.outcome.take().expect("step advanced this round");
            s.done = out.done;
            for d in out.released {
                self.ledger.release(d);
                let _ = self.farm.deallocate(d, global_now);
            }
        }
        self.parallel_task_us.add(task_ns / 1_000);

        // Boundary 2: scheduled device kills, then the injector's losses
        // (none without a fault plan), decided after the scheduled kills.
        if let Some(victims) = self.kills_by_round.remove(&self.round) {
            for v in victims {
                let leased = self.ledger.leased_devices();
                if leased.is_empty() {
                    break;
                }
                self.lose_device(leased[(v as usize) % leased.len()], global_now);
            }
        }
        let losses = self.injector.as_ref().map_or_else(Vec::new, |inj| {
            inj.device_losses(&self.farm, self.round, global_now)
        });
        for d in losses {
            self.lose_device(d, global_now);
        }

        // Boundary 3: finish apps that reached their termination
        // condition.
        for &i in &runnable {
            if self.slots[i].lock().done {
                self.finish_app(i, global_now);
            }
        }

        if self.round >= self.max_rounds {
            if let Some(t0) = host_timer {
                self.round_host_us.record(t0.elapsed().as_micros() as u64);
            }
            return false;
        }

        // Boundary 4: leasing for the next round.
        lease_boundary(
            &self.slots,
            &mut self.ledger,
            &mut self.farm,
            self.injector.as_ref(),
            self.round,
            global_now,
            self.min_hold_rounds,
            &mut self.revocations,
            &self.revocations_counter,
            &self.replacements_counter,
        );
        if let Some(t0) = host_timer {
            self.round_host_us.record(t0.elapsed().as_micros() as u64);
        }
        true
    }

    /// Fingerprints the campaign's logical state at the current round
    /// boundary (see [`CampaignDigest`]). Every field is deterministic
    /// for a fixed spec regardless of host budget, so digests taken at
    /// the same round by an original run and a checkpoint replay must be
    /// equal.
    pub fn digest(&mut self) -> CampaignDigest {
        let fault_stats = self.injector.as_ref().map(|i| i.stats());
        let slots = self
            .slots
            .iter()
            .map(|slot| {
                let s = slot.lock();
                SlotDigest {
                    name: s.name.clone(),
                    progress: s.step.as_ref().map(|step| step.progress()),
                    wait_rounds: s.wait_rounds,
                    replacements: s.replacements as u64,
                    devices_lost: s.devices_lost as u64,
                }
            })
            .collect();
        CampaignDigest {
            round: self.round,
            slots,
            leased: self
                .ledger
                .leases()
                .into_iter()
                .map(|(d, a)| (d.0 as u64, a as u64))
                .collect(),
            grants: self.ledger.grants(),
            releases: self.ledger.releases(),
            kills: self.ledger.kills(),
            conflicts: self.ledger.conflicts(),
            pool_active: self.farm.active_count() as u64,
            pool_lost: self.farm.lost_count() as u64,
            pool_peak: self.farm.peak_active() as u64,
            revocations: self.revocations,
            faults_injected: fault_stats
                .as_ref()
                .map_or(0, |s| s.total_injected() as u64),
            faults_recovered: fault_stats
                .as_ref()
                .map_or(0, |s| s.total_recovered() as u64),
        }
    }

    /// Finishes the campaign: drains any still-live apps and assembles
    /// the result.
    pub fn finish(mut self) -> CampaignResult {
        self.steals_counter.add(self.steals.load(Ordering::Relaxed));
        self.active_apps_gauge.set(0);

        // Drain any still-live apps (max_rounds stop): finish them as-is.
        let end_now = VirtualTime::ZERO + self.tick * self.round;
        let mut reports: Vec<AppReport> = Vec::with_capacity(self.slots.len());
        for i in 0..self.slots.len() {
            self.finish_app(i, end_now);
            let report = self.slots[i].lock().report.take();
            reports.push(report.expect("every app finished"));
        }

        let machine_time = reports
            .iter()
            .fold(VirtualDuration::ZERO, |acc, r| acc + r.session.machine_time);
        CampaignResult {
            rounds: self.round,
            tick: self.tick,
            wall_clock: self.tick * self.round,
            machine_time,
            capacity: self.capacity,
            peak_active: self.farm.peak_active(),
            grants: self.ledger.grants(),
            revocations: self.revocations,
            lease_conflicts: self.ledger.conflicts(),
            farm_active_at_end: self.farm.active_count(),
            steals: self.steals.load(Ordering::Relaxed),
            fault_stats: self.injector.as_ref().map(|i| i.stats()),
            host_ms: self.host_start.elapsed().as_millis() as u64,
            apps: reports,
        }
    }

    /// Kills leased device `d`: the farm loses it, the owning app's step
    /// retires the instance on it, and the app queues a replacement.
    fn lose_device(&mut self, d: DeviceId, now: VirtualTime) {
        let app = self.ledger.kill(d).expect("device was leased");
        let _ = self.farm.kill(d, now);
        self.kills_counter.inc();
        let s = &mut *self.slots[app].lock();
        if let Some(step) = s.step.as_mut() {
            step.lose_device(d);
        }
        // The loss changes what the step will ask for, so the
        // parallel-phase demand snapshot is stale.
        s.demand_snapshot = None;
        s.devices_lost += 1;
        s.queue.device_lost(now);
    }

    /// Finishes app `i` if it is still live: its step drains, its devices
    /// go back to the farm, and its report is stored in the slot.
    fn finish_app(&mut self, i: usize, now: VirtualTime) {
        let s = &mut *self.slots[i].lock();
        let Some(step) = s.step.take() else {
            return;
        };
        let fin = step.finish();
        for d in fin.released {
            self.ledger.release(d);
            let _ = self.farm.deallocate(d, now);
        }
        s.report = Some(AppReport {
            name: s.name.clone(),
            session: fin.result,
            replacements: s.replacements,
            devices_lost: s.devices_lost,
            unresolved_orphans: fin.unresolved_orphans,
            stream: fin.stream,
            enforcement_retries: fin.enforcement_retries,
            wait_rounds: s.wait_rounds,
            finished_round: self.round,
            warm: fin.warm,
        });
    }
}

/// Runs a campaign to completion.
///
/// Deterministic for a fixed set of apps, seeds and [`CampaignConfig`]
/// (excluding `host_threads`, which must not change results — see the
/// module docs and `tests/campaign.rs`).
pub fn run_campaign(apps: Vec<CampaignApp>, config: &CampaignConfig) -> CampaignResult {
    let mut campaign = Campaign::new(apps, config);
    while campaign.advance_round() {}
    campaign.finish()
}

/// Advances one runnable slot's step and captures the boundary prework:
/// the round outcome plus a demand snapshot the leasing boundary can
/// consume without re-walking step state (DESIGN.md §16). `timed`
/// records the call's host time in the slot (0 otherwise).
fn advance_slot(slot: &Mutex<Slot>, timed: bool) {
    let start = timed.then(Instant::now);
    let s = &mut *slot.lock();
    let step = s.step.as_mut().expect("runnable app has a step");
    let out = step.advance_round();
    let demand = step.demand();
    s.outcome = Some(out);
    s.demand_snapshot = Some(demand);
    s.step_ns = start.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
}

/// Parallel phase: advance every runnable step by one round on the
/// campaign's persistent [`ComputePool`]. Steps touch only their own
/// state, so execution order cannot affect results.
fn advance_parallel(
    slots: &Arc<Vec<Mutex<Slot>>>,
    runnable: Vec<usize>,
    compute: &ComputePool,
    steals: &Arc<AtomicU64>,
    timed: bool,
) {
    let (tasks, budget) = (runnable.len(), compute.budget());
    let slots = Arc::clone(slots);
    let steals = Arc::clone(steals);
    compute.run(tasks, move |k, w| {
        if w != home_worker(tasks, budget, k) {
            steals.fetch_add(1, Ordering::Relaxed);
        }
        advance_slot(&slots[runnable[k]], timed);
    });
}

/// Sequential leasing boundary: demand collection, starvation repair,
/// max-min-fair grants, replacement bookkeeping.
#[allow(clippy::too_many_arguments)]
fn lease_boundary(
    slots: &[Mutex<Slot>],
    ledger: &mut LeaseLedger,
    farm: &mut DeviceFarm,
    injector: Option<&FaultInjector>,
    round: u64,
    global_now: VirtualTime,
    min_hold_rounds: u64,
    revocations: &mut u64,
    revocations_counter: &taopt_telemetry::Counter,
    replacements_counter: &taopt_telemetry::Counter,
) {
    let n = slots.len();
    // Demand: the mode's natural demand merged with due replacement
    // retries (modes whose demand does not regrow after a loss — e.g.
    // resource mode between discoveries — still get their device back).
    let mut due: Vec<Vec<crate::resilience::ReplacementRequest>> = vec![Vec::new(); n];
    let mut want = vec![0usize; n];
    for i in 0..n {
        let s = &mut *slots[i].lock();
        // Consume the parallel-phase demand snapshot unconditionally:
        // even a skipped (finished) slot must not carry one forward.
        let snapshot = s.demand_snapshot.take();
        let Some(step) = s.step.as_ref() else {
            continue;
        };
        due[i] = s.queue.due(global_now);
        let cap = s.d_max.saturating_sub(step.active_count());
        // Demand was captured right after the step's round (boundary
        // prework); a boundary-2 kill cleared it, and apps that did not
        // run this round (waiting, or the initial boundary) never had
        // one — those recompute here.
        let demand = snapshot.unwrap_or_else(|| step.demand());
        debug_assert_eq!(demand, step.demand(), "stale demand snapshot");
        want[i] = demand.max(due[i].len().min(cap));
    }

    // Max-min fair targets with a rotating remainder so contended slots
    // cycle through apps instead of pinning to low indices.
    let desired: Vec<usize> = (0..n)
        .map(|i| (ledger.holdings(i) + want[i]).min(slots[i].lock().d_max))
        .collect();
    let mut targets = fair_targets_from(farm.capacity(), &desired, (round as usize) % n.max(1));

    // Starvation repair: a starved app with a positive fair share may
    // revoke from a donor when the farm is exhausted.
    let starved: Vec<usize> = (0..n)
        .filter(|&i| want[i] > 0 && ledger.holdings(i) == 0 && targets[i] > 0)
        .collect();
    for _ in &starved {
        if farm.active_count() < farm.capacity() {
            break; // free capacity serves the starved app directly
        }
        // Donor: over-target holders first, then any holder past the
        // protection window; richest first, oldest grant breaks ties.
        let mut donor: Option<(bool, usize, u64, usize)> = None;
        for j in 0..n {
            let h = ledger.holdings(j);
            if h == 0 {
                continue;
            }
            let s = slots[j].lock();
            if s.step.is_none() {
                continue;
            }
            let over = h > targets[j];
            let held_long = round.saturating_sub(s.last_grant_round) >= min_hold_rounds;
            if !over && !held_long {
                continue;
            }
            let better = match &donor {
                None => true,
                Some((b_over, b_h, b_lg, _)) => {
                    (over, h, u64::MAX - s.last_grant_round) > (*b_over, *b_h, u64::MAX - *b_lg)
                }
            };
            if better {
                donor = Some((over, h, s.last_grant_round, j));
            }
        }
        let Some((_, _, _, j)) = donor else { break };
        let mut s = slots[j].lock();
        let Some(d) = s.step.as_mut().and_then(|st| st.shrink_one()) else {
            break;
        };
        drop(s);
        ledger.release(d);
        let _ = farm.deallocate(d, global_now);
        *revocations += 1;
        revocations_counter.inc();
        // The donor sits this boundary out so the freed slot reaches the
        // starved app.
        targets[j] = targets[j].min(ledger.holdings(j));
        want[j] = 0;
    }

    // Grant loop: one device at a time to the under-target app with the
    // fewest holdings (ties: least recently granted, then lowest index).
    loop {
        let mut pick: Option<(usize, u64, usize)> = None;
        for i in 0..n {
            if want[i] == 0 || ledger.holdings(i) >= targets[i] {
                continue;
            }
            let s = slots[i].lock();
            if s.step.is_none() {
                continue;
            }
            let key = (ledger.holdings(i), s.last_grant_round, i);
            let better = match &pick {
                None => true,
                Some(best) => key < *best,
            };
            if better {
                pick = Some(key);
            }
        }
        let Some((_, _, i)) = pick else { break };
        // One refusal draw per attempt, here at the sequential boundary
        // only: the injector numbers attempts in call order.
        if injector.is_some_and(|inj| inj.refuse_allocation(global_now)) {
            // The cloud refused this app's attempt; it re-demands next
            // boundary. Zeroing `want` guarantees the loop progresses
            // even at pathological refusal rates.
            want[i] = 0;
            continue;
        }
        let Ok(device) = farm.allocate(global_now) else {
            break;
        };
        ledger.grant(i, device);
        let s = &mut *slots[i].lock();
        let iid = s.step.as_mut().expect("live").grant(device);
        s.last_grant_round = round;
        want[i] -= 1;
        if !due[i].is_empty() {
            let req = due[i].remove(0);
            s.replacements += 1;
            replacements_counter.inc();
            if let Some(inj) = injector {
                inj.record_recovery(
                    req.lost_at,
                    global_now,
                    Some(((i as u32) << APP_LANE_SHIFT) + iid.0),
                    taopt_chaos::RecoveryKind::DeviceReallocated,
                );
            }
        }
    }

    // Unserved replacement demand retries later with backoff.
    for i in 0..n {
        let s = &mut *slots[i].lock();
        for req in std::mem::take(&mut due[i]) {
            s.queue.defer(req, global_now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RunMode;
    use taopt_app_sim::{generate_app, GeneratorConfig};
    use taopt_tools::ToolKind;

    fn app(seed: u64) -> CampaignApp {
        CampaignApp {
            name: format!("app{seed}"),
            app: Arc::new(generate_app(&GeneratorConfig::small("pool", seed)).unwrap()),
            config: SessionConfig::new(ToolKind::Monkey, RunMode::Baseline),
        }
    }

    #[test]
    fn pool_budget_is_capped_at_the_app_count() {
        let eight = CampaignConfig {
            host_threads: 8,
            ..CampaignConfig::default()
        };
        assert_eq!(Campaign::new(vec![app(1)], &eight).compute.budget(), 1);
        assert_eq!(
            Campaign::new(vec![app(1), app(2), app(3)], &eight)
                .compute
                .budget(),
            3
        );
        let auto = Campaign::new(vec![app(1)], &CampaignConfig::default());
        assert_eq!(auto.compute.budget(), 1);
    }
}
