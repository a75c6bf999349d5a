//! The persistent campaign service: a multi-tenant queue over one shared
//! device-farm capacity budget.
//!
//! # Model
//!
//! Tenants [`CampaignService::submit`] serializable [`CampaignSpec`]s with
//! a priority. A scheduler thread admits queued campaigns against the
//! farm-capacity budget (highest priority first, FIFO within a priority)
//! and runs each admitted campaign on its own runner thread, driving the
//! deterministic [`Campaign`] round loop. When a waiting campaign
//! outranks running ones and capacity is exhausted, the lowest-priority
//! runners are asked to yield: they checkpoint at the next round boundary
//! and re-queue (preemption is just an early resume).
//!
//! # Durability
//!
//! Every unfinished campaign has a valid checkpoint on disk from the
//! moment it is accepted until it completes, and which write a caller
//! waits for depends on what the caller was promised:
//!
//! - **Synchronous, on the caller's thread** — the writes someone is
//!   told are durable. [`CampaignService::submit`] and
//!   [`CampaignService::import_checkpoint`] save the campaign's first
//!   checkpoint and fsync the checkpoint directory before they return
//!   (accepted ⇒ durable, file *and* directory entry). A runner asked to
//!   yield — preemption, [`CampaignService::drain`],
//!   [`CampaignService::export_checkpoint`] — saves its pause checkpoint
//!   itself before the campaign turns [`CampaignStatus::Paused`], so
//!   `Paused { round }` always names the round on disk.
//! - **Write-behind, on the writer thread** — cadence checkpoints. Every
//!   [`ServiceConfig::checkpoint_every`] rounds the runner hands
//!   `(round, digest)` to the service's one checkpoint-writer thread and
//!   runs on; the round loop never waits for `create` + `fsync` +
//!   `rename`. The writer holds at most one unwritten checkpoint per
//!   campaign (a newer hand-off replaces it), serves campaigns
//!   round-robin, and writes through the same
//!   [`CheckpointStore::save`]. So the durable snapshot trails the
//!   executed round by at most one unwritten plus one in-flight
//!   checkpoint per campaign; `service_checkpoint_lag_rounds` shows the
//!   distance live. Trailing is free: a checkpoint supersedes its
//!   predecessor and resume replays from round 0 whichever round is on
//!   disk, so neither the result nor the recovery compute depends on it.
//!
//! Ordering between the two: before a runner writes a pause checkpoint,
//! and before a completed campaign's checkpoint is deleted, the
//! campaign's unwritten hand-off is discarded and a write in flight is
//! waited out — an older cadence write can never land on top of a pause
//! checkpoint or resurrect a finished campaign. A cadence write that
//! fails is counted (`service_checkpoint_write_errors_total`) and fails
//! the campaign at its next hand-off.
//!
//! [`CampaignService::crash`] kills the service abruptly — unwritten
//! hand-offs are dropped and no final checkpoints are taken, mirroring a
//! real process death — while [`CampaignService::shutdown`] lets the
//! writer drain. [`CampaignService::recover`] rebuilds the whole queue
//! from the checkpoint directory: every in-flight campaign resumes from
//! its last durable snapshot by deterministic replay with digest
//! verification, and completes byte-identical to an uninterrupted run
//! (DESIGN.md §13).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use taopt::{Campaign, CampaignDigest, CampaignSequence};
use taopt_app_sim::AppEvolution;
use taopt_chaos::{FaultKind, RecoveryKind};
use taopt_telemetry::{Gauge, Labels};
use taopt_ui_model::json;

use crate::checkpoint::{micros, Checkpoint, CheckpointStore, CHECKPOINT_VERSION};
use crate::error::ServiceError;
use crate::spec::CampaignSpec;
use crate::writer::{CheckpointWriter, HandOff};

/// Service-level knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total device capacity the service may lease out at once.
    pub farm_capacity: usize,
    /// Directory for durable checkpoints.
    pub checkpoint_dir: PathBuf,
    /// Hand-off cadence: every this many rounds a running campaign hands
    /// a checkpoint to the write-behind writer. The durable snapshot
    /// trails by at most one unwritten + one in-flight checkpoint per
    /// campaign; submit/import/pause/drain/export are synchronous.
    pub checkpoint_every: u64,
}

impl ServiceConfig {
    /// Defaults: 16 devices, a checkpoint hand-off every 8 rounds.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            farm_capacity: 16,
            checkpoint_dir: checkpoint_dir.into(),
            checkpoint_every: 8,
        }
    }
}

/// Service-assigned campaign handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(pub u64);

/// Scheduling priority; higher runs first.
pub type Priority = u8;

/// Where a campaign is in its service lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Waiting for capacity.
    Queued,
    /// Executing; `round` is the last completed global round.
    Running {
        /// Last completed global round.
        round: u64,
    },
    /// Preempted (checkpointed and re-queued); resumes from `round`.
    Paused {
        /// Round the pause checkpoint was taken at.
        round: u64,
    },
    /// Finished; the coverage report is available.
    Done,
    /// Could not run or resume.
    Failed(
        /// Human-readable reason.
        String,
    ),
}

struct Entry {
    priority: Priority,
    spec: CampaignSpec,
    demand: usize,
    status: CampaignStatus,
    /// The finished report; a fetch clones the `Arc` under the state lock
    /// and copies the text after releasing it.
    report: Option<Arc<str>>,
    resume_round: u64,
    /// Release version `resume_round` belongs to (0 for plain campaigns).
    resume_sequence_version: u64,
    resume_digest: Option<CampaignDigest>,
    pause: Arc<AtomicBool>,
    /// Mid-export: the scheduler must not (re-)admit this campaign while
    /// its checkpoint is being handed to another shard.
    migrating: bool,
}

struct State {
    entries: BTreeMap<u64, Entry>,
    /// Queued (or paused-and-requeued) campaign ids.
    queue: Vec<u64>,
    /// Currently running campaign ids.
    running: Vec<u64>,
    next_id: u64,
    /// Graceful stop: drain the queue, then exit.
    stop: bool,
    /// Abrupt kill: exit *now*, no final checkpoints.
    crashed: bool,
    /// Draining: every running campaign checkpoints and yields, nothing
    /// new is admitted or accepted (the migration-ready quiescent state).
    draining: bool,
}

struct Shared {
    config: ServiceConfig,
    store: CheckpointStore,
    /// Cadence checkpoints go to disk through here (see `# Durability`).
    writer: CheckpointWriter,
    state: Mutex<State>,
    cv: Condvar,
}

/// The campaign service. Dropping it without [`CampaignService::shutdown`]
/// or [`CampaignService::crash`] crashes it (abrupt, like process death).
pub struct CampaignService {
    shared: Arc<Shared>,
    /// The scheduler and checkpoint-writer threads, until the service is
    /// shut down, crashed or dropped.
    threads: Option<(JoinHandle<()>, JoinHandle<()>)>,
}

impl CampaignService {
    /// Starts a service with an empty queue.
    pub fn start(config: ServiceConfig) -> Result<Self, ServiceError> {
        let store = CheckpointStore::new(config.checkpoint_dir.clone())?;
        let shared = Arc::new(Shared {
            config,
            store,
            writer: CheckpointWriter::new(),
            state: Mutex::new(State {
                entries: BTreeMap::new(),
                queue: Vec::new(),
                running: Vec::new(),
                next_id: 1,
                stop: false,
                crashed: false,
                draining: false,
            }),
            cv: Condvar::new(),
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler_loop(&shared))
        };
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.writer.run(&shared.store))
        };
        Ok(CampaignService {
            shared,
            threads: Some((scheduler, writer)),
        })
    }

    /// Stops both threads and joins them. A crash drops the writer's
    /// unwritten hand-offs at once and takes no final checkpoints; a
    /// graceful stop lets the writer drain once every runner has exited.
    /// Nothing is written after this returns.
    fn halt(&mut self, crash: bool) {
        let Some((scheduler, writer)) = self.threads.take() else {
            return;
        };
        if crash {
            self.shared.writer.stop(true);
        }
        {
            let mut st = self.shared.state.lock();
            if crash {
                st.crashed = true;
            } else {
                st.stop = true;
            }
        }
        self.shared.cv.notify_all();
        // The scheduler joins the runners, so after this nothing hands off.
        let _ = scheduler.join();
        if !crash {
            self.shared.writer.stop(false);
        }
        let _ = writer.join();
    }

    /// Writes a campaign's *first* checkpoint on the caller's thread:
    /// file and directory entry are durable before this returns.
    fn create_checkpoint(&self, ckpt: &Checkpoint) -> Result<(), ServiceError> {
        let store = &self.shared.store;
        store.save(ckpt)?;
        // Never leave behind a checkpoint whose submitter was told it failed.
        store
            .sync_dir()
            .inspect_err(|_| store.remove(ckpt.campaign))
    }

    /// Restarts a killed service from its checkpoint directory: every
    /// readable checkpoint is re-enqueued at its stored priority and will
    /// resume from its stored round. Unreadable checkpoints are left on
    /// disk and reported, never panicked on.
    pub fn recover(config: ServiceConfig) -> Result<(Self, RecoveryReport), ServiceError> {
        let service = CampaignService::start(config)?;
        let mut report = RecoveryReport::default();
        let paths = service.shared.store.list()?;
        for path in paths {
            match service.shared.store.load(&path) {
                Ok(ckpt) => {
                    let id = service.enqueue_checkpoint(ckpt);
                    report.resumed.push(id);
                }
                Err(e) => report.rejected.push((path, e)),
            }
        }
        taopt_telemetry::global()
            .counter("service_recoveries_total")
            .inc();
        Ok((service, report))
    }

    /// Queues a durable checkpoint under its own id: `Queued` if it
    /// stands at round 0 of its first version, `Paused` at its round
    /// otherwise.
    fn enqueue_checkpoint(&self, ckpt: Checkpoint) -> CampaignId {
        let mut st = self.shared.state.lock();
        let id = st.next_id.max(ckpt.campaign + 1);
        st.next_id = id;
        st.entries.insert(
            ckpt.campaign,
            Entry {
                priority: ckpt.priority,
                demand: ckpt.spec.device_demand(),
                status: if ckpt.round > 0 || ckpt.sequence_version > 0 {
                    CampaignStatus::Paused { round: ckpt.round }
                } else {
                    CampaignStatus::Queued
                },
                report: None,
                resume_round: ckpt.round,
                resume_sequence_version: ckpt.sequence_version,
                resume_digest: ckpt.digest,
                pause: Arc::new(AtomicBool::new(false)),
                migrating: false,
                spec: ckpt.spec,
            },
        );
        st.queue.push(ckpt.campaign);
        self.shared.cv.notify_all();
        CampaignId(ckpt.campaign)
    }

    /// Admits a campaign arriving from outside the service: admission
    /// control against the farm, recipe validation, a fresh local id, a
    /// durable first checkpoint, then the queue.
    fn admit(&self, ckpt: Checkpoint) -> Result<CampaignId, ServiceError> {
        let demand = ckpt.spec.device_demand();
        if demand > self.shared.config.farm_capacity {
            return Err(ServiceError::Rejected(format!(
                "campaign demands {demand} devices, farm has {}",
                self.shared.config.farm_capacity
            )));
        }
        // Validate the recipe up front: unknown apps fail the caller,
        // not a runner thread later. Catalog apps are looked up by name,
        // not generated: the runner builds them.
        ckpt.spec.validate()?;
        let id = {
            let mut st = self.shared.state.lock();
            if st.stop || st.crashed || st.draining {
                return Err(ServiceError::Rejected(
                    "service is shutting down".to_owned(),
                ));
            }
            let id = st.next_id;
            st.next_id += 1;
            id
        };
        let ckpt = Checkpoint {
            campaign: id,
            ..ckpt
        };
        self.create_checkpoint(&ckpt)?;
        Ok(self.enqueue_checkpoint(ckpt))
    }

    /// Submits a campaign. Admission control rejects specs the farm can
    /// never satisfy; accepted submissions are durable (a round-0
    /// checkpoint and its directory entry are fsynced before this
    /// returns).
    pub fn submit(
        &self,
        spec: CampaignSpec,
        priority: Priority,
    ) -> Result<CampaignId, ServiceError> {
        let id = self.admit(Checkpoint {
            version: CHECKPOINT_VERSION,
            campaign: 0, // `admit` assigns the id
            priority,
            round: 0,
            sequence_version: 0,
            spec,
            digest: None,
        })?;
        taopt_telemetry::global()
            .counter("service_campaigns_submitted_total")
            .inc();
        Ok(id)
    }

    /// Current status of a campaign.
    pub fn status(&self, id: CampaignId) -> Result<CampaignStatus, ServiceError> {
        let st = self.shared.state.lock();
        st.entries
            .get(&id.0)
            .map(|e| e.status.clone())
            .ok_or(ServiceError::UnknownCampaign(id.0))
    }

    /// Blocks until a campaign reaches a terminal state, returning it.
    pub fn wait(&self, id: CampaignId) -> Result<CampaignStatus, ServiceError> {
        loop {
            if let Some(status) = self.wait_timeout(id, Duration::from_secs(3600))? {
                return Ok(status);
            }
        }
    }

    /// Blocks until a campaign reaches a terminal state or `timeout`
    /// elapses, whichever comes first. Returns `Ok(None)` on timeout —
    /// the bounded primitive network handlers use so a slow campaign can
    /// never hang a connection forever.
    pub fn wait_timeout(
        &self,
        id: CampaignId,
        timeout: Duration,
    ) -> Result<Option<CampaignStatus>, ServiceError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            match st.entries.get(&id.0) {
                None => return Err(ServiceError::UnknownCampaign(id.0)),
                Some(e) => match &e.status {
                    CampaignStatus::Done | CampaignStatus::Failed(_) => {
                        return Ok(Some(e.status.clone()))
                    }
                    _ => {}
                },
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let res = self.shared.cv.wait_for(&mut st, deadline - now);
            if res.timed_out() {
                // Re-check the status once before reporting the timeout:
                // the state may have turned terminal as the clock ran out.
                if let Some(e) = st.entries.get(&id.0) {
                    if matches!(e.status, CampaignStatus::Done | CampaignStatus::Failed(_)) {
                        return Ok(Some(e.status.clone()));
                    }
                }
                return Ok(None);
            }
        }
    }

    /// Blocks until every submitted campaign is terminal.
    pub fn wait_all(&self) {
        let mut st = self.shared.state.lock();
        while st
            .entries
            .values()
            .any(|e| !matches!(e.status, CampaignStatus::Done | CampaignStatus::Failed(_)))
        {
            self.shared.cv.wait(&mut st);
        }
    }

    /// The finished campaign's canonical coverage report
    /// ([`taopt::CampaignResult::coverage_report`]), if it completed.
    pub fn result(&self, id: CampaignId) -> Result<Option<String>, ServiceError> {
        let report = {
            let st = self.shared.state.lock();
            st.entries
                .get(&id.0)
                .map(|e| e.report.clone())
                .ok_or(ServiceError::UnknownCampaign(id.0))?
        };
        Ok(report.map(|r| String::from(&*r)))
    }

    /// Kills the service abruptly: checkpoints handed off but not yet
    /// written are dropped and runners exit at their next round boundary
    /// *without* writing a final checkpoint, exactly like a process
    /// death. The last durable checkpoints stay on disk for
    /// [`CampaignService::recover`]; nothing is written after this
    /// returns.
    pub fn crash(mut self) {
        taopt_telemetry::global().fault(FaultKind::ServiceKilled.label());
        self.halt(true);
    }

    /// Graceful shutdown: waits for every queued and running campaign to
    /// reach a terminal state, then stops the scheduler and lets the
    /// checkpoint writer drain. After a [`CampaignService::drain`] there
    /// is nothing to wait for — the checkpointed queue stays durable on
    /// disk for a later recover.
    pub fn shutdown(mut self) {
        if !self.shared.state.lock().draining {
            self.wait_all();
        }
        self.halt(false);
    }

    /// Number of campaigns not yet terminal (queued, running or paused)
    /// — the application-level load signal network front ends throttle
    /// on.
    pub fn pending_campaigns(&self) -> usize {
        let st = self.shared.state.lock();
        st.entries
            .values()
            .filter(|e| !matches!(e.status, CampaignStatus::Done | CampaignStatus::Failed(_)))
            .count()
    }

    /// Prometheus-format snapshot of the process-global telemetry
    /// registry (the service's live status endpoint).
    pub fn metrics_text(&self) -> String {
        taopt_telemetry::global().render_prometheus()
    }

    /// Graceful drain: stops accepting submissions, asks every running
    /// campaign to checkpoint and yield, and blocks until the service is
    /// quiescent — every runner has written its pause checkpoint itself,
    /// so the checkpoint writer holds nothing either. Returns the
    /// campaigns that now sit on disk as durable checkpoints, ready for [`CampaignService::export_checkpoint`] or a
    /// later [`CampaignService::recover`].
    pub fn drain(&self) -> Vec<CampaignId> {
        let mut st = self.shared.state.lock();
        st.draining = true;
        for id in st.running.clone() {
            if let Some(e) = st.entries.get(&id) {
                e.pause.store(true, Ordering::SeqCst);
            }
        }
        self.shared.cv.notify_all();
        while !st.running.is_empty() && !st.crashed {
            self.shared.cv.wait(&mut st);
        }
        let checkpointed: Vec<CampaignId> = st
            .entries
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e.status,
                    CampaignStatus::Queued | CampaignStatus::Paused { .. }
                )
            })
            .map(|(id, _)| CampaignId(*id))
            .collect();
        drop(st);
        taopt_telemetry::global()
            .counter("service_drains_total")
            .inc();
        checkpointed
    }

    /// Exports a campaign's durable checkpoint for migration to another
    /// shard, *detaching* it from this service: a running campaign is
    /// preempted first (checkpoint at its next round boundary), then the
    /// entry and its local checkpoint file are removed so the campaign
    /// cannot run on both shards. Terminal campaigns cannot be exported.
    pub fn export_checkpoint(&self, id: CampaignId) -> Result<Checkpoint, ServiceError> {
        let mut st = self.shared.state.lock();
        loop {
            if st.crashed || st.stop {
                return Err(ServiceError::Rejected(
                    "service is shutting down".to_owned(),
                ));
            }
            let e = st
                .entries
                .get_mut(&id.0)
                .ok_or(ServiceError::UnknownCampaign(id.0))?;
            match e.status {
                CampaignStatus::Done | CampaignStatus::Failed(_) => {
                    return Err(ServiceError::Rejected(format!(
                        "campaign {} is terminal; nothing to migrate",
                        id.0
                    )));
                }
                CampaignStatus::Running { .. } => {
                    // Preempt, and pin the entry so the scheduler cannot
                    // re-admit it between the pause and the detach.
                    e.migrating = true;
                    e.pause.store(true, Ordering::SeqCst);
                    self.shared.cv.notify_all();
                    self.shared.cv.wait(&mut st);
                }
                CampaignStatus::Queued | CampaignStatus::Paused { .. } => {
                    e.migrating = true;
                    break;
                }
            }
        }
        let ckpt = match self.shared.store.load(&self.shared.store.path_for(id.0)) {
            Ok(c) => c,
            Err(err) => {
                // Leave the campaign schedulable: the export failed, the
                // shard still owns it.
                if let Some(e) = st.entries.get_mut(&id.0) {
                    e.migrating = false;
                }
                self.shared.cv.notify_all();
                return Err(err);
            }
        };
        st.queue.retain(|q| *q != id.0);
        st.entries.remove(&id.0);
        drop(st);
        self.shared.store.remove(id.0);
        taopt_telemetry::global()
            .counter("service_exports_total")
            .inc();
        self.shared.cv.notify_all();
        Ok(ckpt)
    }

    /// Admits a checkpoint exported by another shard. The campaign gets a
    /// fresh local id, its checkpoint is made durable here before this
    /// returns, and it resumes by deterministic replay — the stored
    /// [`CampaignDigest`] is verified at the checkpointed round, so a
    /// tampered or diverging checkpoint fails the campaign with a clean
    /// [`ServiceError::DigestMismatch`] rather than producing silently
    /// wrong results. Admission control applies exactly as for
    /// [`CampaignService::submit`].
    pub fn import_checkpoint(&self, ckpt: Checkpoint) -> Result<CampaignId, ServiceError> {
        let id = self.admit(ckpt)?;
        taopt_telemetry::global()
            .counter("service_imports_total")
            .inc();
        Ok(id)
    }
}

impl Drop for CampaignService {
    fn drop(&mut self) {
        self.halt(true);
    }
}

/// What [`CampaignService::recover`] found in the checkpoint directory.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Campaigns re-enqueued from durable checkpoints.
    pub resumed: Vec<CampaignId>,
    /// Checkpoint files that failed validation, with their errors.
    pub rejected: Vec<(PathBuf, ServiceError)>,
}

/// Scheduler: admits queued campaigns against the capacity budget and
/// joins runner threads on exit.
fn scheduler_loop(shared: &Arc<Shared>) {
    let telemetry = taopt_telemetry::global();
    let queue_gauge = telemetry.gauge("service_queue_depth");
    let running_gauge = telemetry.gauge("service_running_campaigns");
    let leased_gauge = telemetry.gauge("service_capacity_leased");
    let preemptions = telemetry.counter("service_preemptions_total");
    let mut runners: Vec<JoinHandle<()>> = Vec::new();

    let mut st = shared.state.lock();
    loop {
        if st.crashed || (st.stop && st.running.is_empty() && (st.queue.is_empty() || st.draining))
        {
            break;
        }

        // Highest priority first; FIFO (lowest id) within a priority.
        // Entries mid-export and a draining service admit nothing: drain
        // means "reach the quiescent all-checkpointed state", and an
        // exported campaign must not restart under the exporter's feet.
        let mut order: Vec<u64> = if st.draining {
            Vec::new()
        } else {
            st.queue
                .iter()
                .copied()
                .filter(|id| !st.entries[id].migrating)
                .collect()
        };
        order.sort_by_key(|id| {
            let e = &st.entries[id];
            (std::cmp::Reverse(e.priority), *id)
        });
        let mut leased: usize = st.running.iter().map(|id| st.entries[id].demand).sum();
        for id in order {
            let (demand, priority) = {
                let e = &st.entries[&id];
                (e.demand, e.priority)
            };
            if leased + demand <= shared.config.farm_capacity {
                st.queue.retain(|q| *q != id);
                st.running.push(id);
                leased += demand;
                let e = st.entries.get_mut(&id).expect("queued entry exists");
                e.status = CampaignStatus::Running {
                    round: e.resume_round,
                };
                let shared = Arc::clone(shared);
                runners.push(std::thread::spawn(move || run_one(&shared, id)));
            } else {
                // Preemption: ask the lowest-priority strictly-outranked
                // runners to yield until this campaign would fit. They
                // checkpoint at their next boundary and re-queue; this
                // campaign is admitted on a later pass once capacity
                // actually frees.
                let mut victims: Vec<(Priority, u64)> = st
                    .running
                    .iter()
                    .map(|r| (st.entries[r].priority, *r))
                    .filter(|(p, _)| *p < priority)
                    .collect();
                victims.sort();
                let mut reclaimable = shared.config.farm_capacity - leased;
                for (_, victim) in victims {
                    if reclaimable >= demand {
                        break;
                    }
                    let v = &st.entries[&victim];
                    if !v.pause.swap(true, Ordering::SeqCst) {
                        preemptions.inc();
                    }
                    reclaimable += v.demand;
                }
                // Strict priority order: do not backfill lower-priority
                // campaigns past a blocked higher-priority one.
                break;
            }
        }

        queue_gauge.set(st.queue.len() as i64);
        running_gauge.set(st.running.len() as i64);
        leased_gauge.set(
            st.running
                .iter()
                .map(|id| st.entries[id].demand)
                .sum::<usize>() as i64,
        );
        shared.cv.wait(&mut st);
    }
    let crashed = st.crashed;
    drop(st);
    for h in runners {
        let _ = h.join();
    }
    if !crashed {
        queue_gauge.set(0);
        running_gauge.set(0);
        leased_gauge.set(0);
    }
}

/// Marks a campaign failed and wakes every waiter.
fn record_failure(shared: &Arc<Shared>, id: u64, why: String) {
    let mut st = shared.state.lock();
    st.running.retain(|r| *r != id);
    if let Some(e) = st.entries.get_mut(&id) {
        e.status = CampaignStatus::Failed(why);
    }
    drop(st);
    shared.cv.notify_all();
}

/// Marks a campaign done with its report and drops its checkpoint — after
/// the writer has let go of the campaign, so no late cadence write can
/// put the file back.
fn record_completion(shared: &Arc<Shared>, id: u64, report: String) {
    let report = Arc::<str>::from(report);
    shared.writer.cancel(id);
    shared.store.remove(id);
    {
        let mut st = shared.state.lock();
        st.running.retain(|r| *r != id);
        if let Some(e) = st.entries.get_mut(&id) {
            e.status = CampaignStatus::Done;
            e.report = Some(report);
        }
    }
    taopt_telemetry::global()
        .counter("service_campaigns_completed_total")
        .inc();
    shared.cv.notify_all();
}

/// Deterministic replay of a freshly built campaign back to a
/// checkpointed round, then digest verification: a corrupted spec, a
/// version skew, or a determinism regression all surface here as a clean
/// failure.
fn replay_to(
    campaign: &mut Campaign,
    round: u64,
    digest: Option<&CampaignDigest>,
) -> Result<(), ServiceError> {
    while campaign.round() < round {
        if !campaign.advance_round() {
            break;
        }
    }
    if campaign.round() != round {
        return Err(ServiceError::DigestMismatch {
            round: campaign.round(),
            detail: format!("replay ended before checkpoint round {round}"),
        });
    }
    if let Some(expected) = digest {
        let actual = campaign.digest();
        if let Some(divergence) = expected.diff(&actual) {
            return Err(ServiceError::DigestMismatch {
                round,
                detail: divergence,
            });
        }
    }
    Ok(())
}

/// Records resume telemetry after a successful replay.
fn note_resume(id: u64, restore_start: Instant) {
    let telemetry = taopt_telemetry::global();
    let latency_us = micros(restore_start.elapsed());
    telemetry
        .registry()
        .histogram("service_resume_latency_us", Labels::instance(id as u32))
        .record(latency_us);
    telemetry.recovery(RecoveryKind::ServiceResumed.label());
    telemetry.counter("service_resumes_total").inc();
}

/// Outcome of driving one campaign's round loop.
enum Drive {
    /// The campaign exhausted its rounds; the caller finishes it.
    Completed,
    /// The runner must exit now: crashed, paused-and-requeued, or failed
    /// (terminal state already recorded).
    Exit,
}

/// What one runner thread carries through its campaign's — or its
/// release train's — round loops.
struct Runner<'a> {
    shared: &'a Arc<Shared>,
    id: u64,
    spec: &'a CampaignSpec,
    priority: Priority,
    pause: Arc<AtomicBool>,
    round_gauge: Gauge,
    /// `service_checkpoint_lag_rounds`: `executed - durable`.
    lag_gauge: Gauge,
    /// Rounds this runner has executed live (replay excluded). It starts
    /// from a durable checkpoint, so 0 executed means 0 behind.
    executed: u64,
    /// How many of them the newest durable checkpoint covers; the
    /// checkpoint writer stores it after each write.
    durable: Arc<AtomicU64>,
}

impl Runner<'_> {
    fn checkpoint(&self, campaign: &mut Campaign, sequence_version: u64) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            campaign: self.id,
            priority: self.priority,
            round: campaign.round(),
            sequence_version,
            spec: self.spec.clone(),
            digest: Some(campaign.digest()),
        }
    }

    /// Drives a campaign's rounds with pause handling and cadence
    /// checkpoint hand-offs. `sequence_version` is the release the rounds
    /// belong to (0 for plain campaigns) — it rides into every checkpoint
    /// taken here.
    fn drive_rounds(&mut self, sequence_version: u64, campaign: &mut Campaign) -> Drive {
        let shared = self.shared;
        let id = self.id;
        let every = shared.config.checkpoint_every.max(1);
        loop {
            {
                let st = shared.state.lock();
                if st.crashed {
                    // Process death: no final checkpoint; the last durable one
                    // stands and recover() will replay past this point.
                    return Drive::Exit;
                }
            }
            if self.pause.swap(false, Ordering::SeqCst) {
                // The yielder is promised durability, so this write is the
                // runner's own — ordered after anything the writer still
                // holds for this campaign.
                let ckpt = self.checkpoint(campaign, sequence_version);
                shared.writer.cancel(id);
                if let Err(e) = shared.store.save(&ckpt) {
                    record_failure(shared, id, e.to_string());
                    return Drive::Exit;
                }
                self.lag_gauge.set(0);
                let mut st = shared.state.lock();
                st.running.retain(|r| *r != id);
                if let Some(e) = st.entries.get_mut(&id) {
                    e.status = CampaignStatus::Paused { round: ckpt.round };
                    e.resume_round = ckpt.round;
                    e.resume_sequence_version = sequence_version;
                    e.resume_digest = ckpt.digest;
                }
                st.queue.push(id);
                drop(st);
                shared.cv.notify_all();
                return Drive::Exit;
            }

            let advanced = campaign.advance_round();
            let round = campaign.round();
            self.round_gauge.set(round as i64);
            {
                let mut st = shared.state.lock();
                if let Some(e) = st.entries.get_mut(&id) {
                    e.status = CampaignStatus::Running { round };
                }
            }
            if !advanced {
                return Drive::Completed;
            }
            self.executed += 1;
            if round.is_multiple_of(every) {
                let hand_off = HandOff {
                    checkpoint: self.checkpoint(campaign, sequence_version),
                    executed: self.executed,
                    durable: Arc::clone(&self.durable),
                };
                if let Err(e) = shared.writer.hand_off(hand_off) {
                    record_failure(shared, id, e.to_string());
                    return Drive::Exit;
                }
            }
            let durable = self.durable.load(Ordering::Relaxed);
            self.lag_gauge
                .set(self.executed.saturating_sub(durable) as i64);
        }
    }
}

/// Runner: replays to the resume point if any, then drives the campaign
/// round loop with cadence checkpoints until done, paused, or crashed.
/// Specs with an evolution section run the whole release train in here,
/// one campaign per version, with the checkpoint cursor tracking which
/// release the stored round belongs to.
fn run_one(shared: &Arc<Shared>, id: u64) {
    let registry = taopt_telemetry::global().registry();
    let labels = Labels::instance(id as u32);
    let (spec, priority, resume_round, resume_sequence, resume_digest, pause) = {
        let st = shared.state.lock();
        let e = &st.entries[&id];
        (
            e.spec.clone(),
            e.priority,
            e.resume_round,
            e.resume_sequence_version,
            e.resume_digest.clone(),
            Arc::clone(&e.pause),
        )
    };
    let mut runner = Runner {
        shared,
        id,
        spec: &spec,
        priority,
        pause,
        round_gauge: registry.gauge("service_campaign_round", labels),
        lag_gauge: registry.gauge("service_checkpoint_lag_rounds", labels),
        executed: 0,
        durable: Arc::new(AtomicU64::new(0)),
    };

    let built = match spec.build() {
        Ok(b) => b,
        Err(e) => return record_failure(shared, id, e.to_string()),
    };
    let (apps, config) = built;
    let restore_start = Instant::now();

    let Some(evo) = spec.evolution else {
        // Plain single-version campaign.
        let mut campaign = Campaign::new(apps, &config);
        if resume_round > 0 {
            if let Err(e) = replay_to(&mut campaign, resume_round, resume_digest.as_ref()) {
                return record_failure(shared, id, e.to_string());
            }
            note_resume(id, restore_start);
        }
        match runner.drive_rounds(0, &mut campaign) {
            Drive::Exit => return,
            Drive::Completed => {}
        }
        let report = campaign.finish().coverage_report();
        runner.lag_gauge.set(0);
        return record_completion(shared, id, report);
    };

    // Evolution campaign: one deterministic campaign per release.
    // Releases before the checkpoint cursor are replayed in full (their
    // results rebuild the warm-start state the interrupted release was
    // seeded from); the cursor release replays to its stored round and
    // verifies the digest; everything after runs live.
    let resumed = resume_round > 0 || resume_sequence > 0;
    let mut sequence =
        CampaignSequence::new(apps, AppEvolution::new(evo.seed), evo.versions, evo.warm);
    // The document is streamed: each release's coverage report is
    // already JSON text and is spliced in verbatim.
    let mut report = String::from("{\"name\":");
    json::write_escaped(&spec.name, &mut report);
    report.push_str(",\"versions\":[");
    while !sequence.is_done() {
        let version = sequence.version();
        let run_apps = match sequence.begin_version() {
            Ok(a) => a,
            Err(e) => return record_failure(shared, id, e.to_string()),
        };
        let mut campaign = Campaign::new(run_apps, &config);
        if version < resume_sequence {
            while campaign.advance_round() {}
        } else {
            if resumed && version == resume_sequence {
                if let Err(e) = replay_to(&mut campaign, resume_round, resume_digest.as_ref()) {
                    return record_failure(shared, id, e.to_string());
                }
                note_resume(id, restore_start);
            }
            match runner.drive_rounds(version, &mut campaign) {
                Drive::Exit => return,
                Drive::Completed => {}
            }
        }
        let result = campaign.finish();
        let evolution = sequence.complete_version(&result);
        if version > 0 {
            report.push(',');
        }
        report.push_str("{\"version\":");
        json::write_uint(version, &mut report);
        report.push_str(",\"evolution\":");
        report.push_str(&evolution.to_value().to_json_string());
        report.push_str(",\"coverage\":");
        report.push_str(&result.coverage_report());
        report.push('}');
    }
    report.push_str("]}");
    runner.lag_gauge.set(0);
    record_completion(shared, id, report);
}
