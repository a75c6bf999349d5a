//! The benchmark's whole dependency on the repository.
//!
//! Every type the harness names and every call it makes into a crate goes
//! through this file, and every call is wrapped in a [`trace`] span named
//! `<layer>.<operation>`. A change that renames, moves or deletes
//! something listed here breaks the benchmark's build, so it must come
//! with (or after) a benchmark change of its own; `README.md` repeats the
//! list for readers who do not open source files.
//!
//! Deliberately absent: `workers`, `scoped_threads`, `analysis_workers`,
//! `analyze_with_lanes`, `analyze_reference`, `find_space_candidates`,
//! `ParallelSession::run`, `run_with_chaos`. `CampaignConfig.host_threads`
//! is written in exactly one place, [`with_one_host_thread`].

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use crate::trace::{span, span_n};

pub use taopt::experiments::ExperimentScale;
pub use taopt::findspace::{FindSpaceConfig, FindSpaceEngine, SimilarityCache};
pub use taopt::{
    Campaign, CampaignApp, CampaignConfig, CampaignDigest, CampaignResult, KillEvent, RunMode,
    VersionOutcome,
};
pub use taopt_app_sim::{App, AppEvolution, GeneratorConfig, VersionDiff};
pub use taopt_chaos::{FaultPlan, FaultRates};
pub use taopt_device::{DeviceId, Emulator};
pub use taopt_server::{Client, ServerHandle};
pub use taopt_service::{
    AppSource, AppSpec, CampaignId, CampaignService, CampaignSpec, CampaignStatus, Checkpoint,
    CheckpointStore, ServiceConfig, CHECKPOINT_VERSION,
};
pub use taopt_toller::{EntrypointRule, InstanceId, InstrumentedInstance};
pub use taopt_tools::{TestingTool, ToolKind};
pub use taopt_ui_model::{
    Action, ScreenObservation, TraceEvent, UiHierarchy, Value, VirtualDuration, VirtualTime,
};

// ---- app-sim ---------------------------------------------------------

/// `(name, generator config)` of the 18 catalog apps, in Table 3 order.
pub fn catalog_configs() -> Vec<(String, GeneratorConfig)> {
    taopt_app_sim::catalog_entries()
        .iter()
        .map(|e| (e.name.to_owned(), e.config()))
        .collect()
}

/// Generates a base (V0) app.
pub fn generate_app(config: &GeneratorConfig) -> App {
    let _s = span("app-sim.generate");
    taopt_app_sim::generate_app(config).expect("benchmark generator configs are well-formed")
}

/// `GeneratorConfig::small`.
pub fn small_config(name: &str, seed: u64) -> GeneratorConfig {
    GeneratorConfig::small(name, seed)
}

/// Samples the diff taking `app` from `from_version` to the next release.
pub fn sample_diff(evolution: &AppEvolution, app: &App, from_version: u64) -> VersionDiff {
    evolution.diff(app, from_version)
}

/// Derives an app version as base + ordered diffs.
pub fn derive_app(config: &GeneratorConfig, diffs: &[VersionDiff]) -> App {
    let _s = span("app-sim.derive");
    taopt_app_sim::derive_app(config, diffs).expect("sampled diffs apply to their base")
}

// ---- ui-model --------------------------------------------------------

/// Abstracts `hierarchies` (one batched span).
pub fn abstract_hierarchies(hierarchies: &[&UiHierarchy]) -> u64 {
    let _s = span_n("ui-model.abstract", hierarchies.len() as u64);
    let mut nodes = 0u64;
    for h in hierarchies {
        nodes += std::hint::black_box(taopt_ui_model::abstract_hierarchy(h)).node_count() as u64;
    }
    nodes
}

/// Asks `cache` about every adjacent pair of `events` (one batched span);
/// returns how many were similar.
pub fn similar_pairs(cache: &SimilarityCache, events: &[TraceEvent], threshold: f64) -> u64 {
    let _s = span_n("ui-model.similar", events.len().saturating_sub(1) as u64);
    let mut yes = 0u64;
    for w in events.windows(2) {
        yes += u64::from(cache.similar(&w[0], &w[1], threshold));
    }
    std::hint::black_box(yes)
}

/// Parses a JSON document.
pub fn json_parse(text: &str) -> Value {
    let _s = span("ui-model.json_parse");
    Value::parse(text).expect("documents the program wrote parse back")
}

/// Serializes a JSON document.
pub fn json_write(value: &Value) -> String {
    let _s = span("ui-model.json_write");
    value.to_json_string()
}

// ---- device / tools / toller -----------------------------------------

/// Boots an instrumented instance of `tool` on `app`.
pub fn boot_instance(app: Arc<App>, tool: ToolKind, seed: u64) -> InstrumentedInstance {
    let _s = span("toller.boot");
    InstrumentedInstance::boot(
        InstanceId(0),
        DeviceId(0),
        app,
        tool.build(seed),
        seed,
        VirtualTime::ZERO,
    )
}

/// Installs enforcement rules on an instance, as the coordinator does
/// when it dedicates subspaces to *other* instances.
pub fn block_entrypoints(instance: &InstrumentedInstance, rules: &[EntrypointRule]) {
    let list = instance.blocklist();
    let mut list = list.write();
    for r in rules {
        list.block(r.clone());
    }
}

/// Runs `steps` instrumented tool steps (one batched span); returns the
/// widgets enforcement disabled along the way.
pub fn instance_steps(instance: &mut InstrumentedInstance, steps: usize) -> u64 {
    let _s = span_n("toller.step", steps as u64);
    let mut blocked = 0u64;
    for _ in 0..steps {
        blocked += instance.step().widgets_blocked as u64;
    }
    blocked
}

/// The actions an instance has executed so far, in order.
pub fn recorded_actions(instance: &InstrumentedInstance) -> Vec<Action> {
    instance
        .trace()
        .events()
        .iter()
        .filter_map(|e| e.action)
        .collect()
}

/// Replays `actions` on a bare emulator booted like the instance was
/// (one batched span): the device layer's share of a step. Returns the
/// observations the tool replay feeds on.
pub fn emulator_replay(app: Arc<App>, seed: u64, actions: &[Action]) -> Vec<ScreenObservation> {
    let mut emulator = Emulator::boot(DeviceId(0), app, seed, VirtualTime::ZERO);
    let mut observations = Vec::with_capacity(actions.len() + 1);
    let _s = span_n("device.step", actions.len() as u64);
    observations.push(emulator.observe());
    for &a in actions {
        let out = emulator
            .execute(a)
            .expect("a recorded action replays on the same seed");
        observations.push(out.observation);
    }
    observations
}

/// Feeds a fresh tool the observation sequence (one batched span): the
/// tool layer's share of a step — choosing an action and learning from
/// the transition it caused.
pub fn tool_replay(tool: ToolKind, seed: u64, observations: &[ScreenObservation]) -> u64 {
    let mut t = tool.build(seed);
    let name = match tool {
        ToolKind::Monkey => "tools.monkey",
        ToolKind::Ape => "tools.ape",
        _ => "tools.wctester",
    };
    let _s = span_n(name, observations.len().saturating_sub(1) as u64);
    let mut acted = 0u64;
    for w in observations.windows(2) {
        let action = t.next_action(&w[0]);
        t.on_transition(w[0].abstract_id(), action, &w[1]);
        acted += u64::from(action != Action::Noop);
    }
    std::hint::black_box(acted)
}

// ---- findspace -------------------------------------------------------

/// A fresh engine with the analyzer's defaults at `l_min`.
pub fn new_engine(l_min: VirtualDuration) -> FindSpaceEngine {
    FindSpaceEngine::new(FindSpaceConfig {
        l_min,
        ..FindSpaceConfig::default()
    })
}

/// The similarity threshold the analyzer asks the cache with.
pub fn similarity_threshold() -> f64 {
    FindSpaceConfig::default().similarity_threshold
}

/// Events `engine` has ingested.
pub fn engine_len(engine: &FindSpaceEngine) -> usize {
    engine.len()
}

/// Forgets `engine`'s window (the analyzer rebased it).
pub fn engine_reset(engine: &mut FindSpaceEngine) {
    engine.reset();
}

/// A fresh per-app similarity cache.
pub fn new_cache() -> SimilarityCache {
    SimilarityCache::new()
}

/// `(hits, computations)` of `cache`.
pub fn cache_counts(cache: &SimilarityCache) -> (u64, u64) {
    (cache.hits(), cache.computations())
}

/// Feeds the appended tail of `window` to `engine`.
pub fn engine_extend(engine: &mut FindSpaceEngine, window: &[TraceEvent], cache: &SimilarityCache) {
    let _s = span_n(
        "findspace.extend",
        window.len().saturating_sub(engine.len()) as u64,
    );
    engine.extend_from(window, cache);
}

/// Runs one FindSpace analysis; returns `(candidates, best split index)`.
pub fn engine_analyze(engine: &mut FindSpaceEngine) -> (usize, Option<usize>) {
    let _s = span("findspace.analyze");
    // 5 is what the online analyzer asks for.
    let c = engine.analyze(5);
    (c.len(), c.first().map(|c| c.index))
}

// ---- campaign --------------------------------------------------------

/// The one place the benchmark sets a host-thread budget: the `pool.*`
/// arm runs the same workload on one host thread.
pub fn with_one_host_thread(mut config: CampaignConfig) -> CampaignConfig {
    config.host_threads = 1;
    config
}

/// `Campaign::new`.
pub fn campaign_new(apps: Vec<CampaignApp>, config: &CampaignConfig) -> Campaign {
    let _s = span("campaign.new");
    Campaign::new(apps, config)
}

/// `Campaign::advance_round`.
pub fn campaign_round(campaign: &mut Campaign) -> bool {
    let _s = span("campaign.round");
    campaign.advance_round()
}

/// `Campaign::digest`.
pub fn campaign_digest(campaign: &mut Campaign) -> CampaignDigest {
    let _s = span("snapshot.digest");
    campaign.digest()
}

/// `Campaign::finish`.
pub fn campaign_finish(campaign: Campaign) -> CampaignResult {
    let _s = span("campaign.finish");
    campaign.finish()
}

/// `CampaignResult::coverage_report`.
pub fn coverage_report(result: &CampaignResult) -> String {
    let _s = span("campaign.report");
    result.coverage_report()
}

/// `run_campaign_sequence`.
pub fn run_sequence(
    base: Vec<CampaignApp>,
    config: &CampaignConfig,
    evolution: &AppEvolution,
    versions: u64,
    warm: bool,
) -> Vec<VersionOutcome> {
    let _s = span("sequence.run");
    taopt::run_campaign_sequence(base, config, evolution, versions, warm)
        .expect("the benchmark's release train derives every version")
}

// ---- spec / checkpoint -----------------------------------------------

/// `CampaignSpec::build`.
pub fn spec_build(spec: &CampaignSpec) -> (Vec<CampaignApp>, CampaignConfig) {
    let _s = span("spec.build");
    spec.build().expect("benchmark specs name known apps")
}

/// Spec → JSON text → spec.
pub fn spec_json_roundtrip(spec: &CampaignSpec) -> CampaignSpec {
    let _s = span("spec.json_roundtrip");
    let text = spec.to_value().to_json_string();
    let value = Value::parse(&text).expect("a serialized spec parses");
    CampaignSpec::from_value(&value).expect("a serialized spec decodes")
}

/// The checkpoint a driver would write for campaign `id` of `spec` at
/// `round`.
pub fn checkpoint_of(
    id: u64,
    spec: &CampaignSpec,
    round: u64,
    digest: CampaignDigest,
) -> Checkpoint {
    Checkpoint {
        version: CHECKPOINT_VERSION,
        campaign: id,
        priority: 5,
        round,
        sequence_version: 0,
        spec: spec.clone(),
        digest: Some(digest),
    }
}

/// `checkpoint::encode`.
pub fn checkpoint_encode(checkpoint: &Checkpoint) -> String {
    let _s = span("checkpoint.encode");
    taopt_service::checkpoint::encode(checkpoint)
}

/// `checkpoint::decode`.
pub fn checkpoint_decode(text: &str) -> Checkpoint {
    let _s = span("checkpoint.decode");
    taopt_service::checkpoint::decode(text, "benchmark").expect("an encoded checkpoint decodes")
}

/// Opens a checkpoint directory.
pub fn checkpoint_store(dir: &Path) -> CheckpointStore {
    CheckpointStore::new(dir).expect("checkpoint directory is creatable inside the checkout")
}

/// `CheckpointStore::save` (tmp file, `sync_all`, rename).
pub fn checkpoint_save(store: &CheckpointStore, checkpoint: &Checkpoint) -> std::path::PathBuf {
    let _s = span("checkpoint.save");
    store.save(checkpoint).expect("checkpoint saves")
}

/// `CheckpointStore::load`.
pub fn checkpoint_load(store: &CheckpointStore, path: &Path) -> Checkpoint {
    let _s = span("checkpoint.load");
    store.load(path).expect("a saved checkpoint loads")
}

// ---- service / server ------------------------------------------------

/// `CampaignService::start`.
pub fn service_start(config: ServiceConfig) -> CampaignService {
    let _s = span("service.start");
    CampaignService::start(config).expect("service starts on a fresh directory")
}

/// `CampaignService::recover`; returns the service and the resumed ids.
pub fn service_recover(config: ServiceConfig) -> (CampaignService, Vec<CampaignId>) {
    let _s = span("service.recover");
    let (service, report) = CampaignService::recover(config).expect("service recovers");
    assert!(
        report.rejected.is_empty(),
        "seeded checkpoints must all be readable: {:?}",
        report.rejected
    );
    (service, report.resumed)
}

/// `CampaignService::submit`, in process.
pub fn service_submit(service: &CampaignService, spec: CampaignSpec) -> Result<CampaignId, String> {
    let _s = span("service.submit");
    service.submit(spec, 5).map_err(|e| e.to_string())
}

/// `CampaignService::status`, in process, `n` times (one batched span).
pub fn service_status_n(service: &CampaignService, id: CampaignId, n: u64) {
    let _s = span_n("service.status", n);
    for _ in 0..n {
        std::hint::black_box(service.status(id).is_ok());
    }
}

/// `CampaignService::wait_all`.
pub fn service_wait_all(service: &CampaignService) {
    let _s = span("service.wait_all");
    service.wait_all();
}

/// `CampaignService::result`.
pub fn service_result(service: &CampaignService, id: CampaignId) -> Option<String> {
    service.result(id).ok().flatten()
}

/// `serve` on an ephemeral loopback port.
pub fn serve(service: CampaignService) -> ServerHandle {
    let _s = span("server.serve");
    taopt_server::serve(service, taopt_server::ServerConfig::new("127.0.0.1:0"))
        .expect("loopback listener binds")
}

/// A client for `addr`.
pub fn client(addr: SocketAddr) -> Client {
    Client::new(addr)
}

/// One bare TCP connect to the server, closed at once.
pub fn wire_connect(addr: SocketAddr) -> bool {
    let _s = span("server.connect");
    std::net::TcpStream::connect(addr).is_ok()
}

/// `Client::submit`.
pub fn wire_submit(client: &Client, spec: &CampaignSpec) -> Result<CampaignId, String> {
    let _s = span("server.submit");
    client.submit(spec, 5).map_err(|e| e.to_string())
}

/// `Client::status`.
pub fn wire_status(client: &Client, id: CampaignId) -> Result<CampaignStatus, String> {
    let _s = span("server.status");
    client.status(id).map_err(|e| e.to_string())
}

/// `Client::status` of an id the shard never issued: a full request
/// parse, a map miss, and an error body back — the cheapest complete
/// round trip the server can make. Returns whether it was a clean 404.
pub fn wire_notfound(client: &Client) -> bool {
    let _s = span("server.notfound");
    matches!(client.status(CampaignId(u64::MAX)), Err(e) if e.status() == Some(404))
}

/// `Client::result`.
pub fn wire_result(client: &Client, id: CampaignId) -> Result<String, String> {
    let _s = span("server.result");
    client.result(id).map_err(|e| e.to_string())
}

// ---- telemetry -------------------------------------------------------

/// Increments a registry counter `n` times (one batched span).
pub fn telemetry_counter_inc(n: u64) {
    let c = taopt_telemetry::global().counter("benchmark_probe_total");
    let _s = span_n("telemetry.counter_inc", n);
    for _ in 0..n {
        c.inc();
    }
}

/// Records into a registry histogram `n` times (one batched span).
pub fn telemetry_histogram_record(n: u64) {
    let h = taopt_telemetry::global().histogram("benchmark_probe_ns");
    let _s = span_n("telemetry.histogram_record", n);
    for i in 0..n {
        h.record(std::hint::black_box(i));
    }
}

/// Renders the process-global registry as Prometheus text (what
/// `CampaignService::metrics_text` and `GET /metrics` return).
pub fn telemetry_render() -> String {
    let _s = span("telemetry.render");
    taopt_telemetry::global().render_prometheus()
}

/// Sum of a process-global counter over all its label sets.
pub fn telemetry_counter_total(name: &str) -> u64 {
    taopt_telemetry::global().snapshot().counter_total(name)
}

// ---- reading results -------------------------------------------------
//
// Every field of a result the harness reads, it reads here.

/// Simulated statistics of one campaign result — everything here repeats
/// exactly for a seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Sum over apps of union coverage.
    pub coverage: u64,
    /// Sum of machine time, virtual ms.
    pub machine_ms: u64,
    /// Tool steps executed (trace events that carry an action).
    pub steps: u64,
    /// Sum over apps of unique crashes.
    pub crashes: u64,
    /// Global rounds.
    pub rounds: u64,
    /// Confirmed subspaces.
    pub confirmed: u64,
    /// Rounds apps sat without a device.
    pub wait_rounds: u64,
    /// Lease grants.
    pub grants: u64,
    /// Starvation revocations.
    pub revocations: u64,
    /// Work steals (timing-dependent, not simulated).
    pub steals: u64,
}

impl SimStats {
    /// Adds another campaign's statistics.
    pub fn add(&mut self, o: SimStats) {
        self.coverage += o.coverage;
        self.machine_ms += o.machine_ms;
        self.steps += o.steps;
        self.crashes += o.crashes;
        self.rounds += o.rounds;
        self.confirmed += o.confirmed;
        self.wait_rounds += o.wait_rounds;
        self.grants += o.grants;
        self.revocations += o.revocations;
        self.steals += o.steals;
    }
}

/// The simulated statistics of `result`.
pub fn sim_stats(result: &CampaignResult) -> SimStats {
    let mut s = SimStats {
        rounds: result.rounds,
        machine_ms: result.machine_time.as_millis(),
        grants: result.grants,
        revocations: result.revocations,
        steals: result.steals,
        ..SimStats::default()
    };
    for a in &result.apps {
        s.coverage += a.session.union_coverage() as u64;
        s.crashes += a.session.unique_crashes().len() as u64;
        s.confirmed += a.session.subspaces.iter().filter(|x| x.confirmed).count() as u64;
        s.wait_rounds += a.wait_rounds;
        for i in &a.session.instances {
            s.steps += i
                .trace
                .events()
                .iter()
                .filter(|e| e.action.is_some())
                .count() as u64;
        }
    }
    s
}

/// One line per app session of `result`: the text the session is
/// fingerprinted by.
///
/// The count of unresolved orphan subspaces is part of the text, not a
/// failure of its own: on a clean farm the per-round repair re-dedicates
/// every orphan while an instance is registered, so `finish` reports one
/// only when every instance of the app stall-retired in the session's last
/// round and nobody was left to inherit — an outcome of the seed, not an
/// error. Pinned here, it still has to repeat across repetitions and arms.
pub fn session_lines(result: &CampaignResult) -> Vec<String> {
    result
        .apps
        .iter()
        .map(|a| {
            let mut text = format!(
                "{}|{}|{}|{}|{}|{}|{}",
                a.name,
                a.session.union_coverage(),
                a.session.unique_crashes().len(),
                a.session.machine_time.as_millis(),
                a.finished_round,
                a.session.subspaces.len(),
                a.unresolved_orphans,
            );
            for i in &a.session.instances {
                text.push_str(&format!("|{}:{}", i.covered.len(), i.trace.len()));
            }
            text
        })
        .collect()
}

/// The enforcement rules `result` confirmed for app `app`, all but the
/// first subspace's — what an instance owning one subspace has blocked.
pub fn confirmed_entrypoints(result: &CampaignResult, app: usize) -> Vec<EntrypointRule> {
    result.apps[app]
        .session
        .subspaces
        .iter()
        .filter(|s| s.confirmed)
        .skip(1)
        .flat_map(|s| s.entrypoints.iter().cloned())
        .collect()
}

/// The finished traces of the first `apps` apps, per app, per instance.
pub fn instance_traces(result: &CampaignResult, apps: usize) -> Vec<Vec<&[TraceEvent]>> {
    result
        .apps
        .iter()
        .take(apps)
        .map(|a| {
            a.session
                .instances
                .iter()
                .map(|i| i.trace.events())
                .collect()
        })
        .collect()
}

/// What the fault plan did to a campaign; `None` for a clean one.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChaosTally {
    /// Faults injected.
    pub injected: u64,
    /// Recoveries observed.
    pub recovered: u64,
    /// Devices killed.
    pub devices_lost: u64,
    /// Lost devices replaced.
    pub replacements: u64,
    /// Sum over apps of union coverage.
    pub coverage: u64,
}

/// The chaos counters of `result`.
pub fn chaos_tally(result: &CampaignResult) -> Option<ChaosTally> {
    let stats = result.fault_stats.as_ref()?;
    Some(ChaosTally {
        injected: stats.total_injected() as u64,
        recovered: stats.total_recovered() as u64,
        devices_lost: result.apps.iter().map(|a| a.devices_lost as u64).sum(),
        replacements: result.apps.iter().map(|a| a.replacements as u64).sum(),
        coverage: result.total_coverage() as u64,
    })
}

/// The longitudinal outcome of a release train.
#[derive(Debug, Default, Clone)]
pub struct TrainTally {
    /// Regression crashes the releases injected.
    pub injected: u64,
    /// Injected regressions the campaigns hit.
    pub caught: u64,
    /// Injected regressions they did not.
    pub missed: u64,
    /// Subspaces carried across a release boundary.
    pub carried: u64,
    /// Carried subspaces a diff invalidated.
    pub invalidated: u64,
    /// Sum of union coverage over the releases after the base.
    pub post_base_coverage: u64,
    /// Rounds to the first dedication, per (post-base release, app) that
    /// dedicated at all.
    pub first_dedications: Vec<f64>,
}

/// Tallies the evolution reports of `outcomes`.
pub fn train_tally(outcomes: &[VersionOutcome]) -> TrainTally {
    let mut t = TrainTally::default();
    for o in outcomes {
        for a in &o.report.apps {
            t.injected += a.injected_crashes as u64;
            t.caught += a.caught_regressions as u64;
            t.missed += a.missed_regressions as u64;
            t.carried += a.subspaces_carried as u64;
            t.invalidated += a.subspaces_invalidated as u64;
            if o.version > 0 {
                t.post_base_coverage += a.coverage as u64;
                if let Some(r) = a.rounds_to_first_dedication {
                    t.first_dedications.push(r as f64);
                }
            }
        }
    }
    t
}
