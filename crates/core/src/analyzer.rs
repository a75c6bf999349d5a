//! The on-the-fly trace analyzer (§5.2).
//!
//! One [`OnlineTraceAnalyzer`] serves a whole parallel run. It
//! periodically runs [`crate::findspace::find_space`] on each instance's
//! growing trace,
//! turns accepted splits into **subspace reports** (entry widget + screen
//! set), deduplicates reports across instances by screen-set overlap, and
//! applies the paper's confirmation policy:
//!
//! * resource-constrained mode, `l_min^long = 5 min`: a single report is
//!   "confidently accepted at once";
//! * duration-constrained mode, `l_min^short = 1 min`: accepted "only when
//!   reported by at least two testing instances".

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use taopt_toller::{EntrypointRule, InstanceId};
use taopt_ui_model::{AbstractScreenId, Trace, TraceEvent, VirtualDuration, VirtualTime};

use crate::campaign::pool::ComputePool;
use crate::findspace::{
    FindSpaceConfig, FindSpaceEngine, ScreenArena, SimilarityCache, SplitCandidate,
};
use crate::warmstart::{WarmStart, WarmSubspace};

/// Containment coefficient `|A∩B| / min(|A|, |B|)` (1.0 when either set
/// is contained in the other; 0 when disjoint or either is empty).
fn containment(a: &BTreeSet<AbstractScreenId>, b: &BTreeSet<AbstractScreenId>) -> f64 {
    let min = a.len().min(b.len());
    if min == 0 {
        return 0.0;
    }
    a.intersection(b).count() as f64 / min as f64
}

/// Identifier of an identified UI subspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubspaceId(pub u32);

impl fmt::Display for SubspaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// Analyzer tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzerConfig {
    /// `FindSpace` parameters (including `l_min`).
    pub find_space: FindSpaceConfig,
    /// Independent instance reports required before a subspace is accepted.
    pub confirmations_required: usize,
    /// Minimum gap between analyses of the same instance's trace.
    pub analysis_interval: VirtualDuration,
    /// Minimum trace growth (events) before re-analysis.
    pub min_new_events: usize,
    /// Screen-set containment coefficient (`|A∩B| / min(|A|,|B|)`) above
    /// which two reports describe the same subspace. Containment (rather
    /// than symmetric Jaccard) also merges *nested* reports — a deep
    /// region of an already-identified subspace must never become a
    /// separate subspace with a different owner, or its owner could be
    /// locked out of the enclosing entrypoint.
    pub merge_jaccard: f64,
    /// Minimum distinct screens a reported subspace must contain. Guards
    /// against fragmenting a functionality into micro-subspaces whose
    /// blocking rules would partition the space too finely.
    pub min_subspace_screens: usize,
    /// Minimum summed window length (events past each instance's
    /// `start_index`, over the whole batch) before phase A is shipped
    /// to an attached [`ComputePool`]. Below it the batch runs inline:
    /// job submission, worker wake-up and the per-item event clone cost
    /// more than a few microsecond sweeps return. Purely a *where*
    /// knob — results are byte-identical either way (the
    /// `ingest_round_*` law pins it at 0, engaging the pool for every
    /// batch).
    pub pool_min_window: usize,
}

impl AnalyzerConfig {
    /// Parameters for the duration-constrained mode
    /// (`l_min^short = 1 min`, two confirmations).
    pub fn duration_mode() -> Self {
        AnalyzerConfig {
            find_space: FindSpaceConfig {
                l_min: VirtualDuration::from_mins(1),
                ..FindSpaceConfig::default()
            },
            confirmations_required: 2,
            analysis_interval: VirtualDuration::from_secs(20),
            min_new_events: 10,
            merge_jaccard: 0.5,
            min_subspace_screens: 5,
            pool_min_window: 4096,
        }
    }

    /// Parameters for the resource-constrained mode
    /// (`l_min^long = 5 min`, accepted at once).
    pub fn resource_mode() -> Self {
        AnalyzerConfig {
            find_space: FindSpaceConfig {
                l_min: VirtualDuration::from_mins(5),
                ..FindSpaceConfig::default()
            },
            confirmations_required: 1,
            analysis_interval: VirtualDuration::from_secs(45),
            min_new_events: 20,
            merge_jaccard: 0.5,
            min_subspace_screens: 5,
            pool_min_window: 4096,
        }
    }
}

/// One identified loosely coupled UI subspace.
#[derive(Debug, Clone, PartialEq)]
pub struct SubspaceInfo {
    /// Registry id.
    pub id: SubspaceId,
    /// Entry widgets discovered for this subspace (blocking all of them
    /// seals the subspace).
    pub entrypoints: Vec<EntrypointRule>,
    /// Abstract screens belonging to the subspace.
    pub screens: BTreeSet<AbstractScreenId>,
    /// Instances that independently reported it.
    pub reporters: BTreeSet<InstanceId>,
    /// Whether the confirmation policy has accepted it.
    pub confirmed: bool,
    /// Time of first report.
    pub first_reported: VirtualTime,
    /// Instance the subspace is dedicated to (set by the coordinator).
    pub owner: Option<InstanceId>,
}

/// Per-instance analysis state: the due-gating cursor plus the
/// persistent incremental [`FindSpaceEngine`] mirroring the instance's
/// analysis window (`trace[start_index..]`).
#[derive(Debug)]
struct InstanceState {
    last_run: Option<VirtualTime>,
    last_len: usize,
    /// Absolute index into the trace where analysis restarts after an
    /// accepted split.
    start_index: usize,
    /// Incremental FindSpace state for the current window. Reset (and
    /// lazily re-fed) whenever the window rebases: an accepted split
    /// moves `start_index`, or the instance's trace is replaced.
    engine: FindSpaceEngine,
}

impl InstanceState {
    fn new(config: &FindSpaceConfig, arena: Arc<ScreenArena>) -> Self {
        InstanceState {
            last_run: None,
            last_len: 0,
            start_index: 0,
            engine: FindSpaceEngine::with_arena(config.clone(), arena),
        }
    }
}

/// The on-the-fly trace analyzer shared by all instances of a run.
#[derive(Debug)]
pub struct OnlineTraceAnalyzer {
    config: AnalyzerConfig,
    subspaces: Vec<SubspaceInfo>,
    instances: HashMap<InstanceId, InstanceState>,
    /// `Arc` so pooled phase-A tasks can hold the cache without
    /// borrowing the analyzer; the cache is internally thread-safe and
    /// its decisions are order-independent.
    similarity_cache: Arc<SimilarityCache>,
    /// Campaign-wide host budget for phase A of
    /// [`ingest_round`](Self::ingest_round); `None` runs every batch
    /// inline.
    compute: Option<Arc<ComputePool>>,
    /// Per-app screen interner shared by every instance's engine.
    arena: Arc<ScreenArena>,
    /// Per-analysis latency of the incremental FindSpace run, in µs.
    analysis_latency: taopt_telemetry::Histogram,
    /// Live pair decisions held by the similarity cache.
    cache_entries: taopt_telemetry::Gauge,
    /// Batch-contract violations: duplicate instances skipped by
    /// [`ingest_round`](Self::ingest_round) (release builds skip and
    /// count; debug builds assert).
    duplicates_counter: taopt_telemetry::Counter,
}

/// A split candidate that survived validation: everything the apply
/// step needs to rebase the instance's window and register the report.
///
/// Producing one reads only the trace window and config thresholds —
/// never the subspace registry — which is exactly why candidate
/// validation runs in phase A, concurrently across instances, while
/// only [`OnlineTraceAnalyzer::apply_validated`] stays sequential in
/// batch order (DESIGN.md §16).
#[derive(Debug)]
struct ValidatedSplit {
    /// Absolute trace index of the accepted split.
    split_at: usize,
    entry: EntrypointRule,
    screens: BTreeSet<AbstractScreenId>,
}

impl OnlineTraceAnalyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        OnlineTraceAnalyzer {
            config,
            subspaces: Vec::new(),
            instances: HashMap::new(),
            similarity_cache: Arc::new(SimilarityCache::new()),
            compute: None,
            arena: Arc::new(ScreenArena::new()),
            analysis_latency: taopt_telemetry::global().histogram("findspace_analysis_us"),
            cache_entries: taopt_telemetry::global().gauge("similarity_cache_entries"),
            duplicates_counter: taopt_telemetry::global()
                .counter("analyzer_duplicate_instance_total"),
        }
    }

    /// Creates an analyzer seeded from a previous campaign's
    /// [`WarmStart`] bundle.
    ///
    /// The pure accelerators (similarity decisions, arena reps) are
    /// seeded unconditionally — they can only skip computes. Each bundled
    /// subspace enters the registry already-confirmed with **no owner and
    /// no reporters**: the coordinator's `register_instance` then blocks
    /// its entrypoints on every booting instance, and the per-round
    /// orphan-repair pass re-dedicates it at the first round — "untouched
    /// subspaces are re-dedicated immediately". Callers are responsible
    /// for invalidating the bundle against the release diff first
    /// ([`WarmStart::invalidate`]).
    pub fn with_warm_start(config: AnalyzerConfig, warm: &WarmStart) -> Self {
        let mut a = Self::new(config);
        let seeded = a.similarity_cache.seed(warm.similarity.iter());
        a.cache_entries.set(a.similarity_cache.len() as i64);
        // Gauge-consistency contract with `forget_instance`: on a fresh
        // cache every bundled entry inserts exactly once, so the gauge
        // equals the seed count — seeded entries are never double-counted.
        debug_assert_eq!(
            a.similarity_cache.len(),
            seeded,
            "warm-start seeded a non-fresh similarity cache"
        );
        for rep in &warm.arena_reps {
            a.arena.resolve(rep);
        }
        for ws in &warm.subspaces {
            let id = SubspaceId(a.subspaces.len() as u32);
            a.subspaces.push(SubspaceInfo {
                id,
                entrypoints: ws.entrypoints.clone(),
                screens: ws.screens.clone(),
                reporters: BTreeSet::new(),
                confirmed: true,
                first_reported: VirtualTime::ZERO,
                owner: None,
            });
        }
        a
    }

    /// Captures the learned state of this analyzer as a [`WarmStart`]
    /// bundle for the next version's campaign. Call before instances are
    /// forgotten (retirement evicts cache entries). `coverage_baseline`
    /// is the capturing session's final union coverage.
    pub fn warm_start(&self, coverage_baseline: usize) -> WarmStart {
        WarmStart {
            subspaces: self
                .confirmed()
                .map(|s| WarmSubspace {
                    entrypoints: s.entrypoints.clone(),
                    screens: s.screens.clone(),
                })
                .collect(),
            similarity: self.similarity_cache.snapshot().into_iter().collect(),
            arena_reps: self.arena.reps_snapshot(),
            coverage_baseline,
        }
    }

    /// Attaches a campaign-wide [`ComputePool`]: phase A of
    /// [`ingest_round`](Self::ingest_round) is then scheduled on it
    /// whenever its budget and the batch allow parallelism. Results are
    /// byte-identical either way.
    pub fn set_compute(&mut self, pool: Arc<ComputePool>) {
        self.compute = Some(pool);
    }

    /// The shared pairwise-similarity cache (sharded; see
    /// [`SimilarityCache`]). Exposed for occupancy tests and gauges.
    pub fn similarity_cache(&self) -> &SimilarityCache {
        &self.similarity_cache
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// All subspaces in the registry (confirmed or pending).
    pub fn subspaces(&self) -> &[SubspaceInfo] {
        &self.subspaces
    }

    /// Looks up a subspace.
    pub fn subspace(&self, id: SubspaceId) -> Option<&SubspaceInfo> {
        self.subspaces.get(id.0 as usize)
    }

    /// Records the dedication decided by the coordinator.
    pub fn set_owner(&mut self, id: SubspaceId, owner: InstanceId) {
        if let Some(s) = self.subspaces.get_mut(id.0 as usize) {
            s.owner = Some(owner);
        }
    }

    /// Drops a retired instance's analysis state (cursor + incremental
    /// engine) and evicts similarity-cache decisions that involve
    /// screens **only this instance's window** had seen — pairs no
    /// surviving engine can ask about again. Screens shared with any
    /// live window are retained (their decisions stay hot), as are
    /// screens from windows already rebased away, which the next
    /// eviction or a cold recompute covers; the
    /// `similarity_cache_entries` gauge tracks residual occupancy.
    ///
    /// Call when an instance retires or its device is replaced: a
    /// successor re-using the id must not inherit a stale window.
    pub fn forget_instance(&mut self, instance: InstanceId) {
        let Some(state) = self.instances.remove(&instance) else {
            return;
        };
        let mut dying: BTreeSet<u64> = state.engine.abstract_screen_ids().collect();
        for other in self.instances.values() {
            if dying.is_empty() {
                break;
            }
            for id in other.engine.abstract_screen_ids() {
                dying.remove(&id);
            }
        }
        self.similarity_cache.evict_screens(&dying);
        self.cache_entries.set(self.similarity_cache.len() as i64);
    }

    /// Due-gating half of an analysis: interval and growth checks,
    /// advancing the cursor when due. Cheap and registry-map-bound
    /// (`&mut InstanceState`), so every ingestion path decides dueness
    /// inline before shipping the expensive sweep anywhere.
    fn analysis_due(
        config: &AnalyzerConfig,
        state: &mut InstanceState,
        trace_len: usize,
        now: VirtualTime,
    ) -> bool {
        if let Some(last) = state.last_run {
            if now.since(last) < config.analysis_interval {
                return false;
            }
        }
        if trace_len < state.last_len + config.min_new_events {
            return false;
        }
        state.last_run = Some(now);
        state.last_len = trace_len;
        true
    }

    /// The per-instance sweep: engine catch-up plus the FindSpace
    /// analysis. Touches only `state` and the (thread-safe) `cache` —
    /// no registry access — so [`ingest_round`](Self::ingest_round) may
    /// run it for many instances concurrently with byte-identical
    /// results.
    fn analysis_sweep(
        state: &mut InstanceState,
        instance: InstanceId,
        events: &[TraceEvent],
        now: VirtualTime,
        cache: &SimilarityCache,
        latency: &taopt_telemetry::Histogram,
    ) -> (usize, Vec<SplitCandidate>) {
        // Span opens after due-gating, so it times actual FindSpace
        // runs rather than every per-round poll.
        let _span = taopt_telemetry::global()
            .span("findspace")
            .instance(instance.0)
            .at(now)
            .enter();
        let start = state.start_index.min(events.len());
        let window = &events[start..];
        // The engine mirrors `window` incrementally: only events appended
        // since the last analysis are fed. A shrunk window means the
        // trace was replaced under this id — start over.
        if window.len() < state.engine.len() {
            state.engine.reset();
        }
        let timer = std::time::Instant::now();
        state.engine.extend_from(window, cache);
        let candidates = state.engine.analyze(5);
        latency.record(timer.elapsed().as_micros() as u64);
        (start, candidates)
    }

    /// One instance's complete phase-A work: due-gating, sweep, and
    /// candidate validation. Registry-free throughout.
    fn analyze_one(
        config: &AnalyzerConfig,
        state: &mut InstanceState,
        instance: InstanceId,
        trace: &Trace,
        now: VirtualTime,
        cache: &SimilarityCache,
        latency: &taopt_telemetry::Histogram,
    ) -> Option<ValidatedSplit> {
        if !Self::analysis_due(config, state, trace.len(), now) {
            return None;
        }
        let events = trace.events();
        let (start, candidates) =
            Self::analysis_sweep(state, instance, events, now, cache, latency);
        Self::validate_candidates(config.min_subspace_screens, events, start, candidates)
    }

    /// Analyzes an instance's trace if it is due; returns the ids of
    /// subspaces that became **newly confirmed** by this call. A
    /// one-item [`ingest_round`](Self::ingest_round).
    pub fn maybe_analyze(
        &mut self,
        instance: InstanceId,
        trace: &Trace,
        now: VirtualTime,
    ) -> Vec<SubspaceId> {
        self.ingest_round(&[(instance, trace)], now)
    }

    /// Round ingestion: one call per round covering every instance's
    /// appended events, equivalent to calling
    /// [`maybe_analyze`](Self::maybe_analyze) for each `(instance,
    /// trace)` pair in slice order — the `parallel_equivalence` suite
    /// pins the equivalence bit-for-bit.
    ///
    /// Phase A runs the registry-free work for the whole batch —
    /// due-gating, the per-instance sweep, **and candidate validation**
    /// (`validate_candidates` reads only the trace window and config
    /// thresholds). Batches whose summed window reaches
    /// [`AnalyzerConfig::pool_min_window`] run on the attached
    /// [`ComputePool`] (the campaign-wide budget); smaller ones, and
    /// every batch when no pool is attached, run inline. Per-instance
    /// state is disjoint and the sharded cache's decisions are
    /// order-independent, so any interleaving yields the same bytes.
    /// Phase B then applies validated splits — registry mutation plus
    /// window rebase only — **sequentially in batch order**, the same
    /// mutation sequence the one-at-a-time path produces.
    ///
    /// Instances must be distinct within one batch (the session feeds
    /// each instance once per round); a duplicate is skipped — debug
    /// builds assert, release builds count the skip in the
    /// `analyzer_duplicate_instance_total` counter.
    pub fn ingest_round(
        &mut self,
        batch: &[(InstanceId, &Trace)],
        now: VirtualTime,
    ) -> Vec<SubspaceId> {
        for (id, _) in batch {
            let arena = self.arena.clone();
            self.instances
                .entry(*id)
                .or_insert_with(|| InstanceState::new(&self.config.find_space, arena));
        }
        // Phase A: per-instance analysis + candidate validation, no
        // registry access. The pooled path pays a per-item event-clone
        // and a job submission to make work owned, so it only engages
        // when the pool can actually parallelize AND there is enough
        // window volume to amortize that overhead — dueness and window
        // sizes are deterministic, so the routing is too.
        let window_sum: usize = batch
            .iter()
            .map(|(id, trace)| {
                self.instances
                    .get(id)
                    .map_or(0, |s| trace.len().saturating_sub(s.start_index))
            })
            .sum();
        let pooled = self.compute.as_ref().is_some_and(|p| p.budget() > 1)
            && batch.len() > 1
            && window_sum >= self.config.pool_min_window;
        let results: Vec<Option<ValidatedSplit>> = if pooled {
            self.phase_a_pooled(batch, now)
        } else {
            self.phase_a_inline(batch, now)
        };
        // Phase B: sequential application in batch order.
        let mut confirmed = Vec::new();
        for ((id, _), result) in batch.iter().zip(results) {
            if let Some(v) = result {
                confirmed.extend(self.apply_validated(*id, v, now));
            }
        }
        self.cache_entries.set(self.similarity_cache.len() as i64);
        confirmed
    }

    /// Phase A on borrowed state, one instance after another on the
    /// calling thread.
    fn phase_a_inline(
        &mut self,
        batch: &[(InstanceId, &Trace)],
        now: VirtualTime,
    ) -> Vec<Option<ValidatedSplit>> {
        batch
            .iter()
            .enumerate()
            .map(|(i, (id, trace))| {
                // Batches hold a handful of instances: a prefix scan
                // finds duplicates without allocating.
                if batch[..i].iter().any(|(seen, _)| seen == id) {
                    self.duplicates_counter.inc();
                    debug_assert!(false, "duplicate instance in ingest_round batch");
                    return None;
                }
                let state = self
                    .instances
                    .get_mut(id)
                    .expect("ingest_round inserts every batch instance's state");
                Self::analyze_one(
                    &self.config,
                    state,
                    *id,
                    trace,
                    now,
                    &self.similarity_cache,
                    &self.analysis_latency,
                )
            })
            .collect()
    }

    /// Phase A on the campaign's persistent [`ComputePool`].
    ///
    /// The pool requires owned `'static` jobs (no borrowed scopes under
    /// `forbid(unsafe_code)`), so each *due* instance's state moves out
    /// of the registry map and its trace events are cloned into the job
    /// (an `Arc` bump per event — the sweep walks the whole window
    /// anyway). Skipped instances (not due, or duplicates) cost
    /// nothing. States return to the map before phase B runs.
    fn phase_a_pooled(
        &mut self,
        batch: &[(InstanceId, &Trace)],
        now: VirtualTime,
    ) -> Vec<Option<ValidatedSplit>> {
        let pool = Arc::clone(self.compute.as_ref().expect("pooled phase requires a pool"));
        struct IngestItem {
            instance: InstanceId,
            state: InstanceState,
            events: Vec<TraceEvent>,
            result: Option<ValidatedSplit>,
        }
        // Not-due states are re-inserted only after the whole batch is
        // scanned, so a duplicate id reliably finds its state missing.
        let mut not_due: Vec<(InstanceId, InstanceState)> = Vec::new();
        let mut slots: Vec<Mutex<Option<IngestItem>>> = Vec::with_capacity(batch.len());
        for (id, trace) in batch {
            let item = match self.instances.remove(id) {
                None => {
                    self.duplicates_counter.inc();
                    debug_assert!(false, "duplicate instance in ingest_round batch");
                    None
                }
                Some(mut state) => {
                    if Self::analysis_due(&self.config, &mut state, trace.len(), now) {
                        Some(IngestItem {
                            instance: *id,
                            state,
                            events: trace.events().to_vec(),
                            result: None,
                        })
                    } else {
                        not_due.push((*id, state));
                        None
                    }
                }
            };
            slots.push(Mutex::new(item));
        }
        for (id, state) in not_due {
            self.instances.insert(id, state);
        }
        let slots = Arc::new(slots);
        let job_slots = Arc::clone(&slots);
        let cache = Arc::clone(&self.similarity_cache);
        let latency = self.analysis_latency.clone();
        let min_screens = self.config.min_subspace_screens;
        pool.run(batch.len(), move |k, _worker| {
            let mut guard = job_slots[k].lock();
            if let Some(item) = guard.as_mut() {
                let (start, candidates) = Self::analysis_sweep(
                    &mut item.state,
                    item.instance,
                    &item.events,
                    now,
                    &cache,
                    &latency,
                );
                item.result =
                    Self::validate_candidates(min_screens, &item.events, start, candidates);
            }
        });
        // `run` returns only after every task finished and dropped its
        // job clone: reclaim states and results in batch order.
        let mut results = Vec::with_capacity(batch.len());
        for slot in slots.iter() {
            match slot.lock().take() {
                Some(item) => {
                    self.instances.insert(item.instance, item.state);
                    results.push(item.result);
                }
                None => results.push(None),
            }
        }
        results
    }

    /// Turns the sweep's candidates into a validated subspace report:
    /// the first candidate that passes every structural check wins.
    ///
    /// Pure function of the trace window and config thresholds —
    /// **registry-read-free** (the proof obligation of DESIGN.md §16's
    /// boundary slimming): every input is frozen before phase A starts,
    /// so running this concurrently across instances cannot change any
    /// result. Only [`apply_validated`](Self::apply_validated) — the
    /// registry mutation and window rebase — must stay sequential.
    fn validate_candidates(
        min_subspace_screens: usize,
        events: &[TraceEvent],
        start: usize,
        candidates: Vec<SplitCandidate>,
    ) -> Option<ValidatedSplit> {
        for split in candidates {
            let abs = start + split.index;
            if abs == 0 {
                continue;
            }
            // The entrypoint is the widget fired on the screen *before*
            // the split that produced the first in-subspace screen.
            let Some(rid) = events[abs].action_widget_rid.clone() else {
                continue;
            };
            // Screens already visited repeatedly before the split are
            // *transit* infrastructure (hubs, tab bars); the subspace must
            // only contain territory that is new at the split.
            let mut prefix_counts: HashMap<AbstractScreenId, usize> = HashMap::new();
            for e in &events[..abs] {
                *prefix_counts.entry(e.abstract_id).or_insert(0) += 1;
            }
            let is_transit =
                |id: &AbstractScreenId| prefix_counts.get(id).copied().unwrap_or(0) >= 2;
            // Validity of the entry rule: the fired widget must sit on a
            // well-established *hub* screen (as in the paper's motivating
            // example, where "the button leading to SearchTabsActivity
            // will be disabled on the main screen") and land on territory
            // never seen before the split. Anchoring on hubs prevents two
            // failure modes: blocking a cluster's internal navigation for
            // other instances, and splitting one cluster into nested
            // subspaces with different owners that lock each other out.
            let host_screen = events[abs - 1].abstract_id;
            let target_screen = events[abs].abstract_id;
            if prefix_counts.get(&host_screen).copied().unwrap_or(0) < 3
                || prefix_counts.contains_key(&target_screen)
            {
                continue;
            }
            // The subspace is the cohesive region entered at the split:
            // the connected component of the entry target in the suffix's
            // transition structure, with transit screens removed.
            let mut adjacency: HashMap<AbstractScreenId, BTreeSet<AbstractScreenId>> =
                HashMap::new();
            for w in events[abs..].windows(2) {
                let (a, b) = (w[0].abstract_id, w[1].abstract_id);
                if a != b && !is_transit(&a) && !is_transit(&b) {
                    adjacency.entry(a).or_default().insert(b);
                    adjacency.entry(b).or_default().insert(a);
                }
            }
            let mut screens: BTreeSet<AbstractScreenId> = BTreeSet::new();
            let mut queue = vec![target_screen];
            while let Some(sc) = queue.pop() {
                if screens.insert(sc) {
                    if let Some(next) = adjacency.get(&sc) {
                        queue.extend(next.iter().copied());
                    }
                }
            }
            if screens.len() < min_subspace_screens || screens.contains(&host_screen) {
                continue;
            }
            return Some(ValidatedSplit {
                split_at: abs,
                entry: EntrypointRule::new(host_screen, &*rid),
                screens,
            });
        }
        None
    }

    /// The sequential half of an analysis: rebases the instance's
    /// window and registers the validated report. Must run in batch
    /// order — it mutates the shared subspace registry, and merge
    /// decisions depend on what earlier reports already registered.
    fn apply_validated(
        &mut self,
        instance: InstanceId,
        v: ValidatedSplit,
        now: VirtualTime,
    ) -> Vec<SubspaceId> {
        // Future analyses for this instance start inside the subspace:
        // the window rebases to `split_at`, so the engine restarts empty
        // and is re-fed from there on the next due analysis.
        // Infallible: every ingestion path inserts the state for
        // `instance` before calling here (and the pooled path returns
        // moved-out states to the map before phase B).
        let state = self.instances.get_mut(&instance).expect("state exists");
        state.start_index = v.split_at;
        state.engine.reset();
        self.register_report(instance, v.entry, v.screens, now)
            .into_iter()
            .collect()
    }

    /// Registers a subspace report directly (used by tests and by offline
    /// replay); returns the id if the report *newly confirmed* a subspace.
    pub fn register_report(
        &mut self,
        instance: InstanceId,
        entry: EntrypointRule,
        screens: BTreeSet<AbstractScreenId>,
        now: VirtualTime,
    ) -> Option<SubspaceId> {
        // Merge with an existing subspace if screen sets overlap enough
        // (containment: nested regions merge into their enclosing
        // subspace) or the entrypoint matches.
        let existing = self.subspaces.iter().position(|s| {
            s.entrypoints.contains(&entry)
                || containment(&s.screens, &screens) >= self.config.merge_jaccard
        });
        let idx = match existing {
            Some(i) => {
                // Keep the first report's screen set: extending on every
                // merge lets subspaces drift and chain-absorb neighbours.
                let s = &mut self.subspaces[i];
                if !s.entrypoints.contains(&entry) {
                    s.entrypoints.push(entry);
                }
                s.reporters.insert(instance);
                i
            }
            None => {
                let id = SubspaceId(self.subspaces.len() as u32);
                self.subspaces.push(SubspaceInfo {
                    id,
                    entrypoints: vec![entry],
                    screens,
                    reporters: [instance].into_iter().collect(),
                    confirmed: false,
                    first_reported: now,
                    owner: None,
                });
                self.subspaces.len() - 1
            }
        };
        let s = &mut self.subspaces[idx];
        if !s.confirmed && s.reporters.len() >= self.config.confirmations_required {
            s.confirmed = true;
            Some(s.id)
        } else {
            None
        }
    }

    /// Consumes the analyzer, yielding the subspace registry by move —
    /// the change-free way to extract the final report.
    pub fn into_subspaces(self) -> Vec<SubspaceInfo> {
        self.subspaces
    }

    /// Confirmed subspaces, in identification order.
    pub fn confirmed(&self) -> impl Iterator<Item = &SubspaceInfo> {
        self.subspaces.iter().filter(|s| s.confirmed)
    }

    /// Summary: subspace count by confirmation state.
    pub fn stats(&self) -> BTreeMap<&'static str, usize> {
        let confirmed = self.subspaces.iter().filter(|s| s.confirmed).count();
        [
            ("confirmed", confirmed),
            ("pending", self.subspaces.len() - confirmed),
        ]
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_ui_model::AbstractScreenId;

    fn screens(ids: &[u64]) -> BTreeSet<AbstractScreenId> {
        ids.iter().map(|i| AbstractScreenId(*i)).collect()
    }

    fn rule(host: u64, rid: &str) -> EntrypointRule {
        EntrypointRule::new(AbstractScreenId(host), rid)
    }

    #[test]
    fn single_report_confirms_in_resource_mode() {
        let mut a = OnlineTraceAnalyzer::new(AnalyzerConfig::resource_mode());
        let id = a.register_report(
            InstanceId(0),
            rule(1, "tab_shop"),
            screens(&[10, 11, 12]),
            VirtualTime::ZERO,
        );
        assert!(id.is_some());
        assert!(a.subspace(id.unwrap()).unwrap().confirmed);
    }

    #[test]
    fn duration_mode_needs_two_reporters() {
        let mut a = OnlineTraceAnalyzer::new(AnalyzerConfig::duration_mode());
        let first = a.register_report(
            InstanceId(0),
            rule(1, "tab_shop"),
            screens(&[10, 11, 12]),
            VirtualTime::ZERO,
        );
        assert_eq!(first, None, "one reporter is not enough in duration mode");
        // A second report from the *same* instance does not confirm.
        let again = a.register_report(
            InstanceId(0),
            rule(1, "tab_shop"),
            screens(&[10, 11, 13]),
            VirtualTime::from_secs(5),
        );
        assert_eq!(again, None);
        // A different instance confirms.
        let second = a.register_report(
            InstanceId(1),
            rule(1, "tab_shop"),
            screens(&[10, 12, 13]),
            VirtualTime::from_secs(9),
        );
        assert!(second.is_some());
        let info = a.subspace(second.unwrap()).unwrap();
        assert!(info.confirmed);
        assert_eq!(info.reporters.len(), 2);
        assert_eq!(a.subspaces().len(), 1, "reports merged into one subspace");
    }

    #[test]
    fn overlapping_screen_sets_merge_even_with_new_entrypoint() {
        let mut a = OnlineTraceAnalyzer::new(AnalyzerConfig::resource_mode());
        a.register_report(
            InstanceId(0),
            rule(1, "tab_a"),
            screens(&[10, 11, 12, 13]),
            VirtualTime::ZERO,
        );
        a.register_report(
            InstanceId(1),
            rule(2, "deeplink_b"),
            screens(&[10, 11, 12, 14]),
            VirtualTime::ZERO,
        );
        assert_eq!(a.subspaces().len(), 1);
        assert_eq!(
            a.subspaces()[0].entrypoints.len(),
            2,
            "both entrypoints kept"
        );
    }

    #[test]
    fn disjoint_reports_create_distinct_subspaces() {
        let mut a = OnlineTraceAnalyzer::new(AnalyzerConfig::resource_mode());
        a.register_report(
            InstanceId(0),
            rule(1, "tab_a"),
            screens(&[10, 11]),
            VirtualTime::ZERO,
        );
        a.register_report(
            InstanceId(0),
            rule(1, "tab_b"),
            screens(&[20, 21]),
            VirtualTime::ZERO,
        );
        assert_eq!(a.subspaces().len(), 2);
        assert_eq!(a.stats()["confirmed"], 2);
    }

    #[test]
    fn maybe_analyze_respects_interval_and_growth() {
        use crate::findspace::tests::two_cluster_trace;
        let mut cfg = AnalyzerConfig::resource_mode();
        cfg.find_space.l_min = VirtualDuration::from_secs(20);
        cfg.analysis_interval = VirtualDuration::from_secs(30);
        cfg.min_new_events = 5;
        let mut a = OnlineTraceAnalyzer::new(cfg);
        let trace: Trace = two_cluster_trace(30, 50).into_iter().collect();
        let now = trace.end_time().unwrap();
        let confirmed = a.maybe_analyze(InstanceId(0), &trace, now);
        assert_eq!(
            confirmed.len(),
            1,
            "clean two-cluster trace confirms at once"
        );
        // Immediately re-analyzing is throttled.
        let again = a.maybe_analyze(InstanceId(0), &trace, now);
        assert!(again.is_empty());
    }

    /// Analyzer + trace ready for ingestion (the trace is long enough
    /// to be due immediately under `resource_mode` gating).
    fn due_setup() -> (OnlineTraceAnalyzer, Trace, VirtualTime) {
        use crate::findspace::tests::two_cluster_trace;
        let mut cfg = AnalyzerConfig::resource_mode();
        cfg.find_space.l_min = VirtualDuration::from_secs(20);
        // Engage the pool for any batch size; the default threshold
        // keeps short windows inline.
        cfg.pool_min_window = 0;
        let a = OnlineTraceAnalyzer::new(cfg);
        let trace: Trace = two_cluster_trace(30, 50).into_iter().collect();
        let now = trace.end_time().unwrap();
        (a, trace, now)
    }

    // The duplicate-instance batch contract has two enforcement arms:
    // debug builds assert (the caller is buggy), release builds skip the
    // duplicate and count it so the seam is observable in production.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "duplicate instance in ingest_round batch")]
    fn duplicate_instance_in_batch_asserts_in_debug() {
        let (mut a, trace, now) = due_setup();
        a.ingest_round(&[(InstanceId(0), &trace), (InstanceId(0), &trace)], now);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn duplicate_instance_in_batch_is_skipped_and_counted() {
        let before = taopt_telemetry::global()
            .counter("analyzer_duplicate_instance_total")
            .get();
        let (mut a, trace, now) = due_setup();
        let confirmed = a.ingest_round(&[(InstanceId(0), &trace), (InstanceId(0), &trace)], now);
        let after = taopt_telemetry::global()
            .counter("analyzer_duplicate_instance_total")
            .get();
        assert_eq!(after - before, 1, "exactly one skipped duplicate counted");
        // The duplicate is skipped, not analyzed twice: the batch is
        // equivalent to a single-entry one.
        let (mut b, trace_b, now_b) = due_setup();
        let single = b.ingest_round(&[(InstanceId(0), &trace_b)], now_b);
        assert_eq!(confirmed, single);
        assert_eq!(a.subspaces().len(), b.subspaces().len());
    }

    #[test]
    fn pooled_ingestion_matches_inline() {
        let (mut inline, trace, now) = due_setup();
        let (mut pooled, trace_p, _) = due_setup();
        pooled.set_compute(crate::campaign::pool::ComputePool::new(4));
        let batch_a = [(InstanceId(0), &trace), (InstanceId(1), &trace)];
        let batch_b = [(InstanceId(0), &trace_p), (InstanceId(1), &trace_p)];
        let a = inline.ingest_round(&batch_a, now);
        let b = pooled.ingest_round(&batch_b, now);
        assert_eq!(a, b);
        assert_eq!(inline.subspaces(), pooled.subspaces());
    }

    #[test]
    fn warm_seeding_does_not_double_count_cache_entries() {
        let warm = WarmStart {
            similarity: vec![((1, 2), true), ((1, 3), false)],
            ..WarmStart::default()
        };
        let mut a = OnlineTraceAnalyzer::with_warm_start(AnalyzerConfig::resource_mode(), &warm);
        assert_eq!(a.similarity_cache().len(), 2);
        // Re-seeding the same entries inserts nothing: the gauge set in
        // `with_warm_start` counted each decision exactly once.
        assert_eq!(a.similarity_cache().seed(warm.similarity.iter()), 0);
        assert_eq!(a.similarity_cache().len(), 2);
        // `forget_instance` on an unknown instance must not disturb the
        // seeded entries (both paths move the same gauge).
        a.forget_instance(InstanceId(99));
        assert_eq!(a.similarity_cache().len(), 2);
    }

    #[test]
    fn warm_start_round_trips_confirmed_subspaces_ownerless() {
        let mut a = OnlineTraceAnalyzer::new(AnalyzerConfig::resource_mode());
        let id = a
            .register_report(
                InstanceId(0),
                rule(1, "tab_a"),
                screens(&[10, 11]),
                VirtualTime::ZERO,
            )
            .unwrap();
        a.set_owner(id, InstanceId(0));
        let warm = a.warm_start(123);
        assert_eq!(warm.subspaces.len(), 1);
        assert_eq!(warm.coverage_baseline, 123);
        // Seeded subspaces arrive confirmed but ownerless and
        // reporter-free: the coordinator blocks them everywhere and the
        // orphan-repair pass re-dedicates them at round 1.
        let b = OnlineTraceAnalyzer::with_warm_start(AnalyzerConfig::duration_mode(), &warm);
        let seeded: Vec<_> = b.confirmed().collect();
        assert_eq!(seeded.len(), 1);
        assert_eq!(seeded[0].owner, None);
        assert!(seeded[0].reporters.is_empty());
        assert_eq!(seeded[0].entrypoints, vec![rule(1, "tab_a")]);
    }

    #[test]
    fn owner_assignment_is_recorded() {
        let mut a = OnlineTraceAnalyzer::new(AnalyzerConfig::resource_mode());
        let id = a
            .register_report(
                InstanceId(0),
                rule(1, "t"),
                screens(&[1, 2]),
                VirtualTime::ZERO,
            )
            .unwrap();
        a.set_owner(id, InstanceId(0));
        assert_eq!(a.subspace(id).unwrap().owner, Some(InstanceId(0)));
    }
}
