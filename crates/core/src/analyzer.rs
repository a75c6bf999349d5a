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
//!
//! Every instance's incremental engine shares the analyzer's one
//! [`SimilarityCache`], the app's similarity store: a pair of screens is
//! evaluated once per app, whichever instance meets it first, and the
//! store keeps every decision for the analyzer's lifetime (a retired
//! instance's decisions still answer its successor).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use taopt_toller::{EntrypointRule, InstanceId};
use taopt_ui_model::idhash::IdMap;
use taopt_ui_model::{AbstractScreenId, Trace, TraceEvent, VirtualDuration, VirtualTime};

use crate::findspace::{FindSpaceConfig, FindSpaceEngine, SimilarityCache, SplitCandidate};
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

/// The first three occurrence positions of every abstract screen in one
/// instance's trace, caught up incrementally.
///
/// Candidate validation only ever asks saturating questions of a prefix
/// count — seen at all (`> 0`), *transit* (`≥ 2`), *hub* (`≥ 3`) — and
/// the count of `id` in `events[..end]`, capped at 3, is the number of
/// its first three positions below `end`. So one index answers every
/// candidate in `O(1)`, where a prefix rescan would hash the whole trace
/// per candidate.
#[derive(Debug, Default)]
struct OccurrenceIndex {
    /// Trace events indexed so far.
    indexed: usize,
    /// Ascending positions; `usize::MAX` marks an absent occurrence.
    first3: IdMap<AbstractScreenId, [usize; 3]>,
}

impl OccurrenceIndex {
    /// Indexes the events appended since the last call. A trace shorter
    /// than what was indexed was replaced under this instance id — the
    /// engine's reset rule — so the index starts over.
    fn catch_up(&mut self, events: &[TraceEvent]) {
        if events.len() < self.indexed {
            self.first3.clear();
            self.indexed = 0;
        }
        for (pos, e) in events.iter().enumerate().skip(self.indexed) {
            let slots = self.first3.entry(e.abstract_id).or_insert([usize::MAX; 3]);
            if let Some(free) = slots.iter_mut().find(|p| **p == usize::MAX) {
                *free = pos;
            }
        }
        self.indexed = events.len();
    }

    /// Occurrences of `id` in `events[..end]`, saturating at 3.
    fn count_before(&self, id: AbstractScreenId, end: usize) -> usize {
        self.first3
            .get(&id)
            .map_or(0, |slots| slots.iter().filter(|&&p| p < end).count())
    }
}

/// Per-instance analysis state: the due-gating cursor, the persistent
/// incremental [`FindSpaceEngine`] mirroring the instance's analysis
/// window (`trace[start_index..]`), and the occurrence index over the
/// whole trace that candidate validation reads.
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
    /// First occurrences over the whole trace (not just the window):
    /// transit and hub counts look back past `start_index`.
    occurrences: OccurrenceIndex,
}

impl InstanceState {
    fn new(config: &FindSpaceConfig) -> Self {
        InstanceState {
            last_run: None,
            last_len: 0,
            start_index: 0,
            engine: FindSpaceEngine::new(config.clone()),
            occurrences: OccurrenceIndex::default(),
        }
    }
}

/// The on-the-fly trace analyzer shared by all instances of a run.
#[derive(Debug)]
pub struct OnlineTraceAnalyzer {
    config: AnalyzerConfig,
    subspaces: Vec<SubspaceInfo>,
    instances: HashMap<InstanceId, InstanceState>,
    /// The app's similarity store, shared by every instance's engine.
    similarity_cache: SimilarityCache,
    /// `span_ns{kind="findspace"}`, resolved once per analyzer so a sweep
    /// takes no registry lock.
    findspace_span: taopt_telemetry::Histogram,
    /// Batch-contract violations: duplicate instances skipped by
    /// [`ingest_round`](Self::ingest_round) (release builds skip and
    /// count; debug builds assert).
    duplicates_counter: taopt_telemetry::Counter,
}

/// A split candidate that survived validation: everything the apply
/// step needs to rebase the instance's window and register the report.
///
/// Producing one reads only the instance's trace and the config
/// thresholds, never the subspace registry; only
/// [`OnlineTraceAnalyzer::apply_validated`] writes the registry.
#[derive(Debug, PartialEq)]
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
            similarity_cache: SimilarityCache::new(),
            findspace_span: taopt_telemetry::global().span_histogram("findspace"),
            duplicates_counter: taopt_telemetry::global()
                .counter("analyzer_duplicate_instance_total"),
        }
    }

    /// Creates an analyzer seeded from a previous campaign's
    /// [`WarmStart`] bundle.
    ///
    /// The bundle's similarity decisions, a pure accelerator, seed the
    /// store unconditionally — they can only skip computes. Each bundled
    /// subspace enters the registry already-confirmed with **no owner and
    /// no reporters**: the coordinator's `register_instance` then blocks
    /// its entrypoints on every booting instance, and the per-round
    /// orphan-repair pass re-dedicates it at the first round — "untouched
    /// subspaces are re-dedicated immediately". Callers are responsible
    /// for invalidating the bundle against the release diff first
    /// ([`WarmStart::invalidate`]).
    pub fn with_warm_start(config: AnalyzerConfig, warm: &WarmStart) -> Self {
        let mut a = Self::new(config);
        a.similarity_cache.seed(warm.similarity.iter());
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
    /// bundle for the next version's campaign: the confirmed subspaces
    /// and every decision in the similarity store. `coverage_baseline` is
    /// the capturing session's final union coverage.
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
            coverage_baseline,
        }
    }

    /// The app's similarity store, shared by every instance's engine.
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

    /// Drops a retired instance's analysis state (cursor, incremental
    /// engine, occurrence index). The similarity store keeps the
    /// instance's decisions: they answer every later engine of the app.
    ///
    /// Call when an instance retires or its device is replaced: a
    /// successor re-using the id must not inherit a stale window.
    pub fn forget_instance(&mut self, instance: InstanceId) {
        self.instances.remove(&instance);
    }

    /// Due-gating half of an analysis: interval and growth checks,
    /// advancing the cursor and catching the occurrence index up when
    /// due. Returns the start of the window to analyze, or `None` when
    /// the instance is not due. The sweep then needs only the window,
    /// never the trace before it.
    fn due_window(
        config: &AnalyzerConfig,
        state: &mut InstanceState,
        events: &[TraceEvent],
        now: VirtualTime,
    ) -> Option<usize> {
        if let Some(last) = state.last_run {
            if now.since(last) < config.analysis_interval {
                return None;
            }
        }
        if events.len() < state.last_len + config.min_new_events {
            return None;
        }
        state.last_run = Some(now);
        state.last_len = events.len();
        state.occurrences.catch_up(events);
        Some(state.start_index.min(events.len()))
    }

    /// The per-instance sweep of a due window: engine catch-up plus the
    /// FindSpace analysis. Touches only `state` and `cache`, never the
    /// registry.
    fn analysis_sweep(
        state: &mut InstanceState,
        window: &[TraceEvent],
        cache: &SimilarityCache,
        span: &taopt_telemetry::Histogram,
    ) -> Vec<SplitCandidate> {
        // Span opens after due-gating, so it times actual FindSpace
        // runs rather than every per-round poll.
        let _span = span.span();
        // The engine mirrors `window` incrementally: only events appended
        // since the last analysis are fed. A shrunk window means the
        // trace was replaced under this id — start over.
        if window.len() < state.engine.len() {
            state.engine.reset();
        }
        state.engine.extend_from(window, cache);
        state.engine.analyze(5)
    }

    /// One instance's registry-free work: due-gating, sweep, and
    /// candidate validation.
    fn analyze_one(
        config: &AnalyzerConfig,
        state: &mut InstanceState,
        trace: &Trace,
        now: VirtualTime,
        cache: &SimilarityCache,
        span: &taopt_telemetry::Histogram,
    ) -> Option<ValidatedSplit> {
        let events = trace.events();
        let start = Self::due_window(config, state, events, now)?;
        let window = &events[start..];
        let candidates = Self::analysis_sweep(state, window, cache, span);
        Self::validate_candidates(
            config.min_subspace_screens,
            &state.occurrences,
            window,
            start,
            candidates,
        )
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
    /// appended events. Items are analyzed on the calling thread in
    /// slice order, each one start to finish — due-gating, the sweep,
    /// candidate validation, and then applying a validated split
    /// (registry mutation plus window rebase) — before the next item is
    /// looked at.
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
        let mut confirmed = Vec::new();
        for (i, (id, trace)) in batch.iter().enumerate() {
            // Batches hold a handful of instances: a prefix scan finds
            // duplicates without allocating.
            if batch[..i].iter().any(|(seen, _)| seen == id) {
                self.duplicates_counter.inc();
                debug_assert!(false, "duplicate instance in ingest_round batch");
                continue;
            }
            let state = self
                .instances
                .entry(*id)
                .or_insert_with(|| InstanceState::new(&self.config.find_space));
            let validated = Self::analyze_one(
                &self.config,
                state,
                trace,
                now,
                &self.similarity_cache,
                &self.findspace_span,
            );
            if let Some(v) = validated {
                confirmed.extend(self.apply_validated(*id, v, now));
            }
        }
        confirmed
    }

    /// Turns the sweep's candidates into a validated subspace report:
    /// the first candidate that passes every structural check wins.
    ///
    /// `window` is `trace[start..]` and candidate indices are relative
    /// to it; the engine only proposes splits `p ≥ 1`, so the host event
    /// `window[p − 1]` is inside the window (a `p = 0` candidate is
    /// skipped). Counts over the prefix `trace[..start + p]` come from
    /// `occurrences`, which must be caught up to the whole trace.
    ///
    /// A pure function of the trace and the config thresholds: it
    /// never reads the registry.
    fn validate_candidates(
        min_subspace_screens: usize,
        occurrences: &OccurrenceIndex,
        window: &[TraceEvent],
        start: usize,
        candidates: Vec<SplitCandidate>,
    ) -> Option<ValidatedSplit> {
        for split in candidates {
            let p = split.index;
            if p == 0 {
                continue;
            }
            // The entrypoint is the widget fired on the screen *before*
            // the split that produced the first in-subspace screen.
            let Some(rid) = window[p].action_widget_rid.clone() else {
                continue;
            };
            let seen = |id: AbstractScreenId| occurrences.count_before(id, start + p);
            // Validity of the entry rule: the fired widget must sit on a
            // well-established *hub* screen (as in the paper's motivating
            // example, where "the button leading to SearchTabsActivity
            // will be disabled on the main screen") and land on territory
            // never seen before the split. Anchoring on hubs prevents two
            // failure modes: blocking a cluster's internal navigation for
            // other instances, and splitting one cluster into nested
            // subspaces with different owners that lock each other out.
            let host_screen = window[p - 1].abstract_id;
            let target_screen = window[p].abstract_id;
            if seen(host_screen) < 3 || seen(target_screen) > 0 {
                continue;
            }
            // Screens already visited repeatedly before the split are
            // *transit* infrastructure (hubs, tab bars); the subspace must
            // only contain territory that is new at the split.
            let is_transit = |id: AbstractScreenId| seen(id) >= 2;
            // The subspace is the cohesive region entered at the split:
            // the connected component of the entry target in the suffix's
            // transition structure, with transit screens removed.
            let mut adjacency: IdMap<AbstractScreenId, BTreeSet<AbstractScreenId>> =
                IdMap::default();
            for w in window[p..].windows(2) {
                let (a, b) = (w[0].abstract_id, w[1].abstract_id);
                if a != b && !is_transit(a) && !is_transit(b) {
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
                split_at: start + p,
                entry: EntrypointRule::new(host_screen, &*rid),
                screens,
            });
        }
        None
    }

    /// The registry half of an analysis: rebases the instance's window
    /// and registers the validated report. Merge decisions depend on
    /// what earlier reports already registered, so reports apply in
    /// batch order.
    fn apply_validated(
        &mut self,
        instance: InstanceId,
        v: ValidatedSplit,
        now: VirtualTime,
    ) -> Vec<SubspaceId> {
        // Future analyses for this instance start inside the subspace:
        // the window rebases to `split_at`, so the engine restarts empty
        // and is re-fed from there on the next due analysis.
        // Infallible: ingestion inserts the state for `instance` before
        // calling here.
        let state = self.instances.get_mut(&instance).expect("state exists");
        state.start_index = v.split_at;
        state.engine.reset();
        self.register_report(instance, v.entry, v.screens, now)
            .into_iter()
            .collect()
    }

    /// Registers a subspace report: every validated split ends here, and
    /// tests and [`crate::TestCoordinator::register_report`] inject reports
    /// directly. Returns the id if the report *newly confirmed* a subspace.
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
    use proptest::prelude::*;

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
    fn warm_seeding_records_each_decision_once() {
        let warm = WarmStart {
            similarity: vec![((1, 2), true), ((1, 3), false)],
            ..WarmStart::default()
        };
        let mut a = OnlineTraceAnalyzer::with_warm_start(AnalyzerConfig::resource_mode(), &warm);
        assert_eq!(a.similarity_cache().snapshot().len(), 2);
        // Re-seeding the same entries records nothing.
        assert_eq!(a.similarity_cache().seed(warm.similarity.iter()), 0);
        // `forget_instance` on an unknown instance leaves the store alone.
        a.forget_instance(InstanceId(99));
        assert_eq!(
            a.similarity_cache()
                .snapshot()
                .into_iter()
                .collect::<Vec<_>>(),
            warm.similarity
        );
    }

    #[test]
    fn warm_similarity_makes_a_re_feed_compute_nothing() {
        use crate::findspace::tests::two_cluster_trace;
        let mut config = AnalyzerConfig::duration_mode();
        config.find_space.l_min = VirtualDuration::from_secs(20);
        config.analysis_interval = VirtualDuration::from_secs(10);
        config.min_new_events = 5;
        config.min_subspace_screens = 2;
        let traces: Vec<Trace> = [(20, 40), (30, 30), (45, 25)]
            .iter()
            .map(|&(x, y)| two_cluster_trace(x, y).into_iter().collect())
            .collect();
        // Three instances walking overlapping clusters, fed in rounds.
        let feed = |a: &mut OnlineTraceAnalyzer| {
            let mut confirmed = Vec::new();
            for round in 1..=20usize {
                let prefixes: Vec<(InstanceId, Trace)> = traces
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let end = (round * 8).min(t.len());
                        (
                            InstanceId(i as u32),
                            t.events()[..end].iter().cloned().collect(),
                        )
                    })
                    .collect();
                let batch: Vec<(InstanceId, &Trace)> =
                    prefixes.iter().map(|(id, t)| (*id, t)).collect();
                let now = VirtualTime::from_secs(round as u64 * 15);
                confirmed.extend(a.ingest_round(&batch, now));
            }
            confirmed
        };
        let mut cold = OnlineTraceAnalyzer::new(config.clone());
        let cold_confirmed = feed(&mut cold);
        assert!(!cold_confirmed.is_empty());
        assert!(cold.similarity_cache().computations() > 0);
        let bundle = cold.warm_start(0).accelerators_only();
        let mut warm = OnlineTraceAnalyzer::with_warm_start(config, &bundle);
        assert_eq!(feed(&mut warm), cold_confirmed);
        assert_eq!(warm.similarity_cache().computations(), 0);
        assert_eq!(warm.subspaces(), cold.subspaces());
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

    /// The prefix-rescan validation the occurrence index replaced: a
    /// `HashMap` of counts over `events[..start + p]`, rebuilt for every
    /// candidate. The oracle of the `validation_law_*` laws.
    fn validate_candidates_oracle(
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
            let Some(rid) = events[abs].action_widget_rid.clone() else {
                continue;
            };
            let mut prefix_counts: HashMap<AbstractScreenId, usize> = HashMap::new();
            for e in &events[..abs] {
                *prefix_counts.entry(e.abstract_id).or_insert(0) += 1;
            }
            let is_transit =
                |id: &AbstractScreenId| prefix_counts.get(id).copied().unwrap_or(0) >= 2;
            let host_screen = events[abs - 1].abstract_id;
            let target_screen = events[abs].abstract_id;
            if prefix_counts.get(&host_screen).copied().unwrap_or(0) < 3
                || prefix_counts.contains_key(&target_screen)
            {
                continue;
            }
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

    /// The oracle's ingestion: `maybe_analyze` per batch item, in batch
    /// order, validating with [`validate_candidates_oracle`].
    fn oracle_ingest(
        a: &mut OnlineTraceAnalyzer,
        batch: &[(InstanceId, &Trace)],
        now: VirtualTime,
    ) -> Vec<SubspaceId> {
        let mut confirmed = Vec::new();
        for (id, trace) in batch {
            let config = a.config.clone();
            let state = a
                .instances
                .entry(*id)
                .or_insert_with(|| InstanceState::new(&config.find_space));
            let events = trace.events();
            let Some(start) = OnlineTraceAnalyzer::due_window(&config, state, events, now) else {
                continue;
            };
            let candidates = OnlineTraceAnalyzer::analysis_sweep(
                state,
                &events[start..],
                &a.similarity_cache,
                &a.findspace_span,
            );
            let validated =
                validate_candidates_oracle(config.min_subspace_screens, events, start, candidates);
            if let Some(v) = validated {
                confirmed.extend(a.apply_validated(*id, v, now));
            }
        }
        confirmed
    }

    /// A hub-and-clusters walk: each excursion leaves the hub (once or
    /// twice), wanders one of five clusters of six screens, and comes
    /// back — so hubs are revisited many times, clusters (and so split
    /// targets) recur, and some excursions enter through a widget-less
    /// event.
    fn arb_walk() -> impl Strategy<Value = Vec<TraceEvent>> {
        use crate::findspace::tests::ev;
        proptest::collection::vec((0u8..5, 1usize..12, 0u8..4), 3..24).prop_map(|visits| {
            let mut t = 0u64;
            let mut events = Vec::new();
            for (k, (cluster, len, flags)) in visits.into_iter().enumerate() {
                for _ in 0..=flags % 2 {
                    events.push(ev(t, "hub"));
                    t += 2;
                }
                for i in 0..len {
                    let mut e = ev(t, &format!("C{cluster}_{}", (i * 7 + k) % 6));
                    if i == 0 && flags == 3 {
                        e.action_widget_rid = None;
                    }
                    events.push(e);
                    t += 2;
                }
            }
            events
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Law: the index-backed validation equals the prefix-rescan
        /// oracle on every window start, for a candidate at every index
        /// of the window (alone, and all at once in a scrambled order),
        /// with the index caught up in chunks and then over a trace that
        /// shrank under the same instance.
        #[test]
        fn validation_law_index_matches_prefix_rescan(
            before in arb_walk(),
            trace in arb_walk(),
            start_frac in 0.0f64..1.0,
            chunk in 1usize..40,
            min_screens in 1usize..6,
            stride in 1usize..8,
        ) {
            let mut index = OccurrenceIndex::default();
            // A longer trace first, so catching up to `trace` shrinks.
            let before: Vec<_> = before.iter().chain(&trace).cloned().collect();
            let mut end = 0;
            while end < before.len() {
                end = (end + chunk).min(before.len());
                index.catch_up(&before[..end]);
            }
            index.catch_up(&trace);
            let start = (start_frac * trace.len() as f64) as usize;
            let window = &trace[start..];
            let cand = |index| SplitCandidate { index, score: 0.0 };
            // `p = 0` has its host event outside a rebased window; the
            // engine never proposes it.
            let first = if start == 0 { 0 } else { 1 };
            for p in first..window.len() {
                prop_assert_eq!(
                    OnlineTraceAnalyzer::validate_candidates(
                        min_screens, &index, window, start, vec![cand(p)]
                    ),
                    validate_candidates_oracle(min_screens, &trace, start, vec![cand(p)]),
                    "start {} candidate {}", start, p
                );
            }
            let n = window.len().max(1);
            let scrambled: Vec<_> = (0..n)
                .map(|k| cand(first.max((k * stride + 3) % n)))
                .filter(|c| c.index < window.len())
                .collect();
            prop_assert_eq!(
                OnlineTraceAnalyzer::validate_candidates(
                    min_screens, &index, window, start, scrambled.clone()
                ),
                validate_candidates_oracle(min_screens, &trace, start, scrambled)
            );
        }

        /// Law: `ingest_round` confirms exactly what the oracle's
        /// one-at-a-time ingestion confirms, round by round, and ends
        /// with the same registry. Mid-run, instance 0's device is
        /// replaced: its trace restarts shorter under the same id after
        /// `forget_instance`, as the coordinator does. (Without it, a
        /// shrunk trace is never observed: it is due again only once it
        /// outgrows the last analyzed length by `min_new_events`, so the
        /// index's and the engine's shrink resets both stay defensive —
        /// the law above drives the index's directly.)
        #[test]
        fn validation_law_through_ingest_round(
            traces in proptest::collection::vec(arb_walk(), 1..4),
            replacement in arb_walk(),
            chunk in 5usize..30,
            replace_at in 1usize..12,
        ) {
            let mut config = AnalyzerConfig::resource_mode();
            config.find_space.l_min = VirtualDuration::from_secs(20);
            config.find_space.min_prefix_events = 4;
            config.find_space.min_prefix_distinct = 2;
            config.analysis_interval = VirtualDuration::from_secs(10);
            config.min_new_events = 5;
            config.min_subspace_screens = 2;
            let mut oracle = OnlineTraceAnalyzer::new(config.clone());
            let mut ingested = OnlineTraceAnalyzer::new(config);
            let rounds = traces
                .iter()
                .chain([&replacement])
                .map(|t| t.len().div_ceil(chunk))
                .max()
                .unwrap_or(0)
                + replace_at;
            for round in 0..rounds {
                let now = VirtualTime::from_secs((round as u64 + 1) * 15);
                if round == replace_at {
                    for a in [&mut oracle, &mut ingested] {
                        a.forget_instance(InstanceId(0));
                    }
                }
                let prefixes: Vec<(InstanceId, Trace)> = traces
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let (t, r) = if i == 0 && round >= replace_at {
                            (&replacement, round - replace_at)
                        } else {
                            (t, round)
                        };
                        let end = ((r + 1) * chunk).min(t.len());
                        (InstanceId(i as u32), t[..end].iter().cloned().collect())
                    })
                    .collect();
                let batch: Vec<(InstanceId, &Trace)> =
                    prefixes.iter().map(|(id, t)| (*id, t)).collect();
                let expected = oracle_ingest(&mut oracle, &batch, now);
                prop_assert_eq!(&expected, &ingested.ingest_round(&batch, now), "round {}", round);
            }
            prop_assert_eq!(oracle.subspaces(), ingested.subspaces());
        }
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
