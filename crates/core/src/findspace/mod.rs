//! `FindSpace` — Algorithm 1: identifying loosely coupled UI subspaces
//! via trace analysis.
//!
//! Given a UI transition trace `S` (with timestamps `T`) and the threshold
//! `l_min`, `FindSpace` examines every split index `p` and scores how
//! loosely the exploration *after* `p` couples to the exploration *before*
//! `p`:
//!
//! ```text
//! overlap_score(p) = (Σ_{s ∈ Set(S[0:p])} CountIn(s, S[p:N])) / (N − p)
//! purity_score(p)  = sigmoid(|Set(S[p:N])| / sample_size − 1)
//! score(p)         = overlap_score(p) + 2·purity_score(p) − 1
//! ```
//!
//! where `sample_size = |Set(S[p_max+1:N])|` and `p_max` is the largest
//! index leaving at least `l_min` of trace after the split. The split with
//! the minimum score below the initial bound (1) is returned; `CountIn`
//! counts appearances by abstract-hierarchy tree similarity.
//!
//! Three implementations are provided: [`find_space`] maintains the
//! overlap sum incrementally in `O(N·D)` per call (with `D` distinct
//! abstract screens), [`find_space_naive`] transcribes the paper's
//! pseudo-code directly in `O(N²)`, and [`FindSpaceEngine`] keeps the
//! analysis state alive across calls so re-analyzing an append-only
//! trace costs `O(ΔN·D + P)`; tests assert all three agree (the engine
//! bit-identically).
//!
//! `CountIn`'s similarity decisions come from one per-app
//! [`SimilarityCache`], the store every path shares: the engine interns
//! its screens there and records every pair it decides, so between two
//! resets an engine must be fed the same cache.

mod engine;

use std::collections::HashMap;

use taopt_ui_model::similarity::{tree_similarity, DEFAULT_SIMILARITY_THRESHOLD};
use taopt_ui_model::{TraceEvent, VirtualDuration};

pub use engine::FindSpaceEngine;
// The per-app similarity store lives in `ui-model` next to
// `tree_similarity` (its decisions are pure functions of hierarchies);
// re-exported here where every consumer — the engine, the rescan
// reference, the analyzer — already imports it.
pub use taopt_ui_model::similarity::SimilarityCache;

use engine::SCREEN_CAPACITY_HINT;

/// Tunables for `FindSpace`.
#[derive(Debug, Clone, PartialEq)]
pub struct FindSpaceConfig {
    /// Minimum trace time that must remain after the split (`l_min`).
    pub l_min: VirtualDuration,
    /// Tree-similarity threshold for `CountIn`.
    pub similarity_threshold: f64,
    /// Accept only splits scoring strictly below this bound. The paper's
    /// pseudo-code initializes `score_min = 1`; the default here is
    /// tighter so that only clearly loose splits are reported (genuine
    /// cluster boundaries score ≈ 0–0.3, homogeneous traces ≈ 0.7–1).
    pub max_score: f64,
    /// Minimum events before a split (the exploration preceding the
    /// subspace must be non-trivial).
    pub min_prefix_events: usize,
    /// Minimum distinct screens before a split. Guards against the
    /// degenerate low-overlap scores of one-screen prefixes.
    pub min_prefix_distinct: usize,
}

impl Default for FindSpaceConfig {
    fn default() -> Self {
        FindSpaceConfig {
            l_min: VirtualDuration::from_mins(1),
            similarity_threshold: DEFAULT_SIMILARITY_THRESHOLD,
            max_score: 0.6,
            min_prefix_events: 8,
            min_prefix_distinct: 3,
        }
    }
}

/// A split proposed by `FindSpace`: the trace suffix `S[index..]` is a
/// loosely coupled UI subspace entered at `index`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    /// Index of the subspace entry event (`p_out`).
    pub index: usize,
    /// The split's score (lower = more loosely coupled).
    pub score: f64,
}

/// The logistic function used by the purity term.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Builds the pairwise similarity relation over the distinct abstract
/// screens of a trace. Returns (id → dense index, D×D boolean matrix).
fn similarity_relation(
    events: &[TraceEvent],
    threshold: f64,
    cache: &SimilarityCache,
) -> (HashMap<u64, usize>, Vec<Vec<bool>>) {
    let mut index: HashMap<u64, usize> =
        HashMap::with_capacity(events.len().min(SCREEN_CAPACITY_HINT));
    let mut reps: Vec<&TraceEvent> = Vec::new();
    for e in events {
        index.entry(e.abstract_id.0).or_insert_with(|| {
            reps.push(e);
            reps.len() - 1
        });
    }
    let d = reps.len();
    let mut sim = vec![vec![false; d]; d];
    for i in 0..d {
        sim[i][i] = true;
        for j in i + 1..d {
            let s = cache.similar(reps[i], reps[j], threshold);
            sim[i][j] = s;
            sim[j][i] = s;
        }
    }
    (index, sim)
}

/// Largest split index leaving at least `l_min` after it, if any.
fn p_max(events: &[TraceEvent], l_min: VirtualDuration) -> Option<usize> {
    let n = events.len();
    if n < 2 {
        return None;
    }
    let end = events[n - 1].time;
    let cutoff = end.as_millis().checked_sub(l_min.as_millis())?;
    (0..n).rev().find(|p| events[*p].time.as_millis() <= cutoff)
}

/// Runs `FindSpace` on a trace. Returns the minimum-score split below
/// `config.max_score`, or `None` when the trace is too short or no split
/// qualifies.
///
/// # Examples
///
/// See the crate-level quickstart; unit tests below exercise hand-built
/// traces with an obvious two-cluster structure.
pub fn find_space(events: &[TraceEvent], config: &FindSpaceConfig) -> Option<SplitCandidate> {
    find_space_candidates(events, config, &SimilarityCache::new(), 1)
        .into_iter()
        .next()
}

/// Like [`find_space`], but returns up to `k` qualifying splits in
/// ascending score order with an external, reusable similarity cache.
/// Downstream validity filtering (entry-rule anchoring) can then fall
/// back to the next-best split when the global minimum does not yield an
/// enforceable entrypoint. This full-rescan path is the reference
/// implementation the incremental [`FindSpaceEngine`] is pinned against.
pub fn find_space_candidates(
    events: &[TraceEvent],
    config: &FindSpaceConfig,
    cache: &SimilarityCache,
    k: usize,
) -> Vec<SplitCandidate> {
    let n = events.len();
    let Some(pm) = p_max(events, config.l_min) else {
        return Vec::new();
    };
    if pm == 0 || k == 0 {
        return Vec::new();
    }
    let (index, sim) = similarity_relation(events, config.similarity_threshold, cache);
    let d = sim.len();
    let ev_idx: Vec<usize> = events.iter().map(|e| index[&e.abstract_id.0]).collect();

    // sample_size = |Set(S[p_max+1 : N])|.
    let mut tail_distinct = vec![false; d];
    for &e in &ev_idx[pm + 1..] {
        tail_distinct[e] = true;
    }
    let sample_size = tail_distinct.iter().filter(|b| **b).count().max(1);

    // State at p = 1: prefix = {S[0]}, suffix = S[1:N].
    let mut suffix_count = vec![0usize; d];
    for &e in &ev_idx[1..] {
        suffix_count[e] += 1;
    }
    let mut suffix_distinct = suffix_count.iter().filter(|c| **c > 0).count();
    let mut prefix_present = vec![false; d];
    // weight[x] = |{s in prefix distinct : sim(s, x)}|.
    let mut weight = vec![0usize; d];
    let first = ev_idx[0];
    prefix_present[first] = true;
    for (x, w) in weight.iter_mut().enumerate() {
        if sim[first][x] {
            *w += 1;
        }
    }
    let mut overlap: i64 = (0..d).map(|x| (weight[x] * suffix_count[x]) as i64).sum();

    let mut prefix_distinct = 1usize;
    let mut qualifying: Vec<SplitCandidate> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for p in 1..=pm {
        let overlap_score = overlap as f64 / (n - p) as f64;
        let purity_score = sigmoid(suffix_distinct as f64 / sample_size as f64 - 1.0);
        let score = overlap_score + 2.0 * purity_score - 1.0;
        if p >= config.min_prefix_events
            && prefix_distinct >= config.min_prefix_distinct
            && score < config.max_score
        {
            qualifying.push(SplitCandidate { index: p, score });
        }
        // Advance to p+1: event at index p moves from suffix to prefix.
        if p < pm {
            let e = ev_idx[p];
            overlap -= weight[e] as i64;
            suffix_count[e] -= 1;
            if suffix_count[e] == 0 {
                suffix_distinct -= 1;
            }
            if !prefix_present[e] {
                prefix_present[e] = true;
                prefix_distinct += 1;
                for x in 0..d {
                    if sim[e][x] {
                        weight[x] += 1;
                        overlap += suffix_count[x] as i64;
                    }
                }
            }
        }
    }
    qualifying.sort_by(|a, b| a.score.total_cmp(&b.score));
    // Keep the k best, but avoid near-duplicate indexes (adjacent split
    // points describe the same boundary).
    let mut out: Vec<SplitCandidate> = Vec::new();
    for c in qualifying {
        if out.len() >= k {
            break;
        }
        if out.iter().all(|o| o.index.abs_diff(c.index) > 5) {
            out.push(c);
        }
    }
    out
}

/// Direct transcription of Algorithm 1 (quadratic); reference for tests.
pub fn find_space_naive(events: &[TraceEvent], config: &FindSpaceConfig) -> Option<SplitCandidate> {
    let n = events.len();
    let pm = p_max(events, config.l_min)?;
    if pm == 0 {
        return None;
    }
    fn distinct(slice: &[TraceEvent]) -> Vec<&TraceEvent> {
        let mut seen = std::collections::HashSet::new();
        slice
            .iter()
            .filter(|e| seen.insert(e.abstract_id))
            .collect()
    }
    let sample_size = distinct(&events[pm + 1..]).len().max(1);
    let mut best: Option<SplitCandidate> = None;
    let mut score_min = config.max_score;
    for p in 1..=pm {
        let prefix = distinct(&events[..p]);
        if p < config.min_prefix_events || prefix.len() < config.min_prefix_distinct {
            continue;
        }
        let suffix = &events[p..];
        let mut overlap_size = 0usize;
        for s in &prefix {
            overlap_size += suffix
                .iter()
                .filter(|x| {
                    tree_similarity(&s.abstraction, &x.abstraction) >= config.similarity_threshold
                })
                .count();
        }
        let overlap_score = overlap_size as f64 / (n - p) as f64;
        let purity_score = sigmoid(distinct(suffix).len() as f64 / sample_size as f64 - 1.0);
        let score = overlap_score + 2.0 * purity_score - 1.0;
        if score < score_min {
            score_min = score;
            best = Some(SplitCandidate { index: p, score });
        }
    }
    best
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;
    use taopt_ui_model::abstraction::abstract_hierarchy;
    use taopt_ui_model::{
        Action, ActivityId, ScreenId, UiHierarchy, VirtualTime, Widget, WidgetClass,
    };

    /// Builds an event whose screen identity is `label`.
    pub(crate) fn ev(t: u64, label: &str) -> TraceEvent {
        let mut root = Widget::container(WidgetClass::LinearLayout);
        // Several rows so distinct labels yield dissimilar trees.
        for i in 0..6 {
            root = root.with_child(Widget::text_view(&format!("{label}_{i}"), "t"));
        }
        let h = UiHierarchy::new(root);
        let a = Arc::new(abstract_hierarchy(&h));
        TraceEvent {
            time: VirtualTime::from_secs(t),
            screen: ScreenId(0),
            activity: ActivityId(0),
            abstract_id: a.id(),
            abstraction: a,
            action: Some(Action::Back),
            action_widget_rid: Some(Arc::from(format!("w_{label}"))),
        }
    }

    /// A trace wandering cluster A then settling into cluster B.
    pub(crate) fn two_cluster_trace(a_len: usize, b_len: usize) -> Vec<TraceEvent> {
        let mut t = 0u64;
        let mut events = Vec::new();
        for i in 0..a_len {
            events.push(ev(t, &format!("A{}", i % 5)));
            t += 2;
        }
        for i in 0..b_len {
            events.push(ev(t, &format!("B{}", i % 5)));
            t += 2;
        }
        events
    }

    #[test]
    fn detects_the_cluster_boundary() {
        let events = two_cluster_trace(40, 60);
        let cfg = FindSpaceConfig {
            l_min: VirtualDuration::from_secs(30),
            ..FindSpaceConfig::default()
        };
        let split = find_space(&events, &cfg).expect("should find the B cluster");
        assert!(
            (38..=42).contains(&split.index),
            "split at {} should be near 40",
            split.index
        );
        assert!(
            split.score < 0.5,
            "clean split scores low, got {}",
            split.score
        );
    }

    #[test]
    fn no_split_on_homogeneous_trace() {
        // One cluster revisited throughout: every prefix overlaps the
        // suffix heavily, so no split scores below 1.
        let mut events = Vec::new();
        for i in 0..80 {
            events.push(ev(i * 2, &format!("A{}", i % 4)));
        }
        let cfg = FindSpaceConfig {
            l_min: VirtualDuration::from_secs(30),
            max_score: 0.5,
            ..FindSpaceConfig::default()
        };
        assert_eq!(find_space(&events, &cfg), None);
    }

    #[test]
    fn short_trace_returns_none() {
        let events = two_cluster_trace(3, 3);
        let cfg = FindSpaceConfig {
            l_min: VirtualDuration::from_mins(5),
            ..FindSpaceConfig::default()
        };
        assert_eq!(find_space(&events, &cfg), None);
        assert_eq!(find_space(&events[..1], &cfg), None);
        assert_eq!(find_space(&[], &cfg), None);
    }

    #[test]
    fn l_min_reserves_trace_tail() {
        let events = two_cluster_trace(20, 20);
        // Total span is 80 s; an l_min of 70 s forces p_max near the start,
        // before the cluster boundary.
        let cfg = FindSpaceConfig {
            l_min: VirtualDuration::from_secs(70),
            ..FindSpaceConfig::default()
        };
        if let Some(split) = find_space(&events, &cfg) {
            assert!(split.index <= 5, "split {} must respect l_min", split.index);
        }
    }

    #[test]
    fn incremental_matches_naive() {
        for (a, b) in [(10, 30), (25, 25), (40, 15), (5, 60)] {
            let events = two_cluster_trace(a, b);
            let cfg = FindSpaceConfig {
                l_min: VirtualDuration::from_secs(20),
                ..FindSpaceConfig::default()
            };
            let fast = find_space(&events, &cfg);
            let slow = find_space_naive(&events, &cfg);
            match (fast, slow) {
                (Some(f), Some(s)) => {
                    assert_eq!(f.index, s.index, "indices diverge for ({a},{b})");
                    assert!((f.score - s.score).abs() < 1e-9);
                }
                (f, s) => assert_eq!(f, s),
            }
        }
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }
}
