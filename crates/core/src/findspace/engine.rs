//! The incremental `FindSpace` engine: `O(ΔN·D + P)` per analysis.
//!
//! Scoring a split needs an interning table, a similarity relation,
//! occurrence counts and overlap sums; re-deriving them on every call
//! costs `O(N·D)` per analysis of an *append-only* trace.
//! [`FindSpaceEngine`] maintains that state persistently under appends,
//! so a trace analyzed every few seconds pays for each event once instead
//! of once per analysis.
//!
//! # Maintained state
//!
//! Per distinct abstract screen `j` (dense ids assigned in first-
//! appearance order, so `first_occ` is strictly increasing):
//!
//! * the local `D×D` similarity matrix — flat, row-major, symmetric, its
//!   buffer kept across resets — extended by one row per *new* screen.
//!   A screen already in the window is found through the engine's own
//!   map; only a screen new to the window is interned and has its row
//!   read through the app's [`SimilarityCache`], under its lock: every
//!   pair some engine of the app already decided is answered from the
//!   store, and only the rest are evaluated and recorded there.
//!   Re-feeding a rebased window therefore evaluates nothing;
//! * `total_sim[j]` — events anywhere in the trace similar to screen `j`;
//! * `first_occ[j]` / `last_occ[j]` — first and last occurrence position.
//!
//! Per split position `p` (materialized lazily up to the largest `p_max`
//! seen, the *frontier*), two quantities that are pure functions of the
//! prefix `S[0:p]` and therefore never change as the trace grows:
//!
//! * `pair_base[p]` — similar (screen, event) pairs wholly inside the
//!   prefix: `Σ_{j : first_occ[j] < p} |{i < p : sim(j, S[i])}|`;
//! * `prefix_distinct_at[p]` — `|Set(S[0:p])|`.
//!
//! # Per-analysis recomposition
//!
//! Algorithm 1's per-split quantities fall out of the invariants above
//! in one fused sweep over `p ∈ 1..=p_max`:
//!
//! ```text
//! overlap(p)         = Σ_{j : first_occ[j] < p} total_sim[j]  −  pair_base[p]
//! suffix_distinct(p) = D − |{j : last_occ[j] < p}|
//! ```
//!
//! The first term is a running sum over `first_occ` order; the second a
//! merge against the sorted `last_occ` values. All overlap arithmetic is
//! exact integer math — the same counts the paper's pseudo-code sums —
//! and the floating-point score expression is the pseudo-code's verbatim,
//! so the returned [`SplitCandidate`]s are **bit-identical** to
//! [`find_space_naive`](super::find_space_naive) on the same prefix
//! (pinned by unit tests, proptests and the golden-trace fixture).
//!
//! # Vectorized sweep
//!
//! [`analyze`](FindSpaceEngine::analyze) runs the sweep *run-segmented*:
//! both cursors (`first_occ` order, sorted `last_occ`) only move at `2D`
//! positions, so between moves `overlap_whole` and the purity term are
//! constants and the per-`p` work collapses to
//! `(overlap_whole − pair_base[p]) → score`, evaluated over contiguous
//! `pair_base` in 8-wide chunks the autovectorizer can pack, with a
//! scalar tail for ragged run ends (integer subtract, int→f64 convert,
//! divide, add — element-wise, no horizontal operation, **no
//! reassociation**: each lane performs the scalar expression's operations in its
//! order on its values, so the bits match the scalar expression
//! exactly). Eligibility hoists out of the loop
//! entirely: `prefix_distinct_at` is nondecreasing, so the eligible
//! region is a single `p` range found by binary search.
//!
//! # Cost
//!
//! Feeding `ΔN` appended events costs `O(ΔN·D)` (interning, similarity
//! rows, per-screen counters) plus one tree-similarity evaluation per
//! pair the app has never decided; one analysis costs `O(P + D log D)` for
//! the sweep plus `O(1)` amortized frontier advancement.

use std::collections::hash_map::Entry;

use taopt_ui_model::idhash::IdMap;
use taopt_ui_model::TraceEvent;

use super::{sigmoid, FindSpaceConfig, SimilarityCache, SplitCandidate};

/// Distinct abstract screens rarely exceed a few dozen per app, so the
/// similarity matrix starts sized for that.
const SCREEN_CAPACITY_HINT: usize = 64;

/// Lane width of the sweep kernel: wide enough to fill an AVX2 register
/// four times over at f64, small enough that short runs don't round up
/// past `p_max`.
const LANES: usize = 8;

/// Scores [`LANES`] consecutive positions `q = start..start + LANES` of
/// the fused sweep:
///
/// ```text
/// (overlap_whole - pair_base[q]) as f64 / (n - q) as f64 + two_purity - 1.0
/// ```
///
/// This is the scalar score expression verbatim, element-wise — the
/// conversions are exact (both operands < 2^53), the divide and the
/// two adds are IEEE ops in the oracle's left-to-right association,
/// and no cross-lane operation exists — so every lane's bits equal the
/// scalar loop's. The const trip count and array-ref operand are what
/// let the autovectorizer turn this into packed convert/divide when
/// the target CPU has the instructions (the bench builds with
/// `target-cpu=native`); on baseline targets it unrolls to the same
/// scalar sequence.
#[inline]
fn score_chunk(
    pair_base: &[i64],
    start: usize,
    n: usize,
    overlap_whole: i64,
    two_purity: f64,
) -> [f64; LANES] {
    let pb: &[i64; LANES] = pair_base[start..start + LANES]
        .try_into()
        .expect("chunk is LANES long");
    let mut out = [0.0f64; LANES];
    for l in 0..LANES {
        let overlap = overlap_whole - pb[l];
        let overlap_score = overlap as f64 / (n - (start + l)) as f64;
        out[l] = overlap_score + two_purity - 1.0;
    }
    out
}

/// Persistent incremental `FindSpace` state for one instance's
/// append-only trace window.
///
/// Feed appended events with [`extend_from`](Self::extend_from), ask for
/// candidates with [`analyze`](Self::analyze). The engine assumes the
/// window it has ingested is immutable except for appends; when the
/// window is replaced or rebased (an accepted split moves the analysis
/// start, a re-dedicated or replaced device restarts its trace), call
/// [`reset`](Self::reset) and re-feed.
///
/// Screens are interned in the [`SimilarityCache`] passed to
/// [`extend_from`](Self::extend_from) and [`push`](Self::push), so
/// between two resets every call must pass the same cache.
#[derive(Debug)]
pub struct FindSpaceEngine {
    config: FindSpaceConfig,
    /// Abstract-screen id → dense local index of every screen in the
    /// window: a screen seen before is found here without touching the
    /// app's store. Cleared (capacity kept) by resets.
    local: IdMap<u64, u32>,
    /// The cache's dense id of every local screen, in first-appearance
    /// order.
    store_ids: Vec<u32>,
    /// One representative event per dense screen id.
    reps: Vec<TraceEvent>,
    /// `D×D` pairwise similarity (diagonal true): flat row-major with
    /// stride `sim_stride`, symmetric, buffer retained across resets.
    sim: Vec<bool>,
    sim_stride: usize,
    /// Dense screen id of every ingested event.
    ev_idx: Vec<usize>,
    /// Event timestamps in millis (for `p_max`).
    times: Vec<u64>,
    /// First occurrence position per screen; strictly increasing.
    first_occ: Vec<usize>,
    /// Last occurrence position per screen.
    last_occ: Vec<usize>,
    /// Events in the whole ingested window similar to screen `j`.
    total_sim: Vec<i64>,
    /// Frontier: split positions `1..=extent` are materialized.
    extent: usize,
    /// Whether screen `j` occurs in the frontier prefix `[0..extent)`.
    prefix_present: Vec<bool>,
    /// Occurrences of screen `j` in `[0..extent)`.
    prefix_count: Vec<usize>,
    /// `|{s ∈ Set(S[0:extent]) : sim(s, j)}|`.
    weight: Vec<usize>,
    /// Distinct screens in the frontier prefix.
    prefix_distinct: usize,
    /// `pair_base[p]`: similar (screen, event) pairs inside `S[0:p]`;
    /// indices `0..=extent`, append-only.
    pair_base: Vec<i64>,
    /// `|Set(S[0:p])|` for `p ∈ 0..=extent`, append-only.
    prefix_distinct_at: Vec<usize>,
    /// Scratch: `last_occ` sorted, rebuilt per analysis.
    sorted_last: Vec<usize>,
    /// Scratch: local ids whose pair with a newly interned screen the
    /// app's store had not decided yet.
    undecided: Vec<usize>,
}

impl FindSpaceEngine {
    /// Creates an empty engine.
    pub fn new(config: FindSpaceConfig) -> Self {
        FindSpaceEngine {
            config,
            local: IdMap::default(),
            store_ids: Vec::new(),
            reps: Vec::new(),
            sim: Vec::new(),
            sim_stride: 0,
            ev_idx: Vec::new(),
            times: Vec::new(),
            first_occ: Vec::new(),
            last_occ: Vec::new(),
            total_sim: Vec::new(),
            extent: 0,
            prefix_present: Vec::new(),
            prefix_count: Vec::new(),
            weight: Vec::new(),
            prefix_distinct: 0,
            pair_base: vec![0],
            prefix_distinct_at: vec![0],
            sorted_last: Vec::new(),
            undecided: Vec::new(),
        }
    }

    /// Number of events ingested so far.
    pub fn len(&self) -> usize {
        self.ev_idx.len()
    }

    /// Whether no events have been ingested.
    pub fn is_empty(&self) -> bool {
        self.ev_idx.is_empty()
    }

    /// Distinct abstract screens seen so far.
    pub fn distinct_screens(&self) -> usize {
        self.reps.len()
    }

    /// Forgets all ingested events (keeps the config and allocations:
    /// the similarity-matrix buffer and every per-screen/per-position
    /// vector's capacity survive, so re-feeding the next window allocates
    /// nothing, and the cache's store answers every pair decided before).
    ///
    /// Must be called whenever the window this engine mirrors is rebased
    /// or replaced — an accepted split moving the analysis start, or the
    /// instance being re-dedicated onto a replacement device.
    pub fn reset(&mut self) {
        self.local.clear();
        self.store_ids.clear();
        let d = self.reps.len();
        for j in 0..d {
            let base = j * self.sim_stride;
            self.sim[base..base + d].fill(false);
        }
        self.reps.clear();
        self.ev_idx.clear();
        self.times.clear();
        self.first_occ.clear();
        self.last_occ.clear();
        self.total_sim.clear();
        self.extent = 0;
        self.prefix_present.clear();
        self.prefix_count.clear();
        self.weight.clear();
        self.prefix_distinct = 0;
        self.pair_base.clear();
        self.pair_base.push(0);
        self.prefix_distinct_at.clear();
        self.prefix_distinct_at.push(0);
    }

    /// Ingests the appended tail of `window`: events past
    /// [`len`](Self::len) are fed, earlier ones are assumed unchanged.
    /// `cache` is the app's similarity store: it interns the window's
    /// screens, answers every pair decided before and records the rest.
    /// Between two [`reset`](Self::reset)s, pass the same cache.
    pub fn extend_from(&mut self, window: &[TraceEvent], cache: &SimilarityCache) {
        for e in &window[self.len().min(window.len())..] {
            self.push(e, cache);
        }
    }

    /// Ingests one appended event. Between two [`reset`](Self::reset)s,
    /// pass the same cache.
    pub fn push(&mut self, event: &TraceEvent, cache: &SimilarityCache) {
        let pos = self.ev_idx.len();
        let id = self.intern(event, cache);
        self.times.push(event.time.as_millis());
        self.ev_idx.push(id);
        let d = self.reps.len();
        // The event is similar to itself, so `total_sim[id]` is covered
        // (the diagonal is true). The relation is symmetric, so the
        // column `sim[j][id]` is read as the contiguous row `id` — an
        // unconditional, lane-packable integer add.
        let row = &self.sim[id * self.sim_stride..id * self.sim_stride + d];
        for (ts, &s) in self.total_sim.iter_mut().zip(row) {
            *ts += s as i64;
        }
        self.last_occ[id] = pos;
        if pos == 0 {
            // The first event founds the frontier prefix `S[0:1]`.
            self.prefix_present[id] = true;
            self.prefix_count[id] = 1;
            self.prefix_distinct = 1;
            let row = &self.sim[id * self.sim_stride..id * self.sim_stride + d];
            for (w, &s) in self.weight.iter_mut().zip(row) {
                *w += s as usize;
            }
            self.pair_base.push(1); // (id, 0) is the only in-prefix pair
            self.prefix_distinct_at.push(1);
            self.extent = 1;
        }
    }

    /// Grows the flat similarity matrix to hold at least `screens` rows,
    /// re-laying existing rows onto the wider stride. Doubling growth:
    /// `O(log D)` re-layouts per engine *lifetime*, zero per reset.
    fn ensure_sim_capacity(&mut self, screens: usize) {
        if screens <= self.sim_stride {
            return;
        }
        let mut stride = self.sim_stride.max(SCREEN_CAPACITY_HINT / 2);
        while stride < screens {
            stride *= 2;
        }
        let mut grown = vec![false; stride * stride];
        let d = self.reps.len();
        for j in 0..d {
            let src = j * self.sim_stride;
            let dst = j * stride;
            grown[dst..dst + d].copy_from_slice(&self.sim[src..src + d]);
        }
        self.sim = grown;
        self.sim_stride = stride;
    }

    /// Interns the event's abstract screen, extending the similarity
    /// relation and per-screen state for a new screen. Returns the dense
    /// id.
    fn intern(&mut self, event: &TraceEvent, cache: &SimilarityCache) -> usize {
        let id = self.reps.len();
        match self.local.entry(event.abstract_id.0) {
            Entry::Occupied(known) => return *known.get() as usize,
            Entry::Vacant(slot) => {
                slot.insert(id as u32);
            }
        }
        // Only a screen new to the window takes the store's lock.
        let sid = cache.intern(event.abstract_id.0);
        self.ensure_sim_capacity(id + 1);
        let stride = self.sim_stride;
        // New similarity row against every existing representative: the
        // store answers every pair some engine of the app already decided
        // (a rebased window re-decides nothing); the rest are evaluated
        // and recorded for every engine of the app.
        let row = &mut self.sim[id * stride..id * stride + id];
        self.undecided.clear();
        cache.fill_row(sid, &self.store_ids, row, &mut self.undecided);
        if !self.undecided.is_empty() {
            let threshold = self.config.similarity_threshold;
            for &j in &self.undecided {
                row[j] = cache.decide(&self.reps[j], event, threshold);
            }
            cache.record(
                sid,
                self.undecided.iter().map(|&j| (self.store_ids[j], row[j])),
            );
        }
        for j in 0..id {
            self.sim[j * stride + id] = self.sim[id * stride + j];
        }
        self.sim[id * stride + id] = true;
        self.store_ids.push(sid);
        self.reps.push(event.clone());
        self.first_occ.push(self.ev_idx.len());
        self.last_occ.push(self.ev_idx.len());
        self.total_sim.push(0);
        self.prefix_present.push(false);
        self.prefix_count.push(0);
        // A screen first seen now cannot be in the frontier prefix, so
        // its weight is the count of prefix-distinct screens similar to
        // it.
        let row = &self.sim[id * stride..id * stride + id];
        let w = row
            .iter()
            .zip(&self.prefix_present[..id])
            .filter(|&(&s, &p)| s && p)
            .count();
        self.weight.push(w);
        id
    }

    /// Largest split index leaving at least `l_min` after it —
    /// recomputed per analysis because every append moves the trace end.
    /// The reverse scan mirrors the oracle's exactly (correct even for
    /// non-monotone timestamps) and in practice only walks the reserved
    /// tail.
    fn p_max(&self) -> Option<usize> {
        let n = self.times.len();
        if n < 2 {
            return None;
        }
        let cutoff = self.times[n - 1].checked_sub(self.config.l_min.as_millis())?;
        (0..n).rev().find(|&p| self.times[p] <= cutoff)
    }

    /// Advances the frontier so splits `1..=target` are materialized.
    /// Consuming one event into the prefix is `O(1)`, plus `O(D)` the
    /// first time its screen enters the prefix — `O(N + D²)` over the
    /// whole window lifetime, not per analysis.
    fn advance_to(&mut self, target: usize) {
        while self.extent < target {
            let p = self.extent;
            let e = self.ev_idx[p];
            let mut pairs: i64 = 0;
            if !self.prefix_present[e] {
                self.prefix_present[e] = true;
                self.prefix_distinct += 1;
                // Pairs (e, i) for i < p: prior prefix events similar to
                // the newly distinct screen. Row `e` is contiguous and
                // the updates unconditional — integer lanes, exact.
                let d = self.reps.len();
                let row = &self.sim[e * self.sim_stride..e * self.sim_stride + d];
                for ((&s, &c), w) in row.iter().zip(&self.prefix_count).zip(&mut self.weight) {
                    pairs += s as i64 * c as i64;
                    *w += s as usize;
                }
            }
            // Pairs (j, p): prefix-distinct screens similar to the event
            // joining the prefix (weight already includes `e` itself).
            pairs += self.weight[e] as i64;
            let prev = self.pair_base[p];
            self.pair_base.push(prev + pairs);
            self.prefix_count[e] += 1;
            self.prefix_distinct_at.push(self.prefix_distinct);
            self.extent = p + 1;
        }
    }

    /// The selection order: (score, index) — a *strict* total order
    /// (`total_cmp` plus the index tiebreak means no two distinct
    /// candidates compare equal), which is what makes threshold pruning
    /// in the sweep exact.
    fn cmp_candidates(a: &SplitCandidate, b: &SplitCandidate) -> std::cmp::Ordering {
        a.score.total_cmp(&b.score).then(a.index.cmp(&b.index))
    }

    /// k-best selection with near-duplicate suppression. The oracle
    /// stable-sorts by score; push order is ascending `p`, so that
    /// equals the strict total order (score, index). The dedup keeps at
    /// most `k` candidates and each kept one masks at most 10 neighbours
    /// (`|Δindex| ≤ 5`), so only the `11k` smallest can influence the
    /// output — select them instead of sorting the whole list.
    fn select_best(mut qualifying: Vec<SplitCandidate>, k: usize) -> Vec<SplitCandidate> {
        let cmp = Self::cmp_candidates;
        let m = k.saturating_mul(11);
        if m < qualifying.len() {
            qualifying.select_nth_unstable_by(m, cmp);
            qualifying.truncate(m);
        }
        qualifying.sort_unstable_by(cmp);
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

    /// Returns up to `k` qualifying splits of the ingested window in
    /// ascending score order — bit-identical to
    /// [`find_space_naive`](super::find_space_naive) on the same events.
    ///
    /// Runs are segmented where both cursors are constant, and each
    /// run's scores are evaluated over contiguous `pair_base` in
    /// 8-wide chunks plus a scalar tail. The per-`p` expression
    /// performs the oracle's operations in the oracle's order;
    /// lanes only batch independent `p`s.
    pub fn analyze(&mut self, k: usize) -> Vec<SplitCandidate> {
        let n = self.ev_idx.len();
        let Some(pm) = self.p_max() else {
            return Vec::new();
        };
        if pm == 0 || k == 0 {
            return Vec::new();
        }
        self.advance_to(pm);
        let d = self.reps.len();
        // sample_size = |Set(S[p_max+1 : N])|: screens whose last
        // occurrence falls in the reserved tail.
        let sample_size = self.last_occ.iter().filter(|&&l| l > pm).count().max(1);
        self.sorted_last.clear();
        self.sorted_last.extend_from_slice(&self.last_occ);
        self.sorted_last.sort_unstable();
        // Eligibility is monotone in `p`: `prefix_distinct_at` is
        // nondecreasing, so "first eligible p" is a binary search and
        // the per-p checks vanish from the loop.
        let elig_start = self.prefix_distinct_at[..=pm]
            .partition_point(|&pd| pd < self.config.min_prefix_distinct)
            .max(self.config.min_prefix_events)
            .max(1);

        // Exact streaming top-`m` selection: only the `m = 11k` smallest
        // candidates (by the strict (score, index) order) can influence
        // [`select_best`]'s output. `bound` is the `m`-th smallest seen
        // so far (set at each compaction); any later candidate ≥ bound
        // already has `m` candidates strictly below it, so dropping it
        // cannot change the selected set — the sweep stays bit-identical
        // to the oracle while the common case (a poor score deep in
        // the window) costs one comparison instead of a push.
        let m_sel = k.saturating_mul(11).max(1);
        let mut qualifying: Vec<SplitCandidate> = Vec::with_capacity(2 * m_sel);
        let mut bound_score = f64::INFINITY;
        let max_score = self.config.max_score;
        let mut buf = [0.0f64; LANES];
        let mut overlap_whole: i64 = 0; // Σ total_sim[j] over first_occ[j] < p
        let mut fo = 0usize; // cursor over first_occ (ascending)
        let mut lo = 0usize; // cursor over sorted_last
        let mut cached_lo = usize::MAX;
        let mut two_purity = 0.0f64;
        let mut p = 1usize;
        while p <= pm {
            while fo < d && self.first_occ[fo] < p {
                overlap_whole += self.total_sim[fo];
                fo += 1;
            }
            while lo < d && self.sorted_last[lo] < p {
                lo += 1;
            }
            // The sigmoid (the one transcendental in the sweep) is
            // re-evaluated only when `lo` moved — same inputs, same bits
            // as evaluating it at every `p`.
            if lo != cached_lo {
                cached_lo = lo;
                let suffix_distinct = d - lo;
                two_purity = 2.0 * sigmoid(suffix_distinct as f64 / sample_size as f64 - 1.0);
            }
            // Run end: the cursors next move at `first_occ[fo] + 1` /
            // `sorted_last[lo] + 1` (both ≥ p + 1 since the advances
            // above ran to fixpoint), so until then `overlap_whole` and
            // `two_purity` are run constants.
            let next_fo = if fo < d {
                self.first_occ[fo] + 1
            } else {
                usize::MAX
            };
            let next_lo = if lo < d {
                self.sorted_last[lo] + 1
            } else {
                usize::MAX
            };
            let run_end = next_fo.min(next_lo).min(pm + 1).max(p + 1);
            let mut start = p.max(elig_start);
            while start < run_end {
                let m = LANES.min(run_end - start);
                // The lane kernel: element-wise over contiguous
                // `pair_base`, no cross-lane operation, the oracle's
                // expression verbatim (`overlap_score + two_purity - 1.0`
                // associates left-to-right). Full chunks go through the
                // const-width kernel, whose fixed trip count and
                // array-ref operands are what the autovectorizer needs to
                // emit packed convert/divide; ragged tails fall back to
                // the identical scalar expression.
                if m == LANES {
                    buf = score_chunk(&self.pair_base, start, n, overlap_whole, two_purity);
                } else {
                    for (l, s) in buf[..m].iter_mut().enumerate() {
                        let q = start + l;
                        let overlap = overlap_whole - self.pair_base[q];
                        let overlap_score = overlap as f64 / (n - q) as f64;
                        *s = overlap_score + two_purity - 1.0;
                    }
                }
                for (l, &s) in buf[..m].iter().enumerate() {
                    // `s <= bound_score` is the cheap form of the prune:
                    // a strictly larger score already has `m_sel`
                    // candidates ordering strictly before it, so it can
                    // never reach `select_best`'s window; score ties
                    // (where the index tiebreak would matter) are kept.
                    if s < max_score && s <= bound_score {
                        qualifying.push(SplitCandidate {
                            index: start + l,
                            score: s,
                        });
                        if qualifying.len() == 2 * m_sel {
                            qualifying.select_nth_unstable_by(m_sel - 1, Self::cmp_candidates);
                            qualifying.truncate(m_sel);
                            bound_score = qualifying[m_sel - 1].score;
                        }
                    }
                }
                start += m;
            }
            p = run_end;
        }
        Self::select_best(qualifying, k)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{ev, two_cluster_trace};
    use super::super::{find_space_naive, FindSpaceConfig, SimilarityCache};
    use super::*;
    use taopt_ui_model::VirtualDuration;

    fn cfg(l_min_secs: u64) -> FindSpaceConfig {
        FindSpaceConfig {
            l_min: VirtualDuration::from_secs(l_min_secs),
            ..FindSpaceConfig::default()
        }
    }

    /// Bitwise candidate-list equality.
    fn assert_identical(a: &[SplitCandidate], b: &[SplitCandidate], ctx: &str) {
        assert_eq!(a.len(), b.len(), "candidate count diverged at {ctx}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.index, y.index, "index diverged at {ctx}");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits diverged at {ctx}: {} vs {}",
                x.score,
                y.score
            );
        }
    }

    #[test]
    fn incremental_feed_matches_naive_at_every_prefix() {
        let events = two_cluster_trace(40, 60);
        let c = cfg(30);
        let mut engine = FindSpaceEngine::new(c.clone());
        let cache = SimilarityCache::new();
        for end in 1..=events.len() {
            engine.extend_from(&events[..end], &cache);
            let inc = engine.analyze(5);
            let naive = find_space_naive(&events[..end], &c, 5);
            assert_identical(&inc, &naive, &format!("prefix {end}"));
        }
    }

    #[test]
    fn chunked_feed_matches_naive() {
        let events = two_cluster_trace(35, 45);
        let c = cfg(20);
        for chunk in [1usize, 3, 7, 17, 50] {
            let mut engine = FindSpaceEngine::new(c.clone());
            let cache = SimilarityCache::new();
            let mut end = 0;
            while end < events.len() {
                end = (end + chunk).min(events.len());
                engine.extend_from(&events[..end], &cache);
                assert_identical(
                    &engine.analyze(5),
                    &find_space_naive(&events[..end], &c, 5),
                    &format!("chunk {chunk} prefix {end}"),
                );
            }
        }
    }

    #[test]
    fn reset_matches_fresh_engine() {
        let events = two_cluster_trace(30, 50);
        let c = cfg(20);
        let cache = SimilarityCache::new();
        let mut used = FindSpaceEngine::new(c.clone());
        used.extend_from(&events, &cache);
        let first = used.analyze(5);
        // Every pair of a re-fed window was decided before the reset:
        // the store answers them without evaluating any.
        let computed = cache.computations();
        used.reset();
        used.extend_from(&events, &cache);
        assert_identical(&used.analyze(5), &first, "same window re-fed");
        // Simulated re-dedication: the window rebases to index 30.
        used.reset();
        assert_eq!(used.len(), 0);
        used.extend_from(&events[30..], &cache);
        assert_eq!(cache.computations(), computed);
        let mut fresh = FindSpaceEngine::new(c.clone());
        fresh.extend_from(&events[30..], &cache);
        assert_identical(&used.analyze(5), &fresh.analyze(5), "after reset");
        assert_identical(
            &used.analyze(5),
            &find_space_naive(&events[30..], &c, 5),
            "reset vs naive",
        );
    }

    #[test]
    fn engines_sharing_one_cache_agree_with_a_fresh_cache() {
        let events = two_cluster_trace(30, 40);
        let c = cfg(20);
        let cache = SimilarityCache::new();
        let mut shared_a = FindSpaceEngine::new(c.clone());
        let mut shared_b = FindSpaceEngine::new(c.clone());
        // Feed b a shifted window first so the store's id assignment
        // order differs from either engine's local first-appearance
        // order — store ids must never leak into results.
        shared_b.extend_from(&events[25..], &cache);
        shared_a.extend_from(&events, &cache);
        let fresh_cache = SimilarityCache::new();
        let mut fresh = FindSpaceEngine::new(c.clone());
        fresh.extend_from(&events, &fresh_cache);
        assert_identical(&shared_a.analyze(5), &fresh.analyze(5), "shared cache");
        assert_eq!(cache.snapshot(), fresh_cache.snapshot());
        assert_eq!(cache.computations(), fresh_cache.computations());
    }

    #[test]
    fn concurrent_engines_sharing_one_cache_agree() {
        use std::sync::Barrier;
        let c = cfg(20);
        let events = two_cluster_trace(40, 60);
        let cache = SimilarityCache::new();
        let starts = [0usize, 7, 25, 41];
        let barrier = Barrier::new(starts.len());
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = starts
                .iter()
                .map(|&start| {
                    let (c, cache, barrier) = (&c, &cache, &barrier);
                    let window = &events[start..];
                    s.spawn(move || {
                        let mut engine = FindSpaceEngine::new(c.clone());
                        barrier.wait();
                        // Two windows per thread: the rebased re-feed
                        // reads the decisions the other threads recorded.
                        engine.extend_from(window, cache);
                        let first = engine.analyze(5);
                        engine.reset();
                        engine.extend_from(window, cache);
                        (first, engine.analyze(5))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (&start, (first, refed)) in starts.iter().zip(&results) {
            let naive = find_space_naive(&events[start..], &c, 5);
            assert_identical(first, &naive, &format!("window {start}"));
            assert_identical(refed, &naive, &format!("re-fed window {start}"));
        }
        // Whatever the interleaving, the store holds a serial fill's
        // decisions.
        let serial = SimilarityCache::new();
        FindSpaceEngine::new(c.clone()).extend_from(&events, &serial);
        assert_eq!(cache.snapshot(), serial.snapshot());
    }

    #[test]
    fn empty_and_short_windows_yield_nothing() {
        let mut engine = FindSpaceEngine::new(cfg(60));
        let cache = SimilarityCache::new();
        assert!(engine.analyze(5).is_empty());
        engine.push(&ev(0, "A"), &cache);
        assert!(engine.analyze(5).is_empty());
        engine.push(&ev(2, "B"), &cache);
        // Two events spanning 2 s cannot reserve a 60 s tail.
        assert!(engine.analyze(5).is_empty());
    }

    #[test]
    fn duplicate_timestamps_match_naive() {
        // Bursts of identical timestamps exercise the p_max tail scan.
        let mut events = Vec::new();
        let mut t = 0u64;
        for i in 0..90usize {
            events.push(ev(t, &format!("S{}", i % 7)));
            if i % 3 != 0 {
                t += 2;
            }
        }
        let c = cfg(15);
        let mut engine = FindSpaceEngine::new(c.clone());
        let cache = SimilarityCache::new();
        for end in (5..=events.len()).step_by(5) {
            engine.extend_from(&events[..end], &cache);
            assert_identical(
                &engine.analyze(5),
                &find_space_naive(&events[..end], &c, 5),
                &format!("dup-ts prefix {end}"),
            );
        }
    }
}
