//! Tree similarity between abstracted UI hierarchies.
//!
//! Algorithm 1's `CountIn(s, S[p:N])` "calculates the tree similarity of the
//! two abstracted UI hierarchies to determine the times of the appearances
//! of `s`" (§5.2, citing the VET tree-similarity measure). We implement the
//! standard multiset Dice coefficient over `(depth, class, resource-id)`
//! node signatures: cheap, symmetric, bounded in `[0, 1]`, and `1` exactly
//! for structurally identical screens.
//!
//! [`SimilarityCache`] is one app's store of those decisions: an interner
//! from abstract-screen id to dense id and a tri-state relation over dense
//! ids, two bits per unordered pair, behind one lock. Each pair is
//! evaluated at most once per app (per asking thread, when threads race).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::abstraction::AbstractHierarchy;
use crate::idhash::IdMap;
use crate::trace::TraceEvent;

/// Default similarity above which two abstract screens count as "the same
/// screen" in trace analysis.
pub const DEFAULT_SIMILARITY_THRESHOLD: f64 = 0.9;

/// Distinct abstract screens the interner is pre-sized for: a typical
/// app's population fits one allocation.
const SCREEN_CAPACITY_HINT: usize = 64;

/// Pairs per relation word: two bits each (decided, similar).
const PAIRS_PER_WORD: usize = 32;

/// A tri-state (undecided / similar / dissimilar) relation over dense
/// screen ids: two bits per unordered pair `{hi, lo}` (`hi > lo`) at
/// triangular slot `hi·(hi−1)/2 + lo` — bit 0 *decided*, bit 1
/// *similar*. Row `hi` occupies slots `[hi·(hi−1)/2, hi·(hi−1)/2 + hi)`,
/// so a new dense id only appends.
#[derive(Debug, Default)]
struct PairRelation {
    words: Vec<u64>,
}

impl PairRelation {
    /// Word index and bit shift of the unordered pair `{a, b}`, `a ≠ b`.
    fn slot(a: u32, b: u32) -> (usize, u32) {
        debug_assert_ne!(a, b, "a screen's pair with itself is not stored");
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        let (hi, lo) = (hi as usize, lo as usize);
        let k = hi * (hi - 1) / 2 + lo;
        (k / PAIRS_PER_WORD, 2 * (k % PAIRS_PER_WORD) as u32)
    }

    fn get(&self, a: u32, b: u32) -> Option<bool> {
        let (w, shift) = Self::slot(a, b);
        let bits = self.words.get(w).map_or(0, |&word| word >> shift);
        (bits & 1 == 1).then_some(bits & 2 == 2)
    }

    fn set(&mut self, a: u32, b: u32, similar: bool) {
        let (w, shift) = Self::slot(a, b);
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= (1 | (similar as u64) << 1) << shift;
    }
}

/// What the store's one lock guards: the interner and the relation.
#[derive(Debug)]
struct Store {
    /// Abstract-screen id → dense id, append-only.
    index: IdMap<u64, u32>,
    /// Dense id → abstract-screen id.
    abstract_ids: Vec<u64>,
    relation: PairRelation,
}

impl Store {
    fn intern(&mut self, abstract_id: u64) -> u32 {
        let next = self.abstract_ids.len() as u32;
        let id = *self.index.entry(abstract_id).or_insert(next);
        if id == next {
            self.abstract_ids.push(abstract_id);
        }
        id
    }
}

/// One app's similarity store: every pairwise screen-similarity decision
/// the app's analysis has made, keyed by abstract-screen-id pair.
///
/// The analyzer re-runs `FindSpace` every few seconds per instance over a
/// shared distinct-screen population, so remembering decisions removes
/// the dominant `O(D²)` tree-similarity cost of repeated analyses. The
/// store interns each abstract screen once to a dense `u32` id
/// (first-come order) and keeps the decisions as a two-bit-per-pair
/// relation over dense ids, all behind one lock. Dense ids are
/// assignment-order dependent, so they never leak into results: the
/// public keys ([`seed`](Self::seed), [`snapshot`](Self::snapshot)) are
/// abstract ids, and a decision is a pure function of its pair.
///
/// Incremental engines use the row interface ([`intern`](Self::intern),
/// [`fill_row`](Self::fill_row), [`decide`](Self::decide),
/// [`record`](Self::record)): one lock per new screen reads every decided
/// pair of its row. Everyone else asks [`similar`](Self::similar).
///
/// Decisions are keyed by pair only, so every asker of one store must
/// use one similarity threshold (an analyzer's engines share one
/// config). Sharing across threads is safe: a decision is computed
/// outside the lock and a racing duplicate records the identical value,
/// so the post-state is independent of interleaving.
#[derive(Debug)]
pub struct SimilarityCache {
    store: Mutex<Store>,
    /// Tree-similarity evaluations performed, including racy duplicates.
    computations: AtomicU64,
    /// Decisions answered from the store.
    hits: AtomicU64,
}

impl Default for SimilarityCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SimilarityCache {
    /// Creates an empty store.
    pub fn new() -> Self {
        SimilarityCache {
            store: Mutex::new(Store {
                index: IdMap::with_capacity_and_hasher(SCREEN_CAPACITY_HINT, Default::default()),
                abstract_ids: Vec::with_capacity(SCREEN_CAPACITY_HINT),
                relation: PairRelation::default(),
            }),
            computations: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().expect("similarity store poisoned")
    }

    /// Tree-similarity evaluations performed so far (includes racy
    /// duplicates, so under concurrency this is between the distinct-pair
    /// count and `pairs × threads`).
    pub fn computations(&self) -> u64 {
        self.computations.load(Ordering::Relaxed)
    }

    /// Decisions answered without recomputing: [`similar`](Self::similar)
    /// hits plus decided entries read by [`fill_row`](Self::fill_row).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Interns an abstract-screen id (first caller wins the next dense
    /// slot) and returns its dense id.
    pub fn intern(&self, abstract_id: u64) -> u32 {
        self.lock().intern(abstract_id)
    }

    /// Whether two events' screens count as "the same screen" at
    /// `threshold`, computing and recording the decision on first ask.
    /// A screen is always similar to itself.
    pub fn similar(&self, a: &TraceEvent, b: &TraceEvent, threshold: f64) -> bool {
        if a.abstract_id == b.abstract_id {
            return true;
        }
        let (ia, ib, known) = {
            let mut store = self.lock();
            let (ia, ib) = (store.intern(a.abstract_id.0), store.intern(b.abstract_id.0));
            (ia, ib, store.relation.get(ia, ib))
        };
        if let Some(decision) = known {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return decision;
        }
        let decision = self.decide(a, b, threshold);
        self.record(ia, [(ib, decision)]);
        decision
    }

    /// Evaluates the pair's tree similarity at `threshold` — counted by
    /// [`computations`](Self::computations) — without reading or
    /// recording the store. See [`similar_at`].
    pub fn decide(&self, a: &TraceEvent, b: &TraceEvent, threshold: f64) -> bool {
        self.computations.fetch_add(1, Ordering::Relaxed);
        similar_at(&a.abstraction, &b.abstraction, threshold)
    }

    /// Reads row `id` against the dense ids `others` under one lock:
    /// writes each decided pair's decision into `row[j]` and pushes `j`
    /// onto `undecided` for every pair `{id, others[j]}` never decided
    /// (leaving `row[j]` untouched). `others` must not contain `id`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than `others`.
    pub fn fill_row(&self, id: u32, others: &[u32], row: &mut [bool], undecided: &mut Vec<usize>) {
        let before = undecided.len();
        let store = self.lock();
        for (j, (&other, slot)) in others.iter().zip(&mut row[..others.len()]).enumerate() {
            match store.relation.get(id, other) {
                Some(similar) => *slot = similar,
                None => undecided.push(j),
            }
        }
        let decided = others.len() - (undecided.len() - before);
        self.hits.fetch_add(decided as u64, Ordering::Relaxed);
    }

    /// Records decisions for the pairs `{id, other}`, `other ≠ id`, under
    /// one lock. A decision is a pure function of its pair, so recording
    /// one twice (two askers racing on the same pair) is idempotent.
    pub fn record(&self, id: u32, decisions: impl IntoIterator<Item = (u32, bool)>) {
        let mut store = self.lock();
        for (other, similar) in decisions {
            store.relation.set(id, other, similar);
        }
    }

    /// Seeds the store with precomputed decisions keyed by abstract-id
    /// pair (a warm-start bundle from a previous campaign), skipping
    /// pairs already decided and self-pairs; returns how many were
    /// recorded.
    ///
    /// Seeding is a pure accelerator: a decision is a pure function of
    /// the pair, so a seeded entry only skips the compute that would have
    /// produced the identical value. A self-pair has no slot of its own
    /// (a screen is similar to itself), so `((x, x), _)` is ignored.
    pub fn seed<'a>(&self, entries: impl IntoIterator<Item = &'a ((u64, u64), bool)>) -> usize {
        let mut store = self.lock();
        let mut inserted = 0;
        for &((a, b), decision) in entries {
            if a == b {
                continue;
            }
            let (ia, ib) = (store.intern(a), store.intern(b));
            if store.relation.get(ia, ib).is_none() {
                store.relation.set(ia, ib, decision);
                inserted += 1;
            }
        }
        inserted
    }

    /// Every decided pair, keyed by ordered abstract-id pair in ascending
    /// order — independent of interning order, so it is the post-state
    /// comparator of the differential and stress tests and the
    /// warm-start capture.
    pub fn snapshot(&self) -> BTreeMap<(u64, u64), bool> {
        let store = self.lock();
        let mut out = BTreeMap::new();
        for (hi, &x) in store.abstract_ids.iter().enumerate() {
            for (lo, &y) in store.abstract_ids[..hi].iter().enumerate() {
                if let Some(similar) = store.relation.get(hi as u32, lo as u32) {
                    out.insert((x.min(y), x.max(y)), similar);
                }
            }
        }
        out
    }
}

/// Computes the tree similarity of two abstracted hierarchies in `[0, 1]`.
///
/// The measure is the Dice coefficient `2·|A ∩ B| / (|A| + |B|)` of the
/// multisets of node signatures. It is symmetric, reflexive (identical
/// trees score 1.0), and 0.0 for trees sharing no node signature.
///
/// # Examples
///
/// ```
/// use taopt_ui_model::{UiHierarchy, Widget, WidgetClass};
/// use taopt_ui_model::abstraction::abstract_hierarchy;
/// use taopt_ui_model::similarity::tree_similarity;
///
/// let a = abstract_hierarchy(&UiHierarchy::new(Widget::container(WidgetClass::LinearLayout)));
/// assert_eq!(tree_similarity(&a, &a), 1.0);
/// ```
pub fn tree_similarity(a: &AbstractHierarchy, b: &AbstractHierarchy) -> f64 {
    // Fast path: identical abstractions.
    if a.id() == b.id() {
        return 1.0;
    }
    let (sa, sb) = (a.signatures(), b.signatures());
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    // Sorted-multiset intersection size.
    let mut i = 0;
    let mut j = 0;
    let mut common = 0usize;
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    2.0 * common as f64 / (sa.len() + sb.len()) as f64
}

/// Whether `tree_similarity(a, b) >= threshold`, decided exactly but
/// without finishing the merge when the outcome is already known.
///
/// The score `2·c / n` (`c` common signatures, `n = |A| + |B|`) is
/// computed as [`tree_similarity`] computes it, and it never decreases as
/// `c` grows, so the decision is `c ≥ c_min` for the least count `c_min`
/// that scores at least `threshold`. That needs `c_min ≤ min(|A|, |B|)`
/// before anything is merged; during the sorted merge the answer is
/// "yes" once `c` reaches `c_min`, and "no" once `c` plus the shorter
/// remainder falls below it.
pub fn similar_at(a: &AbstractHierarchy, b: &AbstractHierarchy, threshold: f64) -> bool {
    if a.id() == b.id() {
        return 1.0 >= threshold;
    }
    let (sa, sb) = (a.signatures(), b.signatures());
    let n = sa.len() + sb.len();
    if n == 0 {
        return 1.0 >= threshold;
    }
    let score = |c: usize| 2.0 * c as f64 / n as f64;
    let shorter = sa.len().min(sb.len());
    // The least count scoring at least `threshold`, or `shorter + 1` when
    // none does. The estimate is within one of it; the loops settle it on
    // the exact score.
    let estimate = (threshold * n as f64 / 2.0).ceil();
    let mut need = if estimate.is_nan() {
        shorter + 1
    } else {
        estimate.clamp(0.0, (shorter + 1) as f64) as usize
    };
    while need > 0 && score(need - 1) >= threshold {
        need -= 1;
    }
    while need <= shorter && score(need) < threshold {
        need += 1;
    }
    if need > shorter {
        return false;
    }
    if need == 0 {
        return true;
    }
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                if common >= need {
                    return true;
                }
                i += 1;
                j += 1;
                continue;
            }
        }
        if common + (sa.len() - i).min(sb.len() - j) < need {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::abstract_hierarchy;
    use crate::hierarchy::UiHierarchy;
    use crate::widget::{Widget, WidgetClass};

    fn screen(rows: usize, rid: &str) -> AbstractHierarchy {
        let mut root = Widget::container(WidgetClass::LinearLayout);
        for i in 0..rows {
            root = root.with_child(Widget::text_view(&format!("{rid}_{i}"), "txt"));
        }
        abstract_hierarchy(&UiHierarchy::new(root))
    }

    #[test]
    fn identical_trees_score_one() {
        let a = screen(4, "row");
        let b = screen(4, "row");
        assert_eq!(tree_similarity(&a, &b), 1.0);
    }

    #[test]
    fn disjoint_resource_ids_score_low() {
        let a = screen(4, "shop");
        let b = screen(4, "acct");
        // Roots share a signature; rows do not.
        let s = tree_similarity(&a, &b);
        assert!(s < 0.5, "similarity {s} should be low");
        assert!(s > 0.0, "roots still match");
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let a = screen(3, "x");
        let b = screen(7, "x");
        let ab = tree_similarity(&a, &b);
        let ba = tree_similarity(&b, &a);
        assert_eq!(ab, ba);
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn near_duplicate_screens_score_high() {
        // Same rows, one extra banner: e.g. a list screen after scrolling.
        let a = screen(10, "item");
        let b = {
            let mut root = Widget::container(WidgetClass::LinearLayout);
            for i in 0..10 {
                root = root.with_child(Widget::text_view(&format!("item_{i}"), "other"));
            }
            root = root.with_child(Widget::leaf(WidgetClass::ImageView, "ad"));
            abstract_hierarchy(&UiHierarchy::new(root))
        };
        assert!(tree_similarity(&a, &b) > 0.9);
    }

    fn event(rows: usize, rid: &str) -> TraceEvent {
        use crate::screen::{ActivityId, ScreenId};
        let abstraction = std::sync::Arc::new(screen(rows, rid));
        TraceEvent {
            time: crate::time::VirtualTime::ZERO,
            screen: ScreenId(0),
            activity: ActivityId(0),
            abstract_id: abstraction.id(),
            abstraction,
            action: None,
            action_widget_rid: None,
        }
    }

    #[test]
    fn intern_is_stable_and_dedups() {
        let cache = SimilarityCache::new();
        let a = cache.intern(17);
        let b = cache.intern(4);
        assert_ne!(a, b);
        assert_eq!(cache.intern(17), a, "same screen, same id");
        assert_eq!(cache.lock().abstract_ids, vec![17, 4]);
    }

    #[test]
    fn concurrent_intern_agrees() {
        let cache = SimilarityCache::new();
        let keys: Vec<u64> = (0..32).map(|i| 1000 + i % 8).collect();
        let ids: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| keys.iter().map(|&k| cache.intern(k)).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.lock().abstract_ids.len(), 8);
        // Whatever slots the race assigned, every thread sees the same
        // mapping afterwards.
        for other in &ids[1..] {
            assert_eq!(&ids[0], other);
        }
    }

    #[test]
    fn relation_grows_past_word_boundaries_and_stays_symmetric() {
        let cache = SimilarityCache::new();
        let n = 150u32;
        for i in 0..n {
            assert_eq!(cache.intern(u64::from(i) * 3 + 1), i);
        }
        // Row by row, as engines intern: pairs with a·b ≡ 1 (mod 7) stay
        // undecided, the rest are similar iff a + b ≡ 0 (mod 3).
        let want = |a: u32, b: u32| {
            if a == b {
                Some(true)
            } else if (a * b) % 7 == 1 {
                None
            } else {
                Some((a + b).is_multiple_of(3))
            }
        };
        for a in 0..n {
            cache.record(
                a,
                (0..a)
                    .filter(|&b| want(a, b).is_some())
                    .map(|b| (b, want(a, b).unwrap())),
            );
        }
        {
            let store = cache.lock();
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    assert_eq!(store.relation.get(a, b), want(a, b), "pair ({a}, {b})");
                }
            }
        }
        // One row read, across the 64- and 128-id boundaries, from
        // either side of the diagonal; decided entries count as hits.
        let others = [0u32, 63, 64, 65, 100, 127, 128, 129, 149];
        let mut row = [false; 9];
        let mut undecided = Vec::new();
        cache.fill_row(140, &others, &mut row, &mut undecided);
        for (j, &o) in others.iter().enumerate() {
            match want(140, o) {
                Some(similar) => {
                    assert_eq!(row[j], similar, "row entry {o}");
                    assert!(!undecided.contains(&j));
                }
                None => assert!(undecided.contains(&j), "undecided {o}"),
            }
        }
        assert_eq!(cache.hits(), (others.len() - undecided.len()) as u64);
        assert_eq!(cache.computations(), 0);
    }

    #[test]
    fn similar_computes_each_pair_once_and_snapshots_by_abstract_id() {
        let cache = SimilarityCache::new();
        let (a, b, c) = (event(4, "shop"), event(4, "acct"), event(5, "shop"));
        assert!(!cache.similar(&a, &b, 0.9));
        assert!(!cache.similar(&b, &a, 0.9));
        assert!(cache.similar(&a, &a, 0.9), "a screen is similar to itself");
        assert_eq!((cache.hits(), cache.computations()), (1, 1));
        let want = tree_similarity(&a.abstraction, &c.abstraction) >= 0.5;
        assert_eq!(cache.similar(&c, &a, 0.5), want);
        let key = |x: &TraceEvent, y: &TraceEvent| {
            let (x, y) = (x.abstract_id.0, y.abstract_id.0);
            (x.min(y), x.max(y))
        };
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(!snap[&key(&a, &b)]);
        assert_eq!(snap[&key(&a, &c)], want);
    }

    #[test]
    fn seed_skips_self_pairs_and_decided_pairs() {
        let (a, b) = (event(4, "shop"), event(4, "acct"));
        let (x, y) = (a.abstract_id.0, b.abstract_id.0);
        let cache = SimilarityCache::new();
        // `((x, x), false)` would alias another pair's slot; it is
        // refused, and the screen stays similar to itself.
        let bundle = [((x, x), false), ((x, y), true), ((y, x), false)];
        assert_eq!(cache.seed(bundle.iter()), 1);
        assert!(cache.similar(&a, &a, 0.9));
        assert!(cache.similar(&a, &b, 0.9), "the seeded decision answers");
        assert_eq!(cache.computations(), 0);
        assert_eq!(
            cache.snapshot().into_iter().collect::<Vec<_>>(),
            vec![((x.min(y), x.max(y)), true)]
        );
    }
}
