//! Per-app screen arena: interning and similarity decisions shared
//! across engine resets and instances.
//!
//! Every [`FindSpaceEngine`](super::FindSpaceEngine) reset used to drop
//! and rebuild its abstract-id → dense-id interning table, re-hashing
//! (and re-allocating) the same few dozen screens after every accepted
//! split. The arena interns each distinct abstract screen **once per
//! app**: engines resolve events to stable `u32` arena ids through a
//! shared, append-only table and keep only a reusable sentinel vector of
//! their own. A reset clears the sentinel entries the engine actually
//! used — `O(D_local)`, no allocation, no re-hashing of survivors on the
//! next window.
//!
//! The arena also keeps the app's **similarity relation**: a symmetric,
//! tri-state (undecided / similar / dissimilar) relation over arena ids,
//! two bits per unordered pair in lower-triangular order, so growing it
//! never re-lays earlier pairs. An engine interning a new screen reads
//! its whole row under one read lock and asks the
//! [`SimilarityCache`](super::SimilarityCache) only for pairs the app
//! has never decided. A window rebase therefore re-derives its local
//! `D×D` matrix from the relation without a single cache lookup. Like
//! the cache, the relation keys decisions by pair only: every engine
//! sharing an arena must use one similarity threshold (the analyzer's
//! engines all share one config).
//!
//! Arena ids are assignment-order dependent (two engines interning new
//! screens concurrently race for the next slot), so they must never leak
//! into analysis results. They don't: the engine's *dense local ids* are
//! per-window first-appearance order, similarity-cache keys are the
//! abstract ids themselves, relation entries are pure functions of their
//! pair (a racing duplicate records the identical decision), and scores
//! are functions of local structure only. The `parallel_equivalence`
//! proptests pin this.

use std::collections::HashMap;
use std::sync::RwLock;

use taopt_ui_model::TraceEvent;

use super::SCREEN_CAPACITY_HINT;

#[derive(Debug, Default)]
struct ArenaInner {
    /// Abstract-screen id → arena id, append-only.
    index: HashMap<u64, u32>,
    /// One representative event per arena id (cheap: `Arc` fields).
    reps: Vec<TraceEvent>,
}

/// Pairs per relation word: two bits each (decided, similar).
const PAIRS_PER_WORD: usize = 32;

/// The app's tri-state similarity relation over arena ids: two bits per
/// unordered pair `{hi, lo}` (`hi > lo`) at triangular slot
/// `hi·(hi−1)/2 + lo` — bit 0 *decided*, bit 1 *similar*. Row `hi`
/// occupies slots `[hi·(hi−1)/2, hi·(hi−1)/2 + hi)`, so a new arena id
/// only appends.
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

/// Append-only interner of one app's distinct abstract screens, plus the
/// app's similarity relation over them.
///
/// Shared via `Arc` by every engine analyzing the app; read-mostly (a
/// write happens once per *new* distinct screen per app lifetime, and
/// once per new screen row holding never-decided pairs).
#[derive(Debug)]
pub struct ScreenArena {
    inner: RwLock<ArenaInner>,
    relation: RwLock<PairRelation>,
}

impl Default for ScreenArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ScreenArena {
    /// Creates an empty arena pre-sized for a typical app's
    /// distinct-screen population.
    pub fn new() -> Self {
        ScreenArena {
            inner: RwLock::new(ArenaInner {
                index: HashMap::with_capacity(SCREEN_CAPACITY_HINT),
                reps: Vec::with_capacity(SCREEN_CAPACITY_HINT),
            }),
            relation: RwLock::new(PairRelation::default()),
        }
    }

    /// Distinct screens interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().expect("screen arena poisoned").reps.len()
    }

    /// Whether no screen has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns the event's abstract screen (first caller wins the slot)
    /// and returns its arena id.
    pub fn resolve(&self, event: &TraceEvent) -> u32 {
        let key = event.abstract_id.0;
        if let Some(&id) = self
            .inner
            .read()
            .expect("screen arena poisoned")
            .index
            .get(&key)
        {
            return id;
        }
        let mut inner = self.inner.write().expect("screen arena poisoned");
        // Double-checked: a racing thread may have interned it meanwhile.
        if let Some(&id) = inner.index.get(&key) {
            return id;
        }
        let id = inner.reps.len() as u32;
        inner.index.insert(key, id);
        inner.reps.push(event.clone());
        id
    }

    /// The representative event of an arena id (clone is `Arc`-cheap).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`resolve`](Self::resolve) on
    /// this arena.
    pub fn rep(&self, id: u32) -> TraceEvent {
        self.inner.read().expect("screen arena poisoned").reps[id as usize].clone()
    }

    /// A snapshot of every interned representative event, sorted by
    /// abstract id so the snapshot is independent of interning race order
    /// (arena ids themselves never leak into results). Used to capture
    /// warm-start bundles; re-interning the snapshot into a fresh arena
    /// pre-seeds it without affecting any analysis outcome.
    pub fn reps_snapshot(&self) -> Vec<TraceEvent> {
        let mut reps = self
            .inner
            .read()
            .expect("screen arena poisoned")
            .reps
            .clone();
        reps.sort_by_key(|e| e.abstract_id.0);
        reps
    }

    /// The abstract-screen id behind an arena id.
    pub fn abstract_id(&self, id: u32) -> u64 {
        self.inner.read().expect("screen arena poisoned").reps[id as usize]
            .abstract_id
            .0
    }

    /// The app's decision for the pair `{a, b}`: `None` while no engine
    /// has decided it. A screen is similar to itself.
    #[cfg(test)]
    pub(crate) fn decision(&self, a: u32, b: u32) -> Option<bool> {
        if a == b {
            return Some(true);
        }
        self.relation
            .read()
            .expect("similarity relation poisoned")
            .get(a, b)
    }

    /// Reads row `id` of the relation against `others` under one lock:
    /// writes each decided pair's decision into `row[j]` and pushes `j`
    /// onto `undecided` for every pair `{id, others[j]}` the app has
    /// never decided (leaving `row[j]` untouched). `others` must not
    /// contain `id`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than `others`.
    pub(crate) fn fill_row(
        &self,
        id: u32,
        others: &[u32],
        row: &mut [bool],
        undecided: &mut Vec<usize>,
    ) {
        let relation = self.relation.read().expect("similarity relation poisoned");
        for (j, (&other, slot)) in others.iter().zip(&mut row[..others.len()]).enumerate() {
            match relation.get(id, other) {
                Some(similar) => *slot = similar,
                None => undecided.push(j),
            }
        }
    }

    /// Records decisions for pairs `{id, other}`, `other ≠ id`, under
    /// one lock. A decision is a pure function of its pair, so recording
    /// one twice (two engines racing on the same new screen) is
    /// idempotent.
    pub(crate) fn record(&self, id: u32, decisions: impl IntoIterator<Item = (u32, bool)>) {
        let mut relation = self.relation.write().expect("similarity relation poisoned");
        for (other, similar) in decisions {
            relation.set(id, other, similar);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::ev;
    use super::*;

    #[test]
    fn resolve_is_stable_and_dedups() {
        let arena = ScreenArena::new();
        let a = ev(0, "A");
        let b = ev(2, "B");
        let ia = arena.resolve(&a);
        let ib = arena.resolve(&b);
        assert_ne!(ia, ib);
        assert_eq!(arena.resolve(&ev(10, "A")), ia, "same screen, same id");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.abstract_id(ia), a.abstract_id.0);
        assert_eq!(arena.rep(ib).abstract_id, b.abstract_id);
    }

    #[test]
    fn concurrent_resolve_agrees() {
        let arena = std::sync::Arc::new(ScreenArena::new());
        let events: Vec<_> = (0..32).map(|i| ev(i, &format!("S{}", i % 8))).collect();
        let ids: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let arena = arena.clone();
                    let events = &events;
                    s.spawn(move || events.iter().map(|e| arena.resolve(e)).collect())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(arena.len(), 8);
        // Whatever slots the race assigned, every thread sees the same
        // mapping afterwards.
        for other in &ids[1..] {
            assert_eq!(&ids[0], other);
        }
    }

    #[test]
    fn relation_grows_past_word_boundaries_and_stays_symmetric() {
        let arena = ScreenArena::new();
        let n = 150u32;
        for i in 0..n {
            assert_eq!(arena.resolve(&ev(i as u64, &format!("S{i}"))), i);
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
            arena.record(
                a,
                (0..a)
                    .filter(|&b| want(a, b).is_some())
                    .map(|b| (b, want(a, b).unwrap())),
            );
        }
        for a in 0..n {
            for b in 0..n {
                assert_eq!(arena.decision(a, b), want(a, b), "pair ({a}, {b})");
            }
        }
        // One row read, across the 64- and 128-id boundaries, from
        // either side of the diagonal.
        let others = [0u32, 63, 64, 65, 100, 127, 128, 129, 149];
        let mut row = [false; 9];
        let mut undecided = Vec::new();
        arena.fill_row(140, &others, &mut row, &mut undecided);
        for (j, &o) in others.iter().enumerate() {
            match want(140, o) {
                Some(similar) => {
                    assert_eq!(row[j], similar, "row entry {o}");
                    assert!(!undecided.contains(&j));
                }
                None => assert!(undecided.contains(&j), "undecided {o}"),
            }
        }
    }

    #[test]
    fn concurrent_engines_sharing_one_arena_agree() {
        use super::super::tests::two_cluster_trace;
        use super::super::{
            find_space_candidates, FindSpaceConfig, FindSpaceEngine, SimilarityCache,
        };
        use std::sync::{Arc, Barrier};
        let cfg = FindSpaceConfig {
            l_min: taopt_ui_model::VirtualDuration::from_secs(20),
            ..FindSpaceConfig::default()
        };
        let events = two_cluster_trace(40, 60);
        let arena = Arc::new(ScreenArena::new());
        let cache = SimilarityCache::new();
        let starts = [0usize, 7, 25, 41];
        let barrier = Barrier::new(starts.len());
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = starts
                .iter()
                .map(|&start| {
                    let (arena, cfg, cache, barrier) = (arena.clone(), &cfg, &cache, &barrier);
                    let window = &events[start..];
                    s.spawn(move || {
                        let mut engine = FindSpaceEngine::with_arena(cfg.clone(), arena);
                        barrier.wait();
                        // Two windows per thread: the rebased re-feed
                        // reads the relation the other threads filled.
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
            let reference =
                find_space_candidates(&events[start..], &cfg, &SimilarityCache::new(), 5);
            for got in [first, refed] {
                assert_eq!(got.len(), reference.len(), "window {start}");
                for (x, y) in got.iter().zip(&reference) {
                    assert_eq!(x.index, y.index, "window {start}");
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "window {start}");
                }
            }
        }
        // Every decision the relation holds is the cache's.
        let n = arena.len() as u32;
        for a in 0..n {
            for b in 0..a {
                if let Some(similar) = arena.decision(a, b) {
                    let (ra, rb) = (arena.rep(a), arena.rep(b));
                    assert_eq!(similar, cache.similar(&ra, &rb, cfg.similarity_threshold));
                }
            }
        }
    }
}
