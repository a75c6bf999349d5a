//! Differential equivalence suite for the analysis layer's shared
//! similarity cache.
//!
//! The sharded [`SimilarityCache`] promises **bit-identical** output to
//! the 1-shard reference at any shard count. The `sharded_cache_*` law
//! pins that over random traces with duplicate timestamps, in the style
//! of the `findspace_engine_*` proptests (which pin the engine's sweep
//! against the full rescan): engines fed through caches of every shard
//! count agree with the reference — candidates and merged cache
//! post-state both.
//!
//! Plus the concurrency stress test (8 threads hammering one sharded
//! cache) and the `forget_instance` occupancy test.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use taopt::analyzer::{AnalyzerConfig, OnlineTraceAnalyzer};
use taopt::findspace::{FindSpaceConfig, FindSpaceEngine, SimilarityCache};
use taopt_toller::InstanceId;
use taopt_ui_model::abstraction::{AbstractHierarchy, AbstractNode};
use taopt_ui_model::{
    Action, ActionId, ActivityId, ScreenId, Trace, TraceEvent, VirtualDuration, VirtualTime,
    WidgetClass,
};

/// Synthesizes a trace event for abstract state `label`.
fn ev(t: u64, label: u32) -> TraceEvent {
    let abstraction = Arc::new(AbstractHierarchy::from_root(AbstractNode {
        class: WidgetClass::FrameLayout,
        resource_id: Some(format!("state-{label}")),
        children: vec![AbstractNode {
            class: WidgetClass::TextView,
            resource_id: Some(format!("body-{label}")),
            children: Vec::new(),
        }],
    }));
    TraceEvent {
        time: VirtualTime::from_secs(t),
        screen: ScreenId(label),
        activity: ActivityId(0),
        abstract_id: abstraction.id(),
        abstraction,
        action: Some(Action::Widget(ActionId(label))),
        action_widget_rid: Some(Arc::from(format!("w{label}"))),
    }
}

/// An arbitrary trace whose timestamps may repeat (several events in
/// the same virtual instant) and whose gaps vary, exercising `l_min`
/// window edges — the same shape as `property.rs`'s `arb_dup_trace`.
fn arb_dup_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u32..8, 0u64..3), 2..120).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(label, gap)| {
                t += gap; // gap 0 → duplicate timestamp
                ev(t, label)
            })
            .collect()
    })
}

fn fs_config() -> FindSpaceConfig {
    FindSpaceConfig {
        l_min: VirtualDuration::from_secs(30),
        min_prefix_events: 4,
        min_prefix_distinct: 2,
        ..FindSpaceConfig::default()
    }
}

fn analyzer_config() -> AnalyzerConfig {
    let mut c = AnalyzerConfig::resource_mode();
    c.find_space = fs_config();
    c.analysis_interval = VirtualDuration::from_secs(10);
    c.min_new_events = 5;
    c.min_subspace_screens = 2;
    c
}

/// Bitwise candidate-list equality.
macro_rules! prop_assert_identical {
    ($a:expr, $b:expr, $ctx:expr) => {{
        let (a, b) = (&$a, &$b);
        prop_assert_eq!(a.len(), b.len(), "candidate count diverged at {}", $ctx);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.index, y.index, "index diverged at {}", $ctx);
            prop_assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits diverged at {}",
                $ctx
            );
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Law: sharded cache ≡ unsharded. An engine run through a
    /// cache of any shard count returns the same candidate bits as one
    /// run through the 1-shard reference, and the merged cache contents
    /// (shard layout erased by the ordered snapshot) are identical.
    #[test]
    fn sharded_cache_equivalent_to_unsharded(
        events in arb_dup_trace(),
        chunk in 1usize..=17,
        l_min_secs in 0u64..80,
    ) {
        let mut cfg = fs_config();
        cfg.l_min = VirtualDuration::from_secs(l_min_secs);
        let reference_cache = SimilarityCache::with_shards(1);
        let mut reference = FindSpaceEngine::new(cfg.clone());
        let mut reference_out = Vec::new();
        let mut end = 0usize;
        while end < events.len() {
            end = (end + chunk).min(events.len());
            reference.extend_from(&events[..end], &reference_cache);
            reference_out.push(reference.analyze(5));
        }
        for shards in [2usize, 4, 8, 16] {
            let cache = SimilarityCache::with_shards(shards);
            prop_assert_eq!(cache.shard_count(), shards);
            let mut engine = FindSpaceEngine::new(cfg.clone());
            let mut end = 0usize;
            let mut step = 0usize;
            while end < events.len() {
                end = (end + chunk).min(events.len());
                engine.extend_from(&events[..end], &cache);
                prop_assert_identical!(
                    engine.analyze(5),
                    reference_out[step],
                    format_args!("shards {shards} prefix {end}")
                );
                step += 1;
            }
            prop_assert_eq!(
                cache.snapshot(),
                reference_cache.snapshot(),
                "cache content diverged at {} shards",
                shards
            );
            prop_assert_eq!(cache.len(), reference_cache.len());
        }
    }
}

/// Concurrency stress: 8 threads hammer one sharded cache with
/// interleaved reads and inserts over the same pair population. No
/// entry may be lost, the post-state must equal a serial fill, and the
/// duplicate-computation overhead is bounded by the racy-insert
/// allowance (each thread computes a given pair at most once: after its
/// own insert it always hits).
#[test]
fn stress_sharded_cache_under_8_threads() {
    const THREADS: usize = 8;
    const SCREENS: u64 = 24;
    let events: Vec<TraceEvent> = (0..SCREENS).map(|i| ev(i, i as u32)).collect();
    let pairs: Vec<(usize, usize)> = (0..events.len())
        .flat_map(|i| (i + 1..events.len()).map(move |j| (i, j)))
        .collect();

    let cache = SimilarityCache::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let events = &events;
            let pairs = &pairs;
            s.spawn(move || {
                // Each thread walks the pair set from a different phase
                // and stride (coprime with the pair count), twice — the
                // second pass is all reads — maximizing shard-lock
                // interleavings without a randomness dependency.
                let n = pairs.len();
                let stride = [1usize, 3, 7, 11, 13, 17, 19, 23][t];
                for pass in 0..2 {
                    for k in 0..n {
                        let (i, j) = pairs[(t * 31 + pass + k * stride) % n];
                        let d = cache.similar(&events[i], &events[j], 0.9);
                        // Decisions are pure: every ask agrees.
                        assert_eq!(d, cache.similar(&events[i], &events[j], 0.9));
                    }
                }
            });
        }
    });

    let serial = SimilarityCache::with_shards(1);
    for &(i, j) in &pairs {
        serial.similar(&events[i], &events[j], 0.9);
    }

    assert_eq!(cache.len(), pairs.len(), "lost entries");
    assert_eq!(
        cache.snapshot(),
        serial.snapshot(),
        "post-state diverged from serial fill"
    );
    let computations = cache.computations();
    assert!(
        computations >= pairs.len() as u64,
        "every distinct pair must be computed at least once"
    );
    assert!(
        computations <= (pairs.len() * THREADS) as u64,
        "duplicate computations beyond the racy-insert allowance: {computations} > {} × {THREADS}",
        pairs.len()
    );
}

/// Occupancy: forgetting an instance evicts cache decisions for screens
/// only it had seen, keeps decisions involving screens a surviving
/// instance still holds, and leaves the cache equal to what the
/// survivors alone would have produced.
#[test]
fn forget_instance_evicts_only_exclusive_screens() {
    // Labels 0..6 are exclusive to instance 0; 6..10 shared; 10..16
    // exclusive to instance 1. Long l_min keeps the windows unsplit so
    // each engine retains its full screen set.
    let mut cfg = analyzer_config();
    cfg.find_space.l_min = VirtualDuration::from_mins(30);
    let trace_a: Trace = (0..24).map(|i| ev(i * 2, (i % 10) as u32)).collect();
    let trace_b: Trace = (0..24).map(|i| ev(i * 2, 6 + (i % 10) as u32)).collect();
    let mut analyzer = OnlineTraceAnalyzer::new(cfg);
    analyzer.maybe_analyze(InstanceId(0), &trace_a, VirtualTime::from_secs(100));
    analyzer.maybe_analyze(InstanceId(1), &trace_b, VirtualTime::from_secs(100));
    let exclusive_a: BTreeSet<u64> = (0..6).map(|l| ev(0, l).abstract_id.0).collect();
    let survivors: BTreeSet<u64> = (6..16).map(|l| ev(0, l).abstract_id.0).collect();
    let before = analyzer.similarity_cache().len();
    assert!(before > 0);
    assert!(analyzer
        .similarity_cache()
        .snapshot()
        .keys()
        .any(|k| exclusive_a.contains(&k.0) || exclusive_a.contains(&k.1)));

    analyzer.forget_instance(InstanceId(0));

    let snap = analyzer.similarity_cache().snapshot();
    assert!(snap.len() < before, "eviction must shrink the cache");
    for key in snap.keys() {
        assert!(
            !exclusive_a.contains(&key.0) && !exclusive_a.contains(&key.1),
            "pair {key:?} touches a screen only the forgotten instance saw"
        );
        assert!(
            survivors.contains(&key.0) && survivors.contains(&key.1),
            "pair {key:?} should involve surviving screens only"
        );
    }
    // Shared and survivor-only pairs are retained: instance 1's window
    // holds 10 screens, every pair among them decided during interning.
    assert_eq!(snap.len(), 10 * 9 / 2, "survivor pairs must be retained");

    // Forgetting the last instance clears the rest.
    analyzer.forget_instance(InstanceId(1));
    assert!(analyzer.similarity_cache().is_empty());
}
