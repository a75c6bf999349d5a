//! Equivalence suite for the analysis layer's per-app similarity store.
//!
//! [`SimilarityCache`] is shared by every engine of an app. Two laws pin
//! that sharing: 8 threads hammering one store leave exactly a serial
//! fill's decisions behind, and `forget_instance` drops no decision — a
//! successor fed the forgotten instance's trace evaluates nothing and
//! proposes the candidates a fresh store would.

use std::sync::Arc;

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

/// Concurrency stress: 8 threads hammer one store with interleaved
/// reads and records over the same pair population. No
/// entry may be lost, the post-state must equal a serial fill, and the
/// duplicate-computation overhead is bounded by the racy-insert
/// allowance (each thread computes a given pair at most once: after its
/// own insert it always hits).
#[test]
fn stress_store_under_8_threads() {
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
                // second pass is all reads — maximizing lock
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

    let serial = SimilarityCache::new();
    for &(i, j) in &pairs {
        serial.similar(&events[i], &events[j], 0.9);
    }

    assert_eq!(cache.snapshot().len(), pairs.len(), "lost entries");
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

/// `forget_instance` drops an instance's analysis state and nothing
/// else: the store keeps every decision, so a successor fed the
/// forgotten instance's trace evaluates no pair and proposes exactly the
/// candidates a fresh engine over a fresh store proposes.
#[test]
fn forget_instance_keeps_every_decision() {
    // Labels 0..6 are exclusive to instance 0; 6..10 shared; 10..16
    // exclusive to instance 1.
    let trace_a: Trace = (0..24).map(|i| ev(i * 2, (i % 10) as u32)).collect();
    let trace_b: Trace = (0..24).map(|i| ev(i * 2, 6 + (i % 10) as u32)).collect();
    let mut analyzer = OnlineTraceAnalyzer::new(analyzer_config());
    analyzer.maybe_analyze(InstanceId(0), &trace_a, VirtualTime::from_secs(100));
    analyzer.maybe_analyze(InstanceId(1), &trace_b, VirtualTime::from_secs(100));
    let before = analyzer.similarity_cache().snapshot();
    let computed = analyzer.similarity_cache().computations();
    // Every pair within either window: 16 screens, minus the 6 × 6
    // pairs no window holds together.
    assert_eq!(before.len(), 16 * 15 / 2 - 6 * 6);

    analyzer.forget_instance(InstanceId(0));
    assert_eq!(analyzer.similarity_cache().snapshot(), before);

    analyzer.maybe_analyze(InstanceId(2), &trace_a, VirtualTime::from_secs(200));
    let store = analyzer.similarity_cache();
    assert_eq!(
        store.computations(),
        computed,
        "a successor re-decided a pair"
    );
    let mut successor = FindSpaceEngine::new(fs_config());
    successor.extend_from(trace_a.events(), store);
    let mut fresh = FindSpaceEngine::new(fs_config());
    fresh.extend_from(trace_a.events(), &SimilarityCache::new());
    let (got, want) = (successor.analyze(5), fresh.analyze(5));
    assert_eq!(got.len(), want.len());
    for (x, y) in got.iter().zip(&want) {
        assert_eq!(x.index, y.index);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
    assert_eq!(store.computations(), computed);
}
