//! FindSpace bench: full-rescan `find_space_candidates` versus the
//! incremental [`FindSpaceEngine`] on a paper-scale replay.
//!
//! A synthetic append-only trace (≥10k events, a few dozen distinct
//! abstract screens wandering across cluster phases — the shape the
//! analyzer sees from a Monkey-style walk) is analyzed at every 50-event
//! checkpoint, exactly like `Analyzer::maybe_analyze` re-running every
//! few virtual seconds. The rescan arm rebuilds its state from the full
//! prefix each checkpoint (`O(N·D)` per analysis); the engine arm feeds
//! only the appended 50 events (`O(ΔN·D + P)`).
//!
//! Writes `BENCH_findspace.json` and exits non-zero when either gate
//! fails:
//! * equivalence: every checkpoint's candidate list must be
//!   **bit-identical** across the two arms (same indices, same score
//!   bits);
//! * speedup: the engine must be ≥ 5× faster over the whole replay.
//!
//! Per-analysis engine latency is recorded in the
//! `findspace_analysis_us` telemetry histogram (the same series the live
//! analyzer feeds) and its percentiles are reported in the JSON.
//!
//! ```text
//! cargo run --release -p taopt-bench --bin findspace -- [quick|paper] [seed]
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use taopt::findspace::{
    find_space_candidates, FindSpaceConfig, FindSpaceEngine, SimilarityCache, SplitCandidate,
};
use taopt_bench::BenchReport;
use taopt_ui_model::abstraction::abstract_hierarchy;
use taopt_ui_model::{
    Action, ActionId, ActivityId, ScreenId, TraceEvent, UiHierarchy, Value, VirtualDuration,
    VirtualTime, Widget, WidgetClass,
};

/// Analysis cadence: one FindSpace run per this many appended events.
const ANALYZE_EVERY: usize = 50;
/// Speedup gate: engine vs full rescan over the whole replay.
const MIN_SPEEDUP: f64 = 5.0;
/// Candidates requested per analysis (the analyzer's setting).
const K: usize = 5;
/// Abstract-screen population shape shared by all modes.
const CLUSTERS: u32 = 5;
const SCREENS_PER_CLUSTER: u32 = 8;

/// Scaled replay: total appended events.
const SCALED_EVENTS: usize = 1_000_000;
/// Scaled replay: phase length (events per dwell cluster).
const SCALED_PHASE: usize = 2_000;
/// Scaled replay: analysis cadence (events appended per checkpoint).
const SCALED_ANALYZE_EVERY: usize = 25;
/// Scaled replay: the analyzer-style window is rebased once it reaches
/// this many events, preferring a split-candidate boundary as the cut.
const WINDOW_CAP: usize = 2_000;
/// Scaled gate: engine per-analysis p95, microseconds.
const MAX_P95_US: u64 = 9;

/// Builds an event whose abstract screen identity is `label`.
fn event(t_ms: u64, label: u32) -> TraceEvent {
    let mut root = Widget::container(WidgetClass::LinearLayout);
    for i in 0..6 {
        root = root.with_child(Widget::text_view(&format!("s{label}_{i}"), "t"));
    }
    let h = UiHierarchy::new(root);
    let a = Arc::new(abstract_hierarchy(&h));
    TraceEvent {
        time: VirtualTime::from_millis(t_ms),
        screen: ScreenId(label),
        activity: ActivityId(0),
        abstract_id: a.id(),
        abstraction: a,
        action: Some(Action::Widget(ActionId(label))),
        action_widget_rid: Some(Arc::from(format!("w{label}"))),
    }
}

/// Deterministic xorshift64* step.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A paper-scale trace: phases that dwell in one 8-screen cluster with
/// occasional hops back through earlier clusters, so prefixes keep a
/// realistic distinct-screen population (~40 screens over 5 clusters)
/// and genuine loose boundaries appear as phases change.
fn synth_trace(n_events: usize, seed: u64) -> Vec<TraceEvent> {
    let mut rng = seed | 1;
    let mut events = Vec::with_capacity(n_events);
    let mut t_ms = 0u64;
    let mut cluster = 0u32;
    for i in 0..n_events {
        // Change phase every ~400 events.
        if i > 0 && i.is_multiple_of(400) {
            cluster = (cluster + 1) % CLUSTERS;
        }
        let r = next_rand(&mut rng);
        // 6% of steps revisit a hub screen of an earlier cluster
        // (transit traffic), the rest wander the current cluster.
        let label = if r % 100 < 6 && cluster > 0 {
            (r as u32 / 100) % cluster * SCREENS_PER_CLUSTER
        } else {
            cluster * SCREENS_PER_CLUSTER + (r as u32 / 100) % SCREENS_PER_CLUSTER
        };
        // ~2 s cadence with jitter; occasional same-instant bursts.
        t_ms += if r.is_multiple_of(10) {
            0
        } else {
            1500 + r % 1000
        };
        events.push(event(t_ms, label));
    }
    events
}

/// Streaming variant of [`synth_trace`] for the 1M-event scaled replay:
/// events are minted one at a time from per-label templates (one tree
/// build per distinct screen, `Arc`-cloned thereafter) so the replay
/// never materializes the full trace.
struct SynthStream {
    templates: Vec<TraceEvent>,
    rng: u64,
    t_ms: u64,
    cluster: u32,
    produced: usize,
}

impl SynthStream {
    fn new(seed: u64) -> Self {
        SynthStream {
            templates: (0..CLUSTERS * SCREENS_PER_CLUSTER)
                .map(|l| event(0, l))
                .collect(),
            rng: seed | 1,
            t_ms: 0,
            cluster: 0,
            produced: 0,
        }
    }

    fn next_event(&mut self) -> TraceEvent {
        if self.produced > 0 && self.produced.is_multiple_of(SCALED_PHASE) {
            self.cluster = (self.cluster + 1) % CLUSTERS;
        }
        let r = next_rand(&mut self.rng);
        let label = if r % 100 < 6 && self.cluster > 0 {
            (r as u32 / 100) % self.cluster * SCREENS_PER_CLUSTER
        } else {
            self.cluster * SCREENS_PER_CLUSTER + (r as u32 / 100) % SCREENS_PER_CLUSTER
        };
        self.t_ms += if r.is_multiple_of(10) {
            0
        } else {
            1500 + r % 1000
        };
        self.produced += 1;
        let mut e = self.templates[label as usize].clone();
        e.time = VirtualTime::from_millis(self.t_ms);
        e
    }
}

/// Bitwise equality of two candidate lists.
fn identical(a: &[SplitCandidate], b: &[SplitCandidate]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.index == y.index && x.score.to_bits() == y.score.to_bits())
}

/// Streams the scaled replay: [`SCALED_ANALYZE_EVERY`] events are
/// appended per checkpoint and `analyze(window, rebased)` is called on
/// the bounded window (`rebased`: the window was cut since the last
/// call). Once the window reaches [`WINDOW_CAP`] it is rebased
/// analyzer-style — cut at the split index `analyze` returned when there
/// is one, else mid-window — so memory stays bounded and every analysis
/// sees a realistic post-dedication window. Returns `(rebases, max
/// window)`.
fn scaled_replay(
    seed: u64,
    mut analyze: impl FnMut(&[TraceEvent], bool) -> Option<usize>,
) -> (u64, usize) {
    let mut stream = SynthStream::new(seed);
    let mut window: Vec<TraceEvent> = Vec::with_capacity(WINDOW_CAP + ANALYZE_EVERY);
    let mut produced = 0usize;
    let mut rebased = false;
    let mut rebases = 0u64;
    let mut max_window = 0usize;
    while produced < SCALED_EVENTS {
        for _ in 0..SCALED_ANALYZE_EVERY.min(SCALED_EVENTS - produced) {
            window.push(stream.next_event());
            produced += 1;
        }
        max_window = max_window.max(window.len());
        let split = analyze(&window, rebased);
        rebased = window.len() >= WINDOW_CAP;
        if rebased {
            let len = window.len();
            let cut = split.unwrap_or(len / 2).clamp(5 * len / 8, 3 * len / 4);
            window.drain(..cut);
            rebases += 1;
        }
    }
    (rebases, max_window)
}

/// The scaled arm: a 1M-event windowed replay of the engine over the
/// default sharded cache, checked bitwise against the full rescan
/// (`find_space_candidates` over a 1-shard cache) at every checkpoint.
///
/// The replay runs twice over the same seeded stream: first the engine
/// alone, timed (so the rescan's memory traffic never lands in the
/// measured region), then the rescan, compared against the engine's
/// stored candidates. Gates:
/// * `bit_identical`: every checkpoint's candidates agree bitwise with
///   the rescan;
/// * `engine_p95_us` ≤ [`MAX_P95_US`].
fn scaled(seed: u64) -> ExitCode {
    let config = FindSpaceConfig {
        l_min: VirtualDuration::from_mins(1),
        ..FindSpaceConfig::default()
    };
    eprintln!(
        "findspace scaled: {SCALED_EVENTS} events, window cap {WINDOW_CAP}, \
         analysis every {SCALED_ANALYZE_EVERY}, seed {seed:#x}"
    );
    let engine_cache = SimilarityCache::new();
    let mut engine = FindSpaceEngine::new(config.clone());
    let histogram = taopt_telemetry::global().histogram("findspace_analysis_us");

    // Warm the engine so the first measured checkpoint is not paying
    // first-touch allocation.
    {
        let warm: Vec<TraceEvent> = (0..256)
            .map(|_| SynthStream::new(seed ^ 1).next_event())
            .collect();
        let cache = SimilarityCache::new();
        let mut engine = FindSpaceEngine::new(config.clone());
        engine.extend_from(&warm, &cache);
        let _ = engine.analyze(K);
    }

    // Pass 1: the engine, timed — exactly what the analyzer pays per
    // pass. Its candidates are kept for pass 2.
    let mut engine_out: Vec<Vec<SplitCandidate>> =
        Vec::with_capacity(SCALED_EVENTS / SCALED_ANALYZE_EVERY);
    let t0 = Instant::now();
    let (rebases, max_window) = scaled_replay(seed, |window, rebased| {
        if rebased {
            engine.reset();
        }
        let t = Instant::now();
        engine.extend_from(window, &engine_cache);
        let out = engine.analyze(K);
        histogram.record(t.elapsed().as_micros() as u64);
        let split = out.first().map(|c| c.index);
        engine_out.push(out);
        split
    });
    let total = t0.elapsed();
    let analyses = engine_out.len() as u64;
    let splits_found = engine_out.iter().filter(|o| !o.is_empty()).count() as u64;

    // Pass 2: the full rescan at every checkpoint of the same replay.
    let rescan_cache = SimilarityCache::with_shards(1);
    let mut checkpoint = 0usize;
    let mut bit_identical = true;
    scaled_replay(seed, |window, _| {
        let out = find_space_candidates(window, &config, &rescan_cache, K);
        bit_identical &= engine_out
            .get(checkpoint)
            .is_some_and(|e| identical(e, &out));
        checkpoint += 1;
        out.first().map(|c| c.index)
    });
    bit_identical &= checkpoint == engine_out.len();

    let hist_snap = taopt_telemetry::global()
        .snapshot()
        .histogram_total("findspace_analysis_us");
    let (p50_us, p95_us) = hist_snap.map_or((0, 0), |h| (h.p50(), h.p95()));
    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::Str("findspace".to_owned())),
        ("mode".to_owned(), Value::Str("scaled".to_owned())),
        ("n_events".to_owned(), Value::UInt(SCALED_EVENTS as u64)),
        ("seed".to_owned(), Value::UInt(seed)),
        ("analyses".to_owned(), Value::UInt(analyses)),
        (
            "analyze_every".to_owned(),
            Value::UInt(SCALED_ANALYZE_EVERY as u64),
        ),
        ("window_cap".to_owned(), Value::UInt(WINDOW_CAP as u64)),
        ("max_window".to_owned(), Value::UInt(max_window as u64)),
        ("rebases".to_owned(), Value::UInt(rebases)),
        (
            "checkpoints_with_split".to_owned(),
            Value::UInt(splits_found),
        ),
        (
            "cache_entries".to_owned(),
            Value::UInt(engine_cache.len() as u64),
        ),
        (
            "cache_computations".to_owned(),
            Value::UInt(engine_cache.computations()),
        ),
        ("total_us".to_owned(), Value::UInt(total.as_micros() as u64)),
        ("engine_p50_us".to_owned(), Value::UInt(p50_us)),
        ("engine_p95_us".to_owned(), Value::UInt(p95_us)),
        ("p95_gate_us".to_owned(), Value::UInt(MAX_P95_US)),
        ("bit_identical".to_owned(), Value::Bool(bit_identical)),
    ]);
    let mut report = BenchReport::new("findspace bench");
    let out = "BENCH_findspace.json";
    let bytes = report.write_json(out, &doc);
    println!(
        "findspace scaled: {analyses} analyses over {SCALED_EVENTS} events in {:.1}ms \
         ({rebases} rebases, max window {max_window}); engine p50 {p50_us}us p95 {p95_us}us; \
         bit-identical to the rescan at all {analyses}: {bit_identical}; \
         {splits_found} checkpoints proposed a split; wrote {out} ({bytes} bytes)",
        total.as_secs_f64() * 1e3,
    );

    report.gate(bit_identical, || {
        "engine diverged from the full-rescan reference".to_owned()
    });
    report.gate(p95_us <= MAX_P95_US, || {
        format!("engine p95 {p95_us}us above the {MAX_P95_US}us gate")
    });
    report.gate(splits_found > 0, || {
        "replay never proposed a split — trace shape is not protective".to_owned()
    });
    report.finish()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("quick");
    let seed: u64 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x7a0f_7a0f);
    if mode == "scaled" {
        return scaled(seed);
    }
    let n_events = match mode {
        "paper" => 40_000,
        _ => 12_000,
    };
    let config = FindSpaceConfig {
        l_min: VirtualDuration::from_mins(1),
        ..FindSpaceConfig::default()
    };

    eprintln!(
        "findspace: {n_events} events, analysis every {SCALED_ANALYZE_EVERY}, seed {seed:#x}"
    );
    let events = synth_trace(n_events, seed);
    let checkpoints: Vec<usize> = (1..=n_events / ANALYZE_EVERY)
        .map(|i| i * ANALYZE_EVERY)
        .collect();

    // Warm both code paths (and the allocator) on a small prefix so the
    // measured arms start from comparable conditions.
    {
        let warm = &events[..1000.min(events.len())];
        let cache = SimilarityCache::new();
        let _ = find_space_candidates(warm, &config, &cache, K);
        let mut engine = FindSpaceEngine::new(config.clone());
        let cache = SimilarityCache::new();
        engine.extend_from(warm, &cache);
        let _ = engine.analyze(K);
    }

    // Arm 1: full rescan per checkpoint (the pre-engine analyzer path).
    let rescan_cache = SimilarityCache::new();
    let mut rescan_results = Vec::with_capacity(checkpoints.len());
    let t0 = Instant::now();
    for &end in &checkpoints {
        rescan_results.push(find_space_candidates(
            &events[..end],
            &config,
            &rescan_cache,
            K,
        ));
    }
    let rescan = t0.elapsed();

    // Arm 2: persistent engine fed only the appended events.
    let histogram = taopt_telemetry::global().histogram("findspace_analysis_us");
    let mut engine = FindSpaceEngine::new(config.clone());
    let engine_cache = SimilarityCache::new();
    let mut engine_results = Vec::with_capacity(checkpoints.len());
    let t1 = Instant::now();
    for &end in &checkpoints {
        let t = Instant::now();
        engine.extend_from(&events[..end], &engine_cache);
        engine_results.push(engine.analyze(K));
        histogram.record(t.elapsed().as_micros() as u64);
    }
    let engine_total = t1.elapsed();

    let all_identical = rescan_results
        .iter()
        .zip(&engine_results)
        .all(|(a, b)| identical(a, b));
    let splits_found = engine_results.iter().filter(|r| !r.is_empty()).count();
    let speedup = rescan.as_secs_f64() / engine_total.as_secs_f64().max(1e-9);
    let analyses = checkpoints.len() as u64;
    let hist_snap = taopt_telemetry::global()
        .snapshot()
        .histogram_total("findspace_analysis_us");
    let (p50_us, p95_us) = hist_snap.map_or((0, 0), |h| (h.p50(), h.p95()));

    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::Str("findspace".to_owned())),
        ("mode".to_owned(), Value::Str(mode.to_owned())),
        ("n_events".to_owned(), Value::UInt(n_events as u64)),
        ("seed".to_owned(), Value::UInt(seed)),
        ("analyses".to_owned(), Value::UInt(analyses)),
        (
            "analyze_every".to_owned(),
            Value::UInt(ANALYZE_EVERY as u64),
        ),
        (
            "distinct_screens".to_owned(),
            Value::UInt(engine.distinct_screens() as u64),
        ),
        (
            "checkpoints_with_split".to_owned(),
            Value::UInt(splits_found as u64),
        ),
        (
            "rescan_total_us".to_owned(),
            Value::UInt(rescan.as_micros() as u64),
        ),
        (
            "engine_total_us".to_owned(),
            Value::UInt(engine_total.as_micros() as u64),
        ),
        (
            "rescan_per_analysis_us".to_owned(),
            Value::UInt(rescan.as_micros() as u64 / analyses.max(1)),
        ),
        (
            "engine_per_analysis_us".to_owned(),
            Value::UInt(engine_total.as_micros() as u64 / analyses.max(1)),
        ),
        ("engine_p50_us".to_owned(), Value::UInt(p50_us)),
        ("engine_p95_us".to_owned(), Value::UInt(p95_us)),
        ("speedup".to_owned(), Value::Float(speedup)),
        ("bit_identical".to_owned(), Value::Bool(all_identical)),
    ]);
    let mut report = BenchReport::new("findspace bench");
    let out = "BENCH_findspace.json";
    let bytes = report.write_json(out, &doc);
    println!(
        "findspace bench: {analyses} analyses over {n_events} events -> rescan {:.1}ms, \
         engine {:.1}ms, speedup {speedup:.1}x; bit-identical: {all_identical}; \
         {splits_found} checkpoints proposed a split; wrote {out} ({bytes} bytes)",
        rescan.as_secs_f64() * 1e3,
        engine_total.as_secs_f64() * 1e3,
    );

    report.gate(all_identical, || {
        "engine diverged from full-rescan reference".to_owned()
    });
    report.gate(speedup >= MIN_SPEEDUP, || {
        format!("speedup {speedup:.2}x below the {MIN_SPEEDUP}x gate")
    });
    report.gate(splits_found > 0, || {
        "replay never proposed a split — trace shape is not protective".to_owned()
    });
    report.finish()
}
