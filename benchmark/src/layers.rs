//! Per-layer decomposition from outside: after the traced run's measured
//! phase, each layer is called on the workload's *own* inputs and outputs
//! through `surface.rs`, under spans, and [`metrics_from_spans`] turns
//! the spans into the per-layer metrics.
//!
//! Replays are sized to finish in a second or two per workload; sample
//! counts ride along with every number.

use std::path::Path;
use std::sync::Arc;

use crate::child::{ChildOut, Stat};
use crate::stats;
use crate::surface::{
    self, App, AppSource, CampaignDigest, CampaignResult, CampaignSpec, GeneratorConfig, SimStats,
    ToolKind, UiHierarchy,
};
use crate::trace::{self, Recorder};
use crate::workloads;

/// What the replays feed on: one campaign of the workload, finished.
pub struct ReplaySource {
    /// The campaign's spec.
    pub spec: CampaignSpec,
    /// Its apps, in spec order.
    pub apps: Vec<Arc<App>>,
    /// Its result.
    pub result: CampaignResult,
    /// Its coverage report.
    pub report: String,
    /// The digest taken at its half-way round.
    pub digest: Option<(u64, CampaignDigest)>,
    /// Its simulated statistics.
    pub sim: SimStats,
    /// Where its spans start in the recorder ([`trace::mark`]): set-up and
    /// the measured phase may have driven other campaigns before it.
    pub first_span: usize,
}

/// Apps whose generation and traces are replayed.
const APPS_REPLAYED: usize = 12;
/// Repetitions of each checkpoint / spec codec call.
const CODEC_REPS: usize = 20;
/// Calls in each telemetry micro-loop.
const TELEMETRY_CALLS: u64 = 1_000_000;
/// Virtual time one tool action takes on the emulator.
const ACTION_MS: u64 = 1500;
/// The online analyzer's duration-mode analysis cadence.
const ANALYSIS_INTERVAL_MS: u64 = 20_000;

fn generator_config(source: &AppSource) -> GeneratorConfig {
    match source {
        AppSource::Small { name, seed } => surface::small_config(name, *seed),
        AppSource::Catalog(name) => {
            surface::catalog_configs()
                .into_iter()
                .find(|(n, _)| n == name)
                .expect("catalog specs name catalog apps")
                .1
        }
    }
}

/// Runs every replay. Numbers that are not span durations (counts, byte
/// sizes, ratios) are written to `out` here; durations are read off the
/// spans afterwards by [`metrics_from_spans`].
pub fn replay(src: &ReplaySource, scratch: &Path, out: &mut ChildOut) {
    let _s = trace::span("harness.replay");
    out.set("campaign.rounds", src.sim.rounds as f64, 1);
    out.set("campaign.report_bytes", src.report.len() as f64, 1);
    out.set("campaign.grants", src.sim.grants as f64, 1);
    out.set("campaign.revocations", src.sim.revocations as f64, 1);
    out.set("campaign.steals", src.sim.steals as f64, 1);
    out.set("campaign_steps", src.sim.steps as f64, 1);
    replay_app_sim(src);
    let hierarchies = replay_step_path(src, out);
    replay_ui_model(src, &hierarchies);
    replay_findspace(src, out);
    replay_codecs(src, scratch, out);
    replay_telemetry();
}

/// app-sim: generate the workload's apps again; derive one release of
/// half of them from base + diff.
fn replay_app_sim(src: &ReplaySource) {
    let (_, evolution) = workloads::release_train(src.spec.apps[0].seed);
    for (i, a) in src.spec.apps.iter().take(APPS_REPLAYED).enumerate() {
        let config = generator_config(&a.source);
        let app = surface::generate_app(&config);
        if i % 2 == 0 {
            let diff = surface::sample_diff(&evolution, &app, 0);
            std::hint::black_box(surface::derive_app(&config, &[diff]));
        }
    }
}

/// device / tools / toller: one instrumented session per tool, on the
/// first app the workload gives that tool, as long as a workload
/// instance's; its recorded actions replayed on a bare emulator; the
/// emulator's observations replayed into a fresh tool. Enforcement is
/// loaded with the rules the finished campaign confirmed for that app.
/// Returns a sample of the screens seen, for the abstraction replay.
fn replay_step_path(src: &ReplaySource, out: &mut ChildOut) -> Vec<UiHierarchy> {
    let steps = (src.spec.scale.duration.as_millis() / ACTION_MS) as usize;
    let mut blocked = 0u64;
    let mut hierarchies = Vec::new();
    for tool in ToolKind::ALL {
        let i = src
            .spec
            .apps
            .iter()
            .position(|a| a.tool == tool)
            .unwrap_or(0);
        let app = &src.apps[i];
        let seed = src.spec.apps[i].seed;
        let mut instance = surface::boot_instance(Arc::clone(app), tool, seed);
        surface::block_entrypoints(&instance, &surface::confirmed_entrypoints(&src.result, i));
        blocked += surface::instance_steps(&mut instance, steps);
        let actions = surface::recorded_actions(&instance);
        let observations = surface::emulator_replay(Arc::clone(app), seed, &actions);
        surface::tool_replay(tool, seed, &observations);
        hierarchies.extend(observations.into_iter().step_by(8).map(|o| o.hierarchy));
    }
    out.set("toller.widgets_blocked", blocked as f64, 3 * steps as u64);
    hierarchies
}

/// ui-model: abstraction of real screens, the similarity cache on a real
/// trace (cold pairs first, repeats after), and the JSON codec on the
/// real result body.
fn replay_ui_model(src: &ReplaySource, hierarchies: &[UiHierarchy]) {
    let refs: Vec<&UiHierarchy> = hierarchies.iter().collect();
    surface::abstract_hierarchies(&refs);

    let cache = surface::new_cache();
    let threshold = surface::similarity_threshold();
    if let Some(trace) = surface::instance_traces(&src.result, 1)
        .first()
        .and_then(|app| app.first())
    {
        surface::similar_pairs(&cache, trace, threshold);
    }

    let value = surface::json_parse(&src.report);
    std::hint::black_box(surface::json_write(&value));
}

/// findspace: the finished campaign's own traces, replayed at analysis
/// cadence into a fresh engine and a fresh per-app cache — append the
/// events that arrived since the last analysis, analyze, and on a
/// candidate rebase the window to the split, as the online analyzer does.
fn replay_findspace(src: &ReplaySource, out: &mut ChildOut) {
    let mut windows = Vec::new();
    let (mut analyses, mut candidates) = (0u64, 0u64);
    let (mut hits, mut asks) = (0u64, 0u64);
    for app in surface::instance_traces(&src.result, APPS_REPLAYED) {
        let cache = surface::new_cache();
        for events in app {
            let mut engine = surface::new_engine(src.spec.scale.l_min_short);
            let (mut start, mut fed, mut next_due) = (0usize, 0usize, ANALYSIS_INTERVAL_MS);
            while fed < events.len() {
                while fed < events.len() && events[fed].time.as_millis() < next_due {
                    fed += 1;
                }
                next_due += ANALYSIS_INTERVAL_MS;
                let window = &events[start..fed];
                if window.len() <= surface::engine_len(&engine) {
                    continue;
                }
                surface::engine_extend(&mut engine, window, &cache);
                let (found, split) = surface::engine_analyze(&mut engine);
                windows.push(window.len() as f64);
                analyses += 1;
                candidates += found as u64;
                if let Some(split) = split.filter(|s| *s > 0) {
                    start += split;
                    surface::engine_reset(&mut engine);
                }
            }
        }
        let (h, c) = surface::cache_counts(&cache);
        hits += h;
        asks += h + c;
    }
    let windows = stats::sorted(&windows);
    out.set_opt(
        "findspace.window_p95_events",
        stats::percentile(&windows, 95.0),
        windows.len() as u64,
    );
    out.set("findspace.analyses", analyses as f64, 1);
    out.set("findspace.candidates", candidates as f64, 1);
    if asks > 0 {
        out.set(
            "ui-model.simcache_hit_ratio",
            hits as f64 / asks as f64,
            asks,
        );
    }
}

/// snapshot / checkpoint / spec: the workload's own spec and half-way
/// digest through every codec and the fsync'd store.
fn replay_codecs(src: &ReplaySource, scratch: &Path, out: &mut ChildOut) {
    for _ in 0..3 {
        std::hint::black_box(surface::spec_build(&src.spec));
    }
    for _ in 0..CODEC_REPS {
        std::hint::black_box(surface::spec_json_roundtrip(&src.spec));
    }
    let Some((round, digest)) = &src.digest else {
        return;
    };
    let checkpoint = surface::checkpoint_of(1, &src.spec, *round, digest.clone());
    let store = surface::checkpoint_store(&scratch.join("codec"));
    let mut bytes = 0usize;
    for _ in 0..CODEC_REPS {
        let text = surface::checkpoint_encode(&checkpoint);
        bytes = text.len();
        let back = surface::checkpoint_decode(&text);
        if back != checkpoint {
            out.failures
                .push("checkpoint codec did not round-trip".to_owned());
        }
        let path = surface::checkpoint_save(&store, &checkpoint);
        std::hint::black_box(surface::checkpoint_load(&store, &path));
    }
    out.set("checkpoint.bytes", bytes as f64, 1);
}

/// telemetry: the primitives every instrumented layer pays for.
fn replay_telemetry() {
    surface::telemetry_counter_inc(TELEMETRY_CALLS);
    surface::telemetry_histogram_record(TELEMETRY_CALLS);
    for _ in 0..5 {
        std::hint::black_box(surface::telemetry_render());
    }
}

/// Median per-call duration of the spans named `span` from position
/// `first` on, scaled by `per_ns` (1.0 keeps ns, 1e-3 gives us), with the
/// number of calls.
fn timing(rec: &Recorder, span: &str, first: usize, per_ns: f64) -> Stat {
    let calls: u64 = rec
        .spans()
        .iter()
        .skip(first)
        .filter(|s| s.name == span)
        .map(|s| s.count)
        .sum();
    Stat {
        value: stats::median_of(&rec.durations_ns_from(span, first)).map(|ns| ns * per_ns),
        n: calls,
    }
}

/// Turns the traced run's spans into the per-layer timing metrics.
/// `first_span` is where the replayed campaign's own spans start.
pub fn metrics_from_spans(rec: &Recorder, first_span: usize, out: &mut ChildOut) {
    const NS: f64 = 1.0;
    const US: f64 = 1e-3;
    for (metric, span, scale) in [
        ("app-sim.generate_us", "app-sim.generate", US),
        ("app-sim.derive_us", "app-sim.derive", US),
        ("ui-model.abstract_ns", "ui-model.abstract", NS),
        ("ui-model.similar_ns", "ui-model.similar", NS),
        ("device.step_ns", "device.step", NS),
        ("tools.monkey_ns", "tools.monkey", NS),
        ("tools.ape_ns", "tools.ape", NS),
        ("tools.wctester_ns", "tools.wctester", NS),
        ("toller.step_ns", "toller.step", NS),
        ("findspace.extend_ns_per_event", "findspace.extend", NS),
        ("findspace.analyze_us", "findspace.analyze", US),
        ("campaign.new_us", "campaign.new", US),
        ("campaign.round_p50_us", "campaign.round", US),
        ("campaign.finish_us", "campaign.finish", US),
        ("campaign.report_us", "campaign.report", US),
        ("snapshot.digest_us", "snapshot.digest", US),
        ("checkpoint.encode_us", "checkpoint.encode", US),
        ("checkpoint.decode_us", "checkpoint.decode", US),
        ("checkpoint.save_us", "checkpoint.save", US),
        ("checkpoint.load_us", "checkpoint.load", US),
        ("spec.build_us", "spec.build", US),
        ("spec.json_roundtrip_us", "spec.json_roundtrip", US),
        ("service.submit_us", "service.submit", US),
        ("service.status_ns", "service.status", NS),
        ("server.connect_us", "server.connect", US),
        ("server.notfound_rtt_us", "server.notfound", US),
        ("telemetry.counter_inc_ns", "telemetry.counter_inc", NS),
        (
            "telemetry.histogram_record_ns",
            "telemetry.histogram_record",
            NS,
        ),
        ("telemetry.render_us", "telemetry.render", US),
    ] {
        let first = if span.starts_with("campaign.") {
            first_span
        } else {
            0
        };
        let stat = timing(rec, span, first, scale);
        if stat.n > 0 {
            out.values.insert(metric.to_owned(), stat);
        }
    }

    let rounds: Vec<f64> = rec
        .durations_ns_from("campaign.round", first_span)
        .into_iter()
        .map(|ns| ns * US)
        .collect();
    if !rounds.is_empty() {
        out.set_opt(
            "campaign.round_p95_us",
            stats::percentile(&stats::sorted(&rounds), 95.0),
            rounds.len() as u64,
        );
    }

    // Steps over the time the campaign calls were busy.
    let busy_s: f64 = ["campaign.new", "campaign.round", "campaign.finish"]
        .iter()
        .flat_map(|n| rec.durations_ns_from(n, first_span))
        .sum::<f64>()
        / 1e9;
    if let Some(steps) = out.values.remove("campaign_steps").and_then(|s| s.value) {
        if steps > 0.0 && busy_s > 0.0 {
            out.set("campaign.steps_per_s", steps / busy_s, steps as u64);
            out.set("campaign.us_per_step", busy_s * 1e6 / steps, steps as u64);
        }
    }

    // A toller step is the tool choosing, the device executing and
    // toller's own interposition; the three replays share one action
    // sequence per tool, so per tool the remainder is toller's.
    let steps = rec.durations_ns("toller.step");
    let devices = rec.durations_ns("device.step");
    let tools: Vec<f64> = ["tools.monkey", "tools.ape", "tools.wctester"]
        .iter()
        .flat_map(|n| rec.durations_ns(n))
        .collect();
    if steps.len() == tools.len() && devices.len() == tools.len() {
        let own: Vec<f64> = (0..tools.len())
            .map(|i| steps[i] - devices[i] - tools[i])
            .collect();
        let n = out.values.get("toller.step_ns").map_or(0, |s| s.n);
        out.set_opt("toller.self_ns", stats::median_of(&own), n);
    }

    // JSON throughput on the real result body: the last span of each kind
    // is the replay's (service-churn parses wire bodies earlier on).
    if let Some(bytes) = out.get("campaign.report_bytes") {
        for (metric, span) in [
            ("ui-model.json_parse_mb_s", "ui-model.json_parse"),
            ("ui-model.json_write_mb_s", "ui-model.json_write"),
        ] {
            if let Some(ns) = rec.durations_ns(span).last() {
                out.set(metric, bytes / 1e6 / (ns / 1e9), 1);
            }
        }
    }
}
