//! Golden-trace regression: a fixed-seed session's per-round
//! `SplitCandidate` sequence and coordinator decision log, checked in as
//! a JSON fixture.
//!
//! This pins the *decisions* of `find_space` and the coordinator, not
//! just aggregate coverage, so a refactor of the incremental scorer, the
//! round ingestion path or the dedication path that
//! changes any split index, any score (to 1e-6), or any dedication/block
//! event fails loudly here. The fixture was recorded when the analyzer
//! was still fed one instance at a time, and the round-batched path must
//! keep reproducing it byte for byte — do NOT regenerate it to paper over
//! a divergence.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! TAOPT_GOLDEN_REGEN=1 cargo test --test golden_trace
//! ```

use std::sync::Arc;

use taopt::coordinator::CoordinatorEvent;
use taopt::findspace::find_space;
use taopt::session::{ParallelSession, RunMode, SessionConfig};
use taopt_app_sim::{generate_app, GeneratorConfig};
use taopt_tools::ToolKind;
use taopt_ui_model::json::Value;
use taopt_ui_model::{VirtualDuration, VirtualTime};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace.json"
);

fn golden_config() -> SessionConfig {
    // The Ape/8-minute shape reliably confirms and dedicates subspaces on
    // this app seed, so the fixture pins real decisions.
    let mut c = SessionConfig::new(ToolKind::Ape, RunMode::TaoptDuration);
    c.instances = 3;
    c.duration = VirtualDuration::from_mins(8);
    c.tick = VirtualDuration::from_secs(10);
    c.seed = 2;
    c.analyzer.find_space.l_min = VirtualDuration::from_secs(45);
    c.analyzer.analysis_interval = VirtualDuration::from_secs(20);
    c
}

/// Runs the golden session and renders its decision log canonically.
fn render_golden() -> String {
    let config = golden_config();
    let app = Arc::new(generate_app(&GeneratorConfig::small("golden", 2)).unwrap());
    let result = ParallelSession::run(app, &config);

    // Per-round SplitCandidate sequence: for every instance, re-run
    // FindSpace on each round-boundary prefix of its final trace and
    // record the (round, index, score) triples where a split exists.
    // Scores are fixed to micro-units so float formatting cannot drift.
    let rounds = config.duration.as_millis() / config.tick.as_millis();
    let splits: Vec<Value> = result
        .instances
        .iter()
        .map(|inst| {
            let events = inst.trace.events();
            let mut per_round = Vec::new();
            for round in 1..=rounds {
                let boundary = VirtualTime::ZERO + config.tick * round;
                let prefix: Vec<_> = events
                    .iter()
                    .take_while(|e| e.time <= boundary)
                    .cloned()
                    .collect();
                if let Some(split) = find_space(&prefix, &config.analyzer.find_space) {
                    per_round.push(Value::Array(vec![
                        Value::UInt(round),
                        Value::UInt(split.index as u64),
                        Value::Int((split.score * 1e6).round() as i64),
                    ]));
                }
            }
            Value::Object(vec![
                ("instance".to_owned(), Value::UInt(inst.instance.0 as u64)),
                ("trace_len".to_owned(), Value::UInt(events.len() as u64)),
                ("splits".to_owned(), Value::Array(per_round)),
            ])
        })
        .collect();

    let decisions: Vec<Value> = result
        .coordinator_events
        .iter()
        .map(|e| match e {
            CoordinatorEvent::SubspaceDedicated {
                subspace,
                owner,
                at,
            } => Value::Object(vec![
                ("kind".to_owned(), Value::Str("dedicated".to_owned())),
                ("subspace".to_owned(), Value::UInt(subspace.0 as u64)),
                ("owner".to_owned(), Value::UInt(owner.0 as u64)),
                ("at_ms".to_owned(), Value::UInt(at.as_millis())),
            ]),
            CoordinatorEvent::EntrypointBlocked {
                subspace,
                instance,
                rule,
            } => Value::Object(vec![
                ("kind".to_owned(), Value::Str("blocked".to_owned())),
                ("subspace".to_owned(), Value::UInt(subspace.0 as u64)),
                ("instance".to_owned(), Value::UInt(instance.0 as u64)),
                ("screen".to_owned(), Value::UInt(rule.screen.0)),
                ("widget".to_owned(), Value::Str(rule.widget_rid.clone())),
            ]),
        })
        .collect();

    Value::Object(vec![
        ("app".to_owned(), Value::Str("golden".to_owned())),
        ("seed".to_owned(), Value::UInt(2)),
        (
            "union_coverage".to_owned(),
            Value::UInt(result.union_coverage() as u64),
        ),
        ("instances".to_owned(), Value::Array(splits)),
        ("decisions".to_owned(), Value::Array(decisions)),
    ])
    .to_json_string()
}

#[test]
fn serial_session_reproduces_golden_trace() {
    let current = render_golden();
    if std::env::var("TAOPT_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &current).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!("missing fixture {FIXTURE} ({e}); run with TAOPT_GOLDEN_REGEN=1 to create it")
    });
    assert_eq!(
        current, golden,
        "find_space/coordinator decisions diverged from the checked-in \
         golden trace; if the change is intentional, regenerate with \
         TAOPT_GOLDEN_REGEN=1"
    );
}

#[test]
fn golden_fixture_is_well_formed() {
    if std::env::var("TAOPT_GOLDEN_REGEN").is_ok() {
        return; // the fixture is being rewritten by the other test
    }
    let golden = match std::fs::read_to_string(FIXTURE) {
        Ok(g) => g,
        Err(_) => return, // first regen run creates it
    };
    let parsed = Value::parse(&golden).expect("fixture parses as JSON");
    // Sanity: the fixture actually pins decisions, not an empty run.
    let Value::Object(fields) = &parsed else {
        panic!("fixture root is not an object")
    };
    let decisions = fields
        .iter()
        .find(|(k, _)| k == "decisions")
        .map(|(_, v)| v)
        .expect("decisions field present");
    let Value::Array(decisions) = decisions else {
        panic!("decisions is not an array")
    };
    assert!(
        !decisions.is_empty(),
        "golden run produced no coordinator decisions — fixture is not protective"
    );
}
