//! Microbenchmarks of TaOPT's core algorithms: FindSpace (Algorithm 1,
//! through the incremental engine the analyzer runs), screen abstraction
//! and tree similarity, conductance, offline partitioning and the
//! Theorem-1 sampler.

use std::collections::BTreeSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use taopt::conductance::conductance;
use taopt::findspace::{FindSpaceConfig, FindSpaceEngine, SimilarityCache};
use taopt::partition::{partition_graph, PartitionConfig};
use taopt::theorem::{separation_trial, CliquePairConfig};
use taopt_app_sim::{generate_app, AppRuntime, GeneratorConfig};
use taopt_ui_model::abstraction::abstract_hierarchy;
use taopt_ui_model::similarity::tree_similarity;
use taopt_ui_model::{Action, StochasticDigraph, Trace, VirtualDuration, VirtualTime};

/// Drives a Monkey-ish random walk to produce a realistic trace.
fn synthetic_trace(steps: usize, seed: u64) -> Trace {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let app = Arc::new(generate_app(&GeneratorConfig::small("bench", seed)).unwrap());
    let mut rt = AppRuntime::launch(app, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    let mut t = 0u64;
    for _ in 0..steps {
        let obs = rt.observe(VirtualTime::from_secs(t));
        let actions = obs.enabled_actions();
        let action = if rng.gen::<f64>() < 0.1 {
            Action::Back
        } else {
            actions
                .choose(&mut rng)
                .map(|(a, _)| Action::Widget(*a))
                .unwrap_or(Action::Back)
        };
        t += 2;
        let out = rt.execute(action, VirtualTime::from_secs(t)).unwrap();
        trace.push(taopt_ui_model::TraceEvent {
            time: out.observation.time,
            screen: out.observation.screen,
            activity: out.observation.activity,
            abstract_id: out.observation.abstract_id(),
            abstraction: out.observation.abstraction.clone(),
            action: Some(action),
            action_widget_rid: None,
        });
    }
    trace
}

fn bench_findspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("findspace");
    for steps in [200usize, 800, 2000] {
        let trace = synthetic_trace(steps, 7);
        let cfg = FindSpaceConfig {
            l_min: VirtualDuration::from_secs(60),
            ..FindSpaceConfig::default()
        };
        // One analyzer pass over a freshly rebased window: reset, ingest
        // the whole trace, then the top-5 candidate sweep.
        group.bench_with_input(BenchmarkId::new("events", steps), &trace, |b, tr| {
            let cache = SimilarityCache::new();
            let mut engine = FindSpaceEngine::new(cfg.clone());
            b.iter(|| {
                engine.reset();
                engine.extend_from(tr.events(), &cache);
                engine.analyze(5)
            });
        });
    }
    group.finish();
}

fn bench_abstraction(c: &mut Criterion) {
    let app = Arc::new(generate_app(&GeneratorConfig::small("abs", 3)).unwrap());
    let hierarchy = app.render_screen(app.start_screen(), 1);
    c.bench_function("abstract_hierarchy", |b| {
        b.iter(|| abstract_hierarchy(&hierarchy))
    });
    let a = abstract_hierarchy(&hierarchy);
    let other = abstract_hierarchy(&app.render_screen(app.start_screen(), 2));
    c.bench_function("tree_similarity", |b| {
        b.iter(|| tree_similarity(&a, &other))
    });
}

fn bench_partitioning(c: &mut Criterion) {
    // 6 cliques of 20 nodes.
    let mut g = StochasticDigraph::new();
    for cl in 0..6u64 {
        let base = cl * 100;
        for i in 0..20u64 {
            for j in 0..20u64 {
                if i != j {
                    g.add_edge(base + i, base + j, 1.0).unwrap();
                }
            }
        }
        g.add_edge(base, (base + 100) % 600, 0.02).unwrap();
    }
    let g = g.normalized();
    let cfg = PartitionConfig {
        coupling_threshold: 0.01,
        min_cluster_size: 2,
    };
    c.bench_function("partition_graph_120_nodes", |b| {
        b.iter(|| partition_graph(&g, &cfg))
    });

    let a: BTreeSet<u64> = (0..20).collect();
    let bset: BTreeSet<u64> = (100..120).collect();
    c.bench_function("conductance", |b| b.iter(|| conductance(&g, &a, &bset)));
}

fn bench_theorem(c: &mut Criterion) {
    let cfg = CliquePairConfig { n: 8, alpha: 16.0 };
    c.bench_function("theorem1_trial_10k_samples", |b| {
        b.iter(|| separation_trial(&cfg, 10_000, 42))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_findspace, bench_abstraction, bench_partitioning, bench_theorem
}
criterion_main!(benches);
