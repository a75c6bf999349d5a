//! Shape tests: small-scale versions of the paper's headline claims that
//! must hold for the reproduction to be meaningful. Thresholds are loose
//! (quick scale, few apps) — the full-scale numbers live in
//! EXPERIMENTS.md and the `taopt-bench` binaries.

use std::sync::Arc;

use taopt::experiments::{
    evaluation_matrix, matrix_get, table1_histogram, table2_rows, ExperimentScale,
};
use taopt::session::RunMode;
use taopt_app_sim::{catalog_entries, App};
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualDuration;

fn shape_scale() -> ExperimentScale {
    ExperimentScale {
        instances: 4,
        duration: VirtualDuration::from_mins(20),
        tick: VirtualDuration::from_secs(10),
        stall_timeout: VirtualDuration::from_mins(2),
        l_min_short: VirtualDuration::from_secs(60),
        l_min_long: VirtualDuration::from_secs(120),
        grid_points: 6,
    }
}

fn shape_apps(n: usize) -> Vec<(String, Arc<App>)> {
    catalog_entries()
        .into_iter()
        .take(n)
        .map(|e| {
            let mut cfg = e.config();
            cfg.n_functionalities = 8;
            cfg.min_screens_per_functionality = 12;
            cfg.max_screens_per_functionality = 20;
            (
                e.name.to_owned(),
                Arc::new(taopt_app_sim::generate_app(&cfg).unwrap()),
            )
        })
        .collect()
}

#[test]
fn taopt_improves_aggregate_coverage() {
    let apps = shape_apps(3);
    let matrix = evaluation_matrix(&apps, &shape_scale(), 2025);
    let mut base = 0usize;
    let mut dur = 0usize;
    let mut res = 0usize;
    for (name, _) in &apps {
        for tool in ToolKind::ALL {
            base += matrix_get(&matrix, name, tool, RunMode::Baseline)
                .unwrap()
                .union_coverage;
            dur += matrix_get(&matrix, name, tool, RunMode::TaoptDuration)
                .unwrap()
                .union_coverage;
            res += matrix_get(&matrix, name, tool, RunMode::TaoptResource)
                .unwrap()
                .union_coverage;
        }
    }
    assert!(
        dur as f64 > 0.98 * base as f64,
        "duration mode regressed: {dur} vs {base}"
    );
    assert!(
        res as f64 > 0.98 * base as f64,
        "resource mode regressed: {res} vs {base}"
    );
    assert!(
        dur + res > 2 * base,
        "TaOPT should improve on aggregate: D={dur} R={res} B={base}"
    );
}

#[test]
fn baseline_instances_overlap_heavily() {
    // RQ1's finding: most subspaces are explored by multiple instances.
    let apps = shape_apps(2);
    let matrix = evaluation_matrix(&apps, &shape_scale(), 7);
    let hist = table1_histogram(&matrix);
    let total: usize = hist.values().sum();
    let multi: usize = hist.iter().filter(|(k, _)| **k > 1).map(|(_, v)| *v).sum();
    assert!(total > 0, "offline partition found no subspaces");
    assert!(
        multi as f64 >= 0.6 * total as f64,
        "only {multi}/{total} subspaces explored by >1 instance"
    );
}

#[test]
fn ape_overlaps_most_in_baseline() {
    // Fig. 3's ordering: Ape's model-based convergence gives the highest
    // cross-instance coverage similarity.
    let apps = shape_apps(2);
    let matrix = evaluation_matrix(&apps, &shape_scale(), 9);
    let ajs_of = |tool| {
        let mut v = Vec::new();
        for (name, _) in &apps {
            let r = matrix_get(&matrix, name, tool, RunMode::Baseline).unwrap();
            let overlap = r
                .baseline
                .as_ref()
                .expect("baseline rows carry RQ1 metrics");
            if let Some((_, a)) = overlap.ajs_curve.last() {
                v.push(*a);
            }
        }
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let ape = ajs_of(ToolKind::Ape);
    let monkey = ajs_of(ToolKind::Monkey);
    let wct = ajs_of(ToolKind::WcTester);
    assert!(
        ape > monkey && ape > wct,
        "Ape should overlap most: ape={ape:.2} monkey={monkey:.2} wct={wct:.2}"
    );
}

#[test]
fn activity_partitioning_hurts_wctester() {
    // RQ2's finding (Table 2): ParaAim-style partitioning reduces
    // coverage on most apps.
    let apps = shape_apps(3);
    let rows = table2_rows(&apps, &shape_scale(), 3);
    let hurt = rows.iter().filter(|r| r.parallel < r.baseline).count();
    assert!(
        hurt * 2 > rows.len(),
        "activity partitioning should hurt most apps; hurt {hurt}/{}",
        rows.len()
    );
}

#[test]
fn taopt_reduces_ui_overlap() {
    // RQ6 (Table 6): the average occurrences of distinct UIs drop.
    let apps = shape_apps(2);
    let matrix = evaluation_matrix(&apps, &shape_scale(), 21);
    let mut base = 0.0;
    let mut taopt = 0.0;
    for (name, _) in &apps {
        for tool in ToolKind::ALL {
            base += matrix_get(&matrix, name, tool, RunMode::Baseline)
                .unwrap()
                .avg_ui_occurrences;
            taopt += matrix_get(&matrix, name, tool, RunMode::TaoptDuration)
                .unwrap()
                .avg_ui_occurrences;
        }
    }
    assert!(
        taopt < base * 1.02,
        "TaOPT should not increase UI overlap: {taopt:.1} vs {base:.1}"
    );
}
