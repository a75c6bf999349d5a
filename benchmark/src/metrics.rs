//! The metric registry: every name the benchmark prints, with its unit,
//! its good direction, the workloads it is measured on and — for
//! end-to-end metrics — the bound `compare` holds it to.

use crate::workloads::Workload::{self, CatalogDeep, FarmWide, ReleaseTrain, ServiceChurn};

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as BENCHMARK.json spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What kind of number a metric is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// What a user of the system sees. `bound` is the share of the
    /// reference median by which it may worsen before `compare` says
    /// `regressed`; `floor` is an absolute allowance in the metric's unit
    /// for timings so short that a relative bound is below clock noise.
    EndToEnd {
        /// Relative regression bound.
        bound: f64,
        /// Absolute allowance, in the metric's unit.
        floor: f64,
    },
    /// One layer's share, measured from outside. No bound.
    PerLayer,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// End-to-end (with bound) or per-layer.
    pub class: Class,
    /// Workloads the metric is measured on.
    pub on: &'static [Workload],
    /// Host time, or a simulated outcome that must repeat exactly.
    pub simulated: bool,
}

const ALL: &[Workload] = &[FarmWide, CatalogDeep, ReleaseTrain, ServiceChurn];
const CAMPAIGNS: &[Workload] = &[FarmWide, CatalogDeep, ReleaseTrain];
const DIRECT: &[Workload] = &[FarmWide, CatalogDeep];
const TRAIN: &[Workload] = &[ReleaseTrain];
const CHURN: &[Workload] = &[ServiceChurn];

/// Timing bound: 10 % of the reference median.
const TIMING: Class = Class::EndToEnd {
    bound: 0.10,
    floor: 0.0,
};
/// Simulated outcomes repeat exactly for a seed; 0.5 % only absorbs a
/// deliberate, reviewed model change.
const OUTCOME: Class = Class::EndToEnd {
    bound: 0.005,
    floor: 0.0,
};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    class: Class,
    on: &'static [Workload],
    simulated: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class,
        on,
        simulated,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [Workload],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::PerLayer,
        on,
        simulated: false,
    }
}

const fn count(name: &'static str, better: Better, on: &'static [Workload]) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better,
        class: Class::PerLayer,
        on,
        simulated: true,
    }
}

use Better::{Higher, Lower};

/// Every metric, end-to-end first, then per layer in pipeline order.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end ----
    e2e(
        "setup_s",
        "s",
        Lower,
        Class::EndToEnd {
            bound: 0.10,
            floor: 0.020,
        },
        ALL,
        false,
    ),
    e2e("host_s", "s", Lower, TIMING, ALL, false),
    e2e("peak_rss_mb", "MB", Lower, TIMING, ALL, false),
    e2e("coverage_methods", "methods", Higher, OUTCOME, ALL, true),
    e2e("machine_h", "virtual_h", Lower, OUTCOME, ALL, true),
    e2e(
        "warm_cold_coverage_ratio",
        "ratio",
        Higher,
        OUTCOME,
        TRAIN,
        true,
    ),
    e2e("regressions_missed", "count", Lower, OUTCOME, TRAIN, true),
    e2e("submit_p50_ms", "ms", Lower, TIMING, CHURN, false),
    e2e("status_p50_us", "us", Lower, TIMING, CHURN, false),
    e2e("resume_s", "s", Lower, TIMING, CHURN, false),
    e2e(
        "error_share",
        "fraction",
        Lower,
        Class::EndToEnd {
            bound: 0.0,
            floor: 0.0,
        },
        ALL,
        true,
    ),
    // ---- app-sim ----
    layer("app-sim.generate_us", "us", Lower, ALL),
    layer("app-sim.derive_us", "us", Lower, ALL),
    // ---- ui-model ----
    layer("ui-model.abstract_ns", "ns", Lower, ALL),
    layer("ui-model.similar_ns", "ns", Lower, ALL),
    layer("ui-model.simcache_hit_ratio", "ratio", Higher, ALL),
    layer("ui-model.json_parse_mb_s", "MB/s", Higher, ALL),
    layer("ui-model.json_write_mb_s", "MB/s", Higher, ALL),
    // ---- device / tools / toller ----
    layer("device.step_ns", "ns", Lower, ALL),
    layer("tools.monkey_ns", "ns", Lower, ALL),
    layer("tools.ape_ns", "ns", Lower, ALL),
    layer("tools.wctester_ns", "ns", Lower, ALL),
    layer("toller.step_ns", "ns", Lower, ALL),
    layer("toller.self_ns", "ns", Lower, ALL),
    count("toller.steps", Higher, ALL),
    count("toller.widgets_blocked", Higher, ALL),
    // ---- findspace ----
    layer("findspace.extend_ns_per_event", "ns", Lower, ALL),
    layer("findspace.analyze_us", "us", Lower, ALL),
    count("findspace.window_p95_events", Lower, ALL),
    count("findspace.analyses", Lower, ALL),
    count("findspace.candidates", Higher, ALL),
    // ---- analyzer (decomposition by bypass) ----
    layer("analyzer.baseline_host_s", "s", Lower, DIRECT),
    layer("analyzer.share_pct", "%", Lower, DIRECT),
    count("analyzer.subspaces_confirmed", Higher, ALL),
    layer("analyzer.coverage_gain_pct", "%", Higher, DIRECT),
    // ---- campaign ----
    layer("campaign.new_us", "us", Lower, ALL),
    layer("campaign.round_p50_us", "us", Lower, ALL),
    layer("campaign.round_p95_us", "us", Lower, ALL),
    count("campaign.rounds", Lower, ALL),
    layer("campaign.finish_us", "us", Lower, ALL),
    layer("campaign.report_us", "us", Lower, ALL),
    layer("campaign.report_bytes", "bytes", Lower, ALL),
    layer("campaign.steps_per_s", "1/s", Higher, ALL),
    layer("campaign.us_per_step", "us", Lower, ALL),
    count("campaign.grants", Lower, ALL),
    count("campaign.revocations", Lower, ALL),
    layer("campaign.steals", "count", Lower, ALL),
    count("campaign.wait_rounds", Lower, ALL),
    // ---- pool ----
    layer("pool.ht1_host_s", "s", Lower, CAMPAIGNS),
    layer("pool.speedup", "ratio", Higher, CAMPAIGNS),
    layer("pool.efficiency", "ratio", Higher, CAMPAIGNS),
    // ---- snapshot / checkpoint / spec ----
    layer("snapshot.digest_us", "us", Lower, ALL),
    layer("checkpoint.encode_us", "us", Lower, ALL),
    layer("checkpoint.decode_us", "us", Lower, ALL),
    layer("checkpoint.save_us", "us", Lower, ALL),
    layer("checkpoint.load_us", "us", Lower, ALL),
    layer("checkpoint.bytes", "bytes", Lower, ALL),
    layer("checkpoint.written", "count", Lower, CHURN),
    layer("spec.build_us", "us", Lower, ALL),
    layer("spec.json_roundtrip_us", "us", Lower, ALL),
    // ---- service ----
    layer("service.submit_us", "us", Lower, CHURN),
    layer("service.status_ns", "ns", Lower, CHURN),
    layer("service.direct_host_s", "s", Lower, CHURN),
    layer("service.overhead_pct", "%", Lower, CHURN),
    layer("service.resume_vs_direct", "ratio", Lower, CHURN),
    // ---- server ----
    layer("server.status_p95_us", "us", Lower, CHURN),
    layer("server.connect_us", "us", Lower, CHURN),
    layer("server.notfound_rtt_us", "us", Lower, CHURN),
    layer("server.result_ms", "ms", Lower, CHURN),
    layer("server.result_bytes", "bytes", Lower, CHURN),
    layer("server.requests", "count", Lower, CHURN),
    layer("server.errors", "count", Lower, CHURN),
    layer("server.wire_overhead_pct", "%", Lower, CHURN),
    // ---- chaos ----
    count("chaos.injected", Lower, CHURN),
    count("chaos.recovered", Higher, CHURN),
    count("chaos.devices_lost", Lower, CHURN),
    count("chaos.replacements", Higher, CHURN),
    layer("chaos.retention_pct", "%", Higher, CHURN),
    // ---- sequence / warmstart ----
    layer("sequence.version_host_ms", "ms", Lower, TRAIN),
    count("warmstart.carried", Higher, TRAIN),
    count("warmstart.invalidated", Lower, TRAIN),
    layer(
        "warmstart.first_dedication_round_warm",
        "rounds",
        Lower,
        TRAIN,
    ),
    layer(
        "warmstart.first_dedication_round_cold",
        "rounds",
        Lower,
        TRAIN,
    ),
    layer("warmstart.cold_host_s", "s", Lower, TRAIN),
    // ---- telemetry ----
    layer("telemetry.overhead_pct", "%", Lower, ALL),
    layer("telemetry.counter_inc_ns", "ns", Lower, ALL),
    layer("telemetry.histogram_record_ns", "ns", Lower, ALL),
    layer("telemetry.render_us", "us", Lower, ALL),
    // ---- sim: exact-repeat statistics, for cross-commit equality ----
    count("sim.report_fnv64", Lower, ALL),
    count("sim.steps", Higher, ALL),
    count("sim.unique_crashes", Higher, ALL),
    count("sim.rounds", Lower, ALL),
    // ---- host / trace ----
    layer("host.cores", "count", Higher, ALL),
    layer("trace.overhead_pct", "%", Lower, ALL),
];

/// Looks a metric up by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

impl MetricDef {
    /// Whether the metric is measured on `workload`.
    pub fn applies_to(&self, workload: Workload) -> bool {
        self.on.contains(&workload)
    }

    /// Whether the metric is end-to-end.
    pub fn is_end_to_end(&self) -> bool {
        matches!(self.class, Class::EndToEnd { .. })
    }

    /// BENCHMARK.json's `end_to_end` list holds the end-to-end metrics
    /// its driver can ask of *every* workload under *varying* seeds: the
    /// ones measured on all four, never 0, and never the same on every
    /// run. That leaves out `error_share` (0 when all is well) and
    /// `machine_h` (duration-mode workloads spend exactly instances x
    /// duration, whatever the seed). Those, and the end-to-end metrics of
    /// a single workload, travel in its `per_layer` list, where a workload
    /// that does not exercise a metric reports 0.
    pub fn in_driver_end_to_end(&self) -> bool {
        self.is_end_to_end()
            && self.on.len() == Workload::ALL.len()
            && !["error_share", "machine_h"].contains(&self.name)
    }
}

/// Seconds one driver run measures for (BENCHMARK.json `run_seconds`).
pub const DRIVER_RUN_SECONDS: u64 = 15;

/// The bound BENCHMARK.json's driver holds a metric of its `end_to_end`
/// list to. Its runs vary the seed, so these also cover seed-to-seed
/// variation (measured spreads are in `BASELINE.md`); `compare`, which
/// holds two runs of one seed against each other, keeps the tighter
/// bounds of [`METRICS`]. Set-up time gets the widest bound the contract
/// allows: it is milliseconds on `farm-wide`.
pub fn driver_bound(name: &str) -> f64 {
    match name {
        "setup_s" => 0.25,
        // service-churn's peak depends on which campaigns overlap.
        "peak_rss_mb" => 0.20,
        "host_s" => 0.15,
        _ => 0.10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad metric name {:?}",
                m.name
            );
            assert!(m.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "duplicate metric {}",
                m.name
            );
            assert!(!m.on.is_empty(), "{} is measured nowhere", m.name);
        }
    }

    #[test]
    fn the_issue_counts_hold() {
        let e2e = METRICS.iter().filter(|m| m.is_end_to_end()).count();
        assert_eq!(e2e, 11);
        let driver: Vec<_> = METRICS
            .iter()
            .filter(|m| m.in_driver_end_to_end())
            .map(|m| m.name)
            .collect();
        assert_eq!(
            driver,
            ["setup_s", "host_s", "peak_rss_mb", "coverage_methods"]
        );
        assert!(METRICS.len() - driver.len() <= 128);
    }
}
