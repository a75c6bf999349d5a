//! Offline trace persistence and the preliminary study (§3).
//!
//! The paper's preliminary study (RQ1/RQ2) analyzes *recorded* traces of
//! uncoordinated parallel runs. This module gives the reproduction the
//! same workflow: persist the UI-transition traces of a session to a
//! trace archive (JSON), reload them later, and run the offline analyses —
//! subspace partitioning, overlap histograms, UI-occurrence statistics —
//! without re-executing anything.
//!
//! Archives are also the raw material for debugging the online analyzer:
//! `replay_analysis` re-feeds an archive through a fresh
//! [`OnlineTraceAnalyzer`] chunk by chunk, reproducing its decisions
//! deterministically.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use taopt_toller::InstanceId;
use taopt_ui_model::json::{trace_from_value, trace_to_value, Value};
use taopt_ui_model::{Trace, VirtualTime};

use crate::analyzer::{AnalyzerConfig, OnlineTraceAnalyzer, SubspaceInfo};
use crate::metrics::overlap::{average_ui_occurrences, subspace_overlap_histogram};
use crate::partition::{partition_traces, PartitionConfig};
use crate::session::SessionResult;

/// A persisted bundle of per-instance traces from one parallel run.
#[derive(Debug, Clone, Default)]
pub struct TraceArchive {
    /// Label for reports (app name, tool, mode…).
    pub label: String,
    /// Instance id (as raw u32) → trace.
    pub traces: Vec<(u32, Trace)>,
}

impl TraceArchive {
    /// Collects the traces of a finished session.
    pub fn from_session(label: impl Into<String>, result: &SessionResult) -> Self {
        TraceArchive {
            label: label.into(),
            traces: result
                .instances
                .iter()
                .map(|i| (i.instance.0, i.trace.clone()))
                .collect(),
        }
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the archive holds no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total events across traces.
    pub fn event_count(&self) -> usize {
        self.traces.iter().map(|(_, t)| t.len()).sum()
    }

    /// Borrowed view of the traces (for the metrics functions).
    pub fn trace_refs(&self) -> Vec<&Trace> {
        self.traces.iter().map(|(_, t)| t).collect()
    }

    /// Serializes to a writer as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    pub fn write_to<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        let traces = self
            .traces
            .iter()
            .map(|(iid, trace)| {
                Value::Object(vec![
                    ("instance".to_owned(), Value::from(*iid)),
                    ("trace".to_owned(), trace_to_value(trace)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("label".to_owned(), Value::from(self.label.clone())),
            ("traces".to_owned(), Value::Array(traces)),
        ]);
        writer.write_all(doc.to_json_string().as_bytes())
    }

    /// Deserializes from a reader.
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization failures.
    pub fn read_from<R: Read>(mut reader: R) -> std::io::Result<Self> {
        let mut text = String::new();
        reader.read_to_string(&mut text)?;
        let doc = Value::parse(&text).map_err(std::io::Error::other)?;
        let convert = || -> Result<Self, taopt_ui_model::JsonError> {
            let label = doc
                .require("label")?
                .as_str()
                .ok_or_else(|| taopt_ui_model::JsonError::conversion("label must be a string"))?
                .to_owned();
            let traces = doc
                .require("traces")?
                .as_array()
                .ok_or_else(|| taopt_ui_model::JsonError::conversion("traces must be an array"))?
                .iter()
                .map(|entry| {
                    let iid = entry
                        .require("instance")?
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| {
                            taopt_ui_model::JsonError::conversion("instance must be a u32")
                        })?;
                    Ok((iid, trace_from_value(entry.require("trace")?)?))
                })
                .collect::<Result<_, taopt_ui_model::JsonError>>()?;
            Ok(TraceArchive { label, traces })
        };
        convert().map_err(std::io::Error::other)
    }

    /// Saves to a file (buffered).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.write_to(BufWriter::new(File::create(path)?))
    }

    /// Loads from a file (buffered).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::read_from(BufReader::new(File::open(path)?))
    }
}

/// The outcome of the §3 preliminary study over recorded traces.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// Archive label.
    pub label: String,
    /// Subspaces found by the conservative offline partitioner.
    pub subspace_count: usize,
    /// Histogram: instances-that-explored → number of subspaces (Table 1).
    pub overlap_histogram: BTreeMap<usize, usize>,
    /// Average occurrences of each distinct abstract UI (Table 6 metric).
    pub avg_ui_occurrences: f64,
    /// Distinct abstract screens across all traces.
    pub distinct_screens: usize,
    /// Total monitored transitions.
    pub total_events: usize,
}

impl StudyReport {
    /// Fraction of subspaces explored by more than one instance.
    pub fn multi_explored_fraction(&self) -> f64 {
        let total: usize = self.overlap_histogram.values().sum();
        if total == 0 {
            return 0.0;
        }
        let multi: usize = self
            .overlap_histogram
            .iter()
            .filter(|(k, _)| **k > 1)
            .map(|(_, v)| *v)
            .sum();
        multi as f64 / total as f64
    }
}

/// Runs the offline preliminary study on an archive.
pub fn preliminary_study(archive: &TraceArchive, config: &PartitionConfig) -> StudyReport {
    let traces = archive.trace_refs();
    let subspaces = partition_traces(&traces, config);
    let overlap_histogram = subspace_overlap_histogram(&subspaces, &traces, 2);
    let distinct: std::collections::BTreeSet<_> = traces
        .iter()
        .flat_map(|t| t.events().iter().map(|e| e.abstract_id))
        .collect();
    StudyReport {
        label: archive.label.clone(),
        subspace_count: subspaces.len(),
        overlap_histogram,
        avg_ui_occurrences: average_ui_occurrences(&traces),
        distinct_screens: distinct.len(),
        total_events: archive.event_count(),
    }
}

/// Replays an archive through a fresh analyzer, feeding each trace in
/// growing chunks exactly as the live coordinator would, and returns the
/// subspaces it identifies. Deterministic; useful for debugging analyzer
/// changes against recorded runs.
pub fn replay_analysis(archive: &TraceArchive, config: AnalyzerConfig) -> Vec<SubspaceInfo> {
    let mut analyzer = OnlineTraceAnalyzer::new(config);
    // Interleave instances round-robin in chunks, approximating the
    // lock-step session schedule. Each instance's partial trace grows in
    // place (append-only, like a live trace), so the analyzer's
    // per-instance engine ingests every archived event exactly once
    // instead of re-cloning an O(N) prefix per chunk.
    let chunk = 10usize;
    let max_len = archive
        .traces
        .iter()
        .map(|(_, t)| t.len())
        .max()
        .unwrap_or(0);
    let mut partials: Vec<Trace> = archive.traces.iter().map(|_| Trace::new()).collect();
    let mut upto = chunk;
    while upto <= max_len + chunk {
        for ((iid, trace), partial) in archive.traces.iter().zip(partials.iter_mut()) {
            let end = upto.min(trace.len());
            if end == 0 {
                continue;
            }
            for e in &trace.events()[partial.len()..end] {
                partial.push(e.clone());
            }
            let now = partial.end_time().unwrap_or(VirtualTime::ZERO);
            analyzer.maybe_analyze(InstanceId(*iid), partial, now);
        }
        upto += chunk;
    }
    analyzer.subspaces().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use taopt_app_sim::{generate_app, GeneratorConfig};
    use taopt_tools::ToolKind;
    use taopt_ui_model::VirtualDuration;

    use crate::session::{ParallelSession, RunMode, SessionConfig};

    fn session() -> SessionResult {
        let app = Arc::new(generate_app(&GeneratorConfig::small("off", 3)).unwrap());
        let mut cfg = SessionConfig::new(ToolKind::Monkey, RunMode::Baseline);
        cfg.instances = 3;
        cfg.duration = VirtualDuration::from_mins(6);
        ParallelSession::run(app, &cfg)
    }

    #[test]
    fn archive_roundtrips_through_json() {
        let result = session();
        let archive = TraceArchive::from_session("demo", &result);
        assert_eq!(archive.len(), 3);
        let mut buf = Vec::new();
        archive.write_to(&mut buf).unwrap();
        let restored = TraceArchive::read_from(buf.as_slice()).unwrap();
        assert_eq!(restored.label, "demo");
        assert_eq!(restored.len(), archive.len());
        assert_eq!(restored.event_count(), archive.event_count());
        // Events survive intact, including abstractions.
        for ((_, a), (_, b)) in archive.traces.iter().zip(&restored.traces) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.events().iter().zip(b.events()) {
                assert_eq!(x.abstract_id, y.abstract_id);
                assert_eq!(x.abstraction.id(), y.abstraction.id());
                assert_eq!(x.action_widget_rid, y.action_widget_rid);
            }
        }
    }

    #[test]
    fn archives_nest_far_below_the_json_depth_limit() {
        // Trace archives — every abstraction a widget tree — are the
        // deepest documents the workspace writes; the parser's nesting
        // bound must never come near them.
        fn depth(v: &Value) -> usize {
            match v {
                Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                Value::Object(fields) => {
                    1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0)
                }
                _ => 0,
            }
        }
        let archive = TraceArchive::from_session("depth", &session());
        let mut buf = Vec::new();
        archive.write_to(&mut buf).unwrap();
        let doc = Value::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let levels = depth(&doc);
        assert!(
            levels <= taopt_ui_model::json::MAX_DEPTH / 4,
            "archive nests {levels} levels"
        );
    }

    #[test]
    fn archive_saves_to_disk() {
        let result = session();
        let archive = TraceArchive::from_session("disk", &result);
        let path = std::env::temp_dir().join("taopt-archive-test.json");
        archive.save(&path).unwrap();
        let restored = TraceArchive::load(&path).unwrap();
        assert_eq!(restored.event_count(), archive.event_count());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn study_report_summarizes_a_run() {
        let result = session();
        let archive = TraceArchive::from_session("study", &result);
        let report = preliminary_study(&archive, &PartitionConfig::default());
        assert_eq!(report.total_events, archive.event_count());
        assert!(report.distinct_screens > 5);
        assert!((0.0..=1.0).contains(&report.multi_explored_fraction()));
    }

    #[test]
    fn replay_is_deterministic() {
        let result = session();
        let archive = TraceArchive::from_session("replay", &result);
        let mut cfg = AnalyzerConfig::duration_mode();
        cfg.find_space.l_min = VirtualDuration::from_secs(40);
        let a = replay_analysis(&archive, cfg.clone());
        let b = replay_analysis(&archive, cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.screens, y.screens);
            assert_eq!(x.confirmed, y.confirmed);
        }
    }
}
