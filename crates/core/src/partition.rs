//! Offline conservative subspace partitioning (preliminary study, §3.1).
//!
//! The paper's study applies "an offline UI subspace partition algorithm
//! … on the traces", segmenting "conservatively, requiring both low
//! inter-region transition probabilities and high internal cohesion before
//! partitioning". This module implements that algorithm as greedy
//! agglomerative clustering on the empirical transition graph: clusters
//! are merged while their symmetric conductance exceeds a coupling
//! threshold, so the final clusters are pairwise loosely coupled.
//!
//! The implementation maintains cluster-pair cut weights and volumes
//! incrementally, so a full partition of a `D`-screen graph costs
//! `O(D³)` cheap float operations rather than recomputing conductance
//! from edges at every step.

use std::collections::{BTreeSet, HashMap};

use taopt_ui_model::{AbstractScreenId, StochasticDigraph, Trace, VirtualDuration};

use crate::findspace::{find_space, FindSpaceConfig};

/// Configuration for the offline partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Clusters with symmetric conductance above this keep merging.
    pub coupling_threshold: f64,
    /// Discard result clusters smaller than this (noise screens).
    pub min_cluster_size: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            coupling_threshold: 0.15,
            min_cluster_size: 2,
        }
    }
}

/// Incremental agglomerative clustering state.
struct Agglomerator {
    /// Directed cut weight between live clusters.
    w: Vec<Vec<f64>>,
    /// Internal edge weight per cluster.
    internal: Vec<f64>,
    /// Total outgoing weight (standard volume) per cluster.
    out_total: Vec<f64>,
    /// Members per cluster.
    members: Vec<Vec<u64>>,
    /// Live flags.
    alive: Vec<bool>,
}

impl Agglomerator {
    fn new(g: &StochasticDigraph) -> Self {
        let nodes: Vec<u64> = g.nodes().collect();
        let index: HashMap<u64, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let d = nodes.len();
        let mut w = vec![vec![0.0; d]; d];
        let internal = vec![0.0; d];
        for (from, to, weight) in g.edges() {
            let (i, j) = (index[&from], index[&to]);
            if i != j {
                w[i][j] += weight;
            }
        }
        // Self-loops count as internal weight; volumes are the standard
        // total-outgoing-weight (the paper's Eq. 2 volume degenerates to
        // ~0 on singleton clusters of a normalized graph, so the offline
        // partitioner uses the standard, monotone notion instead).
        let mut agg = Agglomerator {
            w,
            internal,
            out_total: vec![0.0; d],
            members: nodes.iter().map(|n| vec![*n]).collect(),
            alive: vec![true; d],
        };
        for (from, to, weight) in g.edges() {
            if from == to {
                agg.internal[index[&from]] += weight;
            }
            agg.out_total[index[&from]] += weight;
        }
        agg
    }

    /// Symmetric conductance between live clusters, with standard volumes.
    fn coupling(&self, i: usize, j: usize) -> f64 {
        let denom = self.out_total[i].min(self.out_total[j]);
        if denom <= 0.0 {
            return 0.0;
        }
        self.w[i][j].max(self.w[j][i]) / denom
    }

    /// Merges cluster `j` into `i`.
    fn merge(&mut self, i: usize, j: usize) {
        self.internal[i] += self.internal[j] + self.w[i][j] + self.w[j][i];
        self.out_total[i] += self.out_total[j];
        let d = self.w.len();
        for k in 0..d {
            if k != i && k != j && self.alive[k] {
                self.w[i][k] += self.w[j][k];
                self.w[k][i] += self.w[k][j];
            }
        }
        self.w[i][j] = 0.0;
        self.w[j][i] = 0.0;
        let moved = std::mem::take(&mut self.members[j]);
        self.members[i].extend(moved);
        self.alive[j] = false;
    }

    fn run(mut self, threshold: f64) -> Vec<BTreeSet<u64>> {
        let d = self.w.len();
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..d {
                if !self.alive[i] {
                    continue;
                }
                for j in i + 1..d {
                    if !self.alive[j] {
                        continue;
                    }
                    let c = self.coupling(i, j);
                    if c > threshold && best.map(|(_, _, b)| c > b).unwrap_or(true) {
                        best = Some((i, j, c));
                    }
                }
            }
            match best {
                Some((i, j, _)) => self.merge(i, j),
                None => break,
            }
        }
        (0..d)
            .filter(|i| self.alive[*i])
            .map(|i| self.members[i].iter().copied().collect())
            .collect()
    }
}

/// Partitions a transition graph into loosely coupled clusters.
///
/// Greedy agglomeration: start with singletons, repeatedly merge the pair
/// with the highest symmetric conductance while it exceeds
/// [`PartitionConfig::coupling_threshold`]. Conservative by construction —
/// screens are split apart only when the evidence of loose coupling
/// (low residual conductance) is strong.
pub fn partition_graph(g: &StochasticDigraph, config: &PartitionConfig) -> Vec<BTreeSet<u64>> {
    let mut clusters = Agglomerator::new(g).run(config.coupling_threshold);
    clusters.retain(|c| c.len() >= config.min_cluster_size);
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    clusters
}

/// Recursively segments one trace at `FindSpace` split points; returns the
/// distinct-screen set of each segment.
///
/// This is the paper's offline subspace partition "based on the algorithm
/// introduced in Section 5.2": the same split criterion is applied
/// repeatedly to the trace pieces until no piece contains a loosely
/// coupled boundary.
pub fn segment_trace(
    trace: &Trace,
    fs_config: &FindSpaceConfig,
) -> Vec<BTreeSet<AbstractScreenId>> {
    fn rec(
        events: &[taopt_ui_model::TraceEvent],
        cfg: &FindSpaceConfig,
        out: &mut Vec<BTreeSet<AbstractScreenId>>,
        depth: usize,
    ) {
        if depth < 12 {
            if let Some(split) = find_space(events, cfg) {
                if split.index > 0 && split.index < events.len() {
                    rec(&events[..split.index], cfg, out, depth + 1);
                    rec(&events[split.index..], cfg, out, depth + 1);
                    return;
                }
            }
        }
        if !events.is_empty() {
            out.push(events.iter().map(|e| e.abstract_id).collect());
        }
    }
    let mut out = Vec::new();
    rec(trace.events(), fs_config, &mut out, 0);
    out
}

/// The paper's offline subspace partition: segment every trace with
/// `FindSpace`, then merge segment screen-sets that overlap (Jaccard
/// ≥ 0.4) into subspaces. Conservative: only clearly loose
/// boundaries split segments, and overlapping segments re-merge.
pub fn partition_traces(
    traces: &[&Trace],
    config: &PartitionConfig,
) -> Vec<BTreeSet<AbstractScreenId>> {
    let fs_config = FindSpaceConfig {
        l_min: VirtualDuration::from_secs(30),
        ..FindSpaceConfig::default()
    };
    let mut subspaces: Vec<BTreeSet<AbstractScreenId>> = Vec::new();
    for t in traces {
        for seg in segment_trace(t, &fs_config) {
            if seg.len() < config.min_cluster_size {
                continue;
            }
            match subspaces
                .iter_mut()
                .find(|s| screen_jaccard(s, &seg) >= 0.4)
            {
                Some(existing) => existing.extend(seg),
                None => subspaces.push(seg),
            }
        }
    }
    subspaces.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    subspaces
}

/// Jaccard similarity of two screen sets; segments are never empty.
fn screen_jaccard(a: &BTreeSet<AbstractScreenId>, b: &BTreeSet<AbstractScreenId>) -> f64 {
    let inter = a.intersection(b).count();
    inter as f64 / (a.len() + b.len() - inter) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductance::partition_score;

    /// Two dense 4-cliques bridged by one weak edge pair.
    fn gs_ld_graph() -> StochasticDigraph {
        let mut g = StochasticDigraph::new();
        let cliques: [&[u64]; 2] = [&[1, 2, 3, 4], &[11, 12, 13, 14]];
        for clique in cliques {
            for &a in clique {
                for &b in clique {
                    if a != b {
                        g.add_edge(a, b, 1.0).unwrap();
                    }
                }
            }
        }
        g.add_edge(1, 11, 0.05).unwrap();
        g.add_edge(11, 1, 0.05).unwrap();
        g.normalized()
    }

    #[test]
    fn recovers_the_two_cliques() {
        let clusters = partition_graph(&gs_ld_graph(), &PartitionConfig::default());
        assert_eq!(clusters.len(), 2, "clusters: {clusters:?}");
        let a: BTreeSet<u64> = [1, 2, 3, 4].into_iter().collect();
        let b: BTreeSet<u64> = [11, 12, 13, 14].into_iter().collect();
        assert!(clusters.contains(&a));
        assert!(clusters.contains(&b));
    }

    #[test]
    fn recovered_partition_minimizes_conductance() {
        let g = gs_ld_graph();
        let clusters = partition_graph(&g, &PartitionConfig::default());
        let score = partition_score(&g, &clusters);
        assert!(score < 0.1, "recovered partition couples at {score}");
    }

    #[test]
    fn strongly_coupled_graph_stays_one_cluster() {
        let mut g = StochasticDigraph::new();
        for a in 1..=4u64 {
            for b in 1..=4u64 {
                if a != b {
                    g.add_edge(a, b, 1.0).unwrap();
                }
            }
        }
        let clusters = partition_graph(&g.normalized(), &PartitionConfig::default());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 4);
    }

    #[test]
    fn min_cluster_size_drops_noise() {
        let mut g = gs_ld_graph();
        g.add_node(99); // isolated screen: a one-off dialog.
        let clusters = partition_graph(&g, &PartitionConfig::default());
        assert!(clusters.iter().all(|c| !c.contains(&99)));
    }

    #[test]
    fn partition_traces_on_synthetic_walks() {
        use crate::findspace::tests::two_cluster_trace;
        let t: Trace = two_cluster_trace(60, 60).into_iter().collect();
        let clusters = partition_traces(&[&t], &PartitionConfig::default());
        assert_eq!(
            clusters.len(),
            2,
            "walk through two clusters should yield 2 subspaces, got {clusters:?}"
        );
        assert!(clusters.iter().all(|c| c.len() == 5));
    }

    #[test]
    fn segments_merge_across_traces() {
        use crate::findspace::tests::two_cluster_trace;
        // Two instances visiting the same two clusters in opposite order
        // still yield two subspaces overall.
        let t1: Trace = two_cluster_trace(60, 60).into_iter().collect();
        let mut rev = two_cluster_trace(60, 60);
        rev.reverse();
        for (i, e) in rev.iter_mut().enumerate() {
            e.time = taopt_ui_model::VirtualTime::from_secs(2 * i as u64);
        }
        let t2: Trace = rev.into_iter().collect();
        let clusters = partition_traces(&[&t1, &t2], &PartitionConfig::default());
        assert_eq!(clusters.len(), 2, "got {clusters:?}");
    }

    #[test]
    fn scales_to_hundreds_of_nodes() {
        // 8 cliques of 25 nodes: 200 nodes total, partitioned quickly. The
        // coupling threshold must sit below the intra-clique singleton
        // conductance (1/24) and above the inter-clique one (~0.0004).
        let mut g = StochasticDigraph::new();
        for c in 0..8u64 {
            let base = c * 100;
            for a in 0..25u64 {
                for b in 0..25u64 {
                    if a != b {
                        g.add_edge(base + a, base + b, 1.0).unwrap();
                    }
                }
            }
            g.add_edge(base, (base + 100) % 800, 0.01).unwrap();
        }
        let cfg = PartitionConfig {
            coupling_threshold: 0.01,
            min_cluster_size: 2,
        };
        let clusters = partition_graph(&g.normalized(), &cfg);
        assert_eq!(clusters.len(), 8);
        assert!(clusters.iter().all(|c| c.len() == 25));
    }
}
