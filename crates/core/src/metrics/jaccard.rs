//! Jaccard similarity and the Average Jaccard Similarity (AJS) of Eq. (1).

use taopt_app_sim::MethodSet;

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` of two covered-method sets.
///
/// Returns 1.0 for two empty sets (identical).
pub fn jaccard(a: &MethodSet, b: &MethodSet) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection_len(b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// The paper's Average Jaccard Similarity (Eq. 1): the mean pairwise
/// Jaccard similarity over all `C(n,2)` pairs of instance coverage sets.
///
/// Returns 0.0 for fewer than two sets.
pub fn average_jaccard(sets: &[MethodSet]) -> f64 {
    let n = sets.len();
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            total += jaccard(&sets[i], &sets[j]);
            pairs += 1;
        }
    }
    total / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_app_sim::MethodId;

    fn set(v: &[u32]) -> MethodSet {
        let mut s = MethodSet::default();
        s.extend(v.iter().map(|&m| MethodId(m)));
        s
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&set(&[1, 2]), &set(&[1, 2])), 1.0);
        assert_eq!(jaccard(&set(&[1, 2]), &set(&[3, 4])), 0.0);
        assert!((jaccard(&set(&[1, 2, 3]), &set(&[2, 3, 4])) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&set(&[]), &set(&[])), 1.0);
        assert_eq!(jaccard(&set(&[1]), &set(&[])), 0.0);
        // Sets of different word lengths.
        assert!((jaccard(&set(&[1, 2]), &set(&[2, 300])) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ajs_averages_all_pairs() {
        let sets = vec![set(&[1, 2]), set(&[1, 2]), set(&[3, 4])];
        // Pairs: (0,1)=1.0, (0,2)=0.0, (1,2)=0.0 → mean 1/3.
        assert!((average_jaccard(&sets) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ajs_degenerate_inputs() {
        assert_eq!(average_jaccard(&[]), 0.0);
        assert_eq!(average_jaccard(&[set(&[1])]), 0.0);
    }

    #[test]
    fn paper_example_91_percent_overlap() {
        // §3.2: two instances covering 100 methods each with Jaccard 0.84
        // share ~91 methods. Verify the arithmetic: |A∩B| = 0.84·|A∪B|,
        // |A|=|B|=100 ⇒ inter = 0.84·(200−inter) ⇒ inter ≈ 91.3.
        let inter: f64 = 0.84 * 200.0 / 1.84;
        assert!((inter - 91.3).abs() < 0.1);
    }
}
