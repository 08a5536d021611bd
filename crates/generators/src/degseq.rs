//! Degree-sequence machinery shared by the degree-based generators.
//!
//! Power-law sampling (the PLRG's input, §3.1.2), Erdős–Gallai
//! feasibility (the "feasibility test" Inet performs, Appendix D.1),
//! complementary-cumulative degree distributions (Appendix A, Figure 6),
//! and power-law exponent estimation used to verify that generated graphs
//! really are heavy-tailed.

use rand::Rng;
use topogen_graph::Graph;

/// Draw `n` degrees from a discrete power law: `P(degree = k) ∝ k^(-alpha)`
/// for `k` in `1..=min(max_degree, n - 1)` (at least `1..=1`): no node of
/// an `n`-node simple graph has more neighbours, and the bound keeps the
/// support finite when `n^(1/(alpha-1))` saturates for `alpha` near 1.
/// The PLRG instances of Figure 1 use `alpha ≈ 2.25`, with the max degree
/// naturally capped near `n^(1/(alpha-1))`.
///
/// Sampling inverts the CDF over the truncated support — O(max_degree)
/// setup, O(log max_degree) per draw.
///
/// # Panics
/// Panics if `alpha <= 1.0` (non-normalizable on unbounded support and
/// degenerate for our purposes) or `max_degree == 0`.
pub fn power_law_degrees<R: Rng>(
    n: usize,
    alpha: f64,
    max_degree: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(alpha > 1.0, "power-law exponent must exceed 1");
    assert!(max_degree >= 1);
    let max_degree = max_degree.min(n.saturating_sub(1)).max(1);
    // Truncated CDF.
    let mut cdf = Vec::with_capacity(max_degree);
    let mut acc = 0.0f64;
    for k in 1..=max_degree {
        acc += (k as f64).powf(-alpha);
        cdf.push(acc);
    }
    let total = acc;
    (0..n)
        .map(|_| {
            let r = rng.gen::<f64>() * total;
            // First index with cdf >= r.
            match cdf.binary_search_by(|c| c.partial_cmp(&r).unwrap()) {
                Ok(i) => i + 1,
                Err(i) => (i + 1).min(max_degree),
            }
        })
        .collect()
}

/// Natural max-degree cutoff for an `n`-node power law with exponent
/// `alpha`: approximately `n^(1/(alpha-1))`, the expected maximum of `n`
/// i.i.d. Pareto draws.
pub fn natural_cutoff(n: usize, alpha: f64) -> usize {
    ((n as f64).powf(1.0 / (alpha - 1.0)).round() as usize).max(1)
}

/// Erdős–Gallai test: is the degree sequence realizable by some simple
/// graph? (Sum must be even and the k-prefix inequalities must hold.)
pub fn is_graphical(degrees: &[usize]) -> bool {
    erdos_gallai_witness(degrees).is_none()
}

/// Why a degree sequence fails the Erdős–Gallai test: the concrete
/// violated condition, suitable for error reports and for differential
/// checking against an independent realizability oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EgWitness {
    /// The degree sum is odd — no simple graph has an odd handshake
    /// total.
    OddSum {
        /// The offending (odd) degree sum.
        sum: usize,
    },
    /// The `k` largest degrees demand more edge endpoints than the
    /// `k`-clique plus the rest of the graph can supply:
    /// `Σ_{i≤k} d_i > k(k-1) + Σ_{i>k} min(d_i, k)`.
    Prefix {
        /// 1-based prefix length of the first failing inequality.
        k: usize,
        /// Sum of the `k` largest degrees (the left-hand side).
        prefix_sum: usize,
        /// The right-hand side the prefix sum exceeded.
        bound: usize,
    },
}

/// The first violated Erdős–Gallai condition of `degrees`, or `None`
/// when the sequence is graphical. A degree `≥ n` always surfaces as a
/// `k = 1` prefix violation (its bound tops out at `n - 1`).
pub fn erdos_gallai_witness(degrees: &[usize]) -> Option<EgWitness> {
    let n = degrees.len();
    if n == 0 {
        return None;
    }
    let mut d: Vec<usize> = degrees.to_vec();
    d.sort_unstable_by(|a, b| b.cmp(a));
    let sum: usize = d.iter().sum();
    if !sum.is_multiple_of(2) {
        return Some(EgWitness::OddSum { sum });
    }
    // Prefix sums for the left-hand side.
    let mut prefix = vec![0usize; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + d[i];
    }
    for k in 1..=n {
        let lhs = prefix[k];
        let mut rhs = k * (k - 1);
        for &di in &d[k..] {
            rhs += di.min(k);
        }
        if lhs > rhs {
            return Some(EgWitness::Prefix {
                k,
                prefix_sum: lhs,
                bound: rhs,
            });
        }
    }
    None
}

/// Make a degree sequence graphical by decrementing the largest degree
/// until the sum is even (the standard PLRG fix-up; changes at most one
/// entry by one). Degrees of zero are preserved.
pub fn evenize(degrees: &mut [usize]) {
    let sum: usize = degrees.iter().sum();
    if sum % 2 == 1 {
        if let Some(i) = (0..degrees.len()).max_by_key(|&i| degrees[i]) {
            if degrees[i] > 0 {
                degrees[i] -= 1;
            }
        }
    }
}

/// One point of a complementary cumulative distribution function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CcdfPoint {
    /// Degree value `k`.
    pub degree: usize,
    /// Fraction of nodes with degree ≥ `k`.
    pub fraction: f64,
}

/// Complementary cumulative degree distribution of a graph — the curves of
/// Appendix A (Figure 6): for each observed degree `k`, the fraction of
/// nodes with degree ≥ `k`. Sorted by degree ascending.
pub fn degree_ccdf(g: &Graph) -> Vec<CcdfPoint> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut degs: Vec<usize> = g.degrees();
    degs.sort_unstable();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        let k = degs[i];
        // Nodes with degree >= k are those from index i on... but we must
        // emit the fraction at each distinct k.
        out.push(CcdfPoint {
            degree: k,
            fraction: (n - i) as f64 / n as f64,
        });
        let mut j = i;
        while j < n && degs[j] == k {
            j += 1;
        }
        i = j;
    }
    out
}

/// Maximum-likelihood estimate of the power-law exponent `alpha` for a
/// discrete sample with `x >= x_min` (Clauset–Shalizi–Newman approximate
/// MLE: `1 + n / Σ ln(x_i / (x_min − ½))`). Returns `None` when fewer
/// than 10 samples qualify.
pub fn fit_power_law_exponent(degrees: &[usize], x_min: usize) -> Option<f64> {
    let xm = x_min.max(1) as f64;
    let tail: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d >= x_min.max(1))
        .map(|&d| d as f64)
        .collect();
    if tail.len() < 10 {
        return None;
    }
    let s: f64 = tail.iter().map(|&x| (x / (xm - 0.5)).ln()).sum();
    Some(1.0 + tail.len() as f64 / s)
}

/// Heavy-tail check used by the experiment harness: the ratio of the
/// maximum degree to the mean degree. Power-law graphs have ratios in the
/// tens-to-hundreds; exponential-tailed graphs (ER random, structural
/// generators) stay in single digits.
pub fn max_to_mean_degree_ratio(g: &Graph) -> f64 {
    let mean = g.average_degree();
    if mean == 0.0 {
        0.0
    } else {
        g.max_degree() as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn power_law_sample_range_and_bias() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = power_law_degrees(20_000, 2.2, 100, &mut rng);
        assert!(d.iter().all(|&x| (1..=100).contains(&x)));
        // Degree 1 should dominate: for alpha=2.2, P(1)≈1/ζ(2.2)≈0.65.
        let ones = d.iter().filter(|&&x| x == 1).count() as f64 / d.len() as f64;
        assert!((0.55..0.80).contains(&ones), "P(deg=1) = {ones}");
        // And some mass must reach the tail.
        assert!(d.iter().any(|&x| x >= 20));
    }

    #[test]
    fn power_law_exponent_recovered() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = power_law_degrees(50_000, 2.5, 1000, &mut rng);
        let alpha = fit_power_law_exponent(&d, 2).unwrap();
        assert!((alpha - 2.5).abs() < 0.15, "fitted alpha = {alpha}");
    }

    #[test]
    fn power_law_support_stops_at_n_minus_one() {
        // n^(1/(alpha-1)) = 200^100 saturates to usize::MAX.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200;
        let d = power_law_degrees(n, 1.01, natural_cutoff(n, 1.01), &mut rng);
        assert_eq!(d.len(), n);
        assert!(d.iter().all(|&x| (1..n).contains(&x)));
        assert_eq!(power_law_degrees(1, 2.2, 50, &mut rng), vec![1]);
    }

    #[test]
    #[should_panic]
    fn power_law_rejects_alpha_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = power_law_degrees(10, 1.0, 10, &mut rng);
    }

    #[test]
    fn witness_agrees_with_is_graphical_and_recomputes() {
        // The witness is the reason `is_graphical` says no: absent iff
        // graphical, and its fields recompute from the sorted sequence.
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0, 0],
            vec![1, 1],
            vec![3, 3, 3, 3],
            vec![1, 1, 1],          // odd sum
            vec![5, 1, 1, 1],       // k = 1 violation (degree >= n)
            vec![3, 3, 3, 1, 1, 1], // k = 3 violation
            vec![4, 4, 4, 4, 4],
        ];
        for d in cases {
            match erdos_gallai_witness(&d) {
                None => assert!(is_graphical(&d), "{d:?}"),
                Some(EgWitness::OddSum { sum }) => {
                    assert!(!is_graphical(&d));
                    assert_eq!(sum, d.iter().sum::<usize>());
                    assert!(sum % 2 == 1);
                }
                Some(EgWitness::Prefix {
                    k,
                    prefix_sum,
                    bound,
                }) => {
                    assert!(!is_graphical(&d));
                    let mut s = d.clone();
                    s.sort_unstable_by(|a, b| b.cmp(a));
                    let lhs: usize = s[..k].iter().sum();
                    let rhs: usize = k * (k - 1) + s[k..].iter().map(|&x| x.min(k)).sum::<usize>();
                    assert_eq!((prefix_sum, bound), (lhs, rhs), "{d:?} at k={k}");
                    assert!(prefix_sum > bound);
                }
            }
        }
    }

    #[test]
    fn natural_cutoff_scales() {
        assert_eq!(natural_cutoff(10_000, 3.0), 100);
        assert!(natural_cutoff(10_000, 2.0) == 10_000);
        assert!(natural_cutoff(1, 2.5) >= 1);
    }

    #[test]
    fn graphical_known_cases() {
        assert!(is_graphical(&[])); // empty
        assert!(is_graphical(&[0, 0]));
        assert!(is_graphical(&[1, 1]));
        assert!(!is_graphical(&[1])); // odd sum
        assert!(is_graphical(&[2, 2, 2])); // triangle
        assert!(!is_graphical(&[3, 3])); // degree >= n
        assert!(is_graphical(&[3, 3, 3, 3])); // K4
        assert!(!is_graphical(&[4, 1, 1, 1])); // sum odd? 7 → odd, also infeasible
        assert!(is_graphical(&[4, 1, 1, 1, 1])); // star K_{1,4}
        assert!(!is_graphical(&[5, 5, 4, 1, 1])); // classic EG failure
    }

    #[test]
    fn evenize_fixes_parity() {
        let mut d = vec![3, 2, 2];
        evenize(&mut d);
        assert_eq!(d.iter().sum::<usize>() % 2, 0);
        assert_eq!(d, vec![2, 2, 2]);
        let mut e = vec![2, 2];
        evenize(&mut e);
        assert_eq!(e, vec![2, 2]); // untouched when already even
    }

    #[test]
    fn ccdf_star() {
        use topogen_graph::Graph;
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let c = degree_ccdf(&g);
        assert_eq!(
            c,
            vec![
                CcdfPoint {
                    degree: 1,
                    fraction: 1.0
                },
                CcdfPoint {
                    degree: 4,
                    fraction: 0.2
                },
            ]
        );
    }

    #[test]
    fn ccdf_monotone_nonincreasing() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = crate::canonical::random_gnp(300, 0.02, &mut rng);
        let c = degree_ccdf(&g);
        assert!(c.windows(2).all(|w| w[0].fraction >= w[1].fraction));
        assert!(c.windows(2).all(|w| w[0].degree < w[1].degree));
        assert_eq!(c.first().map(|p| p.fraction), Some(1.0));
    }

    #[test]
    fn ccdf_empty() {
        assert!(degree_ccdf(&Graph::empty(0)).is_empty());
    }

    #[test]
    fn fit_requires_samples() {
        assert_eq!(fit_power_law_exponent(&[5; 5], 1), None);
    }

    #[test]
    fn ratio_distinguishes_star_from_ring() {
        let star = Graph::from_edges(100, (1..100).map(|i| (0, i)));
        let ring = crate::canonical::ring(100);
        assert!(max_to_mean_degree_ratio(&star) > 10.0);
        assert!(max_to_mean_degree_ratio(&ring) < 2.0);
    }
}
