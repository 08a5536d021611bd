//! Degree-sequence graphicality: the engine's Erdős–Gallai test is
//! checked against an independent *constructive* oracle (Havel–Hakimi,
//! which realizes a graph or proves none exists), and every
//! Erdős–Gallai witness it reports is verified to be genuine.

use crate::gen::Lcg;
use crate::invariant::{Check, Suite};
use topogen_generators::degseq::{erdos_gallai_witness, is_graphical, EgWitness};

/// The `degseq` suite.
pub fn suite() -> Suite {
    Suite {
        name: "degseq",
        description: "Erdős–Gallai graphicality agrees with constructive realizability",
        invariants: vec![
            Box::new(Check {
                name: "eg-matches-havel-hakimi",
                property: "is_graphical agrees with an independent Havel–Hakimi \
                           construction on arbitrary degree sequences",
                oracle: "Havel–Hakimi (implemented in topogen-check, shares no code)",
                shrink_hint: "shrink the sequence length, then reduce degrees toward 0",
                max_cases: u32::MAX,
                run: eg_matches_havel_hakimi,
            }),
            Box::new(Check {
                name: "witness-recomputes",
                property: "every Erdős–Gallai witness names a genuinely violated \
                           condition, recomputable from the sorted sequence",
                oracle: "direct recomputation of the named inequality",
                shrink_hint: "shrink the sequence length, then reduce degrees toward 0",
                max_cases: u32::MAX,
                run: witness_recomputes,
            }),
        ],
    }
}

/// Havel–Hakimi: repeatedly satisfy the largest degree from the next
/// largest ones; the sequence is graphical iff the process empties.
/// Quadratic and naive on purpose — it shares no structure with the
/// Erdős–Gallai inequalities it cross-checks.
fn havel_hakimi_realizable(degrees: &[usize]) -> bool {
    let mut d: Vec<usize> = degrees.to_vec();
    loop {
        d.sort_unstable_by(|a, b| b.cmp(a));
        while d.last() == Some(&0) {
            d.pop();
        }
        let Some(&head) = d.first() else {
            return true;
        };
        if head > d.len() - 1 {
            return false;
        }
        d.remove(0);
        for slot in d.iter_mut().take(head) {
            if *slot == 0 {
                return false;
            }
            *slot -= 1;
        }
    }
}

/// A seeded batch of adversarial degree sequences: near-regular,
/// heavy-headed, sparse, and unconstrained draws — shapes that sit on
/// both sides of the graphicality boundary.
fn sequences(seed: u64, batch: usize) -> Vec<Vec<usize>> {
    let mut rng = Lcg::new(seed);
    let mut out = Vec::with_capacity(batch);
    for _ in 0..batch {
        let n = 1 + rng.below(24);
        let d: Vec<usize> = match rng.below(4) {
            // Unconstrained: degrees up to ~1.5n, frequently infeasible.
            0 => (0..n).map(|_| rng.below(3 * n / 2 + 1)).collect(),
            // Legal-range draws: the interesting boundary cases.
            1 => (0..n).map(|_| rng.below(n)).collect(),
            // Near-regular with a heavy head.
            2 => {
                let base = rng.below(n);
                let mut d: Vec<usize> = (0..n).map(|_| base.min(n - 1)).collect();
                d[0] = rng.below(2 * n + 1);
                d
            }
            // Mostly-ones with a few spikes (power-law caricature).
            _ => (0..n)
                .map(|i| if i % 7 == 0 { rng.below(n + 3) } else { 1 })
                .collect(),
        };
        out.push(d);
    }
    out
}

fn eg_matches_havel_hakimi(seed: u64) -> Result<(), String> {
    for d in sequences(seed, 200) {
        let eg = is_graphical(&d);
        let hh = havel_hakimi_realizable(&d);
        if eg != hh {
            return Err(format!(
                "oracles disagree on {d:?}: Erdős–Gallai says {eg}, Havel–Hakimi says {hh}"
            ));
        }
    }
    Ok(())
}

fn witness_recomputes(seed: u64) -> Result<(), String> {
    for d in sequences(seed ^ 0x9e3779b97f4a7c15, 200) {
        match erdos_gallai_witness(&d) {
            None => {
                if !havel_hakimi_realizable(&d) {
                    return Err(format!("no witness for unrealizable {d:?}"));
                }
            }
            Some(EgWitness::OddSum { sum }) => {
                let actual: usize = d.iter().sum();
                if sum != actual || sum % 2 == 0 {
                    return Err(format!("bogus odd-sum witness {sum} for {d:?}"));
                }
            }
            Some(EgWitness::Prefix {
                k,
                prefix_sum,
                bound,
            }) => {
                let mut s = d.clone();
                s.sort_unstable_by(|a, b| b.cmp(a));
                if k == 0 || k > s.len() {
                    return Err(format!("witness k={k} out of range for {d:?}"));
                }
                let lhs: usize = s[..k].iter().sum();
                let rhs: usize = k * (k - 1) + s[k..].iter().map(|&x| x.min(k)).sum::<usize>();
                if (prefix_sum, bound) != (lhs, rhs) || prefix_sum <= bound {
                    return Err(format!(
                        "witness ({prefix_sum} > {bound}) at k={k} does not recompute \
                         for {d:?}: actual {lhs} vs {rhs}"
                    ));
                }
            }
        }
    }
    Ok(())
}
