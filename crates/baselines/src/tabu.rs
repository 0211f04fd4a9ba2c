//! Tabu search: forced steepest flips with a recency memory.
//!
//! Each iteration flips the bit with minimum Δ among the non-tabu bits,
//! then marks it tabu for `tenure` iterations. Aspiration: a tabu move
//! is allowed anyway when it would improve the best energy seen.

use crate::BaselineResult;
use qubo::Qubo;
use qubo_search::{DeltaAcc, DeltaTracker};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Tabu-search parameters.
#[derive(Clone, Copy, Debug)]
pub struct TabuConfig {
    /// Iterations a flipped bit stays tabu.
    pub tenure: u64,
    /// Total flips.
    pub steps: u64,
    /// RNG seed (random start vector).
    pub seed: u64,
}

/// Runs tabu search from a uniformly random start.
///
/// Uses narrow (`i32`) Δ accumulators, exactly like the virtual
/// devices: every constructible problem's Δ bound fits them (see
/// [`qubo::MAX_BITS`]). The walk is identical at `i64`, which the tests
/// keep as the reference.
///
/// # Panics
/// Panics if `steps == 0` or `tenure >= n` leaves no admissible move.
#[must_use]
pub fn solve(q: &Qubo, cfg: &TabuConfig) -> BaselineResult {
    assert!(cfg.steps > 0, "need at least one step");
    assert!(
        (cfg.tenure as usize) < q.n(),
        "tenure {} leaves no admissible bit for n = {}",
        cfg.tenure,
        q.n()
    );
    solve_width::<i32>(q, cfg)
}

fn solve_width<A: DeltaAcc>(q: &Qubo, cfg: &TabuConfig) -> BaselineResult {
    let n = q.n();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let start = qubo::BitVec::random(n, &mut rng);
    let mut t = DeltaTracker::<A>::at_width(q, &start);
    // tabu_until[i]: first iteration at which bit i may flip again.
    let mut tabu_until = vec![0u64; n];
    for it in 0..cfg.steps {
        let (_, best_e) = t.best();
        let e = t.energy();
        let mut chosen: Option<(usize, A)> = None;
        for (i, &d) in t.deltas().iter().enumerate() {
            let tabu = tabu_until[i] > it;
            let aspirates = e + d.to_energy() < best_e;
            if tabu && !aspirates {
                continue;
            }
            if chosen.is_none_or(|(_, cd)| d < cd) {
                chosen = Some((i, d));
            }
        }
        // abs-lint: allow(no-unwrap) -- documented contract: tenure < n leaves ≥ 1 non-tabu bit
        let (k, _) = chosen.expect("tenure < n guarantees a candidate");
        t.flip(k);
        tabu_until[k] = it + 1 + cfg.tenure;
    }
    let (bx, be) = t.best();
    BaselineResult {
        best: bx.clone(),
        best_energy: be,
        steps: cfg.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use rand::rngs::StdRng;

    fn random_qubo(n: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        Qubo::random(n, &mut rng)
    }

    #[test]
    fn reaches_ground_state_of_small_instance() {
        let q = random_qubo(14, 1);
        let truth = exact::solve(&q);
        let r = solve(
            &q,
            &TabuConfig {
                tenure: 5,
                steps: 20_000,
                seed: 2,
            },
        );
        assert_eq!(r.best_energy, truth.best_energy);
        assert_eq!(r.best_energy, q.energy(&r.best));
    }

    #[test]
    fn escapes_one_flip_local_minima() {
        // Forced flips + tabu must visit more distinct states than a
        // plain greedy descent stuck oscillating between two solutions.
        let q = random_qubo(20, 3);
        let r = solve(
            &q,
            &TabuConfig {
                tenure: 7,
                steps: 5_000,
                seed: 4,
            },
        );
        // Best is 1-flip optimal.
        for i in 0..20 {
            assert!(q.energy(&r.best.flipped(i)) >= r.best_energy, "bit {i}");
        }
    }

    #[test]
    fn narrow_and_wide_widths_agree() {
        let q = random_qubo(18, 9);
        let cfg = TabuConfig {
            tenure: 4,
            steps: 4_000,
            seed: 10,
        };
        let narrow = solve_width::<i32>(&q, &cfg);
        let wide = solve_width::<i64>(&q, &cfg);
        assert_eq!(narrow.best_energy, wide.best_energy);
        assert_eq!(narrow.best, wide.best);
    }

    #[test]
    fn tenure_zero_is_plain_steepest_forced_descent() {
        let q = random_qubo(16, 5);
        let r = solve(
            &q,
            &TabuConfig {
                tenure: 0,
                steps: 1_000,
                seed: 6,
            },
        );
        assert_eq!(r.best_energy, q.energy(&r.best));
    }

    #[test]
    #[should_panic(expected = "leaves no admissible bit")]
    fn oversized_tenure_rejected() {
        let q = random_qubo(8, 7);
        let _ = solve(
            &q,
            &TabuConfig {
                tenure: 8,
                steps: 10,
                seed: 0,
            },
        );
    }
}
