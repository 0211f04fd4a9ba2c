//! Exhaustive exact solver via Gray-code enumeration.
//!
//! Visits all `2ⁿ` solutions in Gray-code order, so consecutive
//! solutions differ by one bit and the incremental Δ update applies:
//! total cost O(n·2ⁿ) instead of O(n²·2ⁿ). Practical to ~26 bits; used
//! as ground truth in tests and small benchmarks.
//!
//! The walk runs the scalar flip arm on purpose: this oracle pins the
//! AVX-512 arm end to end, so it must not run on that arm itself.

use crate::BaselineResult;
use qubo::Qubo;
use qubo_search::{DeltaTracker, FlipKernel};

/// Maximum problem size accepted by [`solve`].
pub const MAX_EXACT_BITS: usize = 26;

/// Finds the exact ground state by Gray-code enumeration.
///
/// # Panics
/// Panics if `q.n() > MAX_EXACT_BITS`.
#[must_use]
pub fn solve(q: &Qubo) -> BaselineResult {
    let n = q.n();
    assert!(
        n <= MAX_EXACT_BITS,
        "exact enumeration limited to {MAX_EXACT_BITS} bits (got {n})"
    );
    let mut t = DeltaTracker::with_kernel(q, FlipKernel::Scalar);
    // Standard reflected Gray code: step k flips the position of the
    // lowest set bit of k. 2ⁿ − 1 flips visit every solution once.
    let total: u64 = 1u64 << n;
    let mut best_e = t.energy();
    let mut best = t.x().clone();
    for k in 1..total {
        let bit = k.trailing_zeros() as usize;
        t.flip(bit);
        if t.energy() < best_e {
            best_e = t.energy();
            best.copy_from(t.x());
        }
    }
    BaselineResult {
        best,
        best_energy: best_e,
        steps: total - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubo::BitVec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_brute_force_on_small_instances() {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let q = Qubo::random(10, &mut rng);
            let r = solve(&q);
            assert_eq!(r.best_energy, q.energy(&r.best));
            let mut expect = i64::MAX;
            for bits in 0u32..1024 {
                let x = BitVec::from_bits(
                    &(0..10).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>(),
                );
                expect = expect.min(q.energy(&x));
            }
            assert_eq!(r.best_energy, expect, "seed {seed}");
        }
    }

    #[test]
    fn visits_every_solution() {
        let q = Qubo::from_rows(2, &[[0, 0], [0, 0]]).unwrap();
        let r = solve(&q);
        assert_eq!(r.steps, 3); // 2² − 1 flips
        assert_eq!(r.best_energy, 0);
    }

    #[test]
    fn finds_planted_optimum() {
        // Plant a unique strongly-negative clique on bits {1, 3, 5}.
        let mut q = Qubo::zero(8).unwrap();
        for &i in &[1usize, 3, 5] {
            q.set(i, i, -100);
        }
        q.set(1, 3, -50);
        q.set(3, 5, -50);
        q.set(1, 5, -50);
        // Penalize everything else.
        for i in [0usize, 2, 4, 6, 7] {
            q.set(i, i, 10);
        }
        let r = solve(&q);
        assert_eq!(r.best.to_string(), "01010100");
        assert_eq!(r.best_energy, 3 * -100 + 2 * 3 * -50);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn oversized_problem_rejected() {
        let q = Qubo::zero(MAX_EXACT_BITS + 1).unwrap();
        let _ = solve(&q);
    }
}
