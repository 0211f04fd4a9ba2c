//! Property-based equivalence tests for the flip kernel arms: the
//! AVX-512 arm (where the host supports it) must be bit-for-bit
//! indistinguishable from the scalar fused `i32` path, from the `i64`
//! reference tracker, and from the O(n) definition
//! `Δ_k(X) = E(flip_k(X)) − E(X)` they maintain.
//!
//! The suite is kernel-explicit: every arm is constructed by name via
//! `DeltaTracker::with_kernel`, so running it with `ABS_FORCE_SCALAR=1`
//! (the CI weekly job does) still exercises both arms — only the
//! `detect()`-based default changes.

use proptest::prelude::*;
use qubo::Qubo;
use qubo_search::{DeltaTracker, FlipKernel};

/// Strategy: a small random symmetric QUBO with full-range i16 weights.
/// Sizes deliberately straddle the 16-lane AVX-512 chunk and the
/// 32-lane padded row (lane-multiple and non-multiple `n`), so the
/// padded sentinel entries are always in play.
fn arb_qubo(max_n: usize) -> impl Strategy<Value = Qubo> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(i16::MIN..=i16::MAX, n * (n + 1) / 2).prop_map(move |tri| {
            let mut q = Qubo::zero(n).expect("size");
            let mut it = tri.into_iter();
            for i in 0..n {
                for j in i..n {
                    q.set(i, j, it.next().expect("enough"));
                }
            }
            q
        })
    })
}

/// The kernel arms available on this host: Scalar always, plus AVX-512
/// when the CPU supports it (checked directly, so the suite covers it
/// even when `detect()` is pinned by `ABS_FORCE_SCALAR`).
fn arms() -> Vec<FlipKernel> {
    [FlipKernel::Scalar, FlipKernel::Avx512]
        .into_iter()
        .filter(|k| k.is_supported())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every kernel arm walks the identical trajectory through the fused
    /// flip+select path: same selections, same bits, same energies, same
    /// Δ vectors, same best records — at every step.
    #[test]
    fn all_kernel_arms_walk_identically(
        q in arb_qubo(37),
        seed in any::<u64>(),
    ) {
        let n = q.n();
        let mut trackers: Vec<DeltaTracker<'_, i32>> = arms()
            .into_iter()
            .map(|k| DeltaTracker::<i32>::with_kernel(&q, k))
            .collect();
        let mut k = (seed as usize) % n;
        let mut s = seed;
        for _ in 0..64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (s >> 33) as usize % n;
            let l = 1 + (s as usize % n);
            let picks: Vec<usize> = trackers
                .iter_mut()
                .map(|t| t.flip_select(k, (a, l)))
                .collect();
            for w in picks.windows(2) {
                prop_assert_eq!(w[0], w[1], "kernel arms disagree on selection");
            }
            let (head, rest) = trackers.split_first().expect("at least scalar");
            for t in rest {
                prop_assert_eq!(head.x(), t.x());
                prop_assert_eq!(head.energy(), t.energy());
                prop_assert_eq!(head.deltas(), t.deltas());
                prop_assert_eq!(head.best().0, t.best().0);
                prop_assert_eq!(head.best().1, t.best().1);
            }
            k = picks[0];
        }
        for t in &trackers {
            t.verify(); // Δ vector vs the O(n) oracle, pads intact
        }
    }

    /// Every arm against the definition directly: after a walk, each
    /// maintained Δ entry equals the naive `E(flip_k(X)) − E(X)` recompute
    /// (the same oracle `naive.rs`'s Algorithm 2 evaluates per flip).
    #[test]
    fn maintained_deltas_match_the_naive_oracle(
        q in arb_qubo(29),
        seed in any::<u64>(),
    ) {
        let n = q.n();
        for kernel in arms() {
            let mut t = DeltaTracker::<i32>::with_kernel(&q, kernel);
            let mut s = seed;
            for _ in 0..32 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                t.flip((s >> 33) as usize % n);
            }
            prop_assert_eq!(t.energy(), q.energy(t.x()));
            for i in 0..n {
                prop_assert_eq!(i64::from(t.deltas()[i]), q.delta(t.x(), i));
            }
        }
    }

    /// Tail handling around the chunk width: for `n` spanning half to
    /// more than one 16-lane AVX-512 chunk, all arms agree with the wide
    /// scalar reference (the padded sentinel entries must be inert).
    #[test]
    fn non_lane_multiple_sizes_keep_arms_identical(
        n in 6usize..=18,
        seed in any::<u64>(),
        weights in proptest::collection::vec(i16::MIN..=i16::MAX, 55),
    ) {
        let mut q = Qubo::zero(n).expect("size");
        let mut it = weights.into_iter().cycle();
        for i in 0..n {
            for j in i..n {
                q.set(i, j, it.next().expect("cycled"));
            }
        }
        let mut wide = DeltaTracker::<i64>::with_width(&q);
        let mut narrow: Vec<DeltaTracker<'_, i32>> = arms()
            .into_iter()
            .map(|k| DeltaTracker::<i32>::with_kernel(&q, k))
            .collect();
        let mut s = seed;
        for _ in 0..40 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (s >> 33) as usize % n;
            wide.flip(k);
            for t in &mut narrow {
                t.flip(k);
                prop_assert_eq!(t.energy(), wide.energy());
                let widened: Vec<i64> =
                    t.deltas().iter().map(|&v| i64::from(v)).collect();
                prop_assert_eq!(&widened[..], wide.deltas());
            }
        }
    }
}

/// The `delta_bound` i32 boundary: a dense max-magnitude problem drives
/// every Δ to the extreme of the construction-checked bound; the ±2W
/// increments must stay exact there in every arm (including the
/// AVX-512 arm's wrapping pre-bias of the flipped lane).
#[test]
fn extreme_weights_at_the_delta_bound_stay_exact() {
    for n in [8usize, 31, 33] {
        let mut q = Qubo::zero(n).expect("size");
        for i in 0..n {
            for j in i..n {
                // Alternate the two extremes so both signs of ±2W appear.
                let w = if (i + j) % 2 == 0 { i16::MAX } else { i16::MIN };
                q.set(i, j, w);
            }
        }
        assert!(i64::from(i32::MAX) >= q.delta_bound());
        assert!(DeltaTracker::<i32>::fits(&q));
        let mut wide = DeltaTracker::<i64>::with_width(&q);
        let mut narrow: Vec<DeltaTracker<'_, i32>> = arms()
            .into_iter()
            .map(|k| DeltaTracker::<i32>::with_kernel(&q, k))
            .collect();
        // All-ones then back: every coupling contributes at full weight.
        for pass in 0..2 {
            for k in 0..n {
                let _ = pass;
                wide.flip(k);
                for t in &mut narrow {
                    t.flip(k);
                    assert_eq!(t.energy(), wide.energy());
                    let widened: Vec<i64> = t.deltas().iter().map(|&v| i64::from(v)).collect();
                    assert_eq!(&widened[..], wide.deltas());
                }
            }
        }
        for t in &narrow {
            t.verify();
        }
    }
}

/// `ABS_FORCE_SCALAR` pins runtime dispatch to the scalar arm — the CI
/// weekly job sets it and re-runs this whole suite, so both dispatch
/// outcomes stay covered by the same tests. Unforced, detection picks
/// AVX-512 exactly when the CPU reports `avx512f` and `avx2`.
#[test]
fn forced_scalar_pins_detection() {
    if std::env::var("ABS_FORCE_SCALAR").is_ok_and(|v| !v.is_empty()) {
        assert_eq!(FlipKernel::detect(), FlipKernel::Scalar);
    } else {
        #[cfg(target_arch = "x86_64")]
        let avx512 = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        let want = if avx512 {
            FlipKernel::Avx512
        } else {
            FlipKernel::Scalar
        };
        assert_eq!(FlipKernel::detect(), want);
    }
}
