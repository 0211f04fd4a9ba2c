//! Bit-selection policies for the forced-flip local search.
//!
//! Algorithm 4 flips exactly one bit per iteration and leaves the choice
//! of *which* bit to an arbitrary policy. The paper's production policy
//! (Fig. 2) is deterministic: extract `ℓ` consecutive bits starting at a
//! moving offset, flip the one with minimum `Δ`, advance the offset by
//! `ℓ` (mod n). The window length plays the role of an inverse
//! temperature — `ℓ = n` is a greedy search, `ℓ = 1` is a blind sweep —
//! and different search units run different `ℓ` like parallel tempering.
//!
//! Policies whose choice is "the min-Δ index in some window" can expose
//! the window itself through [`SelectionPolicy::next_window`] instead of
//! scanning; the fused driver then folds the scan into the flip
//! ([`crate::DeltaTracker::flip_select`]) so each local-search step
//! traverses the Δ vector exactly once.

use crate::acc::DeltaAcc;
use qubo::BitVec;
// abs-lint: allow(device-no-rand) -- RandomPolicy/MetropolisPolicy only: documented deviations from the Fig. 2 kernel (DESIGN.md); the window policies consume no randomness
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// A policy choosing the next bit to flip given the current Δ vector.
///
/// Implementations must return an index `< deltas.len()` and must always
/// return *some* index: the forced flip is what keeps the flips-per-second
/// (and therefore the search rate) constant even near local minima.
///
/// The parameter `A` is the Δ accumulator width of the tracker being
/// driven (default `i64`); deterministic policies are width-oblivious and
/// implement the trait for every width.
pub trait SelectionPolicy<A: DeltaAcc = i64>: Send {
    /// Selects the bit to flip.
    fn select(&mut self, deltas: &[A], x: &BitVec) -> usize;

    /// If the next selection is "argmin Δ over a circular window", returns
    /// that window as `(start, len)` and advances internal state as if
    /// [`select`] had run. The caller then owes exactly one selection,
    /// performed via [`crate::DeltaTracker::flip_select`] or
    /// [`crate::DeltaTracker::select_in_window`] — i.e. this *replaces*
    /// the next `select` call, it does not precede one.
    ///
    /// Returns `None` (the default) for policies that need the Δ values
    /// or randomness to decide; those keep the two-call select-then-flip
    /// protocol.
    ///
    /// [`select`]: SelectionPolicy::select
    fn next_window(&mut self, _n: usize) -> Option<(usize, usize)> {
        None
    }

    /// Resets internal state (offset; RNG stream position is kept).
    fn reset(&mut self) {}
}

/// Index of the minimum value inside the circular window of length `len`
/// starting at `start`, over `deltas` of length `n`.
///
/// This is the scan both [`WindowMinPolicy`] and the fused tracker kernel
/// share. It runs as at most two contiguous slice scans — `[start,
/// min(start+len, n))` and the wrapped prefix `[0, start+len−n)` — with
/// no per-element `% n`, so each scan is a straight-line min-reduction
/// the compiler vectorizes. Ties break to the first index in scan order
/// from `start` (the wrapped slice wins only on a strictly smaller
/// value), matching the pre-fusion modular scan exactly.
///
/// `len` is clamped to `[1, n]`.
///
/// # Panics
/// Panics if `deltas` is empty or `start >= n`.
#[must_use]
pub fn window_argmin<A: DeltaAcc>(deltas: &[A], start: usize, len: usize) -> usize {
    window_argmin_by(deltas, start, len, slice_min_first)
}

/// [`window_argmin`] with the first-occurrence slice scan supplied by
/// the caller: the AVX-512 arm ([`crate::simd`]) plugs in its AVX2
/// scan and shares this window split and tie-break.
pub(crate) fn window_argmin_by<A: DeltaAcc>(
    deltas: &[A],
    start: usize,
    len: usize,
    min_first: impl Fn(&[A]) -> (usize, A),
) -> usize {
    let n = deltas.len();
    assert!(start < n, "window start {start} out of range {n}");
    let l = len.clamp(1, n);
    let first_len = l.min(n - start);
    // invariant: start < n asserted above and start+first_len <= n by
    // the min against n-start.
    let (i1, v1) = min_first(&deltas[start..start + first_len]);
    let rest = l - first_len;
    if rest > 0 {
        // invariant: rest = l - first_len <= n since l <= n.
        let (i2, v2) = min_first(&deltas[..rest]);
        if v2 < v1 {
            return i2;
        }
    }
    start + i1
}

/// First-occurrence minimum of a non-empty slice: a branch-light value
/// reduction, then one equality scan to locate the index (the reduction
/// auto-vectorizes; the locate pass is rarely the bottleneck at window
/// sizes).
fn slice_min_first<A: DeltaAcc>(s: &[A]) -> (usize, A) {
    // invariant: callers pass non-empty slices (window_argmin clamps
    // len to [1, n]), so s[0] and s[1..] are in bounds.
    let mut min_v = s[0];
    for &v in &s[1..] {
        min_v = min_v.min(v);
    }
    // invariant: min_v was read out of `s` above, so the locate scan
    // stops before i leaves the slice.
    let mut i = 0;
    while s[i] != min_v {
        i += 1;
    }
    (i, min_v)
}

/// The paper's deterministic sliding-window minimum policy (Fig. 2).
///
/// No random numbers are consumed, which the paper highlights as a
/// throughput advantage over conventional SA on the device.
#[derive(Clone, Debug)]
pub struct WindowMinPolicy {
    offset: usize,
    window: usize,
}

impl WindowMinPolicy {
    /// Creates a policy with window length `window` (clamped to `≥ 1`)
    /// starting at offset 0.
    #[must_use]
    pub fn new(window: usize) -> Self {
        Self {
            offset: 0,
            window: window.max(1),
        }
    }

    /// Creates a policy starting at a given offset (used to desynchronize
    /// search units that share a window length).
    #[must_use]
    pub fn with_offset(window: usize, offset: usize) -> Self {
        Self {
            offset,
            window: window.max(1),
        }
    }

    /// The window length ℓ.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// The current offset `a` (next window is `x_a … x_{a+ℓ−1}`, mod n).
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Rewinds the offset to 0 (inherent mirror of the trait `reset`, so
    /// concrete call sites need no width annotation).
    pub fn reset(&mut self) {
        self.offset = 0;
    }

    /// The shared advance step: normalizes `(a, ℓ)` for an `n`-bit
    /// problem and moves the offset past the window.
    fn advance(&mut self, n: usize) -> (usize, usize) {
        let l = self.window.min(n);
        let a = self.offset % n;
        self.offset = (a + l) % n;
        (a, l)
    }
}

impl<A: DeltaAcc> SelectionPolicy<A> for WindowMinPolicy {
    fn select(&mut self, deltas: &[A], _x: &BitVec) -> usize {
        let (a, l) = self.advance(deltas.len());
        window_argmin(deltas, a, l)
    }

    fn next_window(&mut self, n: usize) -> Option<(usize, usize)> {
        Some(self.advance(n))
    }

    fn reset(&mut self) {
        WindowMinPolicy::reset(self);
    }
}

/// Greedy policy: always flips the global minimum-Δ bit
/// (`WindowMinPolicy` with `ℓ = n`, written directly for clarity).
#[derive(Clone, Debug, Default)]
pub struct GreedyPolicy;

impl<A: DeltaAcc> SelectionPolicy<A> for GreedyPolicy {
    fn select(&mut self, deltas: &[A], _x: &BitVec) -> usize {
        deltas
            .iter()
            .enumerate()
            .min_by_key(|&(_, &d)| d)
            .map(|(i, _)| i)
            // abs-lint: allow(no-unwrap) -- SelectionPolicy contract: deltas has n ≥ 1 entries
            .expect("non-empty problem")
    }

    fn next_window(&mut self, n: usize) -> Option<(usize, usize)> {
        // Full-vector window: `min_by_key` and `window_argmin` both take
        // the first occurrence on ties.
        Some((0, n))
    }
}

/// Uniformly random bit choice (the `ℓ = 1` temperature extreme, but with
/// a random rather than sweeping position).
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    rng: SmallRng,
}

impl RandomPolicy {
    /// Creates the policy with a deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<A: DeltaAcc> SelectionPolicy<A> for RandomPolicy {
    fn select(&mut self, deltas: &[A], _x: &BitVec) -> usize {
        self.rng.gen_range(0..deltas.len())
    }
}

/// Metropolis acceptance adapted to the forced-flip framework: sample a
/// random bit, accept it if `Δ ≤ 0` or with probability `exp(−Δ / t)`
/// (Eq. (7)); retry up to `max_tries` times, then flip the last sample
/// unconditionally (the framework must flip *something* every
/// iteration — this deviation from classical SA is documented in
/// DESIGN.md).
#[derive(Clone, Debug)]
pub struct MetropolisPolicy {
    rng: SmallRng,
    /// Temperature `k_B · t` in energy units.
    // abs-lint: allow(device-no-float) -- Metropolis deviation (Eq. 7), not the window kernel
    pub temperature: f64,
    /// Cooling multiplier applied once per selection (geometric schedule);
    /// set to 1.0 for a constant temperature.
    // abs-lint: allow(device-no-float) -- Metropolis deviation (Eq. 7), not the window kernel
    pub cooling: f64,
    max_tries: u32,
}

impl MetropolisPolicy {
    /// Creates the policy with the given temperature and seed.
    #[must_use]
    // abs-lint: allow(device-no-float) -- Metropolis deviation (Eq. 7), not the window kernel
    pub fn new(temperature: f64, cooling: f64, seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            temperature,
            cooling,
            max_tries: 16,
        }
    }
}

impl<A: DeltaAcc> SelectionPolicy<A> for MetropolisPolicy {
    fn select(&mut self, deltas: &[A], _x: &BitVec) -> usize {
        let n = deltas.len();
        let mut k = 0;
        for _ in 0..self.max_tries {
            k = self.rng.gen_range(0..n);
            // invariant: k < n = deltas.len() by the gen_range bound.
            let d = deltas[k].to_energy();
            if d <= 0 {
                break;
            }
            // abs-lint: allow(device-no-float) -- Eq. (7) acceptance probability; Metropolis deviation
            let p = (-(d as f64) / self.temperature.max(f64::MIN_POSITIVE)).exp();
            // abs-lint: allow(device-no-float) -- Eq. (7) acceptance sample; Metropolis deviation
            if self.rng.gen::<f64>() < p {
                break;
            }
        }
        self.temperature *= self.cooling;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(n: usize) -> BitVec {
        BitVec::zeros(n)
    }

    /// Reproduces the walkthrough of Fig. 2: a 16-bit vector, offset 4,
    /// window 4 — the minimum of (Δ4, Δ5, Δ6, Δ7) is Δ5, so bit 5 is
    /// flipped and the offset advances to 8.
    #[test]
    fn paper_fig2() {
        let mut deltas = vec![100i64; 16];
        deltas[4] = 7;
        deltas[5] = -3;
        deltas[6] = 2;
        deltas[7] = 9;
        let mut p = WindowMinPolicy::with_offset(4, 4);
        let k = p.select(&deltas, &bv(16));
        assert_eq!(k, 5);
        assert_eq!(p.offset(), 8);
    }

    #[test]
    fn window_wraps_around() {
        let mut deltas = vec![10i64; 8];
        deltas[1] = -5; // inside the wrapped window [6, 7, 0, 1]
        let mut p = WindowMinPolicy::with_offset(4, 6);
        assert_eq!(p.select(&deltas, &bv(8)), 1);
        assert_eq!(p.offset(), 2);
    }

    #[test]
    fn window_covers_all_bits_over_a_sweep() {
        // With ℓ | n, n/ℓ selections visit n/ℓ disjoint windows.
        let deltas = vec![0i64; 12];
        let mut p = WindowMinPolicy::new(3);
        let mut offsets = Vec::new();
        for _ in 0..4 {
            offsets.push(p.offset());
            p.select(&deltas, &bv(12));
        }
        assert_eq!(offsets, vec![0, 3, 6, 9]);
        assert_eq!(p.offset(), 0); // full sweep returns to start
    }

    #[test]
    fn window_one_is_a_plain_sweep() {
        let deltas = vec![5i64; 4];
        let mut p = WindowMinPolicy::new(1);
        let picks: Vec<usize> = (0..6).map(|_| p.select(&deltas, &bv(4))).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn window_larger_than_n_acts_greedy() {
        let mut deltas = vec![9i64; 5];
        deltas[3] = -1;
        let mut p = WindowMinPolicy::new(100);
        assert_eq!(p.select(&deltas, &bv(5)), 3);
    }

    #[test]
    fn greedy_finds_global_min() {
        let deltas = vec![4i64, -2, 7, -9, 0];
        let mut p = GreedyPolicy;
        assert_eq!(p.select(&deltas, &bv(5)), 3);
    }

    #[test]
    fn greedy_ties_break_to_lowest_index() {
        let deltas = vec![1i64, -2, -2];
        let mut p = GreedyPolicy;
        assert_eq!(p.select(&deltas, &bv(3)), 1);
    }

    #[test]
    fn random_policy_is_seed_deterministic_and_in_range() {
        let deltas = vec![0i64; 10];
        let mut a = RandomPolicy::new(5);
        let mut b = RandomPolicy::new(5);
        for _ in 0..50 {
            let ka = a.select(&deltas, &bv(10));
            assert_eq!(ka, b.select(&deltas, &bv(10)));
            assert!(ka < 10);
        }
    }

    #[test]
    fn metropolis_prefers_downhill_at_low_temperature() {
        let mut deltas = vec![1_000_000i64; 64];
        deltas[7] = -1;
        let mut p = MetropolisPolicy::new(1e-9, 1.0, 3);
        // With a tiny temperature, uphill samples are rejected, so the
        // policy keeps resampling (up to its retry budget) and lands on
        // the lone downhill bit far more often than the uniform rate of
        // 200/64 ≈ 3 (≈ 22 % per selection with 16 tries over 64 bits).
        let mut hits = 0;
        for _ in 0..200 {
            if p.select(&deltas, &bv(64)) == 7 {
                hits += 1;
            }
        }
        assert!(hits > 20, "downhill picked only {hits}/200 times");
    }

    #[test]
    fn metropolis_accepts_everything_at_huge_temperature() {
        let deltas = vec![1i64; 16];
        let mut p = MetropolisPolicy::new(1e12, 1.0, 4);
        // Every first sample is accepted: behaves like RandomPolicy.
        for _ in 0..50 {
            assert!(p.select(&deltas, &bv(16)) < 16);
        }
    }

    #[test]
    fn reset_rewinds_window_offset() {
        let deltas = vec![0i64; 6];
        let mut p = WindowMinPolicy::new(2);
        p.select(&deltas, &bv(6));
        assert_eq!(p.offset(), 2);
        p.reset();
        assert_eq!(p.offset(), 0);
    }

    #[test]
    fn window_argmin_matches_modular_reference() {
        fn reference(d: &[i64], a: usize, l: usize) -> usize {
            let n = d.len();
            let l = l.min(n);
            let mut best_i = a;
            let mut best_d = d[a];
            for off in 1..l {
                let i = (a + off) % n;
                if d[i] < best_d {
                    best_d = d[i];
                    best_i = i;
                }
            }
            best_i
        }
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 2, 3, 7, 16, 33] {
            for _ in 0..200 {
                let d: Vec<i64> = (0..n).map(|_| rng.gen_range(-4i64..4)).collect();
                let a = rng.gen_range(0..n);
                let l = rng.gen_range(1..=n + 2); // over-length clamps
                assert_eq!(
                    window_argmin(&d, a, l),
                    reference(&d, a, l),
                    "n={n} a={a} l={l} d={d:?}"
                );
            }
        }
    }

    #[test]
    fn window_argmin_ties_break_in_scan_order() {
        // Window [3, 0, 1] with a tie between wrapped index 0 and
        // in-slice index 3: the earlier scan position (3) must win.
        let d = vec![-7i64, 5, 5, -7];
        assert_eq!(window_argmin(&d, 3, 3), 3);
        // But a strictly smaller wrapped value wins.
        let d = vec![-9i64, 5, 5, -7];
        assert_eq!(window_argmin(&d, 3, 3), 0);
    }

    #[test]
    fn next_window_replaces_select_exactly() {
        let deltas = vec![3i64, -1, 4, -1, 5, 9, -2, 6];
        let mut by_select = WindowMinPolicy::with_offset(3, 5);
        let mut by_window = by_select.clone();
        for _ in 0..20 {
            let k1 = by_select.select(&deltas, &bv(8));
            let (a, l) = SelectionPolicy::<i64>::next_window(&mut by_window, 8).unwrap();
            assert_eq!(window_argmin(&deltas, a, l), k1);
            assert_eq!(by_select.offset(), by_window.offset());
        }
    }

    #[test]
    fn greedy_window_is_the_full_vector() {
        let deltas = vec![4i64, -2, 7, -9, 0];
        let mut g = GreedyPolicy;
        let (a, l) = SelectionPolicy::<i64>::next_window(&mut g, 5).unwrap();
        assert_eq!((a, l), (0, 5));
        assert_eq!(
            window_argmin(&deltas, a, l),
            SelectionPolicy::<i64>::select(&mut g, &deltas, &bv(5))
        );
    }

    #[test]
    fn randomized_policies_expose_no_window() {
        assert_eq!(
            SelectionPolicy::<i64>::next_window(&mut RandomPolicy::new(1), 8),
            None
        );
        assert_eq!(
            SelectionPolicy::<i64>::next_window(&mut MetropolisPolicy::new(1.0, 1.0, 2), 8),
            None
        );
    }

    #[test]
    fn policies_are_width_oblivious() {
        let wide = vec![9i64, -3, 5, 0];
        let narrow: Vec<i32> = wide.iter().map(|&v| v as i32).collect();
        let mut pw = WindowMinPolicy::new(3);
        let mut pn = WindowMinPolicy::new(3);
        for _ in 0..8 {
            assert_eq!(
                pw.select(&wide, &bv(4)),
                pn.select(&narrow, &bv(4)),
                "widths diverged"
            );
        }
    }
}
