//! The bit-selection policy of the forced-flip local search.
//!
//! Algorithm 4 flips exactly one bit per iteration and leaves the choice
//! of *which* bit to a policy. The paper's device kernel has one, and so
//! does this crate: the deterministic sliding-window minimum (Fig. 2).
//! Extract `ℓ` consecutive bits starting at a moving offset, flip the
//! one with minimum `Δ`, advance the offset by `ℓ` (mod n). The window length plays the role of an inverse
//! temperature — `ℓ = n` is a greedy search, `ℓ = 1` is a blind sweep —
//! and different search units run different `ℓ` like parallel tempering.
//!
//! The window policy exposes each window through
//! [`WindowMinPolicy::next_window`] instead of scanning; the fused
//! driver then folds the scan into the flip
//! ([`crate::DeltaTracker::flip_select`]) so each local-search step
//! traverses the Δ vector exactly once.

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
pub fn window_argmin(deltas: &[i32], start: usize, len: usize) -> usize {
    window_argmin_by(deltas, start, len, slice_min_first)
}

/// [`window_argmin`] with the first-occurrence slice scan supplied by
/// the caller: the AVX-512 arm ([`crate::simd`]) plugs in its AVX2
/// scan and shares this window split and tie-break.
pub(crate) fn window_argmin_by(
    deltas: &[i32],
    start: usize,
    len: usize,
    min_first: impl Fn(&[i32]) -> (usize, i32),
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
fn slice_min_first(s: &[i32]) -> (usize, i32) {
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

    /// Rewinds the offset to 0.
    pub fn reset(&mut self) {
        self.offset = 0;
    }

    /// Selects the bit to flip: the min-Δ index of the current window,
    /// advancing the offset past it. Always returns *some* index: the
    /// forced flip keeps the search rate constant even near local minima.
    pub fn select(&mut self, deltas: &[i32]) -> usize {
        let (a, l) = self.next_window(deltas.len());
        window_argmin(deltas, a, l)
    }

    /// Returns the next window as `(start, len)`, normalized for an
    /// `n`-bit problem, and advances the offset past it as if
    /// [`WindowMinPolicy::select`] had run. The caller then owes exactly
    /// one selection, performed via [`crate::DeltaTracker::flip_select`]
    /// or [`crate::DeltaTracker::select_in_window`] — i.e. this
    /// *replaces* the next `select` call, it does not precede one.
    pub fn next_window(&mut self, n: usize) -> (usize, usize) {
        let l = self.window.min(n);
        let a = self.offset % n;
        self.offset = (a + l) % n;
        (a, l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduces the walkthrough of Fig. 2: a 16-bit vector, offset 4,
    /// window 4 — the minimum of (Δ4, Δ5, Δ6, Δ7) is Δ5, so bit 5 is
    /// flipped and the offset advances to 8.
    #[test]
    fn paper_fig2() {
        let mut deltas = vec![100i32; 16];
        deltas[4] = 7;
        deltas[5] = -3;
        deltas[6] = 2;
        deltas[7] = 9;
        let mut p = WindowMinPolicy::with_offset(4, 4);
        let k = p.select(&deltas);
        assert_eq!(k, 5);
        assert_eq!(p.offset(), 8);
    }

    #[test]
    fn window_wraps_around() {
        let mut deltas = vec![10i32; 8];
        deltas[1] = -5; // inside the wrapped window [6, 7, 0, 1]
        let mut p = WindowMinPolicy::with_offset(4, 6);
        assert_eq!(p.select(&deltas), 1);
        assert_eq!(p.offset(), 2);
    }

    #[test]
    fn window_covers_all_bits_over_a_sweep() {
        // With ℓ | n, n/ℓ selections visit n/ℓ disjoint windows.
        let deltas = vec![0i32; 12];
        let mut p = WindowMinPolicy::new(3);
        let mut offsets = Vec::new();
        for _ in 0..4 {
            offsets.push(p.offset());
            p.select(&deltas);
        }
        assert_eq!(offsets, vec![0, 3, 6, 9]);
        assert_eq!(p.offset(), 0); // full sweep returns to start
    }

    #[test]
    fn window_one_is_a_plain_sweep() {
        let deltas = vec![5i32; 4];
        let mut p = WindowMinPolicy::new(1);
        let picks: Vec<usize> = (0..6).map(|_| p.select(&deltas)).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn window_larger_than_n_acts_greedy() {
        let mut deltas = vec![9i32; 5];
        deltas[3] = -1;
        let mut p = WindowMinPolicy::new(100);
        assert_eq!(p.select(&deltas), 3);
    }

    #[test]
    fn greedy_finds_global_min() {
        // ℓ = n is the greedy extreme of the temperature ladder.
        let deltas = vec![4i32, -2, 7, -9, 0];
        let mut p = WindowMinPolicy::new(5);
        assert_eq!(p.select(&deltas), 3);
    }

    #[test]
    fn greedy_ties_break_to_lowest_index() {
        let deltas = vec![1i32, -2, -2];
        let mut p = WindowMinPolicy::new(3);
        assert_eq!(p.select(&deltas), 1);
    }

    #[test]
    fn reset_rewinds_window_offset() {
        let deltas = vec![0i32; 6];
        let mut p = WindowMinPolicy::new(2);
        p.select(&deltas);
        assert_eq!(p.offset(), 2);
        p.reset();
        assert_eq!(p.offset(), 0);
    }

    #[test]
    fn window_argmin_matches_modular_reference() {
        fn reference(d: &[i32], a: usize, l: usize) -> usize {
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
        // SplitMix64 draws in [0, bound): a seeded input stream that
        // keeps this module free of RNG imports.
        let mut state = 77u64;
        let mut draw = |bound: usize| -> usize {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for n in [1usize, 2, 3, 7, 16, 33] {
            for _ in 0..200 {
                let d: Vec<i32> = (0..n).map(|_| draw(8) as i32 - 4).collect();
                let a = draw(n);
                let l = 1 + draw(n + 2); // over-length clamps
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
        let d = vec![-7i32, 5, 5, -7];
        assert_eq!(window_argmin(&d, 3, 3), 3);
        // But a strictly smaller wrapped value wins.
        let d = vec![-9i32, 5, 5, -7];
        assert_eq!(window_argmin(&d, 3, 3), 0);
    }

    #[test]
    fn next_window_replaces_select_exactly() {
        let deltas = vec![3i32, -1, 4, -1, 5, 9, -2, 6];
        let mut by_select = WindowMinPolicy::with_offset(3, 5);
        let mut by_window = by_select.clone();
        for _ in 0..20 {
            let k1 = by_select.select(&deltas);
            let (a, l) = by_window.next_window(8);
            assert_eq!(window_argmin(&deltas, a, l), k1);
            assert_eq!(by_select.offset(), by_window.offset());
        }
    }

    #[test]
    fn greedy_window_is_the_full_vector() {
        let deltas = vec![4i32, -2, 7, -9, 0];
        let mut by_window = WindowMinPolicy::new(5);
        let mut by_select = by_window.clone();
        let (a, l) = by_window.next_window(5);
        assert_eq!((a, l), (0, 5));
        assert_eq!(window_argmin(&deltas, a, l), by_select.select(&deltas));
    }

    #[test]
    fn policies_are_width_oblivious() {
        // Δ values at both ends of the i32 range: every choice equals the
        // modular scan over the values widened to i64, so the narrow Δ
        // width cannot change which bit a window flips.
        let narrow = vec![i32::MAX, i32::MIN, 5, i32::MIN + 1, 0, -3, i32::MIN];
        let wide: Vec<i64> = narrow.iter().map(|&v| i64::from(v)).collect();
        let mut p = WindowMinPolicy::new(3);
        for step in 0..10 {
            let a = p.offset();
            let mut want = a;
            for off in 1..3 {
                let i = (a + off) % wide.len();
                if wide[i] < wide[want] {
                    want = i;
                }
            }
            assert_eq!(p.select(&narrow), want, "step {step}");
        }
    }
}
