//! AVX-512 tier for the flip hot path.
//!
//! The Eq. (16) update is a dense, branch-free sweep over one padded
//! matrix row — exactly the shape data-level parallelism likes. The
//! flip kernel exists in two arms, chosen once per process by
//! [`FlipKernel::detect`] (the paper's per-kernel-launch choice, §3.2):
//!
//! * [`FlipKernel::Scalar`] — the scalar fused path of
//!   [`crate::DeltaTracker`] (the `fused_i32`/`fused_i64` kernel): the
//!   portable arm and the reference. The compiler autovectorizes its
//!   add-min loops for whatever the build targets.
//! * [`FlipKernel::Avx512`] — this module's kernels:
//!   - `flip_update`: the Δ-update and best-neighbour min, 16 lanes per
//!     512-bit vector. The chunk's `x ⊕ x_k` bits are lifted straight
//!     out of the packed solution word as a `__mmask16`, so the
//!     increment `2·W_ik·φ(x_i)·φ(x_k)` becomes two mask-complementary
//!     add/sub ops — no multiplies and no byte-per-bit sign array load.
//!   - `window_argmin`: the circular-window argmin of the selection
//!     policy (Fig. 2) as one AVX2 pass that tracks candidate indices
//!     alongside the min fold.
//!
//! Both arms are bit-identical on all observable state (Δ vector,
//! energies, selected indices — min values are order-independent and
//! the argmin tie-break is first-in-scan-order in both). Why there is
//! no portable lane-chunked or AVX2 update arm: both lost the arm
//! census (ALGORITHMS.md §4c).
//!
//! The kernels require the padded row layout of [`qubo::Qubo`]: rows of
//! `stride()` elements (a [`qubo::ROW_LANE`] multiple, 64-byte aligned)
//! with zero pad weights, and a Δ slice padded to the same stride with
//! `i32::MAX` sentinels. Zero pad weights make pad lanes no-ops in the
//! update; `i32::MAX` sentinels can never win the running min strictly
//! (the fold always sees the flipped bit's own `−Δ_k`, a real entry),
//! so chunks never need a tail branch and never straddle a row.
// The crate root denies unsafe_code; this module is the single
// sanctioned exception, scoped to the feature-gated intrinsic arm
// below.
// Every unsafe site carries a SAFETY comment naming the checked CPU
// feature or in-bounds invariant (enforced by the abs-lint
// device-unsafe-justified rule).
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// The flip kernel chosen for a tracker: which code path executes the
/// Eq. (16) update and the window argmin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlipKernel {
    /// The scalar fused path (`fused_i32`/`fused_i64`): portable
    /// reference, and the only arm for `i64` accumulators.
    Scalar,
    /// `#[target_feature(enable = "avx512f")]` specialization: the
    /// packed `x ⊕ x_k` bits are used *directly* as a `__mmask16` for
    /// mask-complementary add/sub — no per-lane sign decode at all.
    /// Needs both `avx512f` and `avx2` (the argmin runs on AVX2); see
    /// [`FlipKernel::is_supported`].
    Avx512,
}

impl FlipKernel {
    /// Stable label for telemetry, benchmarks and diagnostics.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx512 => "avx512",
        }
    }

    /// Compact id for the device global-memory kernel slot
    /// (0 is reserved for "unset").
    #[must_use]
    pub const fn as_u8(self) -> u8 {
        match self {
            Self::Scalar => 1,
            Self::Avx512 => 2,
        }
    }

    /// Inverse of [`FlipKernel::as_u8`].
    #[must_use]
    pub const fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Self::Scalar),
            2 => Some(Self::Avx512),
            _ => None,
        }
    }

    /// Whether this CPU can run the arm: always for [`Scalar`]; for
    /// [`Avx512`] only when the runtime check (cached by the standard
    /// library) reports both `avx512f` and `avx2`.
    /// [`crate::DeltaTracker::with_kernel`] asserts this, so no safe
    /// path reaches the intrinsics on a CPU without them.
    ///
    /// [`Scalar`]: FlipKernel::Scalar
    /// [`Avx512`]: FlipKernel::Avx512
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Self::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Self::Avx512 => false,
        }
    }

    /// The best kernel for this process, decided once and cached:
    /// `ABS_FORCE_SCALAR` (any non-empty value) forces [`Scalar`];
    /// otherwise a CPU that supports [`Avx512`] gets it and everything
    /// else gets [`Scalar`]. Device threads call this once at launch
    /// (the paper's per-kernel-launch specialization, §3.2) and record
    /// the choice in global memory for telemetry.
    ///
    /// [`Scalar`]: FlipKernel::Scalar
    /// [`Avx512`]: FlipKernel::Avx512
    #[must_use]
    pub fn detect() -> Self {
        static DETECTED: OnceLock<FlipKernel> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let forced = std::env::var_os("ABS_FORCE_SCALAR").is_some_and(|v| !v.is_empty());
            if !forced && Self::Avx512.is_supported() {
                Self::Avx512
            } else {
                Self::Scalar
            }
        })
    }
}

/// `i32` lanes per AVX2 argmin chunk: one 256-bit vector.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// The AVX-512 Eq. (16) update: negates `d[k]` in place, adds
/// `2·W_ik·φ(x_i)·φ(x_k)` to every other entry, and returns
/// `min_i d_i` of the new state (over the real entries; pad sentinels
/// cannot win, see the module docs).
///
/// * `d` — the Δ slice padded to the row stride (`i32::MAX` pad).
/// * `row` — [`qubo::Qubo::row_padded`]`(k)` (zero pad).
/// * `xw` — the packed words of the *pre-flip* solution
///   ([`qubo::BitVec::words`]).
/// * `xk` — the pre-flip value of bit `k`.
///
/// The `k` lane needs no special case in the sweep: its `x ⊕ x_k` bit
/// is 0, so its increment is exactly `+2·W_kk`, and the kernel
/// pre-writes `d[k] = −Δ_k − 2·W_kk` (wrapping; the transient wrap, if
/// any, cancels on the add) so the uniform pass lands it on `−Δ_k` and
/// folds the correct value into the min.
///
/// Only [`crate::DeltaTracker`] calls this, and only when its kernel is
/// [`FlipKernel::Avx512`], which its constructor asserted is supported.
///
/// # Panics
/// Panics (debug) if the slice lengths disagree or are not 16-lane
/// multiples, or if `k` is out of range.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub(crate) fn flip_update(d: &mut [i32], row: &[i16], xw: &[u64], k: usize, xk: bool) -> i32 {
    debug_assert_eq!(d.len(), row.len(), "Δ slice must match the padded row");
    debug_assert_eq!(d.len() % 16, 0, "padded stride must be a 16-lane multiple");
    debug_assert!(k < d.len(), "flip index out of range");
    debug_assert!(
        xw.len() * 64 >= d.len(),
        "packed words must cover the stride"
    );
    debug_assert!(FlipKernel::Avx512.is_supported());
    // SAFETY: the tracker dispatches here only for FlipKernel::Avx512,
    // and DeltaTracker::with_kernel asserted FlipKernel::is_supported,
    // i.e. is_x86_feature_detected!("avx512f") for this process.
    unsafe { flip_update_avx512(d, row, xw, k, xk) }
}

/// One 512-bit vector per 16-lane chunk: lanes with `x ⊕ x_k` bit 0
/// add `2·W_ik` (`φ(x_i)·φ(x_k) = +1`), lanes with bit 1 subtract it.
///
/// # Safety
/// The caller must have verified `is_x86_feature_detected!("avx512f")`.
/// Slice-length preconditions are those of [`flip_update`]; every
/// pointer access below stays inside `d`/`row` because
/// `base + 16 <= d.len() == row.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: target_feature fn — callable only from the feature-checked dispatch in flip_update.
unsafe fn flip_update_avx512(d: &mut [i32], row: &[i16], xw: &[u64], k: usize, xk: bool) -> i32 {
    use std::arch::x86_64::{
        __mmask16, _mm256_loadu_si256, _mm512_cvtepi16_epi32, _mm512_loadu_si512,
        _mm512_mask_add_epi32, _mm512_mask_sub_epi32, _mm512_min_epi32, _mm512_reduce_min_epi32,
        _mm512_set1_epi32, _mm512_slli_epi32, _mm512_storeu_si512,
    };

    /// `i32` lanes per 512-bit vector.
    const L: usize = 16;
    // invariant: k < d.len() = row.len(), asserted by flip_update.
    let d_k_new = -d[k];
    // Pre-bias: the uniform sweep adds exactly +2·W_kk to lane k (its
    // XOR bit is x_k ⊕ x_k = 0), landing it on -Δ_k without any
    // per-lane index mask; vector adds wrap, cancelling any transient
    // wrap here, and only the final value is ever observed.
    // invariant: k < d.len() = row.len(), asserted by flip_update.
    d[k] = d_k_new.wrapping_sub(i32::from(row[k]) << 1);
    let xk_mask = if xk { u64::MAX } else { 0 };
    let mut vmin = _mm512_set1_epi32(i32::MAX);
    let chunks = d.len() / L;
    let dp = d.as_mut_ptr();
    let wp = row.as_ptr();
    for ci in 0..chunks {
        let base = ci * L;
        // invariant: base <= stride - 16 < 64 * xw.len(), and base % 64
        // is a multiple of 16, so the chunk's 16 bits live in one word.
        let m = (((xw[base / 64] ^ xk_mask) >> (base % 64)) & 0xffff) as __mmask16;
        // SAFETY: base + 16 <= row.len(); 16 i16 = 32 bytes read
        // through an unaligned-tolerant load (rows are in fact 64-byte
        // aligned via the padded Qubo layout).
        let w16 = unsafe { _mm256_loadu_si256(wp.add(base).cast()) };
        let w2 = _mm512_slli_epi32::<1>(_mm512_cvtepi16_epi32(w16));
        // SAFETY: base + 16 <= d.len(); unaligned-tolerant 512-bit
        // load/store of this chunk's Δ entries.
        let dv = unsafe { _mm512_loadu_si512(dp.add(base).cast()) };
        // Bit 0 → +2·W_ik, bit 1 → −2·W_ik: the Eq. (16) increment as
        // two mask-complementary ops, multiply-free and decode-free.
        let plus = _mm512_mask_add_epi32(dv, !m, dv, w2);
        let v = _mm512_mask_sub_epi32(plus, m, plus, w2);
        // SAFETY: same in-bounds chunk as the load above.
        unsafe { _mm512_storeu_si512(dp.add(base).cast(), v) };
        vmin = _mm512_min_epi32(vmin, v);
    }
    _mm512_reduce_min_epi32(vmin)
}

/// AVX2 circular-window argmin over `deltas[..n]`: [`crate::window_argmin`]
/// (same window split, clamp and first-in-scan-order tie-break) with
/// each contiguous scan running as one AVX2 pass.
///
/// Callers pass the *logical* Δ slice (`..n`, without pad sentinels):
/// windows are defined over real bits only. Only
/// [`crate::DeltaTracker`] calls this, under the same
/// [`FlipKernel::Avx512`] guard as [`flip_update`].
///
/// # Panics
/// Panics if `deltas` is empty or `start >= deltas.len()`.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub(crate) fn window_argmin(deltas: &[i32], start: usize, len: usize) -> usize {
    debug_assert!(FlipKernel::Avx512.is_supported());
    crate::policy::window_argmin_by(deltas, start, len, |s| {
        // SAFETY: the tracker dispatches here only for
        // FlipKernel::Avx512, and DeltaTracker::with_kernel asserted
        // FlipKernel::is_supported, which includes
        // is_x86_feature_detected!("avx2") for this process.
        unsafe { slice_min_first_avx2(s) }
    })
}

/// First-occurrence minimum of a non-empty slice in a single pass that
/// carries a candidate-index vector next to the min fold (per-lane
/// first occurrence; strict-less blend), then reduces to the smallest
/// index among the lanes holding the global min. The scalar tail
/// updates on strictly-smaller only, so earlier vector positions keep
/// ties — the combined result is the first-in-slice minimum, exactly
/// like the generic scan in [`crate::policy`].
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: target_feature fn — callable only from the feature-checked dispatch in window_argmin.
unsafe fn slice_min_first_avx2(s: &[i32]) -> (usize, i32) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_blendv_epi8, _mm256_cmpgt_epi32, _mm256_loadu_si256,
        _mm256_min_epi32, _mm256_set1_epi32, _mm256_setr_epi32, _mm256_storeu_si256,
    };

    let chunks = s.len() / LANES;
    let p = s.as_ptr();
    let mut best = (usize::MAX, i32::MAX);
    if chunks > 0 {
        // SAFETY: chunks >= 1, so the first LANES elements exist.
        let mut vmin = unsafe { _mm256_loadu_si256(p.cast()) };
        let mut vidx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut cand = vidx;
        let step = _mm256_set1_epi32(LANES as i32);
        for ci in 1..chunks {
            cand = _mm256_add_epi32(cand, step);
            // SAFETY: ci * LANES + LANES <= chunks * LANES <= s.len().
            let v = unsafe { _mm256_loadu_si256(p.add(ci * LANES).cast()) };
            let lt = _mm256_cmpgt_epi32(vmin, v);
            vmin = _mm256_min_epi32(vmin, v);
            vidx = _mm256_blendv_epi8(vidx, cand, lt);
        }
        let mut vals = [0i32; LANES];
        let mut idxs = [0i32; LANES];
        // SAFETY: vals/idxs are LANES i32s = exactly one 256-bit store each.
        unsafe {
            _mm256_storeu_si256(vals.as_mut_ptr().cast(), vmin);
            _mm256_storeu_si256(idxs.as_mut_ptr().cast(), vidx);
        }
        for j in 0..LANES {
            let (bi, bv) = best;
            // invariant: j < LANES = vals.len() = idxs.len().
            if vals[j] < bv || (vals[j] == bv && (idxs[j] as usize) < bi) {
                best = (idxs[j] as usize, vals[j]);
            }
        }
    }
    // invariant: chunks * LANES <= s.len() by construction of chunks.
    for (off, &v) in s[chunks * LANES..].iter().enumerate() {
        if v < best.1 {
            best = (chunks * LANES + off, v);
        }
    }
    (best.0, best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_arch = "x86_64")]
    use qubo::{BitVec, Qubo};
    #[cfg(target_arch = "x86_64")]
    use rand::rngs::StdRng;
    #[cfg(target_arch = "x86_64")]
    use rand::{Rng, SeedableRng};

    /// Scalar reference of the update + min (the fused_i32 semantics).
    #[cfg(target_arch = "x86_64")]
    fn reference(d: &mut [i32], row: &[i16], x: &BitVec, k: usize, n: usize) -> i32 {
        let two_pk = if x.get(k) { -2 } else { 2 };
        let d_k_new = -d[k];
        let mut min_d = d_k_new;
        for i in 0..n {
            if i == k {
                continue;
            }
            let s = if x.get(i) { -1 } else { 1 };
            d[i] += i32::from(row[i]) * s * two_pk;
            min_d = min_d.min(d[i]);
        }
        d[k] = d_k_new;
        min_d
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn flip_update_matches_scalar_reference() {
        if !FlipKernel::Avx512.is_supported() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(31);
        for n in [1usize, 7, 8, 9, 31, 32, 33, 64, 65, 100] {
            let q = Qubo::random(n, &mut rng);
            let x = BitVec::random(n, &mut rng);
            let stride = q.stride();
            let mut d0 = vec![0i32; stride];
            for (i, v) in d0.iter_mut().enumerate() {
                *v = if i < n {
                    rng.gen_range(-100_000..100_000)
                } else {
                    i32::MAX
                };
            }
            for k in [0, n / 2, n - 1] {
                let mut want = d0[..n].to_vec();
                let want_min = reference(&mut want, q.row(k), &x, k, n);
                let mut got = d0.clone();
                let got_min = flip_update(&mut got, q.row_padded(k), x.words(), k, x.get(k));
                assert_eq!(&got[..n], &want[..], "n={n} k={k}");
                assert_eq!(got_min, want_min, "n={n} k={k}");
                assert!(got[n..].iter().all(|&v| v == i32::MAX), "pad disturbed");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn window_argmin_matches_portable_contract() {
        if !FlipKernel::Avx512.is_supported() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(32);
        for n in [1usize, 5, 8, 17, 64, 100] {
            let d: Vec<i32> = (0..n).map(|_| rng.gen_range(-50..50)).collect();
            let wide: Vec<i64> = d.iter().map(|&v| i64::from(v)).collect();
            for _ in 0..40 {
                let start = rng.gen_range(0..n);
                let len = rng.gen_range(1..=n + 2);
                assert_eq!(
                    window_argmin(&d, start, len),
                    crate::window_argmin(&wide, start, len),
                    "n={n} start={start} len={len}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn window_argmin_breaks_ties_first_in_scan_order() {
        if !FlipKernel::Avx512.is_supported() {
            return;
        }
        let d = vec![3i32, 1, 1, 5, 1, 2];
        assert_eq!(window_argmin(&d, 0, 6), 1);
        assert_eq!(window_argmin(&d, 2, 6), 2);
        // Wrapped slice must NOT win an equal value.
        assert_eq!(window_argmin(&d, 4, 4), 4);
    }

    #[test]
    fn kernel_ids_roundtrip() {
        for k in [FlipKernel::Scalar, FlipKernel::Avx512] {
            assert_eq!(FlipKernel::from_u8(k.as_u8()), Some(k));
        }
        assert_eq!(FlipKernel::from_u8(0), None);
        assert_eq!(FlipKernel::from_u8(3), None);
        assert!(!FlipKernel::detect().name().is_empty());
    }

    #[test]
    fn support_matches_the_runtime_feature_check() {
        assert!(FlipKernel::Scalar.is_supported());
        assert!(FlipKernel::detect().is_supported());
        #[cfg(target_arch = "x86_64")]
        let cpu = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let cpu = false;
        assert_eq!(FlipKernel::Avx512.is_supported(), cpu);
    }
}
