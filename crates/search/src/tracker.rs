//! Incremental energy and Δ-vector maintenance (the O(1)-efficiency core).

use crate::acc::DeltaAcc;
use crate::policy::window_argmin;
#[cfg(target_arch = "x86_64")]
use crate::simd;
use crate::simd::FlipKernel;
use qubo::{BitVec, Energy, Qubo};

/// The incremental-search surface the bulk-search drivers are generic
/// over: one per matrix-storage arm ([`DeltaTracker`] for the dense
/// padded rows, [`crate::SparseDeltaTracker`] for CSR).
///
/// [`crate::local_search`], [`crate::straight_search`], and the vgpu
/// block runner drive any implementor; monomorphization keeps the dense
/// fast path's codegen identical to calling the inherent methods
/// directly (the SIMD arms from the flip tier are untouched).
///
/// The accounting methods are the storage-honest part of the contract:
/// [`SearchTracker::evaluated`] counts solutions whose energy became
/// known, which is `n + 1` per flip under dense storage but only
/// `deg(k) + 2` under CSR (see `SparseDeltaTracker`'s module docs), and
/// [`SearchTracker::work`] counts Δ entries written. Telemetry derives
/// the Theorem-1 efficiency gauge from these, so implementations must
/// report what they actually touched.
pub trait SearchTracker {
    /// Δ accumulator width of this tracker ([`DeltaAcc`]).
    type Acc: DeltaAcc;

    /// Number of bits `n`.
    fn n(&self) -> usize;

    /// The current solution `X`.
    fn x(&self) -> &BitVec;

    /// The current energy `E(X)`.
    fn energy(&self) -> Energy;

    /// The difference vector, `deltas()[i] = Δ_i(X)`, length `n`.
    fn deltas(&self) -> &[Self::Acc];

    /// Best solution recorded since the last [`SearchTracker::reset_best`].
    fn best(&self) -> (&BitVec, Energy);

    /// Resets the best record to the current solution.
    fn reset_best(&mut self);

    /// Total flips performed.
    fn flips(&self) -> u64;

    /// Solutions whose energy has been evaluated so far (including the
    /// `n + 1` known after initialization).
    fn evaluated(&self) -> u64;

    /// Total Δ-update work performed (entries written by Eq. (16)
    /// updates) — the numerator of the Theorem-1 efficiency ratio.
    fn work(&self) -> u64;

    /// Flips bit `k`, updating `X`, `E(X)`, the Δ vector, and the best
    /// record.
    fn flip(&mut self, k: usize);

    /// Min-Δ index inside the circular window of length `len` starting
    /// at `start`, with [`window_argmin`]'s exact tie contract (first
    /// index in scan order from `start`). Takes `&mut self` because the
    /// CSR arm refreshes lazy summaries during the scan.
    fn select_in_window(&mut self, start: usize, len: usize) -> usize;

    /// Fused flip + next-window selection (`flip(k)` then
    /// [`SearchTracker::select_in_window`], in one pass where the
    /// storage arm allows it).
    fn flip_select(&mut self, k: usize, window: (usize, usize)) -> usize;

    /// Verifies internal invariants against reference computations
    /// (test/debug only; never on the hot path).
    fn verify(&self);
}

/// Allocates a Δ buffer whose `stride` logical elements start 64-byte
/// aligned (the same runtime-offset trick as the padded [`Qubo`] rows):
/// over-allocate by one cache line of headroom, find the aligned element
/// offset of this particular allocation, and fill the unused prefix with
/// `A::LIMIT` sentinels. Returns the buffer and the offset of logical
/// element 0. Full-width vector loads/stores of Δ chunks then never
/// split a cache line.
fn aligned_d<A: DeltaAcc>(stride: usize, fill: impl FnMut(usize) -> A) -> (Vec<A>, usize) {
    let head = 64 / std::mem::size_of::<A>();
    let mut d: Vec<A> = Vec::with_capacity(stride + head);
    // align_offset counts in elements; it stays below `head` for any
    // power-of-two element size, and the cap keeps the reserved
    // capacity sufficient regardless (worst case: unaligned, correct).
    let off = d.as_ptr().align_offset(64).min(head);
    d.extend(std::iter::repeat_with(|| A::from_energy(A::LIMIT)).take(off));
    d.extend((0..stride).map(fill));
    (d, off)
}

/// Incremental search state for one search unit (one "CUDA block" in the
/// paper's implementation).
///
/// The tracker owns the current solution `X`, its energy `E(X)`, and the
/// difference vector `d_i = Δ_i(X) = E(flip_i(X)) − E(X)` for every bit.
/// [`DeltaTracker::flip`] applies the update rule of Eq. (16),
///
/// ```text
/// Δ_i(flip_k(X)) = Δ_i(X) + 2·W_ik·φ(x_i)·φ(x_k)   (i ≠ k)
/// Δ_k(flip_k(X)) = −Δ_k(X)
/// ```
///
/// with a single contiguous scan of row `W_k` (symmetry turns the column
/// access of the formula into a row access). The scan is *fused*: the
/// same traversal that applies the update also tracks the minimum of the
/// new Δ vector, so best-neighbour recording (Theorem 1: every flip
/// evaluates the new solution and all `n` of its neighbours at O(n)
/// cost) needs no second pass. [`DeltaTracker::flip_select`] extends the
/// fusion to the next selection: it flips, and returns the min-Δ index
/// inside the next policy window in the same call.
///
/// The accumulator width `A` is `i64` by default; when
/// [`Qubo::delta_bound`] fits, [`DeltaTracker::with_width`] can build an
/// `i32` tracker with identical behaviour and roughly half the hot-loop
/// memory traffic (see [`crate::acc`]).
///
/// The search starts at the zero vector `X = 0`, where `E(0) = 0` and
/// `Δ_i(0) = W_ii` (the GPU kernel initializes this way for the same
/// reason — no O(n²) energy evaluation is ever needed).
///
/// Note on the paper's pseudocode: Algorithm 4 writes the best-solution
/// check as `E(X) + d_i < E(B)` *inside* the update loop, before `E(X)`
/// itself is advanced. At that point `d_i` already refers to the post-flip
/// state, so the exact neighbour energy is `E(flip_k(X)) + d_i`. We use
/// the exact form: candidates are `e_new` and `e_new + d_i` for all `i`.
pub struct DeltaTracker<'a, A: DeltaAcc = Energy> {
    qubo: &'a Qubo,
    x: BitVec,
    /// φ(x_i) ∈ {+1, −1}, kept in sync with `x` — the sign array makes
    /// the scalar hot update loop branch-free and auto-vectorizable
    /// (the AVX-512 arm reads the packed bits of `x` instead).
    sign: Vec<i8>,
    e: Energy,
    /// The Δ vector, padded to the matrix row stride so the AVX-512
    /// kernel runs uniform chunks; entries `n..stride` hold the
    /// `A::LIMIT` sentinel and never win a min (see [`crate::simd`]).
    /// The logical element 0 lives at `d[d_off]`, 64-byte aligned (same
    /// runtime-offset trick as the padded `Qubo` rows), so full-width
    /// vector loads/stores of Δ chunks never split a cache line. All
    /// scans and the public view go through `d[d_off..][..n]`.
    d: Vec<A>,
    /// Element offset of the aligned logical Δ region inside `d`.
    d_off: usize,
    best: BitVec,
    best_e: Energy,
    flips: u64,
    /// The flip kernel this tracker dispatches to (decided at
    /// construction; [`FlipKernel::Scalar`] for wide accumulators).
    kernel: FlipKernel,
}

impl<A: DeltaAcc> Clone for DeltaTracker<'_, A> {
    fn clone(&self) -> Self {
        // Re-align instead of memcpy: the clone's buffer lands at a
        // different address, so a copied offset would silently lose the
        // 64-byte alignment the AVX-512 kernel relies on.
        let stride = self.d.len() - self.d_off;
        // invariant: d_off + i < d.len() for i < stride, by the line above.
        let (d, d_off) = aligned_d(stride, |i| self.d[self.d_off + i]);
        Self {
            qubo: self.qubo,
            x: self.x.clone(),
            sign: self.sign.clone(),
            e: self.e,
            d,
            d_off,
            best: self.best.clone(),
            best_e: self.best_e,
            flips: self.flips,
            kernel: self.kernel,
        }
    }
}

impl<'a> DeltaTracker<'a, Energy> {
    /// Creates a default-width (`i64`) tracker at the canonical start
    /// `X = 0`, `E = 0`, `Δ_i = W_ii` (O(n), reading only the diagonal).
    #[must_use]
    pub fn new(qubo: &'a Qubo) -> Self {
        Self::with_width(qubo)
    }

    /// Creates a default-width (`i64`) tracker positioned at an
    /// arbitrary solution `x`.
    ///
    /// This costs O(|ones|·n) (one flip per set bit) and exists for tests
    /// and baselines; the ABS device never uses it — it reaches arbitrary
    /// solutions through straight searches to stay at O(1) efficiency.
    #[must_use]
    pub fn at(qubo: &'a Qubo, x: &BitVec) -> Self {
        Self::at_width(qubo, x)
    }
}

impl<'a, A: DeltaAcc> DeltaTracker<'a, A> {
    /// Whether accumulator width `A` is safe for `qubo`: its
    /// [`Qubo::delta_bound`] must fit in `A`.
    #[must_use]
    pub fn fits(qubo: &Qubo) -> bool {
        qubo.delta_bound() <= A::LIMIT
    }

    /// Creates a tracker with accumulator width `A` at the canonical
    /// start `X = 0` (see [`DeltaTracker::new`]), dispatching to the
    /// best flip kernel the process detected ([`FlipKernel::detect`];
    /// the AVX-512 arm only engages for `i32` accumulators).
    ///
    /// # Panics
    /// Panics if `qubo`'s Δ bound does not fit width `A`. No valid `i16`
    /// problem trips this for `i32` (see [`qubo::MAX_BITS`]); the check
    /// stays as the guard.
    #[must_use]
    pub fn with_width(qubo: &'a Qubo) -> Self {
        Self::with_kernel(qubo, FlipKernel::detect())
    }

    /// Creates a width-`A` tracker forcing a specific flip kernel —
    /// how the vgpu block driver plumbs its per-launch choice through,
    /// and how benchmarks/tests pin an arm. Wide (`i64`) accumulators
    /// always run the scalar path regardless of `kernel`.
    ///
    /// # Panics
    /// Panics if `qubo`'s Δ bound does not fit width `A`, or if this CPU
    /// cannot run `kernel` ([`FlipKernel::is_supported`]) — the check
    /// that keeps the AVX-512 intrinsics off CPUs without them.
    #[must_use]
    pub fn with_kernel(qubo: &'a Qubo, kernel: FlipKernel) -> Self {
        assert!(
            Self::fits(qubo),
            "Δ bound {} exceeds the {} accumulator",
            qubo.delta_bound(),
            A::NAME
        );
        assert!(
            kernel.is_supported(),
            "flip kernel {} needs CPU features avx512f and avx2, which this CPU does not report",
            kernel.name()
        );
        let n = qubo.n();
        // Pad the Δ vector to the matrix row stride with A::LIMIT
        // sentinels: the AVX-512 kernel then runs uniform chunks, and a
        // sentinel can never win the running min strictly (the fold
        // always sees a real entry, see crate::simd).
        let (d, d_off) = aligned_d(qubo.stride(), |i| {
            if i < n {
                A::from_energy(Energy::from(qubo.diag(i)))
            } else {
                A::from_energy(A::LIMIT)
            }
        });
        let x = BitVec::zeros(n);
        let mut t = Self {
            qubo,
            best: x.clone(),
            x,
            sign: vec![1i8; n],
            e: 0,
            d,
            d_off,
            best_e: 0,
            flips: 0,
            kernel,
        };
        // The initialization evaluates E(0) = 0 and its n neighbours
        // (E(flip_i(0)) = W_ii) — record the best among them.
        // invariant: d_off + n <= d_off + stride = d.len() (aligned_d).
        if let Some((i, &min_d)) = t.d[t.d_off..][..n]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &v)| v)
        {
            if min_d.to_energy() < 0 {
                t.best.flip(i);
                t.best_e = min_d.to_energy();
            }
        }
        t
    }

    /// The flip kernel this tracker dispatches to.
    #[must_use]
    pub fn kernel(&self) -> FlipKernel {
        self.kernel
    }

    /// Creates a width-`A` tracker positioned at an arbitrary solution
    /// `x` (see [`DeltaTracker::at`] for cost and caveats).
    #[must_use]
    pub fn at_width(qubo: &'a Qubo, x: &BitVec) -> Self {
        let mut t = Self::with_width(qubo);
        // Collect first: flipping mutates `t.x` while we iterate `x`.
        let ones: Vec<usize> = x.iter_ones().collect();
        for k in ones {
            t.flip(k);
        }
        t.reset_best();
        t
    }

    /// The problem being searched.
    #[must_use]
    pub fn qubo(&self) -> &'a Qubo {
        self.qubo
    }

    /// Number of bits `n` (the Δ vector itself is padded to the matrix
    /// row stride, so its length is *not* `n`).
    #[must_use]
    #[inline]
    pub fn n(&self) -> usize {
        self.x.len()
    }

    /// The current solution `X`.
    #[must_use]
    pub fn x(&self) -> &BitVec {
        &self.x
    }

    /// The current energy `E(X)`.
    #[must_use]
    #[inline]
    pub fn energy(&self) -> Energy {
        self.e
    }

    /// The difference vector: `deltas()[i] = Δ_i(X)`, length `n`
    /// (the internal pad sentinels are not exposed).
    #[must_use]
    #[inline]
    pub fn deltas(&self) -> &[A] {
        // invariant: d_off + n <= d.len() by construction (aligned_d).
        &self.d[self.d_off..][..self.x.len()]
    }

    /// Best solution recorded since the last [`reset_best`].
    ///
    /// [`reset_best`]: DeltaTracker::reset_best
    #[must_use]
    pub fn best(&self) -> (&BitVec, Energy) {
        (&self.best, self.best_e)
    }

    /// Total flips performed. Each flip evaluates `n + 1` solutions (the
    /// new solution and its `n` neighbours), which is what the paper's
    /// *search rate* counts.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Number of solutions whose energy has been evaluated so far:
    /// `flips · (n + 1)` plus the `n + 1` evaluated at initialization
    /// (`E(0)` and its neighbours `Δ_i(0) = W_ii`). Device-level
    /// aggregation mirrors this: `GlobalMem::total_evaluated` adds one
    /// unit of `n + 1` per registered search unit.
    #[must_use]
    pub fn evaluated(&self) -> u64 {
        (self.flips + 1) * (self.n() as u64 + 1)
    }

    /// Total Δ-update work performed, `flips · n` — the numerator of
    /// Theorem 1's search-efficiency ratio. `work() / evaluated()`
    /// stays O(1) in `n` (it approaches `n / (n + 1) < 1`), which the
    /// telemetry layer monitors as the `abs_search_efficiency` gauge.
    #[must_use]
    pub fn work(&self) -> u64 {
        self.flips * self.n() as u64
    }

    /// Resets the best-solution record to the current solution
    /// (device Step 3: "reset the best solution `B` and its energy
    /// `E_B`" between bulk-search iterations, to avoid premature
    /// convergence and keep stored solutions diverse).
    pub fn reset_best(&mut self) {
        self.best.copy_from(&self.x);
        self.best_e = self.e;
    }

    /// Flips bit `k`, updating `X`, `E(X)`, all `Δ_i`, and the best
    /// record, in one fused O(n) pass over row `W_k`.
    pub fn flip(&mut self, k: usize) {
        self.flip_fused(k);
    }

    /// Min-Δ index inside the circular window of length `len` starting
    /// at `start` (at most two contiguous slice scans; ties break to the
    /// first index in scan order from `start`, exactly like
    /// [`crate::WindowMinPolicy`]).
    ///
    /// # Panics
    /// Panics if `start >= n`.
    #[must_use]
    pub fn select_in_window(&self, start: usize, len: usize) -> usize {
        match A::lanes(&self.d) {
            #[cfg(target_arch = "x86_64")]
            Some(d32) if self.kernel == FlipKernel::Avx512 => {
                // invariant: d_off + n <= d32.len() (aligned_d); windows
                // scan the logical prefix only.
                simd::window_argmin(&d32[self.d_off..][..self.n()], start, len)
            }
            _ => window_argmin(self.deltas(), start, len),
        }
    }

    /// The fused hot-path step: flips bit `k` and returns the min-Δ
    /// index inside the *next* selection window `(start, len)` — i.e.
    /// `self.flip(k)` followed by [`DeltaTracker::select_in_window`],
    /// with the window scan running on just-written (cache-resident)
    /// entries. [`crate::local_search`] drives this; policies that
    /// cannot express their choice as a window (random, Metropolis) keep
    /// the two-call `select` + `flip` API.
    pub fn flip_select(&mut self, k: usize, window: (usize, usize)) -> usize {
        self.flip_fused(k);
        self.select_in_window(window.0, window.1)
    }

    /// The fused kernel: one traversal of row `W_k` that applies the
    /// Eq. (16) update *and* computes `min_i Δ_i` of the new state for
    /// best-neighbour recording (no separate min pass). Dispatches to
    /// the AVX-512 arm ([`crate::simd`]) when the tracker's kernel is
    /// [`FlipKernel::Avx512`] and its accumulators are `i32`; both arms
    /// produce bit-identical state.
    fn flip_fused(&mut self, k: usize) {
        let n = self.n();
        assert!(k < n, "bit index {k} out of range {n}");
        let off = self.d_off;
        // invariant: k < n asserted above; off + n <= d.len() (aligned_d).
        let d_k_old = self.d[off + k];
        let d_k_new = d_k_old.neg();
        let e_new = self.e + d_k_old.to_energy();

        let min_d = match A::lanes_mut(&mut self.d) {
            // The AVX-512 arm reads signs straight from the packed
            // pre-flip solution words and lands the k lane on -Δ_k via
            // the pre-bias trick; pad sentinels pass through untouched.
            #[cfg(target_arch = "x86_64")]
            Some(d32) if self.kernel == FlipKernel::Avx512 => {
                // invariant: off + stride = d32.len(), so the aligned
                // view is exactly one padded row long.
                let m = simd::flip_update(
                    &mut d32[off..],
                    self.qubo.row_padded(k),
                    self.x.words(),
                    k,
                    self.x.get(k),
                );
                A::from_energy(Energy::from(m))
            }
            // Scalar kernel, or wide accumulators with no lane view.
            _ => self.scalar_update(k, d_k_new),
        };

        // invariant: sign[k] in bounds (k < n asserted at entry).
        self.sign[k] = -self.sign[k];
        self.x.flip(k);
        self.e = e_new;
        self.flips += 1;

        // Evaluation fusion (Theorem 1): the energies of the new
        // solution and all n of its neighbours are now known as e_new
        // and e_new + d_i, and min_d was folded into the update loops.
        // The argmin index is only located on improvement (rare path).
        if e_new < self.best_e {
            self.best.copy_from(&self.x);
            self.best_e = e_new;
        }
        if e_new + min_d.to_energy() < self.best_e {
            let d = self.deltas();
            // invariant: min_d was folded from d's own entries, so the
            // locate scan stops before i leaves the slice.
            let mut i = 0;
            while d[i] != min_d {
                i += 1;
            }
            self.best.copy_from(&self.x);
            self.best.flip(i);
            self.best_e = e_new + min_d.to_energy();
        }
    }

    /// The scalar fused arm (the `fused_i32`/`fused_i64` kernel):
    /// row `W_k` as the two contiguous halves `[0, k)` and `(k, n)`;
    /// the flipped bit's own entry is `−Δ_k` by Eq. (16) and seeds the
    /// running minimum. Returns `min_i Δ_i` of the new state.
    fn scalar_update(&mut self, k: usize, d_k_new: A) -> A {
        let n = self.n();
        let row = self.qubo.row(k);
        // Update half-loops (Eq. (16)), branch-free:
        //   d_i += 2 · W_ik · φ(x_i) · φ(x_k)
        // `two_pk = 2·φ(x_k)` is hoisted. Each half is a plain
        // add + min over contiguous slices, which auto-vectorizes; with
        // `A = i32` the lanes are twice as wide as the i64 seed kernel.
        // invariant: sign[k] in bounds (k < n checked by flip_fused).
        let two_pk = i32::from(self.sign[k]) * 2;
        let mut min_d = d_k_new;
        // invariant: the scalar arm walks the logical prefix
        // d[d_off..][..n] only (d_off + n <= d.len() by aligned_d).
        let (d_lo, d_rest) = self.d[self.d_off..][..n].split_at_mut(k);
        // abs-lint: allow(no-unwrap) -- d_rest is non-empty: split_at_mut(k) with k < n
        let (d_k_slot, d_hi) = d_rest.split_first_mut().expect("k < n");
        // invariant: ranges ..k and k+1.. are in bounds of row/sign (length n, k < n).
        for ((di, &w), &s) in d_lo.iter_mut().zip(&row[..k]).zip(&self.sign[..k]) {
            let v = di.add_coupling(w, s, two_pk);
            *di = v;
            min_d = min_d.min(v);
        }
        // invariant: ranges k+1.. start at most at n (k < n), so both slices are valid.
        for ((di, &w), &s) in d_hi.iter_mut().zip(&row[k + 1..]).zip(&self.sign[k + 1..]) {
            let v = di.add_coupling(w, s, two_pk);
            *di = v;
            min_d = min_d.min(v);
        }
        *d_k_slot = d_k_new;
        min_d
    }

    /// Verifies internal invariants against O(n²) reference computations.
    /// Test/debug helper — never called on the hot path.
    ///
    /// # Panics
    /// Panics if `E(X)` or any `Δ_i` disagrees with the reference.
    pub fn verify(&self) {
        assert_eq!(self.e, self.qubo.energy(&self.x), "energy drifted");
        for i in 0..self.n() {
            // invariant: d_off + i < d_off + n <= d.len() by the loop bound.
            assert_eq!(
                self.d[self.d_off + i].to_energy(),
                self.qubo.delta(&self.x, i),
                "delta {i} drifted"
            );
            let expect_sign = if self.x.get(i) { -1 } else { 1 };
            // invariant: i < n = sign.len() by the loop bound.
            assert_eq!(i32::from(self.sign[i]), expect_sign, "sign {i} drifted");
        }
        assert_eq!(self.best_e, self.qubo.energy(&self.best), "best drifted");
        // invariant: d_off + n() <= d.len(), so the pad slice is in bounds.
        for (i, v) in self.d[self.d_off + self.n()..].iter().enumerate() {
            assert_eq!(
                v.to_energy(),
                A::LIMIT,
                "pad sentinel {} disturbed",
                self.n() + i
            );
        }
    }
}

/// The dense arm: every trait method delegates to the inherent method of
/// the same name (fully qualified, so the `&self` inherent signatures
/// stay callable), keeping the monomorphized codegen identical to direct
/// calls — the SIMD flip tier is untouched by the storage abstraction.
impl<A: DeltaAcc> SearchTracker for DeltaTracker<'_, A> {
    type Acc = A;

    fn n(&self) -> usize {
        DeltaTracker::n(self)
    }

    fn x(&self) -> &BitVec {
        DeltaTracker::x(self)
    }

    fn energy(&self) -> Energy {
        DeltaTracker::energy(self)
    }

    fn deltas(&self) -> &[A] {
        DeltaTracker::deltas(self)
    }

    fn best(&self) -> (&BitVec, Energy) {
        DeltaTracker::best(self)
    }

    fn reset_best(&mut self) {
        DeltaTracker::reset_best(self);
    }

    fn flips(&self) -> u64 {
        DeltaTracker::flips(self)
    }

    fn evaluated(&self) -> u64 {
        DeltaTracker::evaluated(self)
    }

    fn work(&self) -> u64 {
        DeltaTracker::work(self)
    }

    fn flip(&mut self, k: usize) {
        DeltaTracker::flip(self, k);
    }

    fn select_in_window(&mut self, start: usize, len: usize) -> usize {
        DeltaTracker::select_in_window(self, start, len)
    }

    fn flip_select(&mut self, k: usize, window: (usize, usize)) -> usize {
        DeltaTracker::flip_select(self, k, window)
    }

    fn verify(&self) {
        DeltaTracker::verify(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_qubo(n: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        Qubo::random(n, &mut rng)
    }

    #[test]
    fn starts_at_zero_vector() {
        let q = random_qubo(10, 1);
        let t = DeltaTracker::new(&q);
        assert_eq!(t.energy(), 0);
        assert_eq!(t.x().count_ones(), 0);
        for i in 0..10 {
            assert_eq!(t.deltas()[i], i64::from(q.diag(i)));
        }
        t.verify();
    }

    #[test]
    fn single_flip_matches_reference() {
        let q = random_qubo(16, 2);
        let mut t = DeltaTracker::new(&q);
        t.flip(5);
        assert_eq!(t.energy(), i64::from(q.diag(5)));
        t.verify();
    }

    #[test]
    fn random_walk_keeps_invariants() {
        let q = random_qubo(33, 3); // crosses a word boundary
        let mut t = DeltaTracker::new(&q);
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..200 {
            t.flip(rng.gen_range(0..33));
            if step % 17 == 0 {
                t.verify();
            }
        }
        t.verify();
        assert_eq!(t.flips(), 200);
    }

    #[test]
    fn narrow_random_walk_keeps_invariants() {
        let q = random_qubo(33, 3);
        assert!(DeltaTracker::<i32>::fits(&q));
        let mut t = DeltaTracker::<'_, i32>::with_width(&q);
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..200 {
            t.flip(rng.gen_range(0..33));
            if step % 17 == 0 {
                t.verify();
            }
        }
        t.verify();
    }

    #[test]
    fn narrow_and_wide_walks_are_identical() {
        let q = random_qubo(48, 21);
        let mut wide = DeltaTracker::new(&q);
        let mut narrow = DeltaTracker::<'_, i32>::with_width(&q);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..300 {
            let k = rng.gen_range(0..48);
            wide.flip(k);
            narrow.flip(k);
        }
        assert_eq!(wide.x(), narrow.x());
        assert_eq!(wide.energy(), narrow.energy());
        assert_eq!(wide.best().0, narrow.best().0);
        assert_eq!(wide.best().1, narrow.best().1);
        let widened: Vec<i64> = narrow.deltas().iter().map(|&v| i64::from(v)).collect();
        assert_eq!(wide.deltas(), &widened[..]);
    }

    #[test]
    fn double_flip_is_identity_on_state() {
        let q = random_qubo(20, 4);
        let mut t = DeltaTracker::new(&q);
        for k in [3, 11, 19] {
            let e0 = t.energy();
            let d0 = t.deltas().to_vec();
            t.flip(k);
            t.flip(k);
            assert_eq!(t.energy(), e0);
            assert_eq!(t.deltas(), &d0[..]);
        }
    }

    #[test]
    fn best_tracks_neighbour_improvements() {
        // A neighbour of a visited solution is strictly better than every
        // *visited* solution: the diagonal is non-negative, but the strong
        // negative coupler W_12 makes flip_1(001) = 011 excellent. The
        // tracker must catch E(011) without ever visiting it.
        let q = Qubo::from_rows(3, &[[0, 0, 0], [0, 10, -100], [0, -100, 5]]).unwrap();
        let mut t = DeltaTracker::new(&q);
        assert_eq!(t.best().1, 0); // init neighbourhood has no improvement
        t.flip(2); // X = 001, E = 5; neighbour 011 has E = 10 + 5 − 200 = −185
        let (bx, be) = t.best();
        assert_eq!(be, -185);
        assert_eq!(bx.to_string(), "011");
        assert_eq!(be, q.energy(bx));
    }

    #[test]
    fn new_records_best_initial_neighbour() {
        let q = Qubo::from_rows(2, &[[4, 0], [0, -7]]).unwrap();
        let t = DeltaTracker::new(&q);
        assert_eq!(t.best().1, -7);
        assert_eq!(t.best().0.to_string(), "01");
    }

    #[test]
    fn reset_best_forgets_history() {
        let q = Qubo::from_rows(2, &[[-10, 0], [0, 1]]).unwrap();
        let mut t = DeltaTracker::new(&q);
        t.flip(0); // E = -10, best = -10
        assert_eq!(t.best().1, -10);
        t.flip(0); // back to 0
        assert_eq!(t.best().1, -10); // still remembers
        t.reset_best();
        assert_eq!(t.best().1, 0);
        assert_eq!(t.best().0, t.x());
    }

    #[test]
    fn at_positions_tracker_exactly() {
        let q = random_qubo(40, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let x = BitVec::random(40, &mut rng);
        let t = DeltaTracker::at(&q, &x);
        assert_eq!(t.x(), &x);
        assert_eq!(t.energy(), q.energy(&x));
        t.verify();
    }

    #[test]
    fn evaluated_counts_theorem1_accounting() {
        let q = random_qubo(8, 9);
        let mut t = DeltaTracker::new(&q);
        assert_eq!(t.evaluated(), 9); // init: solution + 8 neighbours
        t.flip(0);
        t.flip(1);
        assert_eq!(t.evaluated(), 3 * 9);
    }

    #[test]
    fn best_equals_exhaustive_min_over_visited_neighbourhood() {
        // After a walk, best() must equal the min energy over every
        // visited solution and every neighbour of every visited solution.
        let q = random_qubo(12, 10);
        let mut t = DeltaTracker::new(&q);
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen_min = 0i64; // E(0) = 0 and its neighbourhood:
        for i in 0..12 {
            seen_min = seen_min.min(q.energy(&BitVec::zeros(12).flipped(i)));
        }
        for _ in 0..60 {
            t.flip(rng.gen_range(0..12));
            let x = t.x().clone();
            seen_min = seen_min.min(q.energy(&x));
            for i in 0..12 {
                seen_min = seen_min.min(q.energy(&x.flipped(i)));
            }
            assert_eq!(t.best().1, seen_min);
        }
    }

    #[test]
    fn select_in_window_matches_policy_scan_order() {
        // Reference: the pre-fusion per-element `% n` scan.
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
        let q = random_qubo(37, 12);
        let mut t = DeltaTracker::new(&q);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            t.flip(rng.gen_range(0..37));
            let a = rng.gen_range(0..37);
            let l = rng.gen_range(1..=37);
            assert_eq!(
                t.select_in_window(a, l),
                reference(t.deltas(), a, l),
                "a={a} l={l}"
            );
        }
    }

    #[test]
    fn flip_select_equals_flip_then_select() {
        let q = random_qubo(29, 14);
        let mut fused = DeltaTracker::new(&q);
        let mut twocall = DeltaTracker::new(&q);
        let mut rng = StdRng::seed_from_u64(15);
        let mut k = 3usize;
        for _ in 0..150 {
            let a = rng.gen_range(0..29);
            let l = rng.gen_range(1..=29);
            let next_fused = fused.flip_select(k, (a, l));
            twocall.flip(k);
            let next_two = twocall.select_in_window(a, l);
            assert_eq!(next_fused, next_two);
            assert_eq!(fused.x(), twocall.x());
            assert_eq!(fused.best().1, twocall.best().1);
            k = next_fused;
        }
        fused.verify();
        twocall.verify();
    }

    #[test]
    fn all_kernels_walk_identically() {
        let arms: Vec<FlipKernel> = [FlipKernel::Scalar, FlipKernel::Avx512]
            .into_iter()
            .filter(|k| k.is_supported())
            .collect();
        for n in [5usize, 33, 64, 71] {
            let q = random_qubo(n, 40 + n as u64);
            let mut trackers: Vec<_> = arms
                .iter()
                .map(|&kern| DeltaTracker::<i32>::with_kernel(&q, kern))
                .collect();
            let mut rng = StdRng::seed_from_u64(41);
            let mut k = 0usize;
            for step in 0..120 {
                let a = rng.gen_range(0..n);
                let l = rng.gen_range(1..=n);
                let nexts: Vec<usize> = trackers
                    .iter_mut()
                    .map(|t| t.flip_select(k, (a, l)))
                    .collect();
                for (t, (&nx, &arm)) in trackers.iter().zip(nexts.iter().zip(&arms)).skip(1) {
                    assert_eq!(nx, nexts[0], "selection diverged: {arm:?} n={n}");
                    assert_eq!(t.x(), trackers[0].x(), "{arm:?} n={n}");
                    assert_eq!(t.energy(), trackers[0].energy(), "{arm:?} n={n}");
                    assert_eq!(t.best().1, trackers[0].best().1, "{arm:?} n={n}");
                    assert_eq!(t.deltas(), trackers[0].deltas(), "{arm:?} n={n}");
                }
                k = nexts[0];
                if step % 37 == 0 {
                    for t in &trackers {
                        t.verify();
                    }
                }
            }
            for t in &trackers {
                t.verify();
            }
        }
    }

    #[test]
    fn wide_tracker_falls_back_to_scalar_path() {
        // An i64 tracker has no lane view: even the AVX-512 request
        // that detection makes where supported must run the scalar arm
        // and stay correct.
        let q = random_qubo(40, 50);
        let mut t = DeltaTracker::<i64>::with_kernel(&q, FlipKernel::detect());
        let mut s = DeltaTracker::<i64>::with_kernel(&q, FlipKernel::Scalar);
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..100 {
            let k = rng.gen_range(0..40);
            t.flip(k);
            s.flip(k);
        }
        assert_eq!(t.x(), s.x());
        assert_eq!(t.deltas(), s.deltas());
        t.verify();
    }

    #[test]
    fn fits_reflects_delta_bound() {
        let q = random_qubo(16, 16);
        assert!(DeltaTracker::<i32>::fits(&q));
        assert!(DeltaTracker::<i64>::fits(&q));
    }

    #[test]
    fn all_min_weights_hit_the_worst_case_bound_and_fit_i32() {
        // |i16::MIN| = 32768 in every entry is the largest Δ bound an
        // n-bit problem can have: 32768·(2n − 1). qubo::MAX_BITS pins
        // that at MAX_BITS under i32::MAX at compile time.
        for n in [1usize, 2, 7, 64] {
            let q = Qubo::from_dense(n, vec![i16::MIN; n * n]).unwrap();
            assert_eq!(q.delta_bound(), 32768 * (2 * n as i64 - 1), "n={n}");
            assert!(DeltaTracker::<i32>::fits(&q), "n={n}");
        }
    }

    #[test]
    fn avx512_request_is_refused_exactly_where_unsupported() {
        let q = random_qubo(8, 52);
        let built = std::panic::catch_unwind(|| {
            DeltaTracker::<i32>::with_kernel(&q, FlipKernel::Avx512).kernel()
        });
        assert_eq!(built.is_ok(), FlipKernel::Avx512.is_supported());
    }
}
