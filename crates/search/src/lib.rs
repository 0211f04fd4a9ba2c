//! Search algorithms of the Adaptive Bulk Search paper (§2).
//!
//! The central type is [`DeltaTracker`]: the incremental-energy state that
//! maintains `E(X)` and the full difference vector
//! `Δ_k(X) = E(flip_k(X)) − E(X)` for all `k`, updating everything in one
//! O(n) row scan per flip (Eq. (16)). Because each flip *evaluates* the
//! energies of all `n` single-flip neighbours of the new solution, the
//! amortized cost per evaluated solution — the paper's *search
//! efficiency* — is O(1) (Theorem 1).
//!
//! On top of the tracker this crate provides:
//!
//! * [`policy`] — bit-selection policies for the forced-flip local search
//!   (Algorithm 4), including the paper's deterministic sliding-window
//!   minimum policy (Fig. 2).
//! * [`local`] — the forced-flip local search driver.
//! * [`straight`] — the straight search from a known solution to a target
//!   (Algorithm 5, Fig. 3).
//! * [`naive`] — instrumented reference implementations of Algorithms
//!   1–3, used to reproduce the search-efficiency analysis
//!   (Lemmas 1–3) experimentally.
//! * [`acc`] — Δ accumulator widths. The flip kernel is generic over
//!   [`DeltaAcc`] (`i32`/`i64`): when [`qubo::Qubo::delta_bound`] fits 32
//!   bits the narrow width halves the hot loop's memory traffic. Use
//!   [`DeltaTracker::fits`] to pick, [`DeltaTracker::with_width`] to
//!   build.
//!
//! The flip hot path is *fused* (one Δ-vector traversal per flip): the
//! Eq. (16) update, the Theorem 1 best-neighbour min, and — through
//! [`DeltaTracker::flip_select`] — the next window selection all run in
//! the same pass. [`local_search`] uses the fused path automatically for
//! any policy implementing [`SelectionPolicy::next_window`].
//!
//! On top of the fusion sits an AVX-512 tier ([`simd`]): for `i32`
//! accumulators on a CPU with `avx512f`, the fused pass runs in 16-lane
//! vectors over the padded row layout of [`qubo::Qubo`], picked by
//! runtime feature detection ([`FlipKernel::detect`]). Everywhere else
//! the scalar fused path runs; it is the portable, bit-identical
//! reference. `ABS_FORCE_SCALAR=1` forces the scalar arm process-wide.
//!
//! Orthogonal to the accumulator width sits the *storage* axis
//! (`qubo::MatrixStorage`): [`SparseDeltaTracker`] is the CSR arm with
//! O(degree) flips and bucketed window selection, bit-identical in
//! trajectories and best records to [`DeltaTracker`]. The
//! [`SearchTracker`] trait abstracts the two so [`local_search`] and
//! [`straight_search`] drive either arm; both impls are direct
//! delegations, so the dense SIMD codegen is untouched.
//!
//! # Example
//!
//! ```
//! use qubo::{BitVec, Qubo};
//! use qubo_search::{local_search, straight_search, DeltaTracker, WindowMinPolicy};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let q = Qubo::random(64, &mut rng);
//!
//! // One bulk-search iteration, by hand: start at 0, straight-search to
//! // a target, then run 100 forced flips with the paper's window policy.
//! let mut tracker = DeltaTracker::new(&q);
//! let target = BitVec::random(64, &mut rng);
//! let walked = straight_search(&mut tracker, &target);
//! assert_eq!(walked, target.hamming(&BitVec::zeros(64)) as u64);
//! assert_eq!(tracker.energy(), q.energy(&target)); // exact, no O(n²) work
//!
//! let mut policy = WindowMinPolicy::new(8);
//! local_search(&mut tracker, &mut policy, 100);
//! let (best, best_e) = tracker.best();
//! assert_eq!(best_e, q.energy(best));
//! ```

// deny (not forbid): the simd module scopes a single #[allow] around
// its feature-gated AVX-512 arm; everything else stays unsafe-free and
// abs-lint requires a SAFETY comment at every unsafe site in the
// Device zone (device-unsafe-justified).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod acc;
pub mod local;
pub mod naive;
pub mod policy;
pub mod simd;
pub mod sparse;
pub mod straight;
pub mod tracker;

pub use acc::DeltaAcc;
pub use local::local_search;
pub use policy::{
    window_argmin, GreedyPolicy, MetropolisPolicy, RandomPolicy, SelectionPolicy, WindowMinPolicy,
};
pub use simd::FlipKernel;
pub use sparse::SparseDeltaTracker;
pub use straight::straight_search;
pub use tracker::{DeltaTracker, SearchTracker};
