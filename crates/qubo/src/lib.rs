//! QUBO / Ising model substrate for the Adaptive Bulk Search (ABS) framework.
//!
//! This crate provides the problem and solution representations shared by
//! every other crate in the workspace:
//!
//! * [`BitVec`] — a packed bit vector representing a candidate solution
//!   `X = x_0 x_1 … x_{n-1}`.
//! * [`Qubo`] — a dense symmetric weight matrix `W` of 16-bit weights with
//!   the energy function `E(X) = Xᵀ W X` (Eq. (1) of the paper) and the
//!   per-bit energy difference `Δ_k(X) = E(flip_k(X)) − E(X)` (Eq. (4)).
//! * [`Ising`] — the equivalent ±1-spin formulation and exact conversions
//!   in both directions.
//! * [`mod@format`] — a plain-text `.qubo` file format (qbsolv-compatible
//!   sparse triplets) for interchange.
//!
//! # Conventions
//!
//! The energy is the *double* sum over all ordered pairs, so an
//! off-diagonal weight `W_ij` (with `W_ij = W_ji`) contributes `2·W_ij`
//! when both bits are set. Energies and deltas are `i64`: for the maximum
//! supported size (`n = 32768`, weights in `[-32768, 32767]`) the energy
//! magnitude is bounded by `n² · 2¹⁵ = 2⁴⁵`, far inside `i64` range.
//!
//! # Example
//!
//! ```
//! use qubo::{Qubo, BitVec};
//!
//! // The 4-bit example of Fig. 1 in the paper.
//! let w = Qubo::from_rows(4, &[
//!     [-5,  2,  0,  3],
//!     [ 2, -3,  1,  0],
//!     [ 0,  1, -8,  2],
//!     [ 3,  0,  2, -6],
//! ]).unwrap();
//! let x = BitVec::from_bits(&[1, 0, 1, 1]);
//! assert_eq!(w.energy(&x), -5 - 8 - 6 + 2 * (0 + 3 + 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod energy;
pub mod format;
pub mod ising;
pub mod json;
pub mod matrix;
pub mod sparse;
pub mod stats;
pub mod storage;

pub use bitvec::BitVec;
pub use energy::{phi, Energy};
pub use ising::Ising;
pub use json::JsonProblemError;
pub use matrix::{ContentHash, Qubo, QuboBuilder, QuboError, ROW_ALIGN_BYTES, ROW_LANE};
pub use sparse::SparseQubo;
pub use stats::InstanceStats;
pub use storage::{CouplingMatrix, MatrixStorage, SPARSE_DENSITY_PER_MILLE};

/// Maximum problem size supported by the reference ABS implementation
/// (the paper's GPU register budget allows up to 32 k bits).
pub const MAX_BITS: usize = 32 * 1024;

// The worst-case Δ bound, an all-`i16::MIN` matrix at `MAX_BITS`, is
// 32768·(2n − 1) (see `Qubo::delta_bound`). It fits `i32`, so every
// constructible problem runs on 32-bit Δ accumulators.
const _: () = assert!(32768 * (2 * MAX_BITS as i64 - 1) <= i32::MAX as i64);
