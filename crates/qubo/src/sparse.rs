//! Sparse (CSR) QUBO representation.
//!
//! The paper's GPU kernel is deliberately dense — every flip streams a
//! full matrix row, which is exactly what keeps 1024 threads busy and
//! the memory system saturated. On a CPU, however, sparse instances
//! (G-set graphs have ~0.5 % density) reward an O(degree) update. This
//! module provides the compressed-row form used by
//! `qubo_search::sparse::SparseDeltaTracker`; the dense/sparse trade-off
//! is measured in the `sparse_vs_dense` benchmark.

use crate::matrix::{Qubo, QuboError};
use crate::{BitVec, Energy, MAX_BITS};

/// A QUBO in compressed-sparse-row form: for each row `k`, the non-zero
/// off-diagonal entries `(j, W_kj)` plus the diagonal `W_kk`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseQubo {
    n: usize,
    /// CSR row starts into `cols`/`vals`, length `n + 1`.
    row_start: Vec<u32>,
    /// Column indices of non-zero off-diagonal entries.
    cols: Vec<u32>,
    /// Their weights.
    vals: Vec<i16>,
    /// Diagonal weights.
    diag: Vec<i16>,
}

impl SparseQubo {
    /// Builds the sparse form of a dense instance. O(n²).
    #[must_use]
    pub fn from_dense(q: &Qubo) -> Self {
        let n = q.n();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut diag = Vec::with_capacity(n);
        row_start.push(0u32);
        for i in 0..n {
            let row = q.row(i);
            for (j, &w) in row.iter().enumerate() {
                if j != i && w != 0 {
                    cols.push(j as u32);
                    vals.push(w);
                }
            }
            diag.push(q.diag(i));
            row_start.push(cols.len() as u32);
        }
        Self {
            n,
            row_start,
            cols,
            vals,
            diag,
        }
    }

    /// Builds directly from sparse triplets (`i < j` pairs may appear in
    /// any order; duplicates sum; both triangle orders accepted).
    ///
    /// # Errors
    /// Same domain as [`Qubo`]: size in `1..=MAX_BITS`, indices in
    /// range, accumulated weights within `i16`. A running fold that
    /// leaves `i32` is rejected as [`QuboError::WeightOverflow`].
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, i16)]) -> Result<Self, QuboError> {
        if n == 0 || n > MAX_BITS {
            return Err(QuboError::BadSize(n));
        }
        // Accumulate per-row maps to keep memory O(nnz), not O(n²).
        let mut diag_acc = vec![0i32; n];
        let mut rows: Vec<std::collections::BTreeMap<u32, i32>> =
            vec![std::collections::BTreeMap::new(); n];
        for &(i, j, w) in triplets {
            if i >= n {
                return Err(QuboError::IndexOutOfRange(i));
            }
            if j >= n {
                return Err(QuboError::IndexOutOfRange(j));
            }
            let fold = |acc: &mut i32| -> Result<(), QuboError> {
                *acc = acc
                    .checked_add(i32::from(w))
                    .ok_or(QuboError::WeightOverflow(i, j))?;
                Ok(())
            };
            if i == j {
                // invariant: i < n checked above; diag_acc has length n.
                fold(&mut diag_acc[i])?;
            } else {
                // invariant: i and j both range-checked against n above.
                fold(rows[i].entry(j as u32).or_insert(0))?;
                fold(rows[j].entry(i as u32).or_insert(0))?;
            }
        }
        let mut row_start = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut diag = Vec::with_capacity(n);
        row_start.push(0u32);
        for i in 0..n {
            // invariant: i < n = rows.len() = diag_acc.len().
            for (&j, &w) in &rows[i] {
                if w != 0 {
                    let w16 =
                        i16::try_from(w).map_err(|_| QuboError::WeightOverflow(i, j as usize))?;
                    cols.push(j);
                    vals.push(w16);
                }
            }
            // invariant: i < n = diag_acc.len() by the loop bound.
            let d16 = i16::try_from(diag_acc[i]).map_err(|_| QuboError::WeightOverflow(i, i))?;
            diag.push(d16);
            row_start.push(cols.len() as u32);
        }
        Ok(Self {
            n,
            row_start,
            cols,
            vals,
            diag,
        })
    }

    /// Number of bits.
    #[must_use]
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored non-zero off-diagonal entries (both triangles).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Diagonal weight `W_kk`.
    #[must_use]
    #[inline]
    pub fn diag(&self, k: usize) -> i16 {
        // invariant: callers pass k < n; diag has length n.
        self.diag[k]
    }

    /// The non-zero off-diagonal entries of row `k` as `(column, weight)`
    /// pairs — the O(degree) scan of the sparse flip update.
    #[inline]
    pub fn row(&self, k: usize) -> impl Iterator<Item = (usize, i16)> + '_ {
        // invariant: k < n and row_start has n + 1 entries.
        let lo = self.row_start[k] as usize;
        let hi = self.row_start[k + 1] as usize;
        // invariant: lo ≤ hi ≤ cols.len() by CSR construction.
        self.cols[lo..hi]
            .iter()
            // invariant: vals is parallel to cols (same length).
            .zip(&self.vals[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Row `k` as parallel column/weight slices — the zero-abstraction
    /// form of [`SparseQubo::row`] for hot loops that want to control
    /// their own iteration (unrolling, index arithmetic).
    #[must_use]
    #[inline]
    pub fn row_parts(&self, k: usize) -> (&[u32], &[i16]) {
        // invariant: k < n and row_start has n + 1 entries.
        let lo = self.row_start[k] as usize;
        let hi = self.row_start[k + 1] as usize;
        // invariant: lo ≤ hi ≤ cols.len() = vals.len() by construction.
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Degree (non-zero off-diagonals) of row `k`.
    #[must_use]
    pub fn degree(&self, k: usize) -> usize {
        // invariant: k < n and row_start has n + 1 entries.
        (self.row_start[k + 1] - self.row_start[k]) as usize
    }

    /// Reference energy `E(X)` (O(nnz + n)).
    ///
    /// # Panics
    /// Panics on a length mismatch.
    #[must_use]
    pub fn energy(&self, x: &BitVec) -> Energy {
        assert_eq!(x.len(), self.n, "solution length mismatch");
        let mut e = 0i64;
        for i in 0..self.n {
            if !x.get(i) {
                continue;
            }
            // invariant: i < n = diag.len() by the loop bound.
            e += i64::from(self.diag[i]);
            for (j, w) in self.row(i) {
                if x.get(j) {
                    e += i64::from(w);
                }
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sparse_random(n: usize, nnz_pairs: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Qubo::zero(n).unwrap();
        for _ in 0..nnz_pairs {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            q.set(i, j, rng.gen_range(-50..=50));
        }
        q
    }

    #[test]
    fn from_dense_matches_energies() {
        let q = sparse_random(40, 80, 1);
        let s = SparseQubo::from_dense(&q);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let x = BitVec::random(40, &mut rng);
            assert_eq!(s.energy(&x), q.energy(&x));
        }
        assert_eq!(s.n(), 40);
    }

    #[test]
    fn rows_are_symmetric_views() {
        let q = sparse_random(20, 30, 3);
        let s = SparseQubo::from_dense(&q);
        for i in 0..20 {
            for (j, w) in s.row(i) {
                assert_eq!(q.get(i, j), w);
                assert!(s.row(j).any(|(jj, ww)| jj == i && ww == w), "({i},{j})");
            }
            assert_eq!(s.degree(i), s.row(i).count());
        }
    }

    #[test]
    fn from_triplets_accumulates_both_orders() {
        let s = SparseQubo::from_triplets(4, &[(0, 2, 3), (2, 0, 4), (1, 1, -5)]).unwrap();
        assert_eq!(s.nnz(), 2); // (0,2) and (2,0) views of one coupler
        assert_eq!(s.diag(1), -5);
        assert!(s.row(0).any(|(j, w)| j == 2 && w == 7));
        assert!(s.row(2).any(|(j, w)| j == 0 && w == 7));
    }

    #[test]
    fn from_triplets_validates() {
        assert!(matches!(
            SparseQubo::from_triplets(0, &[]),
            Err(QuboError::BadSize(0))
        ));
        assert!(matches!(
            SparseQubo::from_triplets(2, &[(0, 5, 1)]),
            Err(QuboError::IndexOutOfRange(5))
        ));
        assert!(matches!(
            SparseQubo::from_triplets(2, &[(0, 1, 30_000), (0, 1, 30_000)]),
            Err(QuboError::WeightOverflow(0, 1))
        ));
    }

    #[test]
    fn zero_weights_are_dropped() {
        let s = SparseQubo::from_triplets(3, &[(0, 1, 5), (0, 1, -5)]).unwrap();
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.degree(0), 0);
    }

    #[test]
    fn triplet_and_dense_paths_agree() {
        let triplets = [(0usize, 1usize, 4i16), (1, 2, -3), (0, 0, 7), (2, 3, 1)];
        let s1 = SparseQubo::from_triplets(4, &triplets).unwrap();
        let mut b = crate::QuboBuilder::new(4).unwrap();
        for &(i, j, w) in &triplets {
            b.add(i, j, w).unwrap();
        }
        let s2 = SparseQubo::from_dense(&b.build().unwrap());
        assert_eq!(s1, s2);
    }
}
