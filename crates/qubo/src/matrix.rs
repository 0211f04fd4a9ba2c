//! Dense symmetric QUBO weight matrices.

use crate::bitvec::BitVec;
use crate::energy::phi;
use crate::MAX_BITS;
use rand::Rng;
use std::fmt;

/// Errors produced when constructing a [`Qubo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuboError {
    /// The problem has zero bits or exceeds [`MAX_BITS`].
    BadSize(usize),
    /// The provided dense matrix is not `n × n`.
    BadShape {
        /// Number of provided entries.
        got: usize,
        /// Number of expected entries (`n²`).
        expected: usize,
    },
    /// The provided dense matrix is not symmetric at `(i, j)`.
    NotSymmetric(usize, usize),
    /// A triplet refers to a bit index `>= n`.
    IndexOutOfRange(usize),
    /// Accumulated weight at `(i, j)` overflows the 16-bit weight range.
    WeightOverflow(usize, usize),
}

impl fmt::Display for QuboError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadSize(n) => write!(f, "problem size {n} not in 1..={MAX_BITS}"),
            Self::BadShape { got, expected } => {
                write!(f, "dense matrix has {got} entries, expected {expected}")
            }
            Self::NotSymmetric(i, j) => write!(f, "matrix not symmetric at ({i}, {j})"),
            Self::IndexOutOfRange(i) => write!(f, "bit index {i} out of range"),
            Self::WeightOverflow(i, j) => {
                write!(f, "accumulated weight at ({i}, {j}) overflows i16")
            }
        }
    }
}

impl std::error::Error for QuboError {}

/// Row stride granularity in `i16` elements: 32 × 2 B = one 64-byte
/// cache line, and a multiple of every SIMD lane count we dispatch to,
/// so lane-wise kernels never straddle a row boundary.
pub const ROW_LANE: usize = 32;

/// Byte alignment of row 0 (and, since the stride is a [`ROW_LANE`]
/// multiple, of every row).
pub const ROW_ALIGN_BYTES: usize = ROW_LANE * 2;

/// Allocates a zeroed padded backing buffer for an `n`-bit problem:
/// `(stride, element offset of row 0, buffer)`. The buffer is
/// over-allocated by `ROW_LANE − 1` elements so the offset can align
/// row 0 to [`ROW_ALIGN_BYTES`] without unsafe allocation APIs.
fn padded_alloc(n: usize) -> (usize, usize, Box<[i16]>) {
    let stride = n.div_ceil(ROW_LANE) * ROW_LANE;
    let w = vec![0i16; n * stride + ROW_LANE - 1].into_boxed_slice();
    // `Box<[i16]>` is at least 2-byte aligned, so the byte remainder is
    // even and the element offset lands in 0..ROW_LANE.
    let addr = w.as_ptr() as usize;
    let off = ((ROW_ALIGN_BYTES - addr % ROW_ALIGN_BYTES) % ROW_ALIGN_BYTES) / 2;
    (stride, off, w)
}

/// An instance of a QUBO problem: an `n × n` symmetric matrix of 16-bit
/// weights `W = (W_ij)`, stored dense row-major.
///
/// The objective is to find an `n`-bit vector `X` minimizing
/// `E(X) = Xᵀ W X = Σ_{i,j} W_ij x_i x_j` (Eq. (1)).
///
/// The dense layout mirrors the GPU global-memory layout in the paper:
/// the hot operation of the incremental search is reading one full row
/// `W_k` contiguously (symmetry makes the column `W_{·k}` equal to the
/// row `W_{k·}`). Deviating from the paper's plain `n × n` square, rows
/// are stored at a stride rounded up to [`ROW_LANE`] elements with row 0
/// aligned to [`ROW_ALIGN_BYTES`]; the padding tail of every row is
/// zero. [`Qubo::row`] still returns exactly the `n` logical weights,
/// while [`Qubo::row_padded`] exposes the full stride for lane-wise
/// kernels (see DESIGN.md: zero pad weights contribute nothing to any
/// Δ, so Lemmas 1–3 accounting is unchanged).
pub struct Qubo {
    n: usize,
    /// Elements between consecutive row starts (`ROW_LANE` multiple).
    stride: usize,
    /// Element offset of row 0 inside `w` (aligns row 0 to 64 bytes).
    off: usize,
    w: Box<[i16]>,
}

impl Clone for Qubo {
    fn clone(&self) -> Self {
        // A fresh allocation lands at a different address, so the
        // aligning offset must be recomputed and rows re-copied; a
        // derived byte-for-byte clone would silently misalign.
        let (stride, off, mut w) = padded_alloc(self.n);
        for k in 0..self.n {
            let base = off + k * stride;
            w[base..base + self.n].copy_from_slice(self.row(k));
        }
        Self {
            n: self.n,
            stride,
            off,
            w,
        }
    }
}

impl PartialEq for Qubo {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality: the aligning offset (and thus the slack
        // region) differs between allocations of equal problems.
        self.n == other.n && (0..self.n).all(|k| self.row(k) == other.row(k))
    }
}

impl Eq for Qubo {}

impl Qubo {
    /// Creates a QUBO with all-zero weights.
    ///
    /// # Errors
    /// Returns [`QuboError::BadSize`] if `n == 0` or `n > MAX_BITS`.
    pub fn zero(n: usize) -> Result<Self, QuboError> {
        if n == 0 || n > MAX_BITS {
            return Err(QuboError::BadSize(n));
        }
        let (stride, off, w) = padded_alloc(n);
        Ok(Self { n, stride, off, w })
    }

    /// Creates a QUBO from a dense row-major matrix, validating symmetry.
    ///
    /// # Errors
    /// [`QuboError::BadShape`] if `w.len() != n²`,
    /// [`QuboError::NotSymmetric`] if `w[i][j] != w[j][i]`.
    pub fn from_dense(n: usize, w: Vec<i16>) -> Result<Self, QuboError> {
        if n == 0 || n > MAX_BITS {
            return Err(QuboError::BadSize(n));
        }
        if w.len() != n * n {
            return Err(QuboError::BadShape {
                got: w.len(),
                expected: n * n,
            });
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if w[i * n + j] != w[j * n + i] {
                    return Err(QuboError::NotSymmetric(i, j));
                }
            }
        }
        let mut q = Self::zero(n)?;
        for k in 0..n {
            let base = q.off + k * q.stride;
            q.w[base..base + n].copy_from_slice(&w[k * n..(k + 1) * n]);
        }
        Ok(q)
    }

    /// Creates a QUBO from fixed-size rows — convenient in tests and docs.
    ///
    /// # Errors
    /// Same as [`Qubo::from_dense`].
    pub fn from_rows<const N: usize>(n: usize, rows: &[[i16; N]]) -> Result<Self, QuboError> {
        let mut w = Vec::with_capacity(n * n);
        for row in rows {
            w.extend_from_slice(row);
        }
        Self::from_dense(n, w)
    }

    /// Creates a synthetic random problem: every weight drawn uniformly
    /// from the full 16-bit range `[-32768, 32767]` with `W_ij = W_ji`
    /// (§4.1.3 of the paper).
    ///
    /// # Panics
    /// Panics if `n` is out of range (synthetic generators are test/bench
    /// entry points where a panic is the right failure mode).
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        // abs-lint: allow(no-unwrap) -- documented Panics contract: synthetic generator entry point
        let mut q = Self::zero(n).expect("size in range");
        for i in 0..n {
            for j in i..n {
                let v: i16 = rng.gen();
                q.set(i, j, v);
            }
        }
        q
    }

    /// Number of bits (variables) `n`.
    #[must_use]
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element index of `W_ij` inside the padded backing buffer.
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        self.off + i * self.stride + j
    }

    /// Weight `W_ij`.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i16 {
        self.w[self.idx(i, j)]
    }

    /// Sets `W_ij` and `W_ji` simultaneously, keeping the matrix symmetric.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: i16) {
        let a = self.idx(i, j);
        let b = self.idx(j, i);
        self.w[a] = v;
        self.w[b] = v;
    }

    /// Row `W_k` as a contiguous slice of exactly `n` weights — the hot
    /// read of the Δ update.
    #[must_use]
    #[inline]
    pub fn row(&self, k: usize) -> &[i16] {
        let base = self.idx(k, 0);
        &self.w[base..base + self.n]
    }

    /// Row `W_k` including its zero padding tail: length
    /// [`Qubo::stride`], starting on a [`ROW_ALIGN_BYTES`] boundary.
    /// Lane-wise kernels read this so fixed-width chunks never straddle
    /// a row; the pad weights are zero and contribute nothing to any Δ.
    #[must_use]
    #[inline]
    pub fn row_padded(&self, k: usize) -> &[i16] {
        let base = self.idx(k, 0);
        &self.w[base..base + self.stride]
    }

    /// Elements between consecutive row starts: `n` rounded up to a
    /// [`ROW_LANE`] multiple.
    #[must_use]
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Diagonal weight `W_kk` (equal to `Δ_k(0)`).
    #[must_use]
    #[inline]
    pub fn diag(&self, k: usize) -> i16 {
        self.w[self.idx(k, k)]
    }

    /// Number of non-zero off-diagonal couplers `(i < j)`.
    #[must_use]
    pub fn coupler_count(&self) -> usize {
        let mut c = 0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.get(i, j) != 0 {
                    c += 1;
                }
            }
        }
        c
    }

    /// Reference energy function `E(X) = Σ_{i,j} W_ij x_i x_j` (Eq. (1)).
    ///
    /// O(|ones|²) — used for initialization, verification, and as the
    /// "naive" cost model; the incremental search never calls it.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    #[must_use]
    pub fn energy(&self, x: &BitVec) -> i64 {
        assert_eq!(x.len(), self.n, "solution length mismatch");
        let ones: Vec<usize> = x.iter_ones().collect();
        let mut e = 0i64;
        for &i in &ones {
            let row = self.row(i);
            for &j in &ones {
                e += i64::from(row[j]);
            }
        }
        e
    }

    /// Reference `Δ_k(X) = E(flip_k(X)) − E(X)` computed directly from
    /// Eq. (4): `Δ_k = φ(x_k)·(2·Σ_{i≠k} W_ki x_i + W_kk)`. O(n).
    ///
    /// # Panics
    /// Panics if `x.len() != n` or `k >= n`.
    #[must_use]
    pub fn delta(&self, x: &BitVec, k: usize) -> i64 {
        assert_eq!(x.len(), self.n, "solution length mismatch");
        assert!(k < self.n, "bit index out of range");
        let row = self.row(k);
        let mut s = 0i64;
        for i in x.iter_ones() {
            if i != k {
                s += i64::from(row[i]);
            }
        }
        i64::from(phi(x.get(k))) * (2 * s + i64::from(self.diag(k)))
    }

    /// A conservative bound on `|E(X)|` over all `X`, useful for sizing
    /// penalty weights: `Σ_{i,j} |W_ij|`.
    #[must_use]
    pub fn energy_bound(&self) -> i64 {
        self.w.iter().map(|&v| i64::from(v).abs()).sum()
    }

    /// A bound on `|Δ_k(X)|` over all `X` and `k`:
    /// `max_k (2·Σ_{i≠k} |W_ki| + |W_kk|) ≤ 2·n·max|W|`.
    ///
    /// From Eq. (4), `Δ_k = φ(x_k)·(2·Σ_{i≠k} W_ki x_i + W_kk)`, so the
    /// per-row bound holds for every reachable state. Incremental
    /// trackers use this to decide whether narrow (32-bit) Δ
    /// accumulators are safe for this instance.
    #[must_use]
    pub fn delta_bound(&self) -> i64 {
        (0..self.n)
            .map(|k| {
                let row_l1: i64 = self.row(k).iter().map(|&v| i64::from(v).abs()).sum();
                2 * row_l1 - i64::from(self.diag(k)).abs()
            })
            .max()
            .unwrap_or(0)
    }

    /// The largest absolute weight `max |W_ij|`.
    #[must_use]
    pub fn max_abs_weight(&self) -> i64 {
        self.w
            .iter()
            .map(|&v| i64::from(v).abs())
            .max()
            .unwrap_or(0)
    }

    /// 256-bit content digest over the *canonical* form of the
    /// instance: `n` followed by the upper triangle `W_ij (i ≤ j)` in
    /// row-major order. Padding, stride and storage tier never enter
    /// the digest, so two logically equal instances always hash equal
    /// regardless of how they were built, and any single-weight
    /// mutation changes the digest.
    ///
    /// The construction is BLAKE-inspired but *not* cryptographic
    /// (this crate takes no dependencies): four independently seeded
    /// 64-bit lanes absorb the stream through a splitmix64-style
    /// permutation and are finalised with the absorbed length. It is a
    /// cache/dedup key, not an integrity guarantee.
    #[must_use]
    pub fn content_hash(&self) -> ContentHash {
        let mut lanes = ContentSponge::new();
        lanes.absorb(self.n as u64);
        for i in 0..self.n {
            for j in i..self.n {
                // Widen through u16 so -1 and 65535 stay distinct
                // from each other only via the two's-complement map,
                // deterministically on every platform.
                lanes.absorb(u64::from(self.get(i, j) as u16));
            }
        }
        lanes.finish()
    }
}

impl fmt::Debug for Qubo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Qubo(n={}, couplers={})", self.n, self.coupler_count())
    }
}

/// 256-bit instance digest returned by [`Qubo::content_hash`].
///
/// Used as the key of the solve server's warm-start cache and for
/// request dedup: equal digests ⇒ same canonical upper triangle (up to
/// the collision resistance of a 256-bit non-cryptographic mix).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentHash([u64; 4]);

impl ContentHash {
    /// The four 64-bit lanes of the digest.
    #[must_use]
    pub fn as_words(&self) -> [u64; 4] {
        self.0
    }

    /// Lowercase 64-character hex rendering (lane 0 first).
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for lane in self.0 {
            for shift in (0..16).rev() {
                let nibble = (lane >> (shift * 4)) & 0xf;
                s.push(char::from_digit(nibble as u32, 16).unwrap_or('0'));
            }
        }
        s
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({})", self.to_hex())
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Four chained 64-bit absorption lanes (the BLAKE-inspired sponge
/// behind [`Qubo::content_hash`]).
struct ContentSponge {
    state: [u64; 4],
    absorbed: u64,
}

/// splitmix64 finalisation permutation (Steele et al.); full-avalanche
/// on 64 bits, which is what makes single-weight flips visible in
/// every lane.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ContentSponge {
    /// Distinct lane seeds (digits of φ, π, e, √2) and per-lane odd
    /// multipliers decorrelate the four lanes over the same stream.
    const SEEDS: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0x2430_54a5_4de6_37c7,
        0xadb7_2dbf_5a27_91cd,
        0x6a09_e667_f3bc_c909,
    ];
    const MULS: [u64; 4] = [
        0xff51_afd7_ed55_8ccd,
        0xc4ce_b9fe_1a85_ec53,
        0x9e6c_63d0_876a_8f29,
        0xd6e8_feb8_6659_fd93,
    ];

    fn new() -> Self {
        Self {
            state: Self::SEEDS,
            absorbed: 0,
        }
    }

    fn absorb(&mut self, word: u64) {
        self.absorbed = self.absorbed.wrapping_add(1);
        for lane in 0..4 {
            let keyed = word
                .wrapping_mul(Self::MULS[lane])
                .wrapping_add(self.absorbed);
            self.state[lane] = mix64(self.state[lane] ^ keyed);
        }
    }

    fn finish(mut self) -> ContentHash {
        let len = self.absorbed;
        for lane in 0..4 {
            self.state[lane] = mix64(self.state[lane] ^ len.wrapping_mul(Self::MULS[lane]));
        }
        ContentHash(self.state)
    }
}

/// Incremental builder accumulating sparse triplets into a [`Qubo`].
///
/// Duplicate `(i, j)` entries are summed; accumulation happens in `i32`
/// and overflow of the final 16-bit weight is reported, never wrapped.
/// A running fold that leaves `i32` is rejected the same way.
pub struct QuboBuilder {
    n: usize,
    acc: Vec<i32>,
}

impl QuboBuilder {
    /// Creates a builder for an `n`-bit problem.
    ///
    /// # Errors
    /// [`QuboError::BadSize`] if `n` is out of range.
    pub fn new(n: usize) -> Result<Self, QuboError> {
        if n == 0 || n > MAX_BITS {
            return Err(QuboError::BadSize(n));
        }
        Ok(Self {
            n,
            acc: vec![0i32; n * n],
        })
    }

    /// Number of bits.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds `v` to `W_ij` (and `W_ji`).
    ///
    /// # Errors
    /// [`QuboError::IndexOutOfRange`] for a bad index;
    /// [`QuboError::WeightOverflow`] if the running sum leaves `i32`.
    pub fn add(&mut self, i: usize, j: usize, v: i16) -> Result<(), QuboError> {
        if i >= self.n {
            return Err(QuboError::IndexOutOfRange(i));
        }
        if j >= self.n {
            return Err(QuboError::IndexOutOfRange(j));
        }
        let (v, overflow) = (i32::from(v), || QuboError::WeightOverflow(i, j));
        let ij = i * self.n + j;
        self.acc[ij] = self.acc[ij].checked_add(v).ok_or_else(overflow)?;
        if i != j {
            let ji = j * self.n + i;
            self.acc[ji] = self.acc[ji].checked_add(v).ok_or_else(overflow)?;
        }
        Ok(())
    }

    /// Finalizes the builder into a [`Qubo`].
    ///
    /// # Errors
    /// [`QuboError::WeightOverflow`] if any accumulated weight does not
    /// fit in `i16`.
    pub fn build(self) -> Result<Qubo, QuboError> {
        let n = self.n;
        let mut w = Vec::with_capacity(n * n);
        for (idx, &v) in self.acc.iter().enumerate() {
            match i16::try_from(v) {
                Ok(v16) => w.push(v16),
                Err(_) => return Err(QuboError::WeightOverflow(idx / n, idx % n)),
            }
        }
        Qubo::from_dense(n, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The exact weight matrix of Fig. 1 in the paper (n = 4).
    pub(crate) fn paper_fig1() -> Qubo {
        Qubo::from_rows(
            4,
            &[[-5, 2, 0, 3], [2, -3, 1, 0], [0, 1, -8, 2], [3, 0, 2, -6]],
        )
        .unwrap()
    }

    #[test]
    fn fig1_energies() {
        let q = paper_fig1();
        // E(0000) = 0; single-bit energies are the diagonal.
        assert_eq!(q.energy(&BitVec::from_bit_str("0000").unwrap()), 0);
        assert_eq!(q.energy(&BitVec::from_bit_str("1000").unwrap()), -5);
        assert_eq!(q.energy(&BitVec::from_bit_str("0100").unwrap()), -3);
        assert_eq!(q.energy(&BitVec::from_bit_str("0010").unwrap()), -8);
        assert_eq!(q.energy(&BitVec::from_bit_str("0001").unwrap()), -6);
        // Pairs count the coupler twice.
        assert_eq!(
            q.energy(&BitVec::from_bit_str("1100").unwrap()),
            -5 - 3 + 2 * 2
        );
        // All ones.
        let all = BitVec::from_bit_str("1111").unwrap();
        // Couplers (0,1)=2, (0,3)=3, (1,2)=1, (2,3)=2; (0,2) and (1,3) are 0.
        assert_eq!(q.energy(&all), -5 - 3 - 8 - 6 + 2 * (2 + 3 + 1 + 2));
    }

    #[test]
    fn delta_matches_energy_difference() {
        let q = paper_fig1();
        for bits in 0u32..16 {
            let x = BitVec::from_bits(&[
                (bits & 1) as u8,
                ((bits >> 1) & 1) as u8,
                ((bits >> 2) & 1) as u8,
                ((bits >> 3) & 1) as u8,
            ]);
            for k in 0..4 {
                let expect = q.energy(&x.flipped(k)) - q.energy(&x);
                assert_eq!(q.delta(&x, k), expect, "bits={bits:04b} k={k}");
            }
        }
    }

    #[test]
    fn from_dense_rejects_asymmetry() {
        let err = Qubo::from_dense(2, vec![0, 1, 2, 0]).unwrap_err();
        assert_eq!(err, QuboError::NotSymmetric(0, 1));
    }

    #[test]
    fn from_dense_rejects_bad_shape() {
        let err = Qubo::from_dense(2, vec![0, 1, 1]).unwrap_err();
        assert!(matches!(
            err,
            QuboError::BadShape {
                got: 3,
                expected: 4
            }
        ));
    }

    #[test]
    fn zero_size_rejected() {
        assert_eq!(Qubo::zero(0).unwrap_err(), QuboError::BadSize(0));
        assert_eq!(
            Qubo::zero(MAX_BITS + 1).unwrap_err(),
            QuboError::BadSize(MAX_BITS + 1)
        );
        assert!(Qubo::zero(MAX_BITS).is_ok());
    }

    #[test]
    fn builder_accumulates_and_symmetrizes() {
        let mut b = QuboBuilder::new(3).unwrap();
        b.add(0, 1, 5).unwrap();
        b.add(1, 0, 2).unwrap();
        b.add(2, 2, -7).unwrap();
        let q = b.build().unwrap();
        assert_eq!(q.get(0, 1), 7);
        assert_eq!(q.get(1, 0), 7);
        assert_eq!(q.diag(2), -7);
    }

    #[test]
    fn builder_detects_overflow() {
        let mut b = QuboBuilder::new(2).unwrap();
        b.add(0, 0, i16::MAX).unwrap();
        b.add(0, 0, 1).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            QuboError::WeightOverflow(0, 0)
        ));
        // 131 076 · 32 767 = 2³² − 4: an unchecked i32 fold wraps to a
        // valid-looking −4 instead of overflowing.
        for (i, j) in [(0, 1), (1, 1)] {
            let mut b = QuboBuilder::new(2).unwrap();
            let first_err = (0..131_076)
                .map(|_| b.add(i, j, i16::MAX))
                .find_map(Result::err);
            assert_eq!(first_err, Some(QuboError::WeightOverflow(i, j)));
        }
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = QuboBuilder::new(2).unwrap();
        assert_eq!(b.add(2, 0, 1).unwrap_err(), QuboError::IndexOutOfRange(2));
        assert_eq!(b.add(0, 5, 1).unwrap_err(), QuboError::IndexOutOfRange(5));
    }

    #[test]
    fn random_is_symmetric_and_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = Qubo::random(50, &mut r1);
        let b = Qubo::random(50, &mut r2);
        assert_eq!(a, b);
        for i in 0..50 {
            for j in 0..50 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
    }

    #[test]
    fn energy_bound_bounds_all_energies() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = Qubo::random(8, &mut rng);
        let bound = q.energy_bound();
        for bits in 0u32..256 {
            let x = BitVec::from_bits(&(0..8).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            assert!(q.energy(&x).abs() <= bound);
        }
    }

    #[test]
    fn row_is_contiguous_view() {
        let q = paper_fig1();
        assert_eq!(q.row(2), &[0, 1, -8, 2]);
    }

    #[test]
    fn rows_are_aligned_and_zero_padded() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1, 4, 31, 32, 33, 100] {
            let q = Qubo::random(n, &mut rng);
            assert_eq!(q.stride() % ROW_LANE, 0);
            assert!(q.stride() >= n && q.stride() < n + ROW_LANE);
            for k in 0..n {
                let padded = q.row_padded(k);
                assert_eq!(padded.as_ptr() as usize % ROW_ALIGN_BYTES, 0, "n={n} k={k}");
                assert_eq!(padded.len(), q.stride());
                assert_eq!(&padded[..n], q.row(k));
                assert!(padded[n..].iter().all(|&v| v == 0), "pad not zero");
            }
        }
    }

    #[test]
    fn clone_and_eq_are_logical() {
        let mut rng = StdRng::seed_from_u64(12);
        let q = Qubo::random(33, &mut rng);
        let c = q.clone();
        assert_eq!(q, c);
        // The clone is re-aligned, so its rows satisfy the same
        // alignment contract regardless of the new allocation address.
        for k in 0..33 {
            assert_eq!(c.row_padded(k).as_ptr() as usize % ROW_ALIGN_BYTES, 0);
        }
        let mut d = q.clone();
        d.set(0, 1, i16::MAX);
        assert_ne!(q, d);
    }

    #[test]
    fn delta_bound_bounds_all_deltas() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = Qubo::random(8, &mut rng);
        let bound = q.delta_bound();
        for bits in 0u32..256 {
            let x = BitVec::from_bits(&(0..8).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            for k in 0..8 {
                assert!(q.delta(&x, k).abs() <= bound, "bits={bits:08b} k={k}");
            }
        }
        assert!(bound <= 2 * 8 * q.max_abs_weight());
    }

    #[test]
    fn delta_bound_is_tight_on_fig1() {
        // Row 3 of Fig. 1: |−6| + 2·(3 + 0 + 2) = 16; rows 0–2 give
        // 15, 9, 14 — the max is 16.
        let q = paper_fig1();
        assert_eq!(q.delta_bound(), 16);
        assert_eq!(q.max_abs_weight(), 8);
    }

    #[test]
    fn content_hash_is_canonical_over_logical_equality() {
        // Two construction paths for the same instance (dense vs
        // builder) must digest identically: the hash reads the
        // canonical upper triangle, never the physical layout.
        let q = paper_fig1();
        let mut b = QuboBuilder::new(4).unwrap();
        for i in 0..4 {
            for j in i..4 {
                b.add(i, j, q.get(i, j)).unwrap();
            }
        }
        let twin = b.build().unwrap();
        assert_eq!(q, twin);
        assert_eq!(q.content_hash(), twin.content_hash());
        assert_eq!(q.content_hash().to_hex().len(), 64);
    }

    #[test]
    fn content_hash_separates_mutations_and_sizes() {
        let mut rng = StdRng::seed_from_u64(9);
        let q = Qubo::random(16, &mut rng);
        let base = q.content_hash();
        // Same n, one weight nudged: must miss (the staleness
        // regression the warm-start cache depends on).
        let mut mutated = q.clone();
        mutated.set(3, 7, mutated.get(3, 7).wrapping_add(1));
        assert_ne!(base, mutated.content_hash());
        // Diagonal-only mutation too.
        let mut diag = q.clone();
        diag.set(5, 5, diag.get(5, 5).wrapping_add(1));
        assert_ne!(base, diag.content_hash());
        // Different n, all-zero weights: n itself is absorbed.
        assert_ne!(
            Qubo::zero(4).unwrap().content_hash(),
            Qubo::zero(5).unwrap().content_hash()
        );
        // -1 must not collide with a large positive weight.
        let mut neg = Qubo::zero(2).unwrap();
        neg.set(0, 1, -1);
        let mut pos = Qubo::zero(2).unwrap();
        pos.set(0, 1, i16::MAX);
        assert_ne!(neg.content_hash(), pos.content_hash());
    }

    #[test]
    fn content_hash_is_stable_across_calls_and_hex_round_trips() {
        let mut rng = StdRng::seed_from_u64(11);
        let q = Qubo::random(32, &mut rng);
        let h = q.content_hash();
        assert_eq!(h, q.content_hash());
        assert_eq!(h, q.clone().content_hash());
        let hex = h.to_hex();
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(format!("{h}"), hex);
        assert_eq!(format!("{h:?}"), format!("ContentHash({hex})"));
    }
}
