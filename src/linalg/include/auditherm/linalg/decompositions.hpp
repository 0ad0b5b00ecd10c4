#pragma once

/// \file decompositions.hpp
/// Matrix factorizations: Householder QR, a Givens-updated QR that grows
/// one row (or one merged factorization) at a time, Cholesky, and the
/// dense symmetric eigensolver.
///
/// These are the direct solvers behind the paper's convex least-squares
/// identification problem (eq. 4) and the spectral-clustering Laplacian
/// eigendecomposition (Section V).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "auditherm/linalg/matrix.hpp"

namespace auditherm::linalg {

/// Householder QR factorization A = Q R of an m x n matrix with m >= n.
///
/// Stores the Householder reflectors compactly; Q is never formed. The
/// consumer is least-squares solving.
class QrDecomposition {
 public:
  /// Factorize `a` (m x n, m >= n). Throws std::invalid_argument otherwise.
  explicit QrDecomposition(const Matrix& a);

  /// Minimum-residual solution x of A x = b (b has m entries).
  /// Throws std::domain_error if A is numerically rank-deficient.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Column-wise least-squares solve for multiple right-hand sides.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// True when some |R_ii| is below `tol * max_j |R_jj|`.
  [[nodiscard]] bool rank_deficient(double tol = 1e-12) const noexcept;

 private:
  void apply_reflectors(Vector& b) const;  // b := Q^T b (length m)

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  Matrix qr_;     // packed reflectors below diagonal, R on/above diagonal
  Vector rdiag_;  // diagonal of R
};

/// Incrementally built QR factorization of a row-streamed least-squares
/// system min ||A X - B||_F.
///
/// Holds only the n x n upper-triangular factor R and the rotated
/// right-hand side U = Q^T B (n x k) — Q itself is never stored, because a
/// least-squares solve needs nothing else. append() folds one new
/// observation row into [R | U] with Givens rotations in O(n (n + k)), and
/// merge() folds a second factorization's n rows of [R | U] the same way,
/// which yields the factorization of both row sets stacked. Both are
/// orthogonal rotations, hence backward stable. Rows are never removed: a
/// sliding window keeps suffix factorizations instead
/// (sysid::StreamingEstimator's two stacks).
///
/// Everything here is serial; results depend only on the sequence of
/// append/merge calls.
class UpdatableQr {
 public:
  /// Empty factorization of a `cols`-parameter system with `rhs_cols`
  /// right-hand-side columns. Throws std::invalid_argument when either
  /// count is zero.
  UpdatableQr(std::size_t cols, std::size_t rhs_cols);

  [[nodiscard]] std::size_t cols() const noexcept { return n_; }
  [[nodiscard]] std::size_t rhs_cols() const noexcept { return k_; }
  /// Rows folded in so far (appended or merged).
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

  /// Fold one observation row into the factorization: `a_row` has cols()
  /// entries, `b_row` rhs_cols(). O(n (n + k)).
  void append(const double* a_row, const double* b_row);

  /// Fold in every row `other` holds, so this factorizes the rows of both.
  /// Throws std::invalid_argument on a shape mismatch. O(n^2 (n + k)).
  void merge(const UpdatableQr& other);

  /// Least-squares solution X = R^{-1} U (n x k). Requires rows() >=
  /// cols(); throws std::domain_error when R is numerically
  /// rank-deficient.
  [[nodiscard]] Matrix solve() const;

  /// Ridge solution of min ||A X - B||^2 + lambda ||X||^2: folds the n
  /// rows of sqrt(lambda) I into [R | U] in place and back-substitutes, so
  /// it consumes the factorization (call it on a copy to keep one).
  /// O(n^2 (n + k)) — still independent of the row count, and it never
  /// forms A^T A, so the condition number is not squared. Throws
  /// std::invalid_argument unless lambda is positive.
  [[nodiscard]] Matrix solve_ridge(double lambda) &&;

  /// The current R factor (n x n upper triangular, R_ii >= 0).
  [[nodiscard]] const Matrix& r() const noexcept { return r_; }

  /// Frobenius norm squared of the folded rows, sum_i ||a_i||^2 =
  /// trace(A^T A); what relative-ridge scaling needs, maintained
  /// incrementally.
  [[nodiscard]] double gram_trace() const noexcept { return gram_trace_; }

  /// True when some R_ii is below `tol * max_j R_jj`.
  [[nodiscard]] bool rank_deficient(double tol = 1e-12) const noexcept;

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  std::size_t rows_ = 0;
  Matrix r_;  // n x n, upper triangular, diagonal >= 0
  Matrix u_;  // n x k
  double gram_trace_ = 0.0;
  Vector z_, y_;  // the row being folded in
};

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix.
class CholeskyDecomposition {
 public:
  /// Factorize `a`; throws std::domain_error when `a` is not (numerically)
  /// positive definite, std::invalid_argument when not square.
  explicit CholeskyDecomposition(const Matrix& a);

  /// Solve A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solve A X = B column-wise.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Lower-triangular factor L.
  [[nodiscard]] const Matrix& l() const noexcept { return l_; }

 private:
  Matrix l_;
};

/// Eigendecomposition of a symmetric matrix.
///
/// Every solver in this header returns eigenpairs in this shape, with the
/// same normalization: eigenvalues ascending, eigenvectors orthonormal,
/// and each eigenvector's sign pinned so its largest-|component| entry
/// (lowest index on ties) is positive. The sign pin is what makes cluster
/// assignments — and any other sign-sensitive consumer — stable across
/// solver choices.
struct SymmetricEigen {
  Vector eigenvalues;   ///< ascending order
  Matrix eigenvectors;  ///< column j pairs with eigenvalues[j]; orthonormal
};

/// Matrix size at which a partial Laplacian spectrum switches from the
/// dense eigen_symmetric_smallest() to sparse Lanczos (sparse.hpp). Below
/// it the dense solver's O(n^3/3) tridiagonalization is still cheap; from
/// it up the Laplacian of a k-NN-sparsified graph is mostly zeros, and
/// Lanczos — O(j) bisection convergence checks, the null space locked from
/// the graph's components — wins: 9 pairs of a one-component 512-vertex
/// k-NN hall take it ~50 ms at 1 thread against the dense solver's
/// 105-185 ms (4-vCPU host).
inline constexpr std::size_t kEigenSparseThreshold = 512;

/// Compute the `m` smallest eigenpairs of symmetric `a` (m == n is the
/// full spectrum).
///
/// Pipeline: Householder tridiagonalization of (A + A^T)/2, bisection on
/// the Sturm sequence for the m smallest eigenvalues, inverse iteration
/// for the tridiagonal eigenvectors (with within-cluster
/// reorthogonalization for repeated eigenvalues, e.g. a disconnected
/// Laplacian's zero modes), and a back-transform through the stored
/// reflectors. O(n^2 (n/3 + m)) work — this is the dense solver behind
/// spectral clustering, which only ever needs the k+1 smallest pairs.
/// Throws std::invalid_argument when `a` is not square, m == 0, or m > n
/// (a partial-spectrum request must fit the matrix; silently clamping hid
/// caller sizing bugs).
[[nodiscard]] SymmetricEigen eigen_symmetric_smallest(const Matrix& a,
                                                      std::size_t m);

namespace detail {

/// splitmix64-style hash to [0, 1): the deterministic start vectors shared
/// by inverse iteration and the sparse Lanczos solver — no global RNG
/// state, so every run (and every thread count) sees the same bits.
[[nodiscard]] double hash_unit(std::uint64_t x) noexcept;

/// Pin each eigenvector column's sign so the largest-|component| entry
/// (lowest index on ties) ends up positive — the normalization every
/// solver in this header and in sparse.hpp applies before returning.
void pin_column_signs(Matrix& eigenvectors);

/// The smallest eigenpairs of a symmetric tridiagonal matrix T, in T's own
/// basis (no sign pin: callers pin after mapping the vectors back).
struct TridiagonalEigen {
  Vector eigenvalues;           ///< ascending
  std::vector<Vector> vectors;  ///< unit eigenvectors of T, one per value
};

/// The `m` smallest eigenpairs of the tridiagonal T with diagonal `d`
/// (size n >= 1) and couplings `e` (e[i] joins rows i and i+1; entries
/// past e[n-2] are ignored; zeros make T block-diagonal), for
/// 1 <= m <= n. Bisection on the Sturm count finds the eigenvalues at
/// O(n) per probe; shifted inverse iteration from splitmix64 start
/// vectors finds the vectors at O(n) per solve, with members of a cluster
/// of nearly equal eigenvalues reorthogonalized against each other so
/// repeated eigenvalues keep their full multiplicity. Serial and
/// deterministic. This is the one tridiagonal kernel behind
/// eigen_symmetric_smallest() (after Householder reduction) and the
/// Lanczos convergence checks in sparse.hpp.
[[nodiscard]] TridiagonalEigen tridiagonal_smallest(const Vector& d,
                                                    const Vector& e,
                                                    std::size_t m);

}  // namespace detail

}  // namespace auditherm::linalg
