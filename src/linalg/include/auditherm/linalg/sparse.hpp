#pragma once

/// \file sparse.hpp
/// Compressed-sparse-row matrices and the Lanczos partial eigensolver.
///
/// The dense spectral path (similarity matrix -> dense Laplacian ->
/// tridiagonalization) is O(n^2) memory and O(n^3) time, which is fine for
/// the paper's 27-sensor auditorium but not for campus-scale fleets. A
/// k-NN-sparsified similarity graph has O(n k) edges, so its Laplacian
/// fits in CSR storage and the m smallest eigenpairs come out of a Lanczos
/// iteration whose cost is dominated by O(iterations x nnz) SpMV work.
///
/// Determinism contract (same as the dense solvers): SpMV is row-parallel
/// with each row accumulated serially in ascending column order, so
/// results are bitwise identical at any thread count; the Lanczos start
/// vectors come from the same splitmix64 hash the dense partial solver
/// uses, and eigenvectors obey the shared largest-|component|-positive
/// sign pin.

#include <cstddef>
#include <vector>

#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/linalg/matrix.hpp"

namespace auditherm::linalg {

/// Sparse matrix in compressed-sparse-row form.
///
/// Invariants: `row_ptr().size() == rows() + 1`, `row_ptr()` is
/// non-decreasing with `row_ptr().front() == 0` and `row_ptr().back() ==
/// nnz()`; within each row column indices are non-decreasing and < cols().
/// Duplicate column entries are permitted (they act additively, as when
/// the matrix is assembled from triplets).
class CsrMatrix {
 public:
  /// Empty 0 x 0 matrix.
  CsrMatrix() = default;

  /// Build from raw CSR arrays. Throws std::invalid_argument when the
  /// arrays violate the invariants above (sizes, monotonicity, column
  /// bounds, or ordering within a row).
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 && cols_ == 0; }

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// Sparse matrix-vector product y = A x.
  ///
  /// Row-parallel on the deterministic thread pool: rows are independent
  /// and each row's accumulation runs serially in storage order, so the
  /// result is bitwise identical at any thread count. Throws
  /// std::invalid_argument when x.size() != cols().
  [[nodiscard]] Vector multiply(const Vector& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Compute the `m` smallest eigenpairs of the symmetric sparse matrix `a`
/// by a Lanczos iteration with full reorthogonalization.
///
/// Output matches eigen_symmetric_smallest(): eigenvalues ascending,
/// eigenvectors orthonormal with the largest-|component|-positive sign
/// pin. Each deflated pass grows a Krylov basis from a deterministic
/// splitmix64 start vector, reorthogonalized against every locked vector
/// and the whole basis (the O(j^2 n) insurance that keeps Ritz pairs from
/// duplicating in floating point), and locks the smallest Ritz pair once
/// its residual bound is below 1e-10 * ||A||_inf. Convergence is checked
/// every few steps by bisection on the Lanczos tridiagonal
/// (detail::tridiagonal_smallest), O(j) per probe. One pair per pass is
/// what gives a repeated eigenvalue its full multiplicity: with no locked
/// basis, each zero mode of a disconnected Laplacian comes from its own
/// pass, started from a fresh vector orthogonal to the modes already
/// found. Work is O(iterations x nnz) SpMV plus the reorthogonalization;
/// memory is the basis (iterations x n).
///
/// `locked` holds eigenvectors the caller already knows (e.g. a
/// Laplacian's null space from its connected components). They become the
/// first |locked| pairs, in the given order, each with its Rayleigh
/// quotient as eigenvalue, and the passes compute only the remaining
/// m - |locked| pairs in their orthogonal complement. Pass eigenvectors
/// of the smallest eigenvalues, or the result is not the m smallest
/// pairs. Throws std::invalid_argument when a vector's length is not
/// rows(), the set is not orthonormal to 1e-10, it holds more than m
/// vectors, or a vector's residual ||A x - theta x|| exceeds
/// 1e-10 * ||A||_inf.
///
/// `a` is used as stored — callers pass a numerically symmetric matrix
/// (e.g. a graph Laplacian); tiny asymmetries shift eigenvalues by O(eps)
/// like any perturbation. Throws std::invalid_argument when `a` is not
/// square, m == 0, or m > rows (callers must size partial-spectrum
/// requests, matching the dense solver's contract); std::domain_error
/// when the matrix holds a non-finite entry — as soon as a Lanczos
/// coefficient or a locked vector's residual comes out NaN or Inf, naming
/// the iteration or the vector — or when no start vector outside the
/// converged subspace can be found.
[[nodiscard]] SymmetricEigen eigen_symmetric_smallest_sparse(
    const CsrMatrix& a, std::size_t m, const std::vector<Vector>& locked = {});

}  // namespace auditherm::linalg
