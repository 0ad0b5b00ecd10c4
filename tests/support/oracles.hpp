#pragma once

/// \file oracles.hpp
/// Reference implementations the tests check the library against, and
/// helpers that build or inspect test fixtures. None of this is linked
/// into a production binary.

#include <cstddef>
#include <cstdint>

#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/linalg/matrix.hpp"
#include "auditherm/linalg/sparse.hpp"

namespace auditherm::test_support {

/// All eigenpairs of symmetric `a` by the cyclic Jacobi method: slow
/// (O(n^3) per sweep) but simple and robust, the reference every
/// production eigensolver is tested against. Same output conventions as
/// linalg::eigen_symmetric_smallest(): eigenvalues ascending,
/// orthonormal sign-pinned eigenvectors. `a` is symmetrized as
/// (A + A^T)/2 first. Throws std::invalid_argument when `a` is not
/// square. Performs up to `max_sweeps` rotation sweeps and throws
/// std::domain_error when the off-diagonal norm still exceeds the
/// tolerance afterwards.
[[nodiscard]] linalg::SymmetricEigen eigen_symmetric(
    const linalg::Matrix& a, std::size_t max_sweeps = 100);

/// True when the shapes match and every |a_ij - b_ij| <= tol.
[[nodiscard]] bool approx_equal(const linalg::Matrix& a,
                                const linalg::Matrix& b, double tol);

/// The UpdatableQr of rows [first, last) of [a | b] (every row by
/// default), one Givens append per row.
[[nodiscard]] linalg::UpdatableQr appended_qr(const linalg::Matrix& a,
                                              const linalg::Matrix& b,
                                              std::size_t first = 0,
                                              std::size_t last = SIZE_MAX);

/// Compress a dense matrix to CSR, dropping exact zeros and every entry
/// with |a_ij| <= drop_tol. With drop_tol == 0, to_dense() of the result
/// reproduces `a` bitwise.
[[nodiscard]] linalg::CsrMatrix from_dense(const linalg::Matrix& a,
                                           double drop_tol = 0.0);

/// Expand a CSR matrix to dense storage; duplicate column entries add up.
[[nodiscard]] linalg::Matrix to_dense(const linalg::CsrMatrix& a);

/// Pearson correlation of two equally long series (size >= 2), from the
/// n-1 sample covariance and standard deviations; 0 when either series is
/// constant. Throws std::invalid_argument otherwise.
[[nodiscard]] double pearson_correlation(const linalg::Vector& x,
                                         const linalg::Vector& y);

/// Undirected edges (i < j) with weight > 0 in a symmetric weight matrix.
[[nodiscard]] std::size_t edge_count(const linalg::Matrix& weights);

/// Connected components of the graph whose edges are the weights > 0
/// (an isolated vertex is its own component).
[[nodiscard]] std::size_t component_count(const linalg::Matrix& weights);

}  // namespace auditherm::test_support
