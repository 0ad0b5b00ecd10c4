#pragma once

/// \file matrix_families.hpp
/// Seeded symmetric test matrices shared by the dense and sparse
/// eigensolver tests: random SPD, near-diagonal, clustered spectra and
/// rank-deficient graph Laplacians.

#include <cstddef>
#include <cstdint>

#include "auditherm/linalg/matrix.hpp"

namespace auditherm::test_support {

/// rows x cols matrix of standard normal entries from seed `seed`.
[[nodiscard]] linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                                           std::uint64_t seed);

/// G^T G + 0.25 I for a random (n + 2) x n G.
[[nodiscard]] linalg::Matrix random_spd(std::size_t n, std::uint64_t seed);

/// Strongly diagonal-dominant symmetric matrix: eigenvalues nearly the
/// diagonal, off-diagonal coupling ~1e-3.
[[nodiscard]] linalg::Matrix near_diagonal(std::size_t n, std::uint64_t seed);

/// Q D Q^T with triples of equal eigenvalues, exercising the
/// degenerate-subspace handling. Q is the Jacobi oracle's eigenvector
/// basis of a seeded SPD matrix.
[[nodiscard]] linalg::Matrix clustered_spectrum(std::size_t n,
                                                std::uint64_t seed);

/// Unnormalized Laplacian of a random graph with 2-3 disconnected blocks
/// (2 + seed % 2; vertex i is in block i % blocks): rank-deficient, with
/// the zero eigenvalue repeated once per component.
[[nodiscard]] linalg::Matrix rank_deficient_laplacian(std::size_t n,
                                                      std::uint64_t seed);

/// Family 0..3: random_spd, near_diagonal, clustered_spectrum,
/// rank_deficient_laplacian (any larger index is the Laplacian).
[[nodiscard]] linalg::Matrix family_matrix(std::size_t family, std::size_t n,
                                           std::uint64_t seed);

/// Short name of a family for test failure messages.
[[nodiscard]] const char* family_name(std::size_t family);

/// max(1, max |eigenvalue|): the scale eigenvalue tolerances are relative
/// to.
[[nodiscard]] double spectrum_scale(const linalg::Vector& eigenvalues);

}  // namespace auditherm::test_support
