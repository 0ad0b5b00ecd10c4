// Property tests for the dense eigensolver: eigen_symmetric_smallest(),
// asked for the full spectrum (m == n) or a few pairs, and its tridiagonal
// kernel must reproduce the Jacobi reference across >= 50 random seeds
// spanning four matrix families (random SPD, near-diagonal, clustered
// spectra, rank-deficient graph Laplacians), with eigenvalues matched to
// 1e-10 relative and eigenvectors compared respecting the shared sign
// convention. The cache-blocked dense kernels are checked bitwise against
// naive serial references on ragged shapes, and the solver must be
// bitwise thread-count invariant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "auditherm/core/parallel.hpp"
#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/linalg/matrix.hpp"
#include "auditherm/linalg/vector_ops.hpp"
#include "support/matrix_families.hpp"
#include "support/oracles.hpp"

namespace core = auditherm::core;
namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
using linalg::Matrix;
using linalg::Vector;
using support::family_matrix;
using support::family_name;
using support::random_matrix;
using support::random_spd;
using support::rank_deficient_laplacian;
using support::spectrum_scale;

namespace {

/// Shared eigenpair validation: `got` must carry `m` leading pairs agreeing
/// with the Jacobi reference `ref` on the symmetric matrix `a`.
/// Eigenvalues to 1e-10 relative; eigenvectors orthonormal, sign-pinned,
/// residual-small, and — when the eigenvalue is isolated — elementwise
/// equal to the reference (both solvers pin signs, so no flip slack).
void expect_matches_reference(const Matrix& a, const linalg::SymmetricEigen& ref,
                              const linalg::SymmetricEigen& got, std::size_t m,
                              const std::string& context) {
  ASSERT_GE(got.eigenvalues.size(), m) << context;
  ASSERT_EQ(got.eigenvectors.cols(), got.eigenvalues.size()) << context;
  ASSERT_EQ(got.eigenvectors.rows(), a.rows()) << context;
  const std::size_t n = a.rows();
  const double scale = spectrum_scale(ref.eigenvalues);

  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_NEAR(got.eigenvalues[j], ref.eigenvalues[j], 1e-10 * scale)
        << context << " eigenvalue " << j;
  }

  // Orthonormality of the computed columns.
  for (std::size_t j = 0; j < m; ++j) {
    const Vector vj = got.eigenvectors.col_vector(j);
    EXPECT_NEAR(linalg::norm2(vj), 1.0, 1e-8) << context << " column " << j;
    for (std::size_t l = j + 1; l < m; ++l) {
      EXPECT_NEAR(linalg::dot(vj, got.eigenvectors.col_vector(l)), 0.0, 1e-7)
          << context << " columns " << j << "," << l;
    }
  }

  for (std::size_t j = 0; j < m; ++j) {
    const Vector v = got.eigenvectors.col_vector(j);

    // Residual: ||A v - lambda v|| small relative to the spectrum.
    const Vector av = a * v;
    Vector lv = v;
    for (double& x : lv) x *= got.eigenvalues[j];
    EXPECT_NEAR(linalg::norm2(linalg::subtract(av, lv)), 0.0, 1e-7 * scale)
        << context << " residual " << j;

    // Sign convention: the largest-|component| entry is positive.
    std::size_t arg = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (std::abs(v[i]) > std::abs(v[arg])) arg = i;
    EXPECT_GE(v[arg], 0.0) << context << " sign pin " << j;

    // Isolated eigenvalues (gap to both neighbors) must reproduce the
    // reference direction. The comparison is up to sign: when a vector's
    // two largest |components| are an exact +/- tie (e.g. a two-node
    // Laplacian component), the pin resolves by last-ulp magnitudes and
    // can legitimately differ between solvers; the convention itself is
    // asserted per-vector above.
    const double gap_tol = 1e-6 * scale;
    const bool isolated =
        (j == 0 || ref.eigenvalues[j] - ref.eigenvalues[j - 1] > gap_tol) &&
        (j + 1 >= ref.eigenvalues.size() ||
         ref.eigenvalues[j + 1] - ref.eigenvalues[j] > gap_tol);
    if (isolated) {
      const Vector r = ref.eigenvectors.col_vector(j);
      const double d = linalg::dot(v, r);
      EXPECT_GT(std::abs(d), 1.0 - 1e-8)
          << context << " isolated direction " << j;
      const double sign = d < 0.0 ? -1.0 : 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(v[i], sign * r[i], 1e-6)
            << context << " vector " << j << " entry " << i;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Full spectrum (m == n) vs Jacobi: 50+ seeds over four families.
// ---------------------------------------------------------------------------

TEST(EigenSolvers, TridiagonalMatchesJacobiAcrossSeedsAndFamilies) {
  const std::size_t sizes[] = {5, 8, 13, 21, 30};
  for (std::uint64_t seed = 0; seed < 56; ++seed) {
    const std::size_t family = seed % 4;
    const std::size_t n = sizes[seed % 5];
    const auto a = family_matrix(family, n, 1000 + seed);
    const auto ref = support::eigen_symmetric(a);
    const auto got = linalg::eigen_symmetric_smallest(a, n);
    ASSERT_EQ(got.eigenvalues.size(), n);
    const std::string context = std::string(family_name(family)) + " n=" +
                                std::to_string(n) + " seed=" +
                                std::to_string(seed);
    expect_matches_reference(a, ref, got, n, context);
  }
}

TEST(EigenSolvers, PartialMatchesJacobiLeadingPairs) {
  const std::size_t sizes[] = {6, 9, 14, 22, 31};
  for (std::uint64_t seed = 0; seed < 56; ++seed) {
    const std::size_t family = seed % 4;
    const std::size_t n = sizes[seed % 5];
    const std::size_t m = 2 + seed % 5;  // 2..6 smallest pairs
    const auto a = family_matrix(family, n, 2000 + seed);
    const auto ref = support::eigen_symmetric(a);
    const auto got = linalg::eigen_symmetric_smallest(a, m);
    ASSERT_EQ(got.eigenvalues.size(), std::min(m, n));
    const std::string context = std::string("partial ") + family_name(family) +
                                " n=" + std::to_string(n) + " m=" +
                                std::to_string(m) + " seed=" +
                                std::to_string(seed);
    expect_matches_reference(a, ref, got, std::min(m, n), context);
  }
}

TEST(EigenSolvers, TridiagonalKernelMatchesJacobiOnSeededTridiagonals) {
  // detail::tridiagonal_smallest is the one bisection + inverse-iteration
  // kernel behind the dense solver and the Lanczos convergence checks; the
  // Jacobi oracle on the dense copy of T is the reference, for a few pairs
  // and for the whole spectrum. A third of the seeds zero some couplings
  // (a block-diagonal T, as after a Lanczos breakdown) and a third repeat
  // one 2x2 block down the diagonal, so eigenvalues recur exactly.
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    std::mt19937_64 rng(5000 + seed);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    const std::size_t n = 2 + seed % 23;
    Vector d(n);
    Vector e(n - 1);
    for (double& di : d) di = 4.0 * unit(rng);
    for (double& ei : e) ei = unit(rng);
    if (seed % 3 == 1) {
      for (std::size_t i = 0; i + 1 < n; ++i) {
        if (i % 4 == 3) e[i] = 0.0;
      }
    } else if (seed % 3 == 2) {
      const double d0 = d[0];
      const double d1 = d[1];
      const double coupling = e[0];
      for (std::size_t i = 0; i < n; ++i) d[i] = i % 2 == 0 ? d0 : d1;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        e[i] = i % 2 == 0 ? coupling : 0.0;
      }
    }
    Matrix t(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      t(i, i) = d[i];
      if (i + 1 < n) {
        t(i, i + 1) = e[i];
        t(i + 1, i) = e[i];
      }
    }
    const auto ref = support::eigen_symmetric(t);
    double scale = 1.0;
    for (const double x : t.data()) scale = std::max(scale, std::abs(x));
    for (const std::size_t m : {1 + seed % std::min<std::size_t>(n, 6), n}) {
      const std::string context = "n=" + std::to_string(n) + " m=" +
                                  std::to_string(m) + " seed=" +
                                  std::to_string(seed);
      const auto got = linalg::detail::tridiagonal_smallest(d, e, m);
      ASSERT_EQ(got.eigenvalues.size(), m) << context;
      ASSERT_EQ(got.vectors.size(), m) << context;
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_NEAR(got.eigenvalues[j], ref.eigenvalues[j], 1e-10 * scale)
            << context << " eigenvalue " << j;
        const Vector& s = got.vectors[j];
        ASSERT_EQ(s.size(), n) << context;
        EXPECT_NEAR(linalg::norm2(s), 1.0, 1e-10)
            << context << " vector " << j;
        Vector ls = s;
        for (double& x : ls) x *= got.eigenvalues[j];
        const Vector residual = linalg::subtract(t * s, ls);
        EXPECT_LE(linalg::norm2(residual), 1e-9 * scale)
            << context << " residual " << j;
        for (std::size_t l = 0; l < j; ++l) {
          EXPECT_NEAR(linalg::dot(s, got.vectors[l]), 0.0, 1e-9)
              << context << " vectors " << l << "," << j;
        }
        // An isolated eigenvalue fixes its vector up to sign.
        const double gap = 1e-6 * scale;
        const bool isolated =
            (j == 0 || ref.eigenvalues[j] - ref.eigenvalues[j - 1] > gap) &&
            (j + 1 == n || ref.eigenvalues[j + 1] - ref.eigenvalues[j] > gap);
        if (isolated) {
          EXPECT_GT(std::abs(linalg::dot(s, ref.eigenvectors.col_vector(j))),
                    1.0 - 1e-9)
              << context << " direction " << j;
        }
      }
    }
  }
}

TEST(EigenSolvers, PartialValidation) {
  const auto a = random_spd(5, 3);
  EXPECT_THROW((void)linalg::eigen_symmetric_smallest(Matrix(2, 3), 1),
               std::invalid_argument);
  EXPECT_THROW((void)linalg::eigen_symmetric_smallest(a, 0),
               std::invalid_argument);
  // m > n is a caller sizing bug: rejected, not silently clamped.
  EXPECT_THROW((void)linalg::eigen_symmetric_smallest(a, 12),
               std::invalid_argument);
  // Exactly-full request agrees with the Jacobi oracle.
  const auto all = linalg::eigen_symmetric_smallest(a, 5);
  ASSERT_EQ(all.eigenvalues.size(), 5u);
  const auto full = support::eigen_symmetric(a);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(all.eigenvalues[j], full.eigenvalues[j], 1e-10);
  }
}

TEST(EigenSolvers, TrivialSizes) {
  // An empty matrix has no pair to ask for (clustering::analyze_spectrum
  // returns an empty analysis without calling the solver).
  EXPECT_THROW((void)linalg::eigen_symmetric_smallest(Matrix(), 0),
               std::invalid_argument);
  const auto one = linalg::eigen_symmetric_smallest(Matrix{{4.0}}, 1);
  ASSERT_EQ(one.eigenvalues.size(), 1u);
  EXPECT_DOUBLE_EQ(one.eigenvalues[0], 4.0);
  EXPECT_DOUBLE_EQ(one.eigenvectors(0, 0), 1.0);
  const auto tri = linalg::detail::tridiagonal_smallest(Vector{4.0}, {}, 1);
  ASSERT_EQ(tri.eigenvalues.size(), 1u);
  EXPECT_DOUBLE_EQ(tri.eigenvalues[0], 4.0);
  EXPECT_EQ(tri.vectors[0], Vector{1.0});
  // 2x2 [[2, 1], [1, 2]]: eigenvalues 1 and 3, vectors (1, -+1)/sqrt(2).
  const Matrix two{{2.0, 1.0}, {1.0, 2.0}};
  const auto full = linalg::eigen_symmetric_smallest(two, 2);
  const auto kernel =
      linalg::detail::tridiagonal_smallest(Vector{2.0, 2.0}, Vector{1.0}, 2);
  for (const auto& values : {full.eigenvalues, kernel.eigenvalues}) {
    ASSERT_EQ(values.size(), 2u);
    EXPECT_NEAR(values[0], 1.0, 1e-14);
    EXPECT_NEAR(values[1], 3.0, 1e-14);
  }
  const double h = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(full.eigenvectors(0, 0)), h, 1e-14);
  EXPECT_NEAR(full.eigenvectors(0, 0) + full.eigenvectors(1, 0), 0.0, 1e-14);
  EXPECT_NEAR(full.eigenvectors(0, 1), h, 1e-14);
  EXPECT_NEAR(full.eigenvectors(1, 1), h, 1e-14);
}

// ---------------------------------------------------------------------------
// Thread-count invariance of the solver (bitwise).
// ---------------------------------------------------------------------------

TEST(EigenSolvers, TridiagonalBitwiseStableAcrossThreads) {
  // The full spectrum (m == n) of a dense Gram matrix and of a
  // disconnected Laplacian (a repeated zero eigenvalue).
  const auto g = random_matrix(300, 48, 77);
  for (const auto& s : {linalg::gram(g, g), rank_deficient_laplacian(48, 6)}) {
    linalg::SymmetricEigen serial;
    {
      core::ThreadCountScope scope(1);
      serial = linalg::eigen_symmetric_smallest(s, 48);
    }
    for (std::size_t threads : {2u, 4u, 8u}) {
      core::ThreadCountScope scope(threads);
      const auto eig = linalg::eigen_symmetric_smallest(s, 48);
      EXPECT_EQ(eig.eigenvalues, serial.eigenvalues) << "threads=" << threads;
      EXPECT_EQ(eig.eigenvectors, serial.eigenvectors)
          << "threads=" << threads;
    }
  }
}

TEST(EigenSolvers, PartialBitwiseStableAcrossThreads) {
  const auto l = rank_deficient_laplacian(48, 5);
  linalg::SymmetricEigen serial;
  {
    core::ThreadCountScope scope(1);
    serial = linalg::eigen_symmetric_smallest(l, 6);
  }
  for (std::size_t threads : {2u, 4u, 8u}) {
    core::ThreadCountScope scope(threads);
    const auto eig = linalg::eigen_symmetric_smallest(l, 6);
    EXPECT_EQ(eig.eigenvalues, serial.eigenvalues) << "threads=" << threads;
    EXPECT_EQ(eig.eigenvectors, serial.eigenvectors) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Cache-blocked dense kernels vs naive serial references on ragged shapes.
// The blocked loops keep each element's ascending-k summation order, so
// equality is bitwise, at every thread count.
// ---------------------------------------------------------------------------

namespace {

Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t k = 0; k < a.cols(); ++k)
        if (a(i, k) != 0.0) c(i, j) += a(i, k) * b(k, j);
  return c;
}

Matrix naive_gram(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t k = 0; k < a.rows(); ++k)
        if (a(k, i) != 0.0) c(i, j) += a(k, i) * b(k, j);
  return c;
}

Vector naive_matvec(const Matrix& a, const Vector& x) {
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    y[i] = s;
  }
  return y;
}

}  // namespace

TEST(BlockedKernels, RaggedShapesMatchNaiveBitwise) {
  // Shapes straddling the 64-wide block boundary: exact multiples, one
  // less/more, tiny edges, single rows/columns.
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 1, 1},    {3, 65, 2},   {64, 64, 64}, {65, 63, 67},
                {127, 129, 64}, {1, 64, 130}, {64, 1, 64},  {130, 5, 33},
                {66, 128, 1}};
  std::uint64_t seed = 500;
  for (const auto& s : shapes) {
    const auto a = random_matrix(s.m, s.k, seed++);
    const auto b = random_matrix(s.k, s.n, seed++);
    const auto expected = naive_multiply(a, b);
    const auto gram_a = random_matrix(s.k, s.m, seed++);
    const auto gram_expected = naive_gram(gram_a, b);
    seed++;  // keeps the later seeds of the shape sweep unchanged
    const auto x = random_matrix(s.k, 1, seed++).col_vector(0);
    const auto matvec_expected = naive_matvec(a, x);
    for (std::size_t threads : {1u, 3u, 8u}) {
      core::ThreadCountScope scope(threads);
      EXPECT_EQ(a * b, expected)
          << "multiply " << s.m << "x" << s.k << "x" << s.n
          << " threads=" << threads;
      EXPECT_EQ(linalg::gram(gram_a, b), gram_expected)
          << "gram " << s.m << "x" << s.k << "x" << s.n
          << " threads=" << threads;
      EXPECT_EQ(a * x, matvec_expected)
          << "matvec " << s.m << "x" << s.k << " threads=" << threads;
    }
    // Transpose round-trips exactly through the tiled kernel.
    EXPECT_EQ(a.transposed().transposed(), a);
    const auto at = a.transposed();
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.k; ++j) ASSERT_EQ(at(j, i), a(i, j));
  }
}
