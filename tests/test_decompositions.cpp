// Unit + property tests for QR, Cholesky and the Jacobi eigensolver
// oracle (tests/support) the production eigensolvers are checked against.

#include "auditherm/linalg/decompositions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

#include "auditherm/linalg/least_squares.hpp"
#include "auditherm/linalg/vector_ops.hpp"
#include "support/oracles.hpp"

namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
using linalg::Matrix;
using linalg::Vector;

namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = dist(rng);
  return m;
}

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  const auto a = random_matrix(n + 3, n, seed);
  auto spd = linalg::gram(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

}  // namespace

// ---------------------------------------------------------------------------
// QR
// ---------------------------------------------------------------------------

TEST(Qr, SolvesSquareSystemExactly) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x_true{1.0, -2.0};
  const Vector b = a * x_true;
  linalg::QrDecomposition qr(a);
  const Vector x = qr.solve(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], -2.0, 1e-12);
}

TEST(Qr, LeastSquaresResidualOrthogonalToColumns) {
  const auto a = random_matrix(20, 3, 11);
  const auto b = random_matrix(20, 1, 12).col_vector(0);
  linalg::QrDecomposition qr(a);
  const Vector x = qr.solve(b);
  // Optimality: A^T (A x - b) = 0.
  const Vector r = linalg::subtract(a * x, b);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(linalg::dot(a.col_vector(j), r), 0.0, 1e-9);
  }
}

TEST(Qr, RejectsWideMatrix) {
  EXPECT_THROW(linalg::QrDecomposition(Matrix(2, 3)), std::invalid_argument);
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);  // dependent column
  }
  linalg::QrDecomposition qr(a);
  EXPECT_TRUE(qr.rank_deficient());
  EXPECT_THROW((void)qr.solve(Vector(4, 1.0)), std::domain_error);
}

TEST(Qr, RhsLengthMismatchThrows) {
  linalg::QrDecomposition qr(random_matrix(5, 2, 3));
  EXPECT_THROW((void)qr.solve(Vector(4, 1.0)), std::invalid_argument);
}

TEST(Qr, MultipleRhsMatchesSingle) {
  const auto a = random_matrix(9, 4, 21);
  const auto b = random_matrix(9, 3, 22);
  linalg::QrDecomposition qr(a);
  const auto x = qr.solve(b);
  for (std::size_t j = 0; j < 3; ++j) {
    const auto xj = qr.solve(b.col_vector(j));
    for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x(i, j), xj[i], 1e-12);
  }
}

// ---------------------------------------------------------------------------
// UpdatableQr
// ---------------------------------------------------------------------------

namespace {

/// Max |difference| between two solutions, relative to the larger scale.
double max_param_diff(const Matrix& a, const Matrix& b) {
  double diff = 0.0;
  double scale = 1.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      diff = std::max(diff, std::abs(a(i, j) - b(i, j)));
      scale = std::max(scale, std::abs(a(i, j)));
    }
  }
  return diff / scale;
}

/// Rows [first, last) of `m`.
Matrix row_range(const Matrix& m, std::size_t first, std::size_t last) {
  Matrix out(last - first, m.cols());
  for (std::size_t i = first; i < last; ++i) {
    out.set_row(i - first, m.row_vector(i));
  }
  return out;
}

}  // namespace

TEST(UpdatableQr, AppendsMatchBatchQr) {
  const auto a = random_matrix(20, 6, 1);
  const auto b = random_matrix(20, 2, 2);
  const auto inc = support::appended_qr(a, b);
  EXPECT_EQ(inc.rows(), 20u);
  const auto batch = linalg::QrDecomposition(a).solve(b);
  EXPECT_LT(max_param_diff(inc.solve(), batch), 1e-10);
  // R^T R must equal A^T A regardless of the rotation order.
  const auto rtr = linalg::gram(inc.r(), inc.r());
  EXPECT_TRUE(support::approx_equal(rtr, linalg::gram(a, a), 1e-8));
}

TEST(UpdatableQr, SolveRidgeMatchesAugmentedBatch) {
  const auto a = random_matrix(12, 4, 9);
  const auto b = random_matrix(12, 2, 10);
  const auto inc = support::appended_qr(a, b);
  const double lambda = 1e-3;
  // Reference: QR of [A; sqrt(lambda) I] with stacked zero rhs.
  Matrix aug(16, 4);
  Matrix baug(16, 2);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 4; ++j) aug(i, j) = a(i, j);
    for (std::size_t j = 0; j < 2; ++j) baug(i, j) = b(i, j);
  }
  for (std::size_t j = 0; j < 4; ++j) aug(12 + j, j) = std::sqrt(lambda);
  const auto batch = linalg::QrDecomposition(aug).solve(baug);
  const auto ridge = linalg::UpdatableQr(inc).solve_ridge(lambda);
  EXPECT_LT(max_param_diff(ridge, batch), 1e-10);
}

TEST(UpdatableQr, ArgumentChecks) {
  EXPECT_THROW(linalg::UpdatableQr(0, 1), std::invalid_argument);
  EXPECT_THROW(linalg::UpdatableQr(3, 0), std::invalid_argument);
  linalg::UpdatableQr inc(3, 1);
  EXPECT_THROW((void)linalg::UpdatableQr(inc).solve_ridge(0.0),
               std::invalid_argument);
  // Empty factorization is rank deficient.
  EXPECT_THROW((void)inc.solve(), std::domain_error);
  EXPECT_THROW(inc.merge(linalg::UpdatableQr(3, 2)), std::invalid_argument);
  EXPECT_THROW(inc.merge(linalg::UpdatableQr(2, 1)), std::invalid_argument);
}

TEST(UpdatableQr, MergeFactorizesTheStackedRows) {
  const auto a = random_matrix(20, 5, 31);
  const auto b = random_matrix(20, 2, 32);
  auto older = support::appended_qr(a, b, 0, 7);
  older.merge(support::appended_qr(a, b, 7, 20));
  EXPECT_EQ(older.rows(), 20u);
  double gram_trace = 0.0;
  for (const double v : a.data()) gram_trace += v * v;
  EXPECT_NEAR(older.gram_trace(), gram_trace, 1e-10 * gram_trace);
  EXPECT_LT(max_param_diff(older.solve(), linalg::QrDecomposition(a).solve(b)),
            1e-10);
  // Merging an empty factorization changes nothing.
  const auto before = older.solve();
  older.merge(linalg::UpdatableQr(5, 2));
  EXPECT_EQ(older.rows(), 20u);
  EXPECT_TRUE(support::approx_equal(older.solve(), before, 0.0));
}

/// Property sweep: 42 seeds comparing a window factored as two appended
/// halves and one merge (the streaming estimator's front top merged with
/// its back) against a from-scratch Householder factorization across
/// tall, square, and near-rank-deficient windows.
TEST(UpdatableQr, PropertySweepAcrossShapesAndSeeds) {
  for (std::uint64_t seed = 1; seed <= 42; ++seed) {
    // --- Tall window: rows 8..23 of 24 -> 16 x 5, halves of 8 rows.
    {
      const auto a = random_matrix(24, 5, 1000 + seed);
      const auto b = random_matrix(24, 2, 2000 + seed);
      auto inc = support::appended_qr(a, b, 8, 16);
      inc.merge(support::appended_qr(a, b, 16, 24));
      const auto batch = linalg::QrDecomposition(row_range(a, 8, 24))
                             .solve(row_range(b, 8, 24));
      EXPECT_LT(max_param_diff(inc.solve(), batch), 1e-8) << "seed " << seed;
    }
    // --- Square window: rows 5..9 of 10 -> exactly 5 x 5, and neither
    // half (2 and 3 rows) has full rank on its own.
    {
      const auto a = random_matrix(10, 5, 3000 + seed);
      const auto b = random_matrix(10, 1, 4000 + seed);
      auto inc = support::appended_qr(a, b, 5, 7);
      inc.merge(support::appended_qr(a, b, 7, 10));
      const auto batch = linalg::QrDecomposition(row_range(a, 5, 10))
                             .solve(row_range(b, 5, 10));
      EXPECT_LT(max_param_diff(inc.solve(), batch), 1e-7) << "seed " << seed;
    }
    // --- Near-rank-deficient window: two almost-collinear columns; the
    // plain solve is ill-posed, so compare the ridge solve against the
    // augmented-system reference.
    {
      auto a = random_matrix(20, 4, 5000 + seed);
      for (std::size_t i = 0; i < 20; ++i) {
        a(i, 1) = a(i, 0) + 1e-9 * a(i, 1);
      }
      const auto b = random_matrix(20, 1, 6000 + seed);
      auto inc = support::appended_qr(a, b, 4, 12);
      inc.merge(support::appended_qr(a, b, 12, 20));
      const double lambda = 1e-6;
      Matrix aug(20, 4);
      Matrix baug(20, 1);
      aug.set_block(0, 0, row_range(a, 4, 20));
      baug.set_block(0, 0, row_range(b, 4, 20));
      for (std::size_t j = 0; j < 4; ++j) aug(16 + j, j) = std::sqrt(lambda);
      const auto batch = linalg::QrDecomposition(aug).solve(baug);
      EXPECT_LT(max_param_diff(std::move(inc).solve_ridge(lambda), batch), 1e-6)
          << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Cholesky
// ---------------------------------------------------------------------------

TEST(Cholesky, FactorReconstructs) {
  const auto a = random_spd(6, 5);
  linalg::CholeskyDecomposition chol(a);
  const auto l = chol.l();
  const auto reconstructed = l * l.transposed();
  EXPECT_TRUE(support::approx_equal(reconstructed, a, 1e-9));
}

TEST(Cholesky, SolveMatchesDirectCheck) {
  const auto a = random_spd(5, 9);
  const Vector x_true{1.0, -1.0, 2.0, 0.5, -0.25};
  const Vector b = a * x_true;
  linalg::CholeskyDecomposition chol(a);
  const Vector x = chol.solve(b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(linalg::CholeskyDecomposition(Matrix(2, 3)),
               std::invalid_argument);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3 and -1
  EXPECT_THROW(linalg::CholeskyDecomposition{a}, std::domain_error);
}

TEST(Cholesky, RhsMismatchThrows) {
  linalg::CholeskyDecomposition chol(random_spd(3, 1));
  EXPECT_THROW((void)chol.solve(Vector(4, 0.0)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Symmetric eigensolver
// ---------------------------------------------------------------------------

TEST(EigenSymmetric, DiagonalMatrix) {
  const auto eig = support::eigen_symmetric(
      Matrix{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}});
  ASSERT_EQ(eig.eigenvalues.size(), 3u);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 3.0, 1e-12);
}

TEST(EigenSymmetric, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const auto eig = support::eigen_symmetric(a);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-10);
}

TEST(EigenSymmetric, EmptyAndSingle) {
  EXPECT_TRUE(support::eigen_symmetric(Matrix()).eigenvalues.empty());
  const auto one = support::eigen_symmetric(Matrix{{5.0}});
  ASSERT_EQ(one.eigenvalues.size(), 1u);
  EXPECT_DOUBLE_EQ(one.eigenvalues[0], 5.0);
}

TEST(EigenSymmetric, RejectsNonSquare) {
  EXPECT_THROW(support::eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

TEST(EigenSymmetric, ConvergesOnLastAllowedSweep) {
  // A 2x2 needs exactly one sweep (one rotation annihilates the only
  // off-diagonal pair). Regression for the off-by-one that threw one sweep
  // early: max_sweeps = 1 must succeed, not report non-convergence.
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const auto eig = support::eigen_symmetric(a, /*max_sweeps=*/1);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenSymmetric, ThrowsWhenSweepBudgetExhausted) {
  // Zero sweeps cannot diagonalize a coupled matrix.
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  EXPECT_THROW((void)support::eigen_symmetric(a, /*max_sweeps=*/0),
               std::domain_error);
}

TEST(EigenSymmetric, SignConventionPinsLargestComponentPositive) {
  const auto a = random_spd(9, 31);
  const auto eig = support::eigen_symmetric(a);
  for (std::size_t j = 0; j < 9; ++j) {
    const Vector v = eig.eigenvectors.col_vector(j);
    std::size_t arg = 0;
    for (std::size_t i = 1; i < 9; ++i)
      if (std::abs(v[i]) > std::abs(v[arg])) arg = i;
    EXPECT_GE(v[arg], 0.0) << "column " << j;
  }
}

/// Property sweep: random symmetric matrices of several sizes must satisfy
/// A v = lambda v, orthonormal eigenvectors, ascending eigenvalues, and
/// trace preservation.
class EigenProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenProperty, SatisfiesEigenEquations) {
  const std::size_t n = GetParam();
  const auto base = random_matrix(n, n, 100 + n);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = 0.5 * (base(i, j) + base(j, i));

  const auto eig = support::eigen_symmetric(a);

  double trace = 0.0;
  double eig_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += a(i, i);
    eig_sum += eig.eigenvalues[i];
    if (i > 0) {
      EXPECT_LE(eig.eigenvalues[i - 1], eig.eigenvalues[i] + 1e-12);
    }
  }
  EXPECT_NEAR(trace, eig_sum, 1e-8 * std::max(1.0, std::abs(trace)));

  const auto vtv = linalg::gram(eig.eigenvectors, eig.eigenvectors);
  EXPECT_TRUE(support::approx_equal(vtv, Matrix::identity(n), 1e-9));

  for (std::size_t j = 0; j < n; ++j) {
    const Vector v = eig.eigenvectors.col_vector(j);
    const Vector av = a * v;
    Vector lv = v;
    for (double& x : lv) x *= eig.eigenvalues[j];
    EXPECT_NEAR(linalg::norm2(linalg::subtract(av, lv)), 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenProperty,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 27, 40));
