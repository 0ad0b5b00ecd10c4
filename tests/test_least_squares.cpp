// Tests for the least-squares solvers (plain QR, ridge normal equations)
// and their agreement with the QR ridge solve UpdatableQr::solve_ridge.

#include "auditherm/linalg/least_squares.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "auditherm/linalg/decompositions.hpp"
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

}  // namespace

TEST(LeastSquares, ExactSolutionForConsistentSystem) {
  const auto a = random_matrix(10, 3, 1);
  const Vector x_true{2.0, -1.0, 0.5};
  const Vector b = a * x_true;
  const Vector x = linalg::solve_least_squares(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(LeastSquares, SolutionIsOptimal) {
  // Property: perturbing the LS solution in any coordinate direction never
  // reduces the residual.
  const auto a = random_matrix(30, 4, 2);
  const auto b = random_matrix(30, 1, 3).col_vector(0);
  const Vector x = linalg::solve_least_squares(a, b);
  const auto residual = [&](const Vector& v) {
    return linalg::norm2(linalg::subtract(a * v, b));
  };
  const double best = residual(x);
  for (std::size_t j = 0; j < 4; ++j) {
    for (double delta : {-1e-3, 1e-3}) {
      Vector perturbed = x;
      perturbed[j] += delta;
      EXPECT_GE(residual(perturbed) + 1e-12, best);
    }
  }
}

TEST(LeastSquares, QrAndNormalEquationsAgree) {
  // The unregularized solve (Householder QR) against the normal equations
  // A^T A x = A^T b solved directly by Cholesky.
  const auto a = random_matrix(25, 5, 4);
  const auto b = random_matrix(25, 2, 5);
  const auto x_qr = linalg::solve_least_squares(a, b);
  const auto x_ne = linalg::CholeskyDecomposition(linalg::gram(a, a))
                        .solve(linalg::gram(a, b));
  EXPECT_TRUE(support::approx_equal(x_qr, x_ne, 1e-8));
}

TEST(LeastSquares, RidgeShrinksSolution) {
  const auto a = random_matrix(20, 3, 6);
  const auto b = random_matrix(20, 1, 7).col_vector(0);
  const Vector x0 = linalg::solve_least_squares(a, b);
  linalg::LeastSquaresOptions heavy;
  heavy.ridge = 1e4;
  const Vector x_ridge = linalg::solve_least_squares(a, b, heavy);
  EXPECT_LT(linalg::norm2(x_ridge), linalg::norm2(x0));
  EXPECT_LT(linalg::norm2(x_ridge), 1e-2);  // essentially fully shrunk
}

TEST(LeastSquares, RidgeHandlesRankDeficiency) {
  Matrix a(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 0) = static_cast<double>(i);
    a(i, 1) = 3.0 * static_cast<double>(i);  // collinear
  }
  const Vector b(6, 1.0);
  // Plain QR must refuse; ridge must produce a finite answer.
  EXPECT_THROW((void)linalg::solve_least_squares(a, b), std::domain_error);
  linalg::LeastSquaresOptions opts;
  opts.ridge = 1e-6;
  const Vector x = linalg::solve_least_squares(a, b, opts);
  EXPECT_TRUE(std::isfinite(x[0]));
  EXPECT_TRUE(std::isfinite(x[1]));
}

TEST(LeastSquares, RelativeRidgeInvariantToScale) {
  // Scaling the whole problem by 1000 must not change the solution when
  // the ridge is relative.
  const auto a = random_matrix(15, 3, 8);
  const auto b = random_matrix(15, 1, 9);
  linalg::LeastSquaresOptions opts;
  opts.ridge = 1e-4;
  opts.relative_ridge = true;
  const auto x1 = linalg::solve_least_squares(a, b, opts);
  const auto x2 = linalg::solve_least_squares(a * 1000.0, b * 1000.0, opts);
  EXPECT_TRUE(support::approx_equal(x1, x2, 1e-8));
}

TEST(LeastSquares, RidgeQrMatchesNormalEquationsWhenWellConditioned) {
  // The ridge normal equations against the QR ridge solve on [A; sqrt(l) I]
  // that UpdatableQr runs for streaming identification.
  const auto a = random_matrix(30, 5, 21);
  const auto b = random_matrix(30, 2, 22);
  const auto qr = support::appended_qr(a, b);
  for (const bool relative : {false, true}) {
    linalg::LeastSquaresOptions opts;
    opts.ridge = 1e-4;
    opts.relative_ridge = relative;
    const double lambda =
        relative ? opts.ridge * qr.gram_trace() / 5.0 : opts.ridge;
    const auto x_ne = linalg::solve_least_squares(a, b, opts);
    const auto x_qr = linalg::UpdatableQr(qr).solve_ridge(lambda);
    EXPECT_TRUE(support::approx_equal(x_qr, x_ne, 1e-9));
  }
}

TEST(LeastSquares, RidgeQrSurvivesIllConditioning) {
  // Laeuchli regression test for the QR ridge solve: with eps = 1e-8,
  // A^T A = [[1+eps^2, 1], [1, 1+eps^2]] rounds to the exactly singular
  // ones matrix in double precision, so the normal equations cannot see the
  // independent information in rows 2-3 no matter the (tiny) ridge. The
  // QR path works at cond(A) ~ 1e8 and recovers the true minimizer
  // x = (0.5, 0.5) to full working accuracy.
  const double eps = 1e-8;
  Matrix a(3, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  a(1, 0) = eps;
  a(2, 1) = eps;
  const Matrix b = Matrix::column(Vector{1.0, 0.0, 0.0});
  const double lambda = 1e-30;  // negligible shrinkage
  const auto x = support::appended_qr(a, b).solve_ridge(lambda);
  EXPECT_NEAR(x(0, 0), 0.5, 1e-6);
  EXPECT_NEAR(x(1, 0), 0.5, 1e-6);

  // The normal equations either throw (singular Cholesky) or return
  // something much further from the minimizer — the condition-number
  // squaring this regression test pins down.
  linalg::LeastSquaresOptions ne_opts;
  ne_opts.ridge = lambda;
  try {
    const auto x_ne = linalg::solve_least_squares(a, b, ne_opts);
    const double err = std::max(std::abs(x_ne(0, 0) - 0.5),
                                std::abs(x_ne(1, 0) - 0.5));
    EXPECT_GT(err, 1e-4);
  } catch (const std::domain_error&) {
    // Singular to working precision: the expected failure mode.
  }
}

TEST(LeastSquares, ShapeValidation) {
  EXPECT_THROW(
      (void)linalg::solve_least_squares(Matrix(3, 2), Matrix(4, 1)),
      std::invalid_argument);
  EXPECT_THROW(
      (void)linalg::solve_least_squares(Matrix(2, 3), Matrix(2, 1)),
      std::invalid_argument);
  linalg::LeastSquaresOptions bad;
  bad.ridge = -1.0;
  EXPECT_THROW(
      (void)linalg::solve_least_squares(Matrix(3, 2), Matrix(3, 1), bad),
      std::invalid_argument);
}

