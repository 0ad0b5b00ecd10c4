#pragma once

/// \file least_squares.hpp
/// Linear least-squares solvers.
///
/// The paper solves its model-identification objective (eq. 3/4) with
/// CVX + SeDuMi; since the objective is an ordinary linear least squares,
/// a direct solver reaches the same global optimum: Householder QR for the
/// plain problem (numerically safest) and ridge-regularized normal
/// equations when a penalty is set (fast, and robust to the near-collinear
/// regressors real traces produce).

#include "auditherm/linalg/matrix.hpp"

namespace auditherm::linalg {

/// Options for solve_least_squares.
struct LeastSquaresOptions {
  /// Tikhonov/ridge penalty lambda >= 0 added as lambda * I to the normal
  /// equations. 0 selects plain least squares.
  double ridge = 0.0;

  /// When true, `ridge` is interpreted relative to the mean diagonal of
  /// A^T A (lambda_eff = ridge * trace(A^T A) / n). This keeps one ridge
  /// setting meaningful across regressors of very different scales, which
  /// matters for thermal regressors dominated by a ~20 degC DC component.
  bool relative_ridge = false;
};

/// Solve argmin_X ||A X - B||_F^2 (+ ridge * ||X||_F^2).
///
/// A is m x n with m >= n, B is m x k; the result is n x k. ridge == 0
/// uses Householder QR; ridge > 0 solves the regularized normal equations
/// by Cholesky. Throws std::invalid_argument on shape mismatch and
/// std::domain_error when the system is singular and unregularized.
[[nodiscard]] Matrix solve_least_squares(const Matrix& a, const Matrix& b,
                                         const LeastSquaresOptions& opts = {});

/// Vector right-hand-side convenience overload.
[[nodiscard]] Vector solve_least_squares(const Matrix& a, const Vector& b,
                                         const LeastSquaresOptions& opts = {});

}  // namespace auditherm::linalg
