#include "auditherm/linalg/least_squares.hpp"

#include <stdexcept>

#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/obs/trace_span.hpp"

namespace auditherm::linalg {

Matrix solve_least_squares(const Matrix& a, const Matrix& b,
                           const LeastSquaresOptions& opts) {
  static const obs::MetricId kCalls =
      obs::counter_id("linalg.least_squares_calls");
  obs::add_counter(kCalls);
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("solve_least_squares: row count mismatch");
  }
  if (a.rows() < a.cols()) {
    throw std::invalid_argument(
        "solve_least_squares: underdetermined system (rows < cols)");
  }
  if (opts.ridge < 0.0) {
    throw std::invalid_argument("solve_least_squares: negative ridge");
  }
  // Plain least squares factors A itself (cond(A), not cond(A)^2); a ridge
  // solves the regularized normal equations (A^T A + lambda I) X = A^T B,
  // whose shift keeps the Cholesky factor positive definite.
  if (opts.ridge == 0.0) return QrDecomposition(a).solve(b);
  Matrix ata = gram(a, a);
  double lambda = opts.ridge;
  if (opts.relative_ridge) {
    double tr = 0.0;
    for (std::size_t i = 0; i < ata.rows(); ++i) tr += ata(i, i);
    lambda *= tr / static_cast<double>(ata.rows());
  }
  for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += lambda;
  const Matrix atb = gram(a, b);
  return CholeskyDecomposition(ata).solve(atb);
}

Vector solve_least_squares(const Matrix& a, const Vector& b,
                           const LeastSquaresOptions& opts) {
  return solve_least_squares(a, Matrix::column(b), opts).col_vector(0);
}

}  // namespace auditherm::linalg
