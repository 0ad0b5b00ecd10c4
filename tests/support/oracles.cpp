#include "support/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace auditherm::test_support {

using linalg::CsrMatrix;
using linalg::Matrix;
using linalg::SymmetricEigen;
using linalg::Vector;

SymmetricEigen eigen_symmetric(const Matrix& a, std::size_t max_sweeps) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("eigen_symmetric: matrix not square");
  }
  const std::size_t n = a.rows();
  if (n <= 1) {
    SymmetricEigen out;
    out.eigenvalues = n == 1 ? Vector{a(0, 0)} : Vector{};
    out.eigenvectors = Matrix::identity(n);
    return out;
  }
  Matrix s(n, n);
  double scale = 1e-300;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s(i, j) = 0.5 * (a(i, j) + a(j, i));
      scale = std::max(scale, std::abs(s(i, j)));
    }
  }
  Matrix v = Matrix::identity(n);

  // max_sweeps rotation sweeps at most, with a convergence check before
  // each and one after the last — so a matrix that converges exactly on
  // the final allowed sweep succeeds instead of throwing.
  bool converged = false;
  for (std::size_t sweep = 0; sweep <= max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) off += s(i, j) * s(i, j);
    if (std::sqrt(off) <= 1e-14 * scale * static_cast<double>(n)) {
      converged = true;
      break;
    }
    if (sweep == max_sweeps) break;  // budget spent, off-norm still large
    for (std::size_t p = 0; p < n - 1; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = s(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        const double theta = (s(q, q) - s(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double sn = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double skp = s(k, p);
          const double skq = s(k, q);
          s(k, p) = c * skp - sn * skq;
          s(k, q) = sn * skp + c * skq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double spk = s(p, k);
          const double sqk = s(q, k);
          s(p, k) = c * spk - sn * sqk;
          s(q, k) = sn * spk + c * sqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - sn * vkq;
          v(k, q) = sn * vkp + c * vkq;
        }
      }
    }
  }
  if (!converged) {
    throw std::domain_error("eigen_symmetric: Jacobi did not converge");
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return s(i, i) < s(j, j); });
  SymmetricEigen out;
  out.eigenvalues.resize(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = s(order[j], order[j]);
    out.eigenvectors.set_col(j, v.col_vector(order[j]));
  }
  linalg::detail::pin_column_signs(out.eigenvectors);
  return out;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (std::abs(a(i, j) - b(i, j)) > tol) return false;
  return true;
}

linalg::UpdatableQr appended_qr(const Matrix& a, const Matrix& b,
                                std::size_t first, std::size_t last) {
  linalg::UpdatableQr qr(a.cols(), b.cols());
  for (std::size_t i = first; i < std::min(last, a.rows()); ++i) {
    qr.append(a.row_vector(i).data(), b.row_vector(i).data());
  }
  return qr;
}

CsrMatrix from_dense(const Matrix& a, double drop_tol) {
  std::vector<std::size_t> row_ptr(a.rows() + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double v = a(i, j);
      if (v == 0.0 || std::abs(v) <= drop_tol) continue;
      col_idx.push_back(j);
      values.push_back(v);
    }
    row_ptr[i + 1] = values.size();
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

Matrix to_dense(const CsrMatrix& a) {
  Matrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = a.row_ptr()[i]; p < a.row_ptr()[i + 1]; ++p) {
      out(i, a.col_idx()[p]) += a.values()[p];
    }
  }
  return out;
}

double pearson_correlation(const Vector& x, const Vector& y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("pearson_correlation: size mismatch");
  }
  if (x.size() < 2) {
    throw std::invalid_argument("pearson_correlation: need >= 2 samples");
  }
  const auto mean = [](const Vector& v) {
    double s = 0.0;
    for (double e : v) s += e;
    return s / static_cast<double>(v.size());
  };
  const double mx = mean(x);
  const double my = mean(y);
  const auto n1 = static_cast<double>(x.size() - 1);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sxy += (x[i] - mx) * (y[i] - my);
  for (double e : x) sxx += (e - mx) * (e - mx);
  for (double e : y) syy += (e - my) * (e - my);
  const double sx = std::sqrt(sxx / n1);
  const double sy = std::sqrt(syy / n1);
  if (sx == 0.0 || sy == 0.0) return 0.0;
  return (sxy / n1) / (sx * sy);
}

std::size_t edge_count(const Matrix& weights) {
  std::size_t edges = 0;
  for (std::size_t i = 0; i < weights.rows(); ++i)
    for (std::size_t j = i + 1; j < weights.cols(); ++j)
      if (weights(i, j) > 0.0) ++edges;
  return edges;
}

std::size_t component_count(const Matrix& weights) {
  const std::size_t p = weights.rows();
  std::size_t components = 0;
  std::vector<bool> seen(p, false);
  std::vector<std::size_t> queue;
  for (std::size_t start = 0; start < p; ++start) {
    if (seen[start]) continue;
    ++components;
    queue.assign(1, start);
    seen[start] = true;
    while (!queue.empty()) {
      const std::size_t v = queue.back();
      queue.pop_back();
      for (std::size_t j = 0; j < p; ++j) {
        if (!seen[j] && weights(v, j) > 0.0) {
          seen[j] = true;
          queue.push_back(j);
        }
      }
    }
  }
  return components;
}

}  // namespace auditherm::test_support
