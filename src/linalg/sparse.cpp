#include "auditherm/linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "auditherm/core/parallel.hpp"
#include "auditherm/linalg/vector_ops.hpp"
#include "auditherm/obs/trace_span.hpp"

namespace auditherm::linalg {

// ---------------------------------------------------------------------------
// CsrMatrix
// ---------------------------------------------------------------------------

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  if (row_ptr_.size() != rows_ + 1) {
    throw std::invalid_argument("CsrMatrix: row_ptr must have rows + 1 entries");
  }
  if (row_ptr_.front() != 0 || row_ptr_.back() != values_.size() ||
      col_idx_.size() != values_.size()) {
    throw std::invalid_argument(
        "CsrMatrix: row_ptr must start at 0 and end at nnz, with col_idx and "
        "values of equal length");
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    if (row_ptr_[i] > row_ptr_[i + 1]) {
      throw std::invalid_argument("CsrMatrix: row_ptr must be non-decreasing");
    }
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      if (col_idx_[p] >= cols_) {
        throw std::invalid_argument(
            "CsrMatrix: column index " + std::to_string(col_idx_[p]) +
            " out of range in row " + std::to_string(i));
      }
      if (p > row_ptr_[i] && col_idx_[p] < col_idx_[p - 1]) {
        throw std::invalid_argument(
            "CsrMatrix: column indices must be non-decreasing within row " +
            std::to_string(i));
      }
    }
  }
}

Vector CsrMatrix::multiply(const Vector& x) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("CsrMatrix::multiply: vector length " +
                                std::to_string(x.size()) +
                                " does not match cols " +
                                std::to_string(cols_));
  }
  static const obs::MetricId kSpmvCalls = obs::counter_id("linalg.spmv_calls");
  obs::add_counter(kSpmvCalls);
  Vector y(rows_, 0.0);
  if (rows_ == 0) return y;
  // Grain sized by the average row cost; it depends only on the matrix, so
  // the chunking — and hence the bitwise result — is thread-count
  // independent. Each row is a serial ascending-p accumulation.
  const std::size_t grain = core::grain_for_cost(2 * (nnz() / rows_ + 1));
  core::parallel_for(0, rows_, grain, [&](std::size_t i) {
    double sum = 0.0;
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      sum += values_[p] * x[col_idx_[p]];
    }
    y[i] = sum;
  });
  return y;
}

// ---------------------------------------------------------------------------
// Lanczos partial eigensolver
// ---------------------------------------------------------------------------

namespace {

/// Two classical Gram-Schmidt passes of `w` against every vector in
/// `locked` then `basis`, in index order — serial and deterministic. Two
/// passes ("twice is enough") keep the basis orthogonal to machine
/// precision, which is the full-reorthogonalization contract.
void reorthogonalize(Vector& w, const std::vector<Vector>& locked,
                     const std::vector<Vector>& basis) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto* set : {&locked, &basis}) {
      for (const Vector& q : *set) {
        const double d = dot(q, w);
        if (d == 0.0) continue;
        for (std::size_t i = 0; i < w.size(); ++i) w[i] -= d * q[i];
      }
    }
  }
}

/// Deterministic unit start vector orthogonal to `locked` + `basis`:
/// splitmix64 raw entries, reorthogonalized, normalized. Successive
/// attempts re-hash with a new salt when the projection collapses (the
/// raw vector lay in the span already found). Throws std::domain_error
/// when every attempt collapses — impossible while the span has a
/// complement, barring adversarial inputs.
Vector fresh_start_vector(std::size_t n, std::uint64_t salt,
                          const std::vector<Vector>& locked,
                          const std::vector<Vector>& basis) {
  for (std::uint64_t attempt = 0; attempt < 16; ++attempt) {
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = detail::hash_unit((salt * 16 + attempt) * 1000003ULL +
                               static_cast<std::uint64_t>(i)) -
             0.5;
    }
    reorthogonalize(v, locked, basis);
    const double nv = norm2(v);
    if (nv > 1e-6) {
      for (double& vi : v) vi /= nv;
      return v;
    }
  }
  throw std::domain_error(
      "eigen_symmetric_smallest_sparse: could not find a start vector "
      "outside the converged subspace");
}

struct LanczosMetrics {
  obs::MetricId calls = obs::counter_id("linalg.eigen_lanczos_calls");
  obs::MetricId passes = obs::counter_id("linalg.eigen_lanczos_passes");
  obs::MetricId iterations =
      obs::counter_id("linalg.eigen_lanczos_iterations");
  obs::MetricId locked_pairs =
      obs::counter_id("linalg.eigen_lanczos_locked_pairs");
  obs::MetricId residual = obs::histogram_id("linalg.eigen_lanczos_residual");
  obs::MetricId eigen_calls = obs::counter_id("linalg.eigen_calls");
};

const LanczosMetrics& lanczos_metrics() {
  static const LanczosMetrics m;
  return m;
}

/// A converged Ritz pair and its residual bound |beta_j s_j|.
struct RitzPair {
  double value = 0.0;
  Vector vector;
  double residual = 0.0;
};

/// One deflated Lanczos pass: grow a Krylov basis orthogonal to `locked`
/// until the smallest Ritz pair's residual drops below `tol` (or the
/// complement is exhausted), and return that pair. Finding only the single
/// smallest pair per pass is what makes repeated eigenvalues come out with
/// full multiplicity: a Krylov space from one start vector can hold at
/// most one direction per distinct eigenvalue, so each extra copy (e.g.
/// every zero mode of a disconnected Laplacian the caller did not lock)
/// must come from its own deflated pass.
RitzPair lanczos_smallest_deflated(const CsrMatrix& a,
                                   const std::vector<Vector>& locked,
                                   std::uint64_t salt, double anorm,
                                   double tol) {
  const std::size_t n = a.rows();
  const std::size_t max_dim = n - locked.size();
  const double breakdown_tol =
      64.0 * std::numeric_limits<double>::epsilon() * anorm;
  // Each check is a bisection on T_j, O(j) per probe; checking every few
  // steps costs at most that many extra SpMVs, which is cheaper still.
  constexpr std::size_t kCheckInterval = 4;

  std::vector<Vector> basis;
  Vector alpha;
  Vector beta;  // beta[i] couples basis i and i+1
  Vector v = fresh_start_vector(n, salt, locked, basis);
  Vector v_prev(n, 0.0);
  double beta_prev = 0.0;

  for (;;) {
    Vector w = a.multiply(v);
    const double al = dot(v, w);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] -= al * v[i] + beta_prev * v_prev[i];
    }
    basis.push_back(v);
    alpha.push_back(al);
    obs::add_counter(lanczos_metrics().iterations);
    reorthogonalize(w, locked, basis);
    const double b = norm2(w);
    const std::size_t j = basis.size();
    // NaN/Inf in A poisons the very first coefficient; without this check
    // a pass would run to its full budget on garbage before failing.
    if (!std::isfinite(al) || !std::isfinite(b)) {
      throw std::domain_error(
          "eigen_symmetric_smallest_sparse: non-finite Lanczos coefficient "
          "at iteration " +
          std::to_string(j) + " (the matrix holds NaN or Inf)");
    }

    const bool exhausted = j == max_dim;
    const bool broke_down = b <= breakdown_tol;
    if (exhausted || broke_down || j % kCheckInterval == 0) {
      const auto ritz = detail::tridiagonal_smallest(alpha, beta, 1);
      const Vector& s = ritz.vectors[0];
      // Residual bound ||A x - theta x|| = |beta_j * s_j| for the Ritz
      // vector x = B s; a breakdown or exhausted complement makes the
      // pair exact up to rounding.
      const double resid = std::abs(b * s[j - 1]);
      if (exhausted || broke_down || resid <= tol) {
        Vector x(n, 0.0);
        for (std::size_t k = 0; k < j; ++k) {
          for (std::size_t i = 0; i < n; ++i) x[i] += s[k] * basis[k][i];
        }
        // Deflation leakage guard: re-project off the locked space and
        // renormalize before the pair is locked itself.
        reorthogonalize(x, locked, {});
        const double nx = norm2(x);
        if (nx > 0.0) {
          for (double& xi : x) xi /= nx;
        }
        return {ritz.eigenvalues[0], std::move(x), resid};
      }
    }

    beta.push_back(b);
    v_prev = std::move(v);
    v = std::move(w);
    for (double& vi : v) vi /= b;
    beta_prev = b;
  }
}

}  // namespace

SymmetricEigen eigen_symmetric_smallest_sparse(
    const CsrMatrix& a, std::size_t m, const std::vector<Vector>& locked) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument(
        "eigen_symmetric_smallest_sparse: matrix not square");
  }
  if (m == 0) {
    throw std::invalid_argument(
        "eigen_symmetric_smallest_sparse: m must be > 0");
  }
  const std::size_t n = a.rows();
  if (m > n) {
    throw std::invalid_argument(
        "eigen_symmetric_smallest_sparse: requested " + std::to_string(m) +
        " eigenpairs from a " + std::to_string(n) + "x" + std::to_string(n) +
        " matrix (m must be <= n)");
  }
  if (locked.size() > m) {
    throw std::invalid_argument(
        "eigen_symmetric_smallest_sparse: " + std::to_string(locked.size()) +
        " locked vectors exceed the " + std::to_string(m) +
        " requested eigenpairs");
  }
  for (std::size_t k = 0; k < locked.size(); ++k) {
    if (locked[k].size() != n) {
      throw std::invalid_argument(
          "eigen_symmetric_smallest_sparse: locked vector " +
          std::to_string(k) + " has length " +
          std::to_string(locked[k].size()) + ", expected " +
          std::to_string(n));
    }
    for (std::size_t l = 0; l <= k; ++l) {
      const double expected = l == k ? 1.0 : 0.0;
      if (!(std::abs(dot(locked[k], locked[l]) - expected) <= 1e-10)) {
        throw std::invalid_argument(
            "eigen_symmetric_smallest_sparse: locked vectors " +
            std::to_string(l) + " and " + std::to_string(k) +
            " are not orthonormal to 1e-10");
      }
    }
  }
  obs::TraceSpan span("linalg.eigen_lanczos");
  obs::add_counter(lanczos_metrics().calls);
  obs::add_counter(lanczos_metrics().eigen_calls);

  if (n == 1) {
    double a00 = 0.0;
    for (std::size_t p = a.row_ptr()[0]; p < a.row_ptr()[1]; ++p) {
      a00 += a.values()[p];
    }
    return {Vector{a00}, Matrix::identity(1)};
  }

  // Gershgorin-style infinity norm bounds |lambda| and scales every
  // tolerance; the residual target is far below the 1e-8 agreement the
  // dense cross-checks ask for.
  double anorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t p = a.row_ptr()[i]; p < a.row_ptr()[i + 1]; ++p) {
      row_sum += std::abs(a.values()[p]);
    }
    anorm = std::max(anorm, row_sum);
  }
  anorm = std::max(anorm, 1e-300);
  const double tol = 1e-10 * anorm;

  // The caller's eigenvectors are locked as given: each one's eigenvalue
  // is its Rayleigh quotient, and the deflated passes below skip their
  // span exactly as they skip pairs they found themselves.
  std::vector<Vector> converged = locked;
  Vector eigenvalues;
  converged.reserve(m);
  eigenvalues.reserve(m);
  for (std::size_t k = 0; k < locked.size(); ++k) {
    const Vector ax = a.multiply(locked[k]);
    const double theta = dot(locked[k], ax);
    double resid_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = ax[i] - theta * locked[k][i];
      resid_sq += r * r;
    }
    const double resid = std::sqrt(resid_sq);
    if (!std::isfinite(resid)) {
      throw std::domain_error(
          "eigen_symmetric_smallest_sparse: non-finite residual for locked "
          "vector " +
          std::to_string(k) + " (the matrix holds NaN or Inf)");
    }
    if (resid > tol) {
      throw std::invalid_argument(
          "eigen_symmetric_smallest_sparse: locked vector " +
          std::to_string(k) +
          " is not an eigenvector (residual above 1e-10 * ||A||_inf)");
    }
    obs::observe(lanczos_metrics().residual, resid / anorm);
    eigenvalues.push_back(theta);
  }
  obs::add_counter(lanczos_metrics().locked_pairs, locked.size());

  while (converged.size() < m) {
    obs::add_counter(lanczos_metrics().passes);
    auto ritz = lanczos_smallest_deflated(
        a, converged, static_cast<std::uint64_t>(converged.size()), anorm,
        tol);
    obs::observe(lanczos_metrics().residual, ritz.residual / anorm);
    eigenvalues.push_back(ritz.value);
    converged.push_back(std::move(ritz.vector));
  }

  SymmetricEigen out;
  out.eigenvalues = std::move(eigenvalues);
  out.eigenvectors = Matrix(n, m);
  for (std::size_t j = 0; j < m; ++j) {
    out.eigenvectors.set_col(j, converged[j]);
  }
  detail::pin_column_signs(out.eigenvectors);
  return out;
}

}  // namespace auditherm::linalg
