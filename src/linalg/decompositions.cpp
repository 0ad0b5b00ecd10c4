#include "auditherm/linalg/decompositions.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "auditherm/core/parallel.hpp"
#include "auditherm/obs/trace_span.hpp"

namespace auditherm::linalg {

// ---------------------------------------------------------------------------
// QR
// ---------------------------------------------------------------------------

QrDecomposition::QrDecomposition(const Matrix& a)
    : m_(a.rows()), n_(a.cols()), qr_(a), rdiag_(a.cols(), 0.0) {
  if (m_ < n_) {
    throw std::invalid_argument("QrDecomposition: requires rows >= cols");
  }
  for (std::size_t k = 0; k < n_; ++k) {
    // Householder vector for column k: reflect x to -sign(x0)*||x|| e1.
    double nrm = 0.0;
    for (std::size_t i = k; i < m_; ++i) nrm = std::hypot(nrm, qr_(i, k));
    if (nrm != 0.0) {
      if (qr_(k, k) < 0.0) nrm = -nrm;
      for (std::size_t i = k; i < m_; ++i) qr_(i, k) /= nrm;
      qr_(k, k) += 1.0;
      // Apply reflector to remaining columns.
      for (std::size_t j = k + 1; j < n_; ++j) {
        double s = 0.0;
        for (std::size_t i = k; i < m_; ++i) s += qr_(i, k) * qr_(i, j);
        s = -s / qr_(k, k);
        for (std::size_t i = k; i < m_; ++i) qr_(i, j) += s * qr_(i, k);
      }
    }
    rdiag_[k] = -nrm;
  }
}

bool QrDecomposition::rank_deficient(double tol) const noexcept {
  double dmax = 0.0;
  for (double d : rdiag_) dmax = std::max(dmax, std::abs(d));
  if (dmax == 0.0) return true;
  for (double d : rdiag_) {
    if (std::abs(d) <= tol * dmax) return true;
  }
  return false;
}

void QrDecomposition::apply_reflectors(Vector& b) const {
  for (std::size_t k = 0; k < n_; ++k) {
    if (qr_(k, k) == 0.0) continue;
    double s = 0.0;
    for (std::size_t i = k; i < m_; ++i) s += qr_(i, k) * b[i];
    s = -s / qr_(k, k);
    for (std::size_t i = k; i < m_; ++i) b[i] += s * qr_(i, k);
  }
}

Vector QrDecomposition::solve(const Vector& b) const {
  if (b.size() != m_) {
    throw std::invalid_argument("QrDecomposition::solve: rhs length mismatch");
  }
  if (rank_deficient()) {
    throw std::domain_error("QrDecomposition::solve: rank-deficient matrix");
  }
  Vector y = b;
  apply_reflectors(y);  // y = Q^T b
  Vector x(n_);
  for (std::size_t kk = n_; kk-- > 0;) {
    double s = y[kk];
    for (std::size_t j = kk + 1; j < n_; ++j) s -= qr_(kk, j) * x[j];
    x[kk] = s / rdiag_[kk];
  }
  return x;
}

Matrix QrDecomposition::solve(const Matrix& b) const {
  if (b.rows() != m_) {
    throw std::invalid_argument("QrDecomposition::solve: rhs rows mismatch");
  }
  Matrix x(n_, b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    x.set_col(j, solve(b.col_vector(j)));
  }
  return x;
}

// ---------------------------------------------------------------------------
// UpdatableQr
// ---------------------------------------------------------------------------

namespace {

/// Fold one row [z | y] into the upper-triangular system [r | u] with a
/// sequence of Givens rotations, one per column. Keeps r's diagonal >= 0
/// (std::hypot never returns a negative). On exit z is zero to working
/// precision and y holds the row's residual component.
void givens_fold_row(Matrix& r, Matrix& u, Vector& z, Vector& y) {
  const std::size_t n = r.rows();
  const std::size_t k = u.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const double zi = z[i];
    if (zi == 0.0) continue;
    const double rii = r(i, i);
    const double rho = std::hypot(rii, zi);
    const double c = rii / rho;
    const double s = zi / rho;
    r(i, i) = rho;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double t = r(i, j);
      r(i, j) = c * t + s * z[j];
      z[j] = c * z[j] - s * t;
    }
    for (std::size_t j = 0; j < k; ++j) {
      const double t = u(i, j);
      u(i, j) = c * t + s * y[j];
      y[j] = c * y[j] - s * t;
    }
  }
}

}  // namespace

UpdatableQr::UpdatableQr(std::size_t cols, std::size_t rhs_cols)
    : n_(cols),
      k_(rhs_cols),
      r_(cols, cols),
      u_(cols, rhs_cols),
      z_(cols, 0.0),
      y_(rhs_cols, 0.0) {
  if (n_ == 0 || k_ == 0) {
    throw std::invalid_argument("UpdatableQr: zero-sized system");
  }
}

void UpdatableQr::append(const double* a_row, const double* b_row) {
  static const obs::MetricId kUpdateCalls =
      obs::counter_id("linalg.qr_update_calls");
  obs::add_counter(kUpdateCalls);
  for (std::size_t j = 0; j < n_; ++j) {
    z_[j] = a_row[j];
    gram_trace_ += a_row[j] * a_row[j];
  }
  for (std::size_t j = 0; j < k_; ++j) y_[j] = b_row[j];
  givens_fold_row(r_, u_, z_, y_);
  ++rows_;
}

void UpdatableQr::merge(const UpdatableQr& other) {
  if (other.n_ != n_ || other.k_ != k_) {
    throw std::invalid_argument("UpdatableQr::merge: shape mismatch");
  }
  // [R_other | U_other] carries the same normal equations as the rows it
  // folded in (R^T R = A^T A, R^T U = A^T B), so folding its n rows here
  // factorizes the stacked row sets.
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) z_[j] = other.r_(i, j);
    for (std::size_t j = 0; j < k_; ++j) y_[j] = other.u_(i, j);
    givens_fold_row(r_, u_, z_, y_);
  }
  gram_trace_ += other.gram_trace_;
  rows_ += other.rows_;
}

Matrix UpdatableQr::solve() const {
  if (rank_deficient()) {
    throw std::domain_error("UpdatableQr::solve: rank-deficient system");
  }
  // Back-substitute R X = U (R's diagonal is stored in r_ itself).
  Matrix x(n_, k_);
  for (std::size_t j = 0; j < k_; ++j) {
    for (std::size_t ii = n_; ii-- > 0;) {
      double s = u_(ii, j);
      for (std::size_t jj = ii + 1; jj < n_; ++jj) s -= r_(ii, jj) * x(jj, j);
      x(ii, j) = s / r_(ii, ii);
    }
  }
  return x;
}

Matrix UpdatableQr::solve_ridge(double lambda) && {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("UpdatableQr::solve_ridge: lambda <= 0");
  }
  // Fold the n rows of sqrt(lambda) I into [R | U] itself; ridge row i is
  // sqrt(lambda) e_i with a zero right-hand side.
  const double s = std::sqrt(lambda);
  for (std::size_t i = 0; i < n_; ++i) {
    std::fill(z_.begin(), z_.end(), 0.0);
    std::fill(y_.begin(), y_.end(), 0.0);
    z_[i] = s;
    givens_fold_row(r_, u_, z_, y_);
  }
  return solve();
}

bool UpdatableQr::rank_deficient(double tol) const noexcept {
  double dmax = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    dmax = std::max(dmax, std::abs(r_(i, i)));
  }
  if (dmax == 0.0) return true;
  for (std::size_t i = 0; i < n_; ++i) {
    if (std::abs(r_(i, i)) <= tol * dmax) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Cholesky
// ---------------------------------------------------------------------------

CholeskyDecomposition::CholeskyDecomposition(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("CholeskyDecomposition: matrix not square");
  }
  const std::size_t n = a.rows();
  l_ = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    if (d <= 0.0 || !std::isfinite(d)) {
      throw std::domain_error(
          "CholeskyDecomposition: matrix not positive definite");
    }
    l_(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / l_(j, j);
    }
  }
}

Vector CholeskyDecomposition::solve(const Vector& b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n) {
    throw std::invalid_argument("CholeskyDecomposition::solve: rhs mismatch");
  }
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l_(i, k) * y[k];
    y[i] = s / l_(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x[k];
    x[ii] = s / l_(ii, ii);
  }
  return x;
}

Matrix CholeskyDecomposition::solve(const Matrix& b) const {
  if (b.rows() != l_.rows()) {
    throw std::invalid_argument("CholeskyDecomposition::solve: rhs mismatch");
  }
  Matrix x(l_.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) x.set_col(j, solve(b.col_vector(j)));
  return x;
}

// ---------------------------------------------------------------------------
// Symmetric eigensolvers
// ---------------------------------------------------------------------------

namespace detail {

// The sign pin makes eigenvectors — and hence cluster embeddings —
// comparable across solvers; k-means output is bitwise-invariant under
// the flip because only squared distances and row means of the embedding
// enter, and (-x)*(-x) == x*x exactly in IEEE.
void pin_column_signs(Matrix& vecs) {
  for (std::size_t j = 0; j < vecs.cols(); ++j) {
    std::size_t lead = 0;
    double lead_abs = -1.0;
    for (std::size_t i = 0; i < vecs.rows(); ++i) {
      const double mag = std::abs(vecs(i, j));
      if (mag > lead_abs) {
        lead_abs = mag;
        lead = i;
      }
    }
    if (vecs(lead, j) < 0.0) {
      for (std::size_t i = 0; i < vecs.rows(); ++i) vecs(i, j) = -vecs(i, j);
    }
  }
}

double hash_unit(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace detail

namespace {

using detail::pin_column_signs;

// (A + A^T)/2: the solver tolerates the tiny asymmetries that upstream
// products accumulate.
Matrix symmetrized(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix s(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  return s;
}

// Householder reduction A = Q T Q^T to symmetric tridiagonal form. The
// unit reflectors are kept (column k holds v_k in rows k+1..n-1) instead
// of accumulating Q eagerly, so the solver can back-apply them to just the
// m eigenvectors it needs in O(n^2 m).
struct HouseholderTridiagonal {
  Vector diag;        // T diagonal, size n
  Vector off;         // off[i] = T(i, i+1); off[n-1] = 0
  Matrix reflectors;  // n x n; unit reflector k in rows k+1.. of column k
};

HouseholderTridiagonal tridiagonalize(Matrix s) {
  const std::size_t n = s.rows();
  HouseholderTridiagonal t;
  t.diag.resize(n);
  t.off.assign(n, 0.0);
  t.reflectors = Matrix(n, n);
  Vector v(n, 0.0);
  Vector w(n, 0.0);
  for (std::size_t k = 0; k + 2 < n; ++k) {
    double nrm = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) nrm = std::hypot(nrm, s(i, k));
    if (nrm == 0.0) continue;  // column already tridiagonal here
    const double alpha = s(k + 1, k) >= 0.0 ? -nrm : nrm;
    for (std::size_t i = k + 1; i < n; ++i) v[i] = s(i, k);
    v[k + 1] -= alpha;
    double vnorm = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) vnorm = std::hypot(vnorm, v[i]);
    t.off[k] = alpha;
    if (vnorm == 0.0) continue;  // x == alpha e1: nothing to reflect
    for (std::size_t i = k + 1; i < n; ++i) v[i] /= vnorm;
    // Rank-2 update S -= v w^T + w v^T with w = 2 S v - (v . 2 S v) v
    // applies H S H in one pass over the trailing block. Rows are
    // independent and each row's inner loop is a serial ascending-j
    // accumulation, so the result is bitwise identical at any thread
    // count (the PR-1 determinism contract).
    const std::size_t grain = core::grain_for_cost(n - k);
    core::parallel_for(k + 1, n, grain, [&](std::size_t i) {
      double sum = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) sum += s(i, j) * v[j];
      w[i] = 2.0 * sum;
    });
    double vw = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) vw += v[i] * w[i];
    for (std::size_t i = k + 1; i < n; ++i) w[i] -= vw * v[i];
    core::parallel_for(k + 1, n, grain, [&](std::size_t i) {
      const double vi = v[i];
      const double wi = w[i];
      for (std::size_t j = k + 1; j < n; ++j) {
        s(i, j) -= vi * w[j] + wi * v[j];
      }
    });
    for (std::size_t i = k + 1; i < n; ++i) t.reflectors(i, k) = v[i];
  }
  if (n >= 2) t.off[n - 2] = s(n - 1, n - 2);
  for (std::size_t i = 0; i < n; ++i) t.diag[i] = s(i, i);
  return t;
}

// z := Q z for one tridiagonal-basis eigenvector: apply the stored
// reflectors in reverse order (H_0 ... H_{n-3} z).
void back_transform(const HouseholderTridiagonal& t, Vector& z) {
  const std::size_t n = t.diag.size();
  if (n < 3) return;
  for (std::size_t k = n - 2; k-- > 0;) {
    double dot = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) dot += t.reflectors(i, k) * z[i];
    if (dot == 0.0) continue;  // includes skipped (all-zero) reflectors
    const double f = 2.0 * dot;
    for (std::size_t i = k + 1; i < n; ++i) z[i] -= f * t.reflectors(i, k);
  }
}

using detail::hash_unit;

// Sturm-sequence count of eigenvalues of the tridiagonal (d, e) strictly
// below x.
std::size_t count_below(const Vector& d, const Vector& e, double x,
                        double pivot_floor) {
  std::size_t count = 0;
  double q = d[0] - x;
  if (q < 0.0) ++count;
  for (std::size_t i = 1; i < d.size(); ++i) {
    double denom = q;
    if (denom == 0.0) denom = pivot_floor;
    q = d[i] - x - e[i - 1] * e[i - 1] / denom;
    if (q < 0.0) ++count;
  }
  return count;
}

// LU factorization of (T - lambda I) with partial pivoting; a row swap
// can fill a second superdiagonal, hence three U bands.
struct ShiftedTridiagonalLu {
  Vector u0, u1, u2;        // rows of U: diagonal, first and second super
  Vector mult;              // elimination multipliers
  std::vector<char> swaps;  // 1 where rows i and i+1 were exchanged
};

ShiftedTridiagonalLu factor_shifted(const Vector& d, const Vector& e,
                                    double lambda, double pivot_floor) {
  const std::size_t n = d.size();
  ShiftedTridiagonalLu f;
  f.u0.assign(n, 0.0);
  f.u1.assign(n, 0.0);
  f.u2.assign(n, 0.0);
  f.mult.assign(n, 0.0);
  f.swaps.assign(n, 0);
  // (p0, p1, p2) is the current pivot row at columns (i, i+1, i+2); row
  // i+1 enters fresh from the tridiagonal each step.
  double p0 = d[0] - lambda;
  double p1 = n > 1 ? e[0] : 0.0;
  double p2 = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    double q0 = e[i];
    double q1 = d[i + 1] - lambda;
    double q2 = i + 2 < n ? e[i + 1] : 0.0;
    if (std::abs(q0) > std::abs(p0)) {
      std::swap(p0, q0);
      std::swap(p1, q1);
      std::swap(p2, q2);
      f.swaps[i] = 1;
    }
    if (p0 == 0.0) p0 = pivot_floor;  // shift sits on an exact eigenvalue
    const double m = q0 / p0;
    f.u0[i] = p0;
    f.u1[i] = p1;
    f.u2[i] = p2;
    f.mult[i] = m;
    p0 = q1 - m * p1;
    p1 = q2 - m * p2;
    p2 = 0.0;
  }
  if (p0 == 0.0) p0 = pivot_floor;
  f.u0[n - 1] = p0;
  return f;
}

void solve_shifted(const ShiftedTridiagonalLu& f, Vector& x) {
  const std::size_t n = f.u0.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (f.swaps[i]) std::swap(x[i], x[i + 1]);
    x[i + 1] -= f.mult[i] * x[i];
  }
  for (std::size_t i = n; i-- > 0;) {
    double s = x[i];
    if (i + 1 < n) s -= f.u1[i] * x[i + 1];
    if (i + 2 < n) s -= f.u2[i] * x[i + 2];
    x[i] = s / f.u0[i];
  }
}

}  // namespace

namespace detail {

TridiagonalEigen tridiagonal_smallest(const Vector& d, const Vector& e,
                                      std::size_t m) {
  const std::size_t n = d.size();
  // A 1x1 T is its own eigenpair. The general path would divide by the
  // pivot floor, which overflows when T is zero (a Lanczos breakdown on
  // the zero matrix).
  if (n == 1) return {Vector{d[0]}, {Vector{1.0}}};
  // Gershgorin interval of T bounds every eigenvalue and sets the scale
  // for all tolerances below.
  double glo = std::numeric_limits<double>::infinity();
  double ghi = -glo;
  for (std::size_t i = 0; i < n; ++i) {
    const double radius = (i > 0 ? std::abs(e[i - 1]) : 0.0) +
                          (i + 1 < n ? std::abs(e[i]) : 0.0);
    glo = std::min(glo, d[i] - radius);
    ghi = std::max(ghi, d[i] + radius);
  }
  const double eps = std::numeric_limits<double>::epsilon();
  const double anorm = std::max({std::abs(glo), std::abs(ghi), 1e-300});
  const double pivot_floor = eps * anorm;
  glo -= pivot_floor;
  ghi += pivot_floor;

  // Bisection on the Sturm count: lambda_j is the infimum of x with
  // count(x) >= j+1. Fully deterministic, O(n) per probe. Each bracket
  // starts at the previous eigenvalue's lower bound since the spectrum is
  // sorted.
  Vector evals(m);
  double lower = glo;
  for (std::size_t j = 0; j < m; ++j) {
    double lo = lower;
    double hi = ghi;
    for (std::size_t it = 0;
         it < 200 &&
         hi - lo > 2.0 * eps * (std::abs(lo) + std::abs(hi)) + pivot_floor;
         ++it) {
      const double mid = 0.5 * (lo + hi);
      if (count_below(d, e, mid, pivot_floor) >= j + 1) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    evals[j] = 0.5 * (lo + hi);
    lower = lo;
  }

  // Inverse iteration in the tridiagonal basis. Eigenvalues closer than
  // cluster_tol form one multiplet: each member gets a slightly offset
  // shift and is reorthogonalized against the members before it, which is
  // what keeps repeated eigenvalues (e.g. the zero modes of a
  // rank-deficient Laplacian) from collapsing onto a single vector.
  const double cluster_tol = 1e-7 * anorm;
  std::vector<Vector> tri(m);
  std::size_t cluster_start = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (j > 0 && evals[j] - evals[j - 1] > cluster_tol) cluster_start = j;
    const double shift =
        evals[j] +
        static_cast<double>(j - cluster_start) * pivot_floor * 64.0;
    const ShiftedTridiagonalLu lu = factor_shifted(d, e, shift, pivot_floor);
    Vector z(n);
    for (std::size_t attempt = 0; attempt < 4; ++attempt) {
      for (std::size_t i = 0; i < n; ++i) {
        z[i] = hash_unit(static_cast<std::uint64_t>(j) * 1000003ULL +
                         static_cast<std::uint64_t>(attempt) * 7919ULL +
                         static_cast<std::uint64_t>(i)) -
               0.5;
      }
      bool collapsed = false;
      for (std::size_t iter = 0; iter < 3; ++iter) {
        solve_shifted(lu, z);
        for (std::size_t p = cluster_start; p < j; ++p) {
          double dot = 0.0;
          for (std::size_t i = 0; i < n; ++i) dot += tri[p][i] * z[i];
          for (std::size_t i = 0; i < n; ++i) z[i] -= dot * tri[p][i];
        }
        double norm = 0.0;
        for (double zi : z) norm += zi * zi;
        norm = std::sqrt(norm);
        if (norm < 1e-12) {
          collapsed = true;  // start vector lay in the span already found
          break;
        }
        for (double& zi : z) zi /= norm;
      }
      if (!collapsed) break;
    }
    tri[j] = std::move(z);
  }

  return {std::move(evals), std::move(tri)};
}

}  // namespace detail

SymmetricEigen eigen_symmetric_smallest(const Matrix& a, std::size_t m) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("eigen_symmetric_smallest: matrix not square");
  }
  if (m == 0) {
    throw std::invalid_argument("eigen_symmetric_smallest: m must be > 0");
  }
  const std::size_t n = a.rows();
  if (m > n) {
    throw std::invalid_argument(
        "eigen_symmetric_smallest: requested " + std::to_string(m) +
        " eigenpairs from a " + std::to_string(n) + "x" + std::to_string(n) +
        " matrix (m must be <= n)");
  }
  obs::TraceSpan span("linalg.eigen_symmetric_smallest");
  if (n == 1) return {Vector{a(0, 0)}, Matrix::identity(1)};
  static const obs::MetricId kPartialCalls =
      obs::counter_id("linalg.eigen_partial_calls");
  static const obs::MetricId kPartialPairs =
      obs::counter_id("linalg.eigen_partial_pairs");
  static const obs::MetricId kEigenCalls =
      obs::counter_id("linalg.eigen_calls");
  obs::add_counter(kPartialCalls);
  obs::add_counter(kPartialPairs, m);
  obs::add_counter(kEigenCalls);

  HouseholderTridiagonal t = tridiagonalize(symmetrized(a));
  auto tri = detail::tridiagonal_smallest(t.diag, t.off, m);

  // Back-transform through the stored reflectors; vectors are independent
  // so the row of work per j is deterministic regardless of thread count.
  core::parallel_for(0, m, core::grain_for_cost(n * n), [&](std::size_t j) {
    back_transform(t, tri.vectors[j]);
  });

  SymmetricEigen out;
  out.eigenvalues = std::move(tri.eigenvalues);
  out.eigenvectors = Matrix(n, m);
  for (std::size_t j = 0; j < m; ++j) {
    out.eigenvectors.set_col(j, tri.vectors[j]);
  }
  pin_column_signs(out.eigenvectors);
  return out;
}

}  // namespace auditherm::linalg
