#include "support/matrix_families.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "auditherm/clustering/spectral.hpp"
#include "support/oracles.hpp"

namespace auditherm::test_support {

using linalg::Matrix;
using linalg::Vector;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = dist(rng);
  return m;
}

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  const auto a = random_matrix(n + 2, n, seed);
  auto spd = linalg::gram(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.25;
  return spd;
}

Matrix near_diagonal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> diag(1.0, 10.0);
  std::normal_distribution<double> off(0.0, 1e-3);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = diag(rng);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = off(rng);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

Matrix clustered_spectrum(std::size_t n, std::uint64_t seed) {
  const Matrix q = eigen_symmetric(random_spd(n, seed)).eigenvectors;
  Matrix qd = q;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      qd(i, j) *= 1.0 + static_cast<double>(j / 3);  // triples of equal d_j
  auto a = qd * q.transposed();
  // Symmetrize exactly: the product is only symmetric to rounding.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double s = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = s;
      a(j, i) = s;
    }
  return a;
}

Matrix rank_deficient_laplacian(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t blocks = 2 + seed % 2;
  Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (i % blocks != j % blocks) continue;  // cross-block: no edge
      const double v = 0.1 + unit(rng);
      w(i, j) = v;
      w(j, i) = v;
    }
  }
  return clustering::laplacian(w);
}

Matrix family_matrix(std::size_t family, std::size_t n, std::uint64_t seed) {
  switch (family) {
    case 0: return random_spd(n, seed);
    case 1: return near_diagonal(n, seed);
    case 2: return clustered_spectrum(n, seed);
    default: return rank_deficient_laplacian(n, seed);
  }
}

const char* family_name(std::size_t family) {
  switch (family) {
    case 0: return "spd";
    case 1: return "near_diagonal";
    case 2: return "clustered";
    default: return "laplacian";
  }
}

double spectrum_scale(const Vector& eigenvalues) {
  double scale = 1.0;
  for (const double v : eigenvalues) scale = std::max(scale, std::abs(v));
  return scale;
}

}  // namespace auditherm::test_support
