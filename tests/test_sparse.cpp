// Property tests for the CSR sparse-matrix layer: dense->CSR->dense
// round-trips through the test-support converters (the fixture builders
// the Lanczos tests rely on) must be bitwise, SpMV must match the dense
// matvec to 1e-12
// over ragged / empty-row / duplicate-pattern shapes, raw-array
// construction must reject every invariant violation, and the row-parallel
// SpMV must be bitwise identical at 1, 2, 4, and 8 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "auditherm/core/parallel.hpp"
#include "auditherm/linalg/matrix.hpp"
#include "auditherm/linalg/sparse.hpp"
#include "support/oracles.hpp"

namespace core = auditherm::core;
namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
using linalg::CsrMatrix;
using linalg::Matrix;
using linalg::Vector;

namespace {

/// Random matrix with roughly `density` nonzeros; rows in `empty_rows`
/// are left all-zero to exercise the zero-length row_ptr spans.
Matrix random_sparse(std::size_t rows, std::size_t cols, double density,
                     std::uint64_t seed,
                     const std::vector<std::size_t>& empty_rows = {}) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> value(0.0, 2.0);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    bool skip = false;
    for (const std::size_t e : empty_rows) skip = skip || e == i;
    if (skip) continue;
    for (std::size_t j = 0; j < cols; ++j) {
      if (unit(rng) < density) m(i, j) = value(rng);
    }
  }
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  Vector v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Round-trip and shape properties.
// ---------------------------------------------------------------------------

TEST(CsrMatrix, RoundTripIsBitwise) {
  const struct {
    std::size_t rows, cols;
    double density;
  } shapes[] = {{1, 1, 1.0},  {5, 3, 0.4},  {3, 5, 0.4},   {17, 17, 0.1},
                {40, 7, 0.3}, {7, 40, 0.3}, {64, 64, 0.05}, {10, 10, 0.0},
                {1, 50, 0.5}, {50, 1, 0.5}};
  std::uint64_t seed = 100;
  for (const auto& s : shapes) {
    const auto dense = random_sparse(s.rows, s.cols, s.density, seed++);
    const auto csr = support::from_dense(dense);
    EXPECT_EQ(csr.rows(), s.rows);
    EXPECT_EQ(csr.cols(), s.cols);
    // Bitwise: operator== compares the raw double storage.
    EXPECT_EQ(support::to_dense(csr), dense)
        << s.rows << "x" << s.cols << " density " << s.density;
    // nnz matches a direct count of the dense nonzeros.
    std::size_t nonzeros = 0;
    for (std::size_t i = 0; i < s.rows; ++i)
      for (std::size_t j = 0; j < s.cols; ++j)
        if (dense(i, j) != 0.0) ++nonzeros;
    EXPECT_EQ(csr.nnz(), nonzeros);
  }
}

TEST(CsrMatrix, EmptyRowsRoundTrip) {
  const auto dense = random_sparse(12, 9, 0.5, 7, {0, 3, 4, 11});
  const auto csr = support::from_dense(dense);
  EXPECT_EQ(support::to_dense(csr), dense);
  // The empty rows occupy zero-length spans.
  EXPECT_EQ(csr.row_ptr()[1] - csr.row_ptr()[0], 0u);
  EXPECT_EQ(csr.row_ptr()[4] - csr.row_ptr()[3], 0u);
  EXPECT_EQ(csr.row_ptr()[12] - csr.row_ptr()[11], 0u);
}

TEST(CsrMatrix, DropToleranceFilters) {
  Matrix a(2, 3);
  a(0, 0) = 0.5;
  a(0, 2) = 1e-14;
  a(1, 1) = -2.0;
  const auto kept = support::from_dense(a);
  EXPECT_EQ(kept.nnz(), 3u);
  const auto filtered = support::from_dense(a, 1e-12);
  EXPECT_EQ(filtered.nnz(), 2u);
  EXPECT_EQ(support::to_dense(filtered)(0, 2), 0.0);
  EXPECT_EQ(support::to_dense(filtered)(0, 0), 0.5);
}

TEST(CsrMatrix, DefaultIsEmpty) {
  const CsrMatrix empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_EQ(support::to_dense(empty), Matrix());
}

// ---------------------------------------------------------------------------
// Raw-array construction: invariants enforced, duplicates allowed.
// ---------------------------------------------------------------------------

TEST(CsrMatrix, RawConstructionValidates) {
  // Valid: 2x3, entries (0,1)=2 and (1,0)=-1, (1,2)=4.
  const CsrMatrix ok(2, 3, {0, 1, 3}, {1, 0, 2}, {2.0, -1.0, 4.0});
  EXPECT_EQ(ok.nnz(), 3u);
  EXPECT_EQ(support::to_dense(ok)(0, 1), 2.0);
  EXPECT_EQ(support::to_dense(ok)(1, 2), 4.0);

  // row_ptr wrong length.
  EXPECT_THROW(CsrMatrix(2, 3, {0, 1}, {1}, {2.0}), std::invalid_argument);
  // row_ptr not starting at 0.
  EXPECT_THROW(CsrMatrix(2, 3, {1, 1, 1}, {1}, {2.0}), std::invalid_argument);
  // row_ptr end != nnz.
  EXPECT_THROW(CsrMatrix(2, 3, {0, 1, 2}, {1}, {2.0}), std::invalid_argument);
  // row_ptr decreasing.
  EXPECT_THROW(CsrMatrix(2, 3, {0, 2, 1}, {1, 2}, {2.0, 3.0}),
               std::invalid_argument);
  // col_idx / values length mismatch.
  EXPECT_THROW(CsrMatrix(2, 3, {0, 1, 2}, {1, 2}, {2.0}),
               std::invalid_argument);
  // Column out of range.
  EXPECT_THROW(CsrMatrix(2, 3, {0, 1, 1}, {3}, {2.0}), std::invalid_argument);
  // Columns decreasing within a row.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 1.0}),
               std::invalid_argument);
}

TEST(CsrMatrix, DuplicateColumnsActAdditively) {
  // Row 0 stores column 1 twice: triplet-style assembly.
  const CsrMatrix dup(2, 2, {0, 2, 3}, {1, 1, 0}, {1.5, 2.5, -1.0});
  EXPECT_EQ(dup.nnz(), 3u);
  const auto dense = support::to_dense(dup);
  EXPECT_EQ(dense(0, 1), 4.0);
  EXPECT_EQ(dense(1, 0), -1.0);

  // SpMV sees the duplicates in storage order too.
  const Vector y = dup.multiply(Vector{10.0, 100.0});
  EXPECT_EQ(y[0], 1.5 * 100.0 + 2.5 * 100.0);
  EXPECT_EQ(y[1], -10.0);
}

// ---------------------------------------------------------------------------
// SpMV vs the dense matvec.
// ---------------------------------------------------------------------------

TEST(CsrMatrix, SpmvMatchesDenseMatvec) {
  const struct {
    std::size_t rows, cols;
    double density;
  } shapes[] = {{1, 1, 1.0},   {6, 4, 0.5},   {4, 6, 0.5},  {33, 65, 0.2},
                {65, 33, 0.2}, {128, 128, 0.05}, {9, 9, 1.0}, {50, 50, 0.02}};
  std::uint64_t seed = 300;
  for (const auto& s : shapes) {
    const auto dense = random_sparse(s.rows, s.cols, s.density, seed++);
    const auto csr = support::from_dense(dense);
    const auto x = random_vector(s.cols, seed++);
    const Vector expected = dense * x;
    const Vector got = csr.multiply(x);
    ASSERT_EQ(got.size(), expected.size());
    double scale = 1.0;
    for (const double v : expected) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], expected[i], 1e-12 * scale)
          << s.rows << "x" << s.cols << " row " << i;
    }
  }
}

TEST(CsrMatrix, SpmvEmptyRowsGiveExactZero) {
  const auto dense = random_sparse(10, 8, 0.6, 17, {2, 7});
  const auto csr = support::from_dense(dense);
  const Vector y = csr.multiply(random_vector(8, 18));
  EXPECT_EQ(y[2], 0.0);
  EXPECT_EQ(y[7], 0.0);
}

TEST(CsrMatrix, SpmvValidatesLength) {
  const auto csr = support::from_dense(random_sparse(4, 5, 0.5, 9));
  EXPECT_THROW((void)csr.multiply(Vector(4, 1.0)), std::invalid_argument);
  EXPECT_NO_THROW((void)csr.multiply(Vector(5, 1.0)));
}

// ---------------------------------------------------------------------------
// Thread-count bitwise determinism.
// ---------------------------------------------------------------------------

TEST(CsrMatrix, SpmvBitwiseStableAcrossThreads) {
  // Large enough that the row-parallel kernel actually splits work.
  const auto dense = random_sparse(600, 600, 0.02, 42);
  const auto csr = support::from_dense(dense);
  const auto x = random_vector(600, 43);
  Vector serial;
  {
    core::ThreadCountScope scope(1);
    serial = csr.multiply(x);
  }
  for (std::size_t threads : {2u, 4u, 8u}) {
    core::ThreadCountScope scope(threads);
    const Vector y = csr.multiply(x);
    EXPECT_EQ(y, serial) << "threads=" << threads;
  }
}

TEST(CsrMatrix, FromDenseBitwiseStableAcrossThreads) {
  // Conversion is serial by construction, but pin it anyway: the CSR
  // arrays feeding every downstream stage key must not depend on the
  // thread count.
  const auto dense = random_sparse(200, 150, 0.1, 77);
  CsrMatrix serial;
  {
    core::ThreadCountScope scope(1);
    serial = support::from_dense(dense);
  }
  for (std::size_t threads : {2u, 4u, 8u}) {
    core::ThreadCountScope scope(threads);
    const auto csr = support::from_dense(dense);
    EXPECT_EQ(csr.row_ptr(), serial.row_ptr()) << "threads=" << threads;
    EXPECT_EQ(csr.col_idx(), serial.col_idx()) << "threads=" << threads;
    EXPECT_EQ(csr.values(), serial.values()) << "threads=" << threads;
  }
}
