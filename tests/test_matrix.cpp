// Unit tests for linalg::Matrix and its free-function operations.

#include "auditherm/linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "support/oracles.hpp"

namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
using linalg::Matrix;
using linalg::Vector;

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m(i, j), 1.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndDiagonal) {
  const auto i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
}

TEST(Matrix, ColumnAndRowFactories) {
  const auto c = Matrix::column({1.0, 2.0, 3.0});
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(2, 0), 3.0);
}

TEST(Matrix, RowAndColVectors) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(m.row_vector(1), (Vector{4.0, 5.0, 6.0}));
  EXPECT_EQ(m.col_vector(2), (Vector{3.0, 6.0}));
  EXPECT_THROW((void)m.row_vector(2), std::out_of_range);
  EXPECT_THROW((void)m.col_vector(3), std::out_of_range);
}

TEST(Matrix, SetRowAndCol) {
  Matrix m(2, 2);
  m.set_row(0, {1.0, 2.0});
  m.set_col(1, {9.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
  EXPECT_THROW(m.set_row(0, {1.0}), std::invalid_argument);
  EXPECT_THROW(m.set_col(5, {1.0, 2.0}), std::out_of_range);
}

TEST(Matrix, Transposed) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, BlockExtractAndSet) {
  Matrix m(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      m(i, j) = static_cast<double>(3 * i + j);
  const Matrix b{{4.0, 5.0}, {7.0, 8.0}};
  Matrix target(4, 4);
  target.set_block(2, 2, b);
  EXPECT_DOUBLE_EQ(target(2, 2), 4.0);
  EXPECT_DOUBLE_EQ(target(3, 3), 8.0);
  EXPECT_DOUBLE_EQ(target(1, 1), 0.0);
  EXPECT_THROW(target.set_block(3, 3, b), std::out_of_range);
}

TEST(Matrix, BlockRowwiseCopyEdgeCases) {
  Matrix m(4, 5);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      m(i, j) = static_cast<double>(10 * i + j);
  // A zero-sized block writes nothing.
  Matrix copy = m;
  copy.set_block(2, 3, Matrix());
  EXPECT_EQ(copy, m);
  // Writing a full-size block copies it bitwise.
  Matrix target(4, 5);
  target.set_block(0, 0, m);
  EXPECT_EQ(target, m);
  // Single row / single column writes land in place.
  Matrix row(1, 5, -1.0);
  copy.set_block(2, 0, row);
  for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(copy(2, j), -1.0);
  Matrix col(4, 1, -2.0);
  copy.set_block(0, 4, col);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(copy(i, 4), -2.0);
  EXPECT_EQ(copy(1, 1), m(1, 1));
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  const auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const auto diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), 0.0);
  const auto scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  const auto scaled2 = 0.5 * a;
  EXPECT_DOUBLE_EQ(scaled2(0, 1), 1.0);
  EXPECT_THROW(a += Matrix(3, 3), std::invalid_argument);
  EXPECT_THROW(a -= Matrix(1, 2), std::invalid_argument);
}

TEST(Matrix, MatrixProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const auto c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  EXPECT_THROW(a * Matrix(3, 2), std::invalid_argument);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = a * Vector{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_THROW(a * Vector{1.0}, std::invalid_argument);
}

TEST(Matrix, GramMatchesExplicitTranspose) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Matrix b{{1.0}, {0.5}, {-1.0}};
  const auto g = linalg::gram(a, b);
  const auto expected = a.transposed() * b;
  EXPECT_TRUE(support::approx_equal(g, expected, 1e-12));
  EXPECT_THROW(linalg::gram(a, Matrix(2, 1)), std::invalid_argument);
}

TEST(Matrix, ApproxEqual) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0, 2.0 + 1e-9}};
  EXPECT_TRUE(support::approx_equal(a, b, 1e-8));
  EXPECT_FALSE(support::approx_equal(a, b, 1e-10));
  EXPECT_FALSE(support::approx_equal(a, Matrix(2, 1), 1.0));
}

