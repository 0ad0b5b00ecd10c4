// Tests for the Vector helper operations.

#include "auditherm/linalg/vector_ops.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace linalg = auditherm::linalg;
using linalg::Vector;

TEST(VectorOps, DotAndNorms) {
  EXPECT_DOUBLE_EQ(linalg::dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
  EXPECT_DOUBLE_EQ(linalg::norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(linalg::norm2({}), 0.0);
}

TEST(VectorOps, Axpy) {
  Vector y{1.0, 1.0};
  linalg::axpy(2.0, {1.0, -1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(VectorOps, AddSubtractScale) {
  EXPECT_EQ(linalg::subtract({3.0, 4.0}, {1.0, 2.0}), (Vector{2.0, 2.0}));
}

TEST(VectorOps, SizeMismatchesThrow) {
  Vector y{1.0};
  EXPECT_THROW((void)linalg::dot({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(linalg::axpy(1.0, {1.0, 2.0}, y), std::invalid_argument);
  EXPECT_THROW((void)linalg::subtract({1.0}, {}), std::invalid_argument);
}
