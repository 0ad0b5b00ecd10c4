#pragma once

/// \file vector_ops.hpp
/// Free-function helpers on linalg::Vector used across the library.

#include "auditherm/linalg/matrix.hpp"

namespace auditherm::linalg {

/// Dot product; throws std::invalid_argument on size mismatch.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Euclidean (L2) norm.
[[nodiscard]] double norm2(const Vector& a) noexcept;

/// y += alpha * x; throws std::invalid_argument on size mismatch.
void axpy(double alpha, const Vector& x, Vector& y);

/// Elementwise a - b.
[[nodiscard]] Vector subtract(const Vector& a, const Vector& b);

}  // namespace auditherm::linalg
