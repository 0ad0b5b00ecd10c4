#pragma once

/// \file matrix.hpp
/// Dense row-major matrix of doubles with value semantics.
///
/// This is the numeric workhorse for the whole library: system
/// identification assembles regressor matrices here, spectral clustering
/// builds Laplacians here, and the simulator integrates its state with the
/// vector helpers in vector_ops.hpp.

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace auditherm::linalg {

/// Column vector represented as a flat array of doubles.
using Vector = std::vector<double>;

/// Dense row-major matrix with value semantics.
///
/// Invariants: `data().size() == rows() * cols()`; both dimensions may be
/// zero (an empty matrix). Element access through `operator()` is
/// unchecked.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, all elements set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// rows x cols matrix that adopts `data` (row-major) as its storage.
  /// Throws std::invalid_argument when data.size() != rows * cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  /// Build from nested initializer list; all rows must have equal length.
  /// Throws std::invalid_argument on ragged input.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// k x k identity matrix.
  [[nodiscard]] static Matrix identity(std::size_t k);

  /// Matrix with a single column equal to `v`.
  [[nodiscard]] static Matrix column(const Vector& v);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Unchecked element access.
  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  /// Raw row-major storage.
  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }
  [[nodiscard]] std::vector<double>& data() noexcept { return data_; }

  /// Copy of row i as a Vector. Throws std::out_of_range.
  [[nodiscard]] Vector row_vector(std::size_t i) const;

  /// Copy of column j as a Vector. Throws std::out_of_range.
  [[nodiscard]] Vector col_vector(std::size_t j) const;

  /// Overwrite row i with `v` (must match cols()).
  void set_row(std::size_t i, const Vector& v);

  /// Overwrite column j with `v` (must match rows()).
  void set_col(std::size_t j, const Vector& v);

  /// Transposed copy.
  [[nodiscard]] Matrix transposed() const;

  /// Write `b` into this matrix starting at (r0, c0).
  /// Throws std::out_of_range if the block does not fit.
  void set_block(std::size_t r0, std::size_t c0, const Matrix& b);

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  friend bool operator==(const Matrix& a, const Matrix& b) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator+(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator-(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator*(Matrix a, double s);
[[nodiscard]] Matrix operator*(double s, Matrix a);

/// Matrix product; throws std::invalid_argument on dimension mismatch.
[[nodiscard]] Matrix operator*(const Matrix& a, const Matrix& b);

/// Matrix-vector product; throws std::invalid_argument on mismatch.
[[nodiscard]] Vector operator*(const Matrix& a, const Vector& x);

/// a^T * b without forming the transpose.
[[nodiscard]] Matrix gram(const Matrix& a, const Matrix& b);

/// ADL hook for the stage cache's byte accounting (core/stage_cache.hpp):
/// object header plus the heap storage behind data().
[[nodiscard]] inline std::size_t cache_footprint(const Matrix& m) noexcept {
  return sizeof(Matrix) + m.data().capacity() * sizeof(double);
}

}  // namespace auditherm::linalg
