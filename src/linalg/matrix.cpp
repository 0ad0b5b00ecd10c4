#include "auditherm/linalg/matrix.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "auditherm/core/parallel.hpp"
#include "auditherm/obs/trace_span.hpp"

namespace auditherm::linalg {

namespace {

// Tile edge for the cache-blocked dense kernels: 64x64 doubles = 32 KiB,
// so one tile of each operand fits in L1/L2 together. The block size is a
// compile-time constant — never derived from the thread count — and every
// output element still accumulates its terms in ascending-k order inside
// and across tiles, so blocked results are bitwise identical to the naive
// loops at any thread count.
constexpr std::size_t kDenseBlock = 64;

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows_ * cols_) {
    throw std::invalid_argument("Matrix: data size does not match shape");
  }
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t k) {
  Matrix m(k, k);
  for (std::size_t i = 0; i < k; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::column(const Vector& v) {
  Matrix m(v.size(), 1);
  for (std::size_t i = 0; i < v.size(); ++i) m(i, 0) = v[i];
  return m;
}

Vector Matrix::row_vector(std::size_t i) const {
  if (i >= rows_) throw std::out_of_range("Matrix::row_vector");
  return Vector(data_.begin() + static_cast<std::ptrdiff_t>(i * cols_),
                data_.begin() + static_cast<std::ptrdiff_t>((i + 1) * cols_));
}

Vector Matrix::col_vector(std::size_t j) const {
  if (j >= cols_) throw std::out_of_range("Matrix::col_vector");
  Vector v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
  return v;
}

void Matrix::set_row(std::size_t i, const Vector& v) {
  if (i >= rows_) throw std::out_of_range("Matrix::set_row");
  if (v.size() != cols_) throw std::invalid_argument("Matrix::set_row size");
  std::copy(v.begin(), v.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(i * cols_));
}

void Matrix::set_col(std::size_t j, const Vector& v) {
  if (j >= cols_) throw std::out_of_range("Matrix::set_col");
  if (v.size() != rows_) throw std::invalid_argument("Matrix::set_col size");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  // Tile the copy so both the row-major read and the column-strided write
  // stay within a cache-resident kDenseBlock-square panel.
  for (std::size_t ib = 0; ib < rows_; ib += kDenseBlock) {
    const std::size_t iend = std::min(ib + kDenseBlock, rows_);
    for (std::size_t jb = 0; jb < cols_; jb += kDenseBlock) {
      const std::size_t jend = std::min(jb + kDenseBlock, cols_);
      for (std::size_t i = ib; i < iend; ++i)
        for (std::size_t j = jb; j < jend; ++j) t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

void Matrix::set_block(std::size_t r0, std::size_t c0, const Matrix& b) {
  if (r0 + b.rows() > rows_ || c0 + b.cols() > cols_)
    throw std::out_of_range("Matrix::set_block");
  for (std::size_t i = 0; i < b.rows(); ++i) {
    const double* src = b.data_.data() + i * b.cols_;
    std::copy(src, src + b.cols_,
              data_.begin() +
                  static_cast<std::ptrdiff_t>((r0 + i) * cols_ + c0));
  }
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix::operator+= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix::operator-= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}

Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}

Matrix operator*(Matrix a, double s) {
  a *= s;
  return a;
}

Matrix operator*(double s, Matrix a) {
  a *= s;
  return a;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("Matrix product: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  // Parallel over row chunks, cache-blocked inside each chunk: a
  // kDenseBlock-square tile of b is reused across every row of the chunk
  // before moving on. Each c(i,j) still accumulates over ascending k (kb
  // tiles ascend, k ascends within a tile, j never revisits a tile) with
  // the same zero-skip as the naive (i,k,j) loop, so the product is
  // bitwise identical to it — and hence thread-count independent.
  core::parallel_for_chunks(
      0, a.rows(), core::grain_for_cost(a.cols() * b.cols()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t kb = 0; kb < a.cols(); kb += kDenseBlock) {
          const std::size_t kend = std::min(kb + kDenseBlock, a.cols());
          for (std::size_t jb = 0; jb < b.cols(); jb += kDenseBlock) {
            const std::size_t jend = std::min(jb + kDenseBlock, b.cols());
            for (std::size_t i = lo; i < hi; ++i) {
              for (std::size_t k = kb; k < kend; ++k) {
                const double aik = a(i, k);
                if (aik == 0.0) continue;
                for (std::size_t j = jb; j < jend; ++j)
                  c(i, j) += aik * b(k, j);
              }
            }
          }
        }
      });
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size())
    throw std::invalid_argument("Matrix-vector product: dimension mismatch");
  static const obs::MetricId kMatvecCalls =
      obs::counter_id("linalg.matvec_calls");
  obs::add_counter(kMatvecCalls);
  Vector y(a.rows(), 0.0);
  // Parallel over rows; each row is a serial ascending-j dot product into
  // its own output slot, so the result is bitwise identical to the serial
  // loop at any thread count. A counter (not a span) tracks call volume:
  // sysid's hot loops issue thousands of matvecs per fit.
  core::parallel_for(0, a.rows(), core::grain_for_cost(a.cols()),
                     [&](std::size_t i) {
                       double s = 0.0;
                       for (std::size_t j = 0; j < a.cols(); ++j)
                         s += a(i, j) * x[j];
                       y[i] = s;
                     });
  return y;
}

Matrix gram(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("gram: row count mismatch");
  Matrix c(a.cols(), b.cols());
  // Parallel over chunks of output rows (columns of a), cache-blocked
  // like operator*: tiles of b are reused across the chunk, and each
  // c(i,j) sums a(k,i) * b(k,j) over globally ascending k with the
  // original zero-skip, so every element sees an identical sequence of
  // partial sums at any thread count.
  core::parallel_for_chunks(
      0, a.cols(), core::grain_for_cost(a.rows() * b.cols()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t kb = 0; kb < a.rows(); kb += kDenseBlock) {
          const std::size_t kend = std::min(kb + kDenseBlock, a.rows());
          for (std::size_t jb = 0; jb < b.cols(); jb += kDenseBlock) {
            const std::size_t jend = std::min(jb + kDenseBlock, b.cols());
            for (std::size_t i = lo; i < hi; ++i) {
              for (std::size_t k = kb; k < kend; ++k) {
                const double aki = a(k, i);
                if (aki == 0.0) continue;
                for (std::size_t j = jb; j < jend; ++j)
                  c(i, j) += aki * b(k, j);
              }
            }
          }
        }
      });
  return c;
}

}  // namespace auditherm::linalg
