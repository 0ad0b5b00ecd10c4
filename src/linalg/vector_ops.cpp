#include "auditherm/linalg/vector_ops.hpp"

#include <cmath>
#include <stdexcept>

namespace auditherm::linalg {

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vector& a) noexcept {
  double s = 0.0;
  for (double x : a) s += x * x;
  return std::sqrt(s);
}

void axpy(double alpha, const Vector& x, Vector& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vector subtract(const Vector& a, const Vector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("subtract: size mismatch");
  Vector c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

}  // namespace auditherm::linalg
