#include "auditherm/linalg/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace auditherm::linalg {

double percentile(Vector x, double p) {
  if (x.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p outside [0, 100]");
  }
  std::sort(x.begin(), x.end());
  if (x.size() == 1) return x.front();
  const double rank = p / 100.0 * static_cast<double>(x.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= x.size()) return x.back();
  const double frac = rank - static_cast<double>(lo);
  return x[lo] + frac * (x[lo + 1] - x[lo]);
}

std::vector<CdfPoint> empirical_cdf(Vector x) {
  if (x.empty()) throw std::invalid_argument("empirical_cdf: empty input");
  std::sort(x.begin(), x.end());
  std::vector<CdfPoint> cdf(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    cdf[i] = {x[i],
              static_cast<double>(i + 1) / static_cast<double>(x.size())};
  }
  return cdf;
}

double cdf_at(const std::vector<CdfPoint>& cdf, double value) {
  double p = 0.0;
  for (const auto& pt : cdf) {
    if (pt.value <= value) {
      p = pt.probability;
    } else {
      break;
    }
  }
  return p;
}

}  // namespace auditherm::linalg
