#include "auditherm/selection/gp_placement.hpp"
#include <algorithm>

#include <limits>
#include <stdexcept>

#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/timeseries/trace_stats.hpp"

namespace auditherm::selection {

namespace {

/// Covariance-diagonal jitter, relative to the largest variance (or 1);
/// keeps conditional variances well defined for near-duplicate sensors.
constexpr double kJitter = 1e-3;

/// Conditional variance sigma^2(y | S) = K_yy - K_yS K_SS^{-1} K_Sy.
double conditional_variance(const linalg::Matrix& k, std::size_t y,
                            const std::vector<std::size_t>& s) {
  if (s.empty()) return k(y, y);
  linalg::Matrix kss(s.size(), s.size());
  linalg::Vector ksy(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    ksy[i] = k(s[i], y);
    for (std::size_t j = 0; j < s.size(); ++j) kss(i, j) = k(s[i], s[j]);
  }
  const linalg::CholeskyDecomposition chol(kss);
  const linalg::Vector alpha = chol.solve(ksy);
  double quad = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) quad += ksy[i] * alpha[i];
  return k(y, y) - quad;
}

}  // namespace

std::vector<timeseries::ChannelId> gp_mutual_information_selection(
    const timeseries::TraceView& training,
    const std::vector<timeseries::ChannelId>& candidates, std::size_t count) {
  if (count == 0 || count > candidates.size()) {
    throw std::invalid_argument(
        "gp_mutual_information_selection: count outside [1, #candidates]");
  }
  // Estimate the GP covariance on rows where every candidate is valid:
  // a complete-row estimate is positive semidefinite by construction,
  // which pairwise-complete estimates are not.
  auto sub = training.select_channels(candidates);
  const auto complete = timeseries::rows_with_all_valid(sub);
  std::size_t n_complete = 0;
  for (bool b : complete) n_complete += b ? 1 : 0;
  if (n_complete > candidates.size() + 1) {
    sub = sub.filter_rows(complete);
  }
  linalg::Matrix k = timeseries::covariance_matrix(sub);
  double max_diag = 0.0;
  for (std::size_t i = 0; i < k.rows(); ++i) {
    max_diag = std::max(max_diag, k(i, i));
  }
  const double jitter = kJitter * std::max(max_diag, 1.0);
  for (std::size_t i = 0; i < k.rows(); ++i) k(i, i) += jitter;

  const std::size_t n = candidates.size();
  std::vector<bool> selected(n, false);
  std::vector<std::size_t> a;  // selected index set

  for (std::size_t step = 0; step < count; ++step) {
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_y = n;
    for (std::size_t y = 0; y < n; ++y) {
      if (selected[y]) continue;
      std::vector<std::size_t> rest;  // V \ A \ {y}
      rest.reserve(n - a.size() - 1);
      for (std::size_t j = 0; j < n; ++j) {
        if (j != y && !selected[j]) rest.push_back(j);
      }
      const double numer = conditional_variance(k, y, a);
      const double denom =
          rest.empty() ? 1.0 : conditional_variance(k, y, rest);
      const double score = numer / std::max(denom, 1e-12);
      if (score > best_score) {
        best_score = score;
        best_y = y;
      }
    }
    selected[best_y] = true;
    a.push_back(best_y);
  }

  std::vector<timeseries::ChannelId> out;
  out.reserve(count);
  for (std::size_t idx : a) out.push_back(candidates[idx]);
  return out;
}

}  // namespace auditherm::selection
