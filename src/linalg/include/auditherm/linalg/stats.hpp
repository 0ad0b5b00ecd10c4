#pragma once

/// \file stats.hpp
/// Percentiles and empirical CDFs: the kernels behind every error metric
/// the paper reports (90th/99th percentile RMS, CDFs of per-sensor error).

#include <cstddef>
#include <vector>

#include "auditherm/linalg/matrix.hpp"

namespace auditherm::linalg {

/// Percentile in [0, 100] with linear interpolation between order
/// statistics (the convention MATLAB's prctile uses, matching the paper's
/// 90th/99th-percentile error metrics). Throws std::invalid_argument on
/// empty input or p outside [0, 100].
[[nodiscard]] double percentile(Vector x, double p);

/// A point on an empirical CDF.
struct CdfPoint {
  double value = 0.0;        ///< sorted sample value
  double probability = 0.0;  ///< fraction of samples <= value
};

/// Empirical CDF of a sample: sorted values paired with i/n probabilities.
/// Throws std::invalid_argument on empty input.
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(Vector x);

/// Evaluate an empirical CDF at `value` (fraction of samples <= value).
[[nodiscard]] double cdf_at(const std::vector<CdfPoint>& cdf, double value);

}  // namespace auditherm::linalg
