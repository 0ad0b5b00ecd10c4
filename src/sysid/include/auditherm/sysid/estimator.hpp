#pragma once

/// \file estimator.hpp
/// Piecewise least-squares identification of thermal models (Section IV.B).
///
/// The dataset has gaps (wireless dropouts, server outages), so the paper
/// minimizes the ensemble objective (eq. 4) over continuous sampling
/// intervals: a transition T(k) -> T(k+1) contributes only when every
/// required channel is valid across it. We assemble exactly those
/// transitions into one regression and solve it directly (the objective
/// is an ordinary linear least squares; CVX/SeDuMi in the paper computes
/// the same global optimum).

#include <algorithm>
#include <cstddef>
#include <vector>

#include "auditherm/sysid/model.hpp"
#include "auditherm/timeseries/multi_trace.hpp"
#include "auditherm/timeseries/segmentation.hpp"

namespace auditherm::sysid {

/// Estimation options.
struct EstimationOptions {
  /// Ridge penalty on the coefficient matrix, relative to the regressor
  /// scale (see LeastSquaresOptions::relative_ridge). A small positive
  /// value keeps the normal equations well posed when regressors are
  /// near-collinear (e.g., four VAVs commanded in unison by the same
  /// controller, or low-noise temperature channels that track each other).
  double ridge = 1e-7;
  /// Interpret `ridge` relative to the regressor Gram diagonal.
  bool relative_ridge = true;
};

/// Usable transitions an identification needs for a model with
/// `parameters` unknowns per output row: max(4 * parameters, 8). Below it
/// ModelEstimator::fit() throws timeseries::InputError and a
/// StreamingEstimator window has no model (an over-parameterized fit
/// would be meaningless).
[[nodiscard]] constexpr std::size_t min_transitions(
    std::size_t parameters) noexcept {
  return std::max<std::size_t>(4 * parameters, 8);
}

/// Summary of the assembled regression, for diagnostics and tests.
struct RegressionSummary {
  std::size_t transitions = 0;  ///< rows in the regression
  std::size_t segments = 0;     ///< continuous intervals contributing
  std::size_t parameters = 0;   ///< unknowns per output row
};

/// Identifies ThermalModels from gapped traces.
class ModelEstimator {
 public:
  /// `state_ids` are the temperature channels (the paper's 25 sensors + 2
  /// thermostats), `input_ids` the [h; o; l; w] block. Throws
  /// std::invalid_argument on empty state or input lists.
  ModelEstimator(std::vector<timeseries::ChannelId> state_ids,
                 std::vector<timeseries::ChannelId> input_ids,
                 ModelOrder order, EstimationOptions options = {});

  [[nodiscard]] ModelOrder order() const noexcept { return order_; }

  /// Fit a model on all usable transitions of `trace`. `row_filter`, when
  /// non-empty, restricts which rows may participate (the mode filter:
  /// occupied vs unoccupied); it must match trace.size().
  /// Throws timeseries::InputError (a std::runtime_error) when fewer than
  /// min_transitions() usable transitions exist.
  [[nodiscard]] ThermalModel fit(const timeseries::TraceView& trace,
                                 const std::vector<bool>& row_filter = {}) const;

  /// The regression dimensions fit() would use, without solving.
  [[nodiscard]] RegressionSummary summarize(
      const timeseries::TraceView& trace,
      const std::vector<bool>& row_filter = {}) const;

 private:
  /// Segments of rows where all required channels are valid and the filter
  /// passes, long enough to yield at least one transition.
  [[nodiscard]] std::vector<timeseries::Segment> usable_segments(
      const timeseries::TraceView& trace,
      const std::vector<bool>& row_filter) const;

  std::vector<timeseries::ChannelId> state_ids_;
  std::vector<timeseries::ChannelId> input_ids_;
  ModelOrder order_;
  EstimationOptions options_;
};

}  // namespace auditherm::sysid
