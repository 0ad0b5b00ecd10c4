#pragma once

/// \file evaluation.hpp
/// Multi-step prediction evaluation (Section IV.C).
///
/// The paper judges a model by simulating it open-loop over a daily window
/// (13.5 h in occupied mode) from a measured initial state with measured
/// inputs, then reporting per-sensor RMS errors, their CDF over sensors
/// (Fig. 3) and high percentiles (Table I, Fig. 5).

#include <optional>
#include <vector>

#include "auditherm/hvac/schedule.hpp"
#include "auditherm/sysid/model.hpp"
#include "auditherm/timeseries/multi_trace.hpp"
#include "auditherm/timeseries/segmentation.hpp"

namespace auditherm::sysid {

/// One open-loop simulated window aligned to trace rows.
struct WindowPrediction {
  std::size_t first_row = 0;  ///< trace row of the first predicted sample
  linalg::Matrix predicted;   ///< steps x p, channel order = model states
};

/// Aggregated prediction-error statistics.
struct PredictionEvaluation {
  std::vector<timeseries::ChannelId> channels;  ///< model state order

  /// Per-window, per-channel RMS (windows x p); NaN where a channel had no
  /// valid comparison samples in a window.
  linalg::Matrix window_channel_rms;

  /// Per-channel RMS pooled over all windows.
  linalg::Vector channel_rms;

  /// RMS over every pooled error sample.
  double pooled_rms = 0.0;

  std::size_t window_count = 0;

  /// Percentile over channels of the per-channel RMS (Table I's
  /// "RMS of prediction error at 90th percentile").
  [[nodiscard]] double channel_rms_percentile(double p) const;
};

/// Evaluator configuration.
struct EvaluationOptions {
  /// Maximum simulated steps per window (27 = 13.5 h at the standard
  /// 30-minute samples).
  std::size_t horizon_samples = 27;
  /// Windows yielding fewer predicted steps than this are skipped.
  std::size_t min_steps = 4;
};

/// Simulate the model over one window.
///
/// Scans (up to 12 rows past the window's first) for a starting point where
/// the model's state channels are valid for the needed history, then
/// simulates with measured inputs. Returns std::nullopt when no valid
/// start exists or fewer than options.min_steps steps fit.
[[nodiscard]] std::optional<WindowPrediction> predict_window(
    const ThermalModel& model, const timeseries::TraceView& trace,
    const timeseries::Segment& window, const EvaluationOptions& options);

/// Evaluate the model over many windows, comparing predictions against
/// measurements wherever the measurement exists.
[[nodiscard]] PredictionEvaluation evaluate_prediction(
    const ThermalModel& model, const timeseries::TraceView& trace,
    const std::vector<timeseries::Segment>& windows,
    const EvaluationOptions& options);

}  // namespace auditherm::sysid
