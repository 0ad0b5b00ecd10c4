#include "auditherm/sysid/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "auditherm/core/parallel.hpp"
#include "auditherm/linalg/stats.hpp"

namespace auditherm::sysid {

namespace {

using timeseries::Segment;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// How far into a window predict_window() may scan for a fully valid
/// initial state: 12 rows = 6 h at the standard 30-minute samples.
constexpr std::size_t kMaxStartScan = 12;

std::size_t history_rows(ModelOrder order) {
  return order == ModelOrder::kSecond ? 2 : 1;
}

}  // namespace

double PredictionEvaluation::channel_rms_percentile(double p) const {
  linalg::Vector finite;
  for (double v : channel_rms) {
    if (!std::isnan(v)) finite.push_back(v);
  }
  if (finite.empty()) {
    throw std::runtime_error(
        "channel_rms_percentile: no channels with samples");
  }
  return linalg::percentile(std::move(finite), p);
}

std::optional<WindowPrediction> predict_window(
    const ThermalModel& model, const timeseries::TraceView& trace,
    const Segment& window, const EvaluationOptions& options) {
  const std::size_t p = model.state_count();
  const std::size_t q = model.input_count();
  const std::size_t h = history_rows(model.order());

  std::vector<std::size_t> state_cols(p);
  for (std::size_t i = 0; i < p; ++i) {
    state_cols[i] = trace.require_channel(model.state_channels()[i]);
  }
  std::vector<std::size_t> input_cols(q);
  for (std::size_t i = 0; i < q; ++i) {
    input_cols[i] = trace.require_channel(model.input_channels()[i]);
  }

  // Find the first start row where the state history is fully observed.
  const std::size_t scan_end =
      std::min(window.last, window.first + kMaxStartScan + 1);
  std::optional<std::size_t> start;  // row of T(0) history end
  for (std::size_t s = window.first; s + h <= scan_end; ++s) {
    bool ok = true;
    for (std::size_t r = s; r < s + h && ok; ++r) {
      for (std::size_t c : state_cols) {
        if (!trace.valid(r, c)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      start = s + h - 1;
      break;
    }
  }
  if (!start) return std::nullopt;

  const std::size_t k0 = *start;  // row holding the initial state
  if (k0 + 1 >= window.last) return std::nullopt;
  const std::size_t steps =
      std::min(options.horizon_samples, window.last - k0 - 1);
  if (steps < options.min_steps) return std::nullopt;

  linalg::Vector initial(p);
  linalg::Vector initial_delta(p, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    initial[i] = trace.value(k0, state_cols[i]);
    if (h == 2) {
      initial_delta[i] = initial[i] - trace.value(k0 - 1, state_cols[i]);
    }
  }

  // Inputs for rows k0 .. k0+steps-1 drive predictions for k0+1 .. k0+steps.
  linalg::Matrix inputs(steps, q);
  for (std::size_t k = 0; k < steps; ++k) {
    for (std::size_t i = 0; i < q; ++i) {
      const double v = trace.value(k0 + k, input_cols[i]);
      if (std::isnan(v)) return std::nullopt;  // windows should be input-valid
      inputs(k, i) = v;
    }
  }

  WindowPrediction wp;
  wp.first_row = k0 + 1;
  wp.predicted = model.simulate(initial, initial_delta, inputs);
  return wp;
}

PredictionEvaluation evaluate_prediction(
    const ThermalModel& model, const timeseries::TraceView& trace,
    const std::vector<Segment>& windows, const EvaluationOptions& options) {
  const std::size_t p = model.state_count();
  std::vector<std::size_t> state_cols(p);
  for (std::size_t i = 0; i < p; ++i) {
    state_cols[i] = trace.require_channel(model.state_channels()[i]);
  }

  PredictionEvaluation ev;
  ev.channels = model.state_channels();

  // Per-window statistics, computed independently (open-loop simulation of
  // each window is the dominant cost) and then folded in window order so
  // every accumulated sum sees the same addition sequence at any thread
  // count.
  struct WindowStats {
    bool used = false;
    linalg::Vector sq;
    std::vector<std::size_t> n;
    double total_sq = 0.0;
    std::size_t total_n = 0;
  };
  std::vector<WindowStats> per_window(windows.size());
  core::parallel_for(0, windows.size(), 1, [&](std::size_t w) {
    const auto wp = predict_window(model, trace, windows[w], options);
    if (!wp) return;
    WindowStats& ws = per_window[w];
    ws.used = true;
    ws.sq.assign(p, 0.0);
    ws.n.assign(p, 0);
    for (std::size_t k = 0; k < wp->predicted.rows(); ++k) {
      const std::size_t row = wp->first_row + k;
      for (std::size_t c = 0; c < p; ++c) {
        if (!trace.valid(row, state_cols[c])) continue;
        const double err =
            wp->predicted(k, c) - trace.value(row, state_cols[c]);
        ws.sq[c] += err * err;
        ++ws.n[c];
        ws.total_sq += err * err;
        ++ws.total_n;
      }
    }
  });

  std::vector<linalg::Vector> window_rms_rows;
  linalg::Vector pooled_sq(p, 0.0);
  std::vector<std::size_t> pooled_n(p, 0);
  double total_sq = 0.0;
  std::size_t total_n = 0;

  for (const auto& ws : per_window) {
    if (!ws.used) continue;
    linalg::Vector rms_row(p, kNaN);
    for (std::size_t c = 0; c < p; ++c) {
      if (ws.n[c] > 0) {
        rms_row[c] = std::sqrt(ws.sq[c] / static_cast<double>(ws.n[c]));
        pooled_sq[c] += ws.sq[c];
        pooled_n[c] += ws.n[c];
      }
    }
    total_sq += ws.total_sq;
    total_n += ws.total_n;
    window_rms_rows.push_back(std::move(rms_row));
    ++ev.window_count;
  }

  ev.window_channel_rms = linalg::Matrix(window_rms_rows.size(), p);
  for (std::size_t w = 0; w < window_rms_rows.size(); ++w) {
    ev.window_channel_rms.set_row(w, window_rms_rows[w]);
  }
  ev.channel_rms.assign(p, kNaN);
  for (std::size_t c = 0; c < p; ++c) {
    if (pooled_n[c] > 0) {
      ev.channel_rms[c] =
          std::sqrt(pooled_sq[c] / static_cast<double>(pooled_n[c]));
    }
  }
  ev.pooled_rms =
      total_n > 0 ? std::sqrt(total_sq / static_cast<double>(total_n)) : kNaN;
  return ev;
}

}  // namespace auditherm::sysid
