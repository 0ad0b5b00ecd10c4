#include "auditherm/sysid/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "auditherm/obs/trace_span.hpp"

namespace auditherm::sysid {

namespace {

/// Rows of history a transition needs before its target (same rule as the
/// batch estimator): 1 for first order, 2 for second (dT(k) needs T(k-1)).
std::size_t history_rows(ModelOrder order) {
  return order == ModelOrder::kSecond ? 2 : 1;
}

// Drift-detector tuning. The 25-sigma threshold keeps the stationary
// 98-day paper run silent (daily occupancy cycles reach about half of it)
// while a season or HVAC-regime switch crosses it within a day or two.
constexpr double kDriftSlackSigmas = 0.5;         // CUSUM slack k
constexpr double kDriftThresholdSigmas = 25.0;    // CUSUM threshold h
constexpr double kDriftBaselineAlpha = 1e-3;      // EWMA rate while < h/4
/// Transitions that (re-)learn the residual baseline before arming.
constexpr std::size_t kDriftCalibrationTransitions = 96;
/// Appends between reference-model refreshes: one day at 30 minutes.
constexpr std::size_t kDriftRefitTransitions = 48;
/// Refreshes skipped before calibration. The first reference is solved
/// from the minimum transition count and may not have seen a full
/// excitation cycle, so its residuals would inflate the calibration sigma
/// by 10x and deafen the detector.
constexpr std::size_t kDriftWarmupRefits = 1;

bool all_finite(const linalg::Vector& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

StreamingEstimator::StreamingEstimator(
    std::vector<timeseries::ChannelId> state_ids,
    std::vector<timeseries::ChannelId> input_ids, ModelOrder order,
    StreamingOptions options)
    : state_ids_(std::move(state_ids)),
      input_ids_(std::move(input_ids)),
      order_(order),
      options_(options),
      history_(history_rows(order)),
      n_params_((order == ModelOrder::kSecond ? 2 * state_ids_.size()
                                              : state_ids_.size()) +
                input_ids_.size()),
      back_(n_params_ == 0 ? 1 : n_params_,
            state_ids_.empty() ? 1 : state_ids_.size()) {
  if (state_ids_.empty()) {
    throw std::invalid_argument("StreamingEstimator: no state channels");
  }
  if (input_ids_.empty()) {
    throw std::invalid_argument("StreamingEstimator: no input channels");
  }
  if (options_.estimation.ridge < 0.0) {
    throw std::invalid_argument("StreamingEstimator: negative ridge");
  }
  if (options_.window_rows != 0 && options_.window_rows < history_ + 2) {
    throw std::invalid_argument(
        "StreamingEstimator: window_rows " +
        std::to_string(options_.window_rows) + " cannot hold a transition (" +
        std::to_string(history_ + 2) + " rows needed)");
  }
}

bool StreamingEstimator::has_model() const noexcept {
  return window_.size() >= min_transitions(n_params_);
}

linalg::Matrix StreamingEstimator::solve_theta() const {
  // The window's factor: the front top (the older rows) merged with the
  // back (every row appended since the last rebuild). This copy is the
  // only one a solve makes; the ridge rows fold into it.
  linalg::UpdatableQr qr = front_rows_ == 0 ? back_ : front_[front_rows_ - 1];
  if (front_rows_ != 0) qr.merge(back_);
  const double ridge = options_.estimation.ridge;
  if (ridge == 0.0) return qr.solve();
  double lambda = ridge;
  if (options_.estimation.relative_ridge) {
    lambda *= qr.gram_trace() / static_cast<double>(n_params_);
  }
  if (!(lambda > 0.0)) return qr.solve();
  return std::move(qr).solve_ridge(lambda);
}

const ThermalModel& StreamingEstimator::model() const {
  if (!has_model()) {
    throw std::runtime_error(
        "StreamingEstimator::model: only " +
        std::to_string(window_.size()) + " window transitions, need " +
        std::to_string(min_transitions(n_params_)));
  }
  if (!cached_model_) {
    const linalg::Matrix theta = solve_theta();
    const std::size_t p = state_ids_.size();
    const std::size_t q = input_ids_.size();
    linalg::Matrix a(p, p);
    linalg::Matrix a2;
    linalg::Matrix b(p, q);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) a(i, j) = theta(j, i);
    }
    std::size_t offset = p;
    if (order_ == ModelOrder::kSecond) {
      a2 = linalg::Matrix(p, p);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) a2(i, j) = theta(offset + j, i);
      }
      offset += p;
    }
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < q; ++j) b(i, j) = theta(offset + j, i);
    }
    cached_model_.emplace(order_, std::move(a), std::move(a2), std::move(b),
                          state_ids_, input_ids_);
  }
  return *cached_model_;
}

double StreamingEstimator::aic() const {
  if (!has_model()) {
    throw std::runtime_error("StreamingEstimator::aic: no model yet");
  }
  const linalg::Matrix theta = solve_theta();
  double rss = 0.0;
  for (const TransitionRow& row : window_) {
    rss += squared_residual(theta, row);
  }
  const std::size_t p = state_ids_.size();
  const double samples = static_cast<double>(window_.size() * p);
  rss = std::max(rss, 1e-300);
  return samples * std::log(rss / samples) +
         2.0 * static_cast<double>(n_params_ * p);
}

double StreamingEstimator::squared_residual(const linalg::Matrix& theta,
                                            const TransitionRow& row) const {
  double ss = 0.0;
  for (std::size_t i = 0; i < state_ids_.size(); ++i) {
    double pred = 0.0;
    for (std::size_t j = 0; j < n_params_; ++j) pred += theta(j, i) * row.z[j];
    const double e = row.y[i] - pred;
    ss += e * e;
  }
  return ss;
}

double StreamingEstimator::cusum_statistic() const noexcept {
  return std::max(cusum_pos_, cusum_neg_);
}

void StreamingEstimator::observe_residual(const TransitionRow& row) {
  if (!options_.drift.enabled || !drift_theta_) return;
  // The first kDriftWarmupRefits references have seen too little
  // excitation to score against (their residual spikes would inflate the
  // calibration).
  if (drift_refits_ <= kDriftWarmupRefits) return;
  const double s = std::sqrt(squared_residual(*drift_theta_, row) /
                             static_cast<double>(state_ids_.size()));

  if (!armed_) {
    // Welford pass over the (re-)calibration stretch.
    ++calib_count_;
    const double delta = s - calib_mean_;
    calib_mean_ += delta / static_cast<double>(calib_count_);
    calib_m2_ += delta * (s - calib_mean_);
    if (calib_count_ >= kDriftCalibrationTransitions) {
      base_mean_ = calib_mean_;
      base_std_ = std::max(
          std::sqrt(calib_m2_ / static_cast<double>(calib_count_ - 1)),
          1e-12);
      armed_ = true;
      cusum_pos_ = 0.0;
      cusum_neg_ = 0.0;
    }
    return;
  }

  const double z = (s - base_mean_) / base_std_;
  cusum_pos_ = std::max(0.0, cusum_pos_ + z - kDriftSlackSigmas);
  cusum_neg_ = std::max(0.0, cusum_neg_ - z - kDriftSlackSigmas);
  const double g = std::max(cusum_pos_, cusum_neg_);
  if (g > kDriftThresholdSigmas) {
    static const obs::MetricId kDriftEvents =
        obs::counter_id("sysid.stream.drift_events");
    obs::add_counter(kDriftEvents);
    DriftEvent event;
    event.row = row.target;
    event.statistic = g;
    event.direction = cusum_pos_ >= cusum_neg_ ? 1.0 : -1.0;
    drift_events_.push_back(event);
    // Re-calibrate against the new regime; a persistent change fires once.
    armed_ = false;
    calib_count_ = 0;
    calib_mean_ = 0.0;
    calib_m2_ = 0.0;
    cusum_pos_ = 0.0;
    cusum_neg_ = 0.0;
    return;
  }
  if (g < 0.25 * kDriftThresholdSigmas) {
    // Quiet: let the baseline track slow benign drift.
    const double dm = s - base_mean_;
    base_mean_ += kDriftBaselineAlpha * dm;
    double var = base_std_ * base_std_;
    var += kDriftBaselineAlpha * (dm * dm - var);
    base_std_ = std::max(std::sqrt(var), 1e-12);
  }
}

void StreamingEstimator::fold_transition(TransitionRow row) {
  static const obs::MetricId kTransitions =
      obs::counter_id("sysid.stream.transitions");
  obs::add_counter(kTransitions);
  back_.append(row.z.data(), row.y.data());
  window_.push_back(std::move(row));
  ++stats_.transitions;
  ++since_drift_refit_;
  cached_model_.reset();
}

void StreamingEstimator::evict_aged(std::size_t newest_row) {
  if (options_.window_rows == 0) return;
  const std::size_t w = options_.window_rows;
  // A transition with target row tau spans rows tau-history..tau; it stays
  // while tau-history >= newest-w+1, i.e. tau + w >= newest + history + 1.
  while (!window_.empty() &&
         window_.front().target + w < newest_row + history_ + 1) {
    if (front_rows_ == 0) rebuild_front();
    --front_rows_;  // pop the suffix that still holds the oldest row
    window_.pop_front();
    cached_model_.reset();
  }
}

void StreamingEstimator::rebuild_front() {
  const std::size_t m = window_.size();
  const linalg::UpdatableQr empty(n_params_, state_ids_.size());
  if (front_.size() < m) front_.resize(m, empty);
  for (std::size_t i = 0; i < m; ++i) {
    front_[i] = i == 0 ? empty : front_[i - 1];
    const TransitionRow& row = window_[m - 1 - i];
    front_[i].append(row.z.data(), row.y.data());
  }
  front_rows_ = m;
  back_ = empty;
}

void StreamingEstimator::push(const linalg::Vector& states,
                              const linalg::Vector& inputs) {
  const std::size_t p = state_ids_.size();
  const std::size_t q = input_ids_.size();
  if (states.size() != p || inputs.size() != q) {
    throw std::invalid_argument("StreamingEstimator::push: size mismatch");
  }
  static const obs::MetricId kRows = obs::counter_id("sysid.stream.rows");
  obs::add_counter(kRows);

  const std::size_t t = stats_.rows_pushed;
  const bool valid = all_finite(states) && all_finite(inputs);

  // A transition targets this row when it and the preceding `history_`
  // rows are all valid — identical to the batch estimator's segment rule.
  if (valid && consec_valid_ >= history_) {
    TransitionRow row;
    row.target = t;
    row.z.resize(n_params_);
    row.y.assign(states.begin(), states.end());
    const std::vector<double>& prev = recent_states_.back();
    for (std::size_t i = 0; i < p; ++i) row.z[i] = prev[i];
    std::size_t offset = p;
    if (order_ == ModelOrder::kSecond) {
      const std::vector<double>& prev2 =
          recent_states_[recent_states_.size() - 2];
      for (std::size_t i = 0; i < p; ++i) {
        row.z[offset + i] = prev[i] - prev2[i];
      }
      offset += p;
    }
    const std::vector<double>& prev_u = recent_inputs_.back();
    for (std::size_t i = 0; i < q; ++i) row.z[offset + i] = prev_u[i];

    // Score the one-step residual against the reference model BEFORE the
    // row enters the fit (a genuine out-of-sample prediction).
    observe_residual(row);
    fold_transition(std::move(row));

    // Refresh the drift reference on its own append-count cadence so
    // detection never depends on which accessors the caller invokes.
    if (options_.drift.enabled && has_model() &&
        (!drift_theta_ ||
         since_drift_refit_ >= kDriftRefitTransitions)) {
      drift_theta_ = solve_theta();
      since_drift_refit_ = 0;
      ++drift_refits_;
    }
  }

  evict_aged(t);

  recent_states_.emplace_back(states.begin(), states.end());
  recent_inputs_.emplace_back(inputs.begin(), inputs.end());
  while (recent_states_.size() > history_) {
    recent_states_.pop_front();
    recent_inputs_.pop_front();
  }
  consec_valid_ = valid ? consec_valid_ + 1 : 0;
  ++stats_.rows_pushed;
}

void StreamingEstimator::push_trace(const timeseries::TraceView& trace,
                                    const std::vector<bool>& row_filter) {
  obs::TraceSpan span("sysid.stream.push_trace");
  if (!row_filter.empty() && row_filter.size() != trace.size()) {
    throw std::invalid_argument(
        "StreamingEstimator::push_trace: row_filter size mismatch");
  }
  const std::size_t p = state_ids_.size();
  const std::size_t q = input_ids_.size();
  std::vector<std::size_t> state_cols(p);
  for (std::size_t i = 0; i < p; ++i) {
    state_cols[i] = trace.require_channel(state_ids_[i]);
  }
  std::vector<std::size_t> input_cols(q);
  for (std::size_t i = 0; i < q; ++i) {
    input_cols[i] = trace.require_channel(input_ids_[i]);
  }
  linalg::Vector states(p);
  linalg::Vector inputs(q);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const bool keep = row_filter.empty() || row_filter[k];
    for (std::size_t i = 0; i < p; ++i) {
      states[i] = keep ? trace.value(k, state_cols[i]) : nan;
    }
    for (std::size_t i = 0; i < q; ++i) {
      inputs[i] = keep ? trace.value(k, input_cols[i]) : nan;
    }
    push(states, inputs);
  }
}

}  // namespace auditherm::sysid
