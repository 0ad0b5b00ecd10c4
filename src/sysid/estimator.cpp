#include "auditherm/sysid/estimator.hpp"

#include <stdexcept>

#include "auditherm/core/parallel.hpp"
#include "auditherm/linalg/least_squares.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/timeseries/csv_io.hpp"

namespace auditherm::sysid {

namespace {

using timeseries::Segment;

/// Rows of history a transition needs before its target: 1 for first order
/// (T(k) -> T(k+1)), 2 for second order (needs T(k-1) for dT(k)).
std::size_t history_rows(ModelOrder order) {
  return order == ModelOrder::kSecond ? 2 : 1;
}

}  // namespace

ModelEstimator::ModelEstimator(std::vector<timeseries::ChannelId> state_ids,
                               std::vector<timeseries::ChannelId> input_ids,
                               ModelOrder order, EstimationOptions options)
    : state_ids_(std::move(state_ids)),
      input_ids_(std::move(input_ids)),
      order_(order),
      options_(options) {
  if (state_ids_.empty()) {
    throw std::invalid_argument("ModelEstimator: no state channels");
  }
  if (input_ids_.empty()) {
    throw std::invalid_argument("ModelEstimator: no input channels");
  }
  if (options_.ridge < 0.0) {
    throw std::invalid_argument("ModelEstimator: negative ridge");
  }
}

std::vector<Segment> ModelEstimator::usable_segments(
    const timeseries::TraceView& trace,
    const std::vector<bool>& row_filter) const {
  std::vector<timeseries::ChannelId> required = state_ids_;
  required.insert(required.end(), input_ids_.begin(), input_ids_.end());
  auto mask = timeseries::rows_with_all_valid(trace, required);
  if (!row_filter.empty()) {
    if (row_filter.size() != trace.size()) {
      throw std::invalid_argument("ModelEstimator: row_filter size mismatch");
    }
    for (std::size_t k = 0; k < mask.size(); ++k) {
      mask[k] = mask[k] && row_filter[k];
    }
  }
  return timeseries::find_segments(mask, history_rows(order_) + 1);
}

RegressionSummary ModelEstimator::summarize(
    const timeseries::TraceView& trace,
    const std::vector<bool>& row_filter) const {
  const auto segments = usable_segments(trace, row_filter);
  RegressionSummary s;
  s.segments = segments.size();
  const std::size_t h = history_rows(order_);
  for (const auto& seg : segments) s.transitions += seg.length() - h;
  const std::size_t p = state_ids_.size();
  s.parameters = (order_ == ModelOrder::kSecond ? 2 * p : p) + input_ids_.size();
  return s;
}

ThermalModel ModelEstimator::fit(const timeseries::TraceView& trace,
                                 const std::vector<bool>& row_filter) const {
  obs::TraceSpan fit_span("sysid.fit");
  static const obs::MetricId kFitTransitions =
      obs::counter_id("sysid.fit_transitions");
  const auto segments = usable_segments(trace, row_filter);
  const std::size_t p = state_ids_.size();
  const std::size_t q = input_ids_.size();
  const std::size_t h = history_rows(order_);
  const std::size_t n_params = (order_ == ModelOrder::kSecond ? 2 * p : p) + q;

  std::size_t transitions = 0;
  for (const auto& seg : segments) transitions += seg.length() - h;
  obs::add_counter(kFitTransitions, transitions);

  const std::size_t min_needed = min_transitions(n_params);
  if (transitions < min_needed) {
    throw timeseries::InputError(
        "ModelEstimator::fit: only " + std::to_string(transitions) +
        " usable transitions, need " + std::to_string(min_needed));
  }

  // Column indices resolved once.
  std::vector<std::size_t> state_cols(p);
  for (std::size_t i = 0; i < p; ++i) {
    state_cols[i] = trace.require_channel(state_ids_[i]);
  }
  std::vector<std::size_t> input_cols(q);
  for (std::size_t i = 0; i < q; ++i) {
    input_cols[i] = trace.require_channel(input_ids_[i]);
  }

  // Assemble Z (transitions x n_params) and Y (transitions x p): for each
  // in-segment transition k -> k+1, Z row = [T(k), dT(k)?, u(k)],
  // Y row = T(k+1). This is exactly the ensemble objective of eq. 4.
  // Each segment owns a precomputed disjoint row range, so segments fill
  // in parallel and the assembled regression is independent of the thread
  // count.
  std::vector<std::size_t> seg_row_offset(segments.size() + 1, 0);
  for (std::size_t si = 0; si < segments.size(); ++si) {
    seg_row_offset[si + 1] = seg_row_offset[si] + (segments[si].length() - h);
  }
  linalg::Matrix z(transitions, n_params);
  linalg::Matrix y(transitions, p);
  core::parallel_for(0, segments.size(), 1, [&](std::size_t si) {
    const auto& seg = segments[si];
    std::size_t row = seg_row_offset[si];
    for (std::size_t k = seg.first + h - 1; k + 1 < seg.last; ++k) {
      for (std::size_t i = 0; i < p; ++i) {
        z(row, i) = trace.value(k, state_cols[i]);
      }
      std::size_t offset = p;
      if (order_ == ModelOrder::kSecond) {
        for (std::size_t i = 0; i < p; ++i) {
          z(row, offset + i) = trace.value(k, state_cols[i]) -
                               trace.value(k - 1, state_cols[i]);
        }
        offset += p;
      }
      for (std::size_t i = 0; i < q; ++i) {
        z(row, offset + i) = trace.value(k, input_cols[i]);
      }
      for (std::size_t i = 0; i < p; ++i) {
        y(row, i) = trace.value(k + 1, state_cols[i]);
      }
      ++row;
    }
  });

  linalg::LeastSquaresOptions ls;
  ls.ridge = options_.ridge;
  ls.relative_ridge = options_.relative_ridge;
  // theta is n_params x p; output row i of the model is theta column i.
  const linalg::Matrix theta = linalg::solve_least_squares(z, y, ls);

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

  return ThermalModel(order_, std::move(a), std::move(a2), std::move(b),
                      state_ids_, input_ids_);
}

}  // namespace auditherm::sysid
