#include "auditherm/sysid/occupancy_estimation.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "auditherm/linalg/least_squares.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/timeseries/csv_io.hpp"

namespace auditherm::sysid {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Row-level regressor snapshot for the mass-balance inversion over the
/// interval [k, k+1): derivative in ppm/s, flow in m^3/s, CO2 in ppm.
struct Co2Row {
  double dc_dt = 0.0;
  double flow = 0.0;
  double co2 = 0.0;
  bool valid = false;
};

std::vector<Co2Row> build_rows(const timeseries::TraceView& trace,
                               const Co2Channels& channels) {
  const auto co2_col = trace.require_channel(channels.co2);
  std::vector<std::size_t> flow_cols;
  for (auto id : channels.vav_flows) {
    flow_cols.push_back(trace.require_channel(id));
  }
  const double dt_s = static_cast<double>(trace.grid().step()) * 60.0;

  std::vector<Co2Row> rows(trace.size());
  for (std::size_t k = 0; k + 1 < trace.size(); ++k) {
    if (!trace.valid(k, co2_col) || !trace.valid(k + 1, co2_col)) continue;
    Co2Row row;
    row.dc_dt = (trace.value(k + 1, co2_col) - trace.value(k, co2_col)) / dt_s;
    row.co2 = trace.value(k, co2_col);
    bool flows_ok = true;
    for (auto col : flow_cols) {
      if (!trace.valid(k, col)) {
        flows_ok = false;
        break;
      }
      row.flow += trace.value(k, col);
    }
    if (!flows_ok) continue;
    row.valid = true;
    rows[k] = row;
  }
  return rows;
}

}  // namespace

Co2OccupancyEstimator::Co2OccupancyEstimator(Co2Channels channels)
    : channels_(std::move(channels)) {}

void Co2OccupancyEstimator::calibrate(const timeseries::TraceView& training) {
  obs::TraceSpan span("sysid.occupancy.calibrate");
  const auto rows = build_rows(training, channels_);
  const auto occ_col = training.require_channel(channels_.occupancy);

  std::vector<std::size_t> usable;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k].valid && training.valid(k, occ_col)) usable.push_back(k);
  }
  if (usable.size() < 32) {
    throw timeseries::InputError(
        "Co2OccupancyEstimator::calibrate: too few usable transitions");
  }
  static const obs::MetricId kTransitionsUsed =
      obs::counter_id("sysid.occupancy.transitions_used");
  obs::add_counter(kTransitionsUsed, usable.size());

  // o = a dC/dt + b (Q C) + d Q  with  d = -b * C_out.
  linalg::Matrix z(usable.size(), 3);
  linalg::Vector y(usable.size());
  for (std::size_t i = 0; i < usable.size(); ++i) {
    const auto& row = rows[usable[i]];
    z(i, 0) = row.dc_dt;
    z(i, 1) = row.flow * row.co2;
    z(i, 2) = row.flow;
    y[i] = training.value(usable[i], occ_col);
  }
  linalg::LeastSquaresOptions opts;
  opts.ridge = 1e-9;
  opts.relative_ridge = true;
  const auto theta = linalg::solve_least_squares(z, y, opts);
  a_ = theta[0];
  b_ = theta[1];
  c_ = std::abs(b_) > 1e-15 ? -theta[2] / b_ : 420.0;
  calibrated_ = true;
}

linalg::Vector Co2OccupancyEstimator::estimate(
    const timeseries::TraceView& trace) const {
  if (!calibrated_) {
    throw std::logic_error("Co2OccupancyEstimator: calibrate() first");
  }
  obs::TraceSpan span("sysid.occupancy.estimate");
  static const obs::MetricId kRowsEstimated =
      obs::counter_id("sysid.occupancy.rows_estimated");
  obs::add_counter(kRowsEstimated, trace.size());
  const auto rows = build_rows(trace, channels_);
  linalg::Vector raw(trace.size(), kNaN);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (!rows[k].valid) continue;
    const double o =
        a_ * rows[k].dc_dt + b_ * rows[k].flow * (rows[k].co2 - c_);
    raw[k] = std::max(0.0, o);
  }
  // Short trailing mean: the finite-difference derivative is noisy.
  linalg::Vector smoothed(trace.size(), kNaN);
  for (std::size_t k = 0; k < raw.size(); ++k) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t back = 0; back < 2 && back <= k; ++back) {
      if (!std::isnan(raw[k - back])) {
        sum += raw[k - back];
        ++n;
      }
    }
    if (n > 0) smoothed[k] = sum / static_cast<double>(n);
  }
  return smoothed;
}

double occupancy_mae(const timeseries::TraceView& trace,
                     timeseries::ChannelId occupancy_channel,
                     const linalg::Vector& estimate) {
  if (estimate.size() != trace.size()) {
    throw std::invalid_argument("occupancy_mae: estimate size mismatch");
  }
  const auto occ_col = trace.require_channel(occupancy_channel);
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    if (std::isnan(estimate[k]) || !trace.valid(k, occ_col)) continue;
    total += std::abs(estimate[k] - trace.value(k, occ_col));
    ++n;
  }
  if (n == 0) throw std::runtime_error("occupancy_mae: no overlapping rows");
  return total / static_cast<double>(n);
}

}  // namespace auditherm::sysid
