#pragma once

/// \file occupancy_estimation.hpp
/// Occupancy estimation from the HVAC's CO2 sensor.
///
/// The paper counts occupants by manual inspection of webcam photos and
/// names automation as future work. The HVAC already records CO2 and the
/// VAV airflows; a calibrated mass-balance inversion recovers the
/// occupant count with no camera at all:
///
///   V dC/dt = g * o(t) - Q(t) (C - C_out)
///   =>  o(t) = [ V dC/dt + Q(t) (C - C_out) ] / g
///
/// The effective volume V, per-person generation g and outdoor level
/// C_out are calibrated from a training window with known occupancy by
/// least squares (they absorb sensor placement and mixing imperfections,
/// so calibrated values beat physical constants).

#include <vector>

#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::sysid {

/// Channel roles for the estimator.
struct Co2Channels {
  timeseries::ChannelId co2 = 114;
  std::vector<timeseries::ChannelId> vav_flows{101, 102, 103, 104};
  timeseries::ChannelId occupancy = 110;  ///< training labels
};

/// Calibrated CO2 mass-balance occupancy estimator.
class Co2OccupancyEstimator {
 public:
  /// Construct with channel roles; call calibrate() before estimate().
  explicit Co2OccupancyEstimator(Co2Channels channels = {});

  /// Fit (V/g, Q-scale/g, C_out) by least squares on a training trace
  /// with known occupancy. Uses transitions where CO2, flows and the
  /// occupancy label are valid at consecutive rows. Throws
  /// timeseries::InputError (a std::runtime_error) with fewer than 32
  /// usable transitions, std::invalid_argument when channels are missing.
  void calibrate(const timeseries::TraceView& training);

  [[nodiscard]] bool calibrated() const noexcept { return calibrated_; }

  /// Calibrated parameters (for inspection/tests): occupancy is estimated
  /// as  o = a * dC/dt + b * Q * (C - c)  with dC/dt in ppm/s and Q in
  /// m^3/s.
  [[nodiscard]] double volume_over_generation() const noexcept { return a_; }
  [[nodiscard]] double flow_gain() const noexcept { return b_; }
  [[nodiscard]] double outdoor_ppm() const noexcept { return c_; }

  /// Estimate the occupant count for every row of `trace`; NaN where the
  /// needed channels are missing or no predecessor row exists. Estimates
  /// are clamped below at zero and smoothed with a short trailing mean
  /// (the derivative term is noisy at 30-minute sampling).
  /// Throws std::logic_error when not calibrated.
  [[nodiscard]] linalg::Vector estimate(
      const timeseries::TraceView& trace) const;

 private:
  Co2Channels channels_;
  double a_ = 0.0;  ///< V / g, seconds
  double b_ = 0.0;  ///< 1 / g scale on Q (C - C_out)
  double c_ = 420.0;
  bool calibrated_ = false;
};

/// Mean absolute error between an occupancy estimate and the labeled
/// channel over rows where both exist; NaN rows skipped. Throws
/// std::runtime_error when no rows overlap.
[[nodiscard]] double occupancy_mae(const timeseries::TraceView& trace,
                                   timeseries::ChannelId occupancy_channel,
                                   const linalg::Vector& estimate);

}  // namespace auditherm::sysid
