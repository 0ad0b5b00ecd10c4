#pragma once

/// \file sensor_model.hpp
/// Measurement model for the modified Emerson wireless thermostats.
///
/// The paper's sensors are accurate to +/-0.5 degC and transmit only when
/// the reading moves more than 0.1 degC; the base station otherwise holds
/// the last report. We reproduce both artifacts (Gaussian noise, 0.1 degC
/// quantization, report-on-change hold) plus wireless dropout windows.

#include <cstdint>
#include <random>

namespace auditherm::sim {

/// Measurement-noise parameters.
struct SensorNoiseConfig {
  double noise_std_c = 0.12;       ///< within the +/-0.5 degC accuracy spec
  double quantum_c = 0.1;          ///< ADC / reporting quantum
  double report_threshold_c = 0.1; ///< transmit only on larger changes
};

/// Per-sensor measurement channel with report-on-change semantics.
class SensorChannel {
 public:
  /// Throws std::invalid_argument on negative noise/quantum/threshold.
  explicit SensorChannel(const SensorNoiseConfig& config);

  /// Observe the true temperature; returns the value the base station
  /// holds after this observation (a new report or the previous one).
  double observe(double true_temp_c, std::mt19937_64& rng);

  /// Last value reported to the base station (NaN before the first report).
  [[nodiscard]] double last_report() const noexcept { return last_report_; }

 private:
  SensorNoiseConfig config_;
  double last_report_;
};

}  // namespace auditherm::sim
