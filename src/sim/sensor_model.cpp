#include "auditherm/sim/sensor_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace auditherm::sim {

SensorChannel::SensorChannel(const SensorNoiseConfig& config)
    : config_(config),
      last_report_(std::numeric_limits<double>::quiet_NaN()) {
  if (config.noise_std_c < 0.0 || config.quantum_c < 0.0 ||
      config.report_threshold_c < 0.0) {
    throw std::invalid_argument("SensorChannel: negative noise parameters");
  }
}

double SensorChannel::observe(double true_temp_c, std::mt19937_64& rng) {
  std::normal_distribution<double> noise(0.0, config_.noise_std_c);
  double measured = true_temp_c + noise(rng);
  if (config_.quantum_c > 0.0) {
    measured = std::round(measured / config_.quantum_c) * config_.quantum_c;
  }
  // Strictly-greater comparison with an epsilon so a move of exactly one
  // quantum (== threshold) holds regardless of floating-point rounding.
  if (std::isnan(last_report_) ||
      std::abs(measured - last_report_) >
          config_.report_threshold_c + 1e-9) {
    last_report_ = measured;
  }
  return last_report_;
}

}  // namespace auditherm::sim
