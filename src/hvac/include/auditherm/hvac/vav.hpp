#pragma once

/// \file vav.hpp
/// Variable Air Volume (VAV) box model.
///
/// The auditorium has four VAVs feeding two front air outlets. A VAV box
/// tracks a commanded airflow with a first-order actuator lag and supplies
/// air at a configurable discharge temperature. The per-VAV airflow time
/// series is the h(k) input of the paper's models (eq. 1).

#include <cstddef>

namespace auditherm::hvac {

/// Static configuration of one VAV box.
struct VavConfig {
  double min_flow_m3_s = 0.05;    ///< off-mode trickle ventilation
  double max_flow_m3_s = 0.60;    ///< damper fully open
  double supply_temp_c = 13.0;    ///< discharge (cooling) air temperature
  double actuator_tau_s = 120.0;  ///< first-order damper response time
};

/// Instantaneous VAV output.
struct VavOutput {
  double flow_m3_s = 0.0;
  double supply_temp_c = 0.0;
};

/// One VAV box with first-order damper dynamics.
///
/// Invariant: flow stays within [min_flow, max_flow]; commands outside the
/// range are clamped (real dampers saturate; callers should not have to
/// pre-clamp).
class VavBox {
 public:
  /// Throws std::invalid_argument when the config is inconsistent
  /// (min > max, non-positive tau or max flow).
  explicit VavBox(const VavConfig& config);

  [[nodiscard]] const VavConfig& config() const noexcept { return config_; }

  /// Current airflow (m^3/s).
  [[nodiscard]] double flow() const noexcept { return flow_; }

  /// Set the commanded airflow (clamped to the configured range).
  void command_flow(double flow_m3_s) noexcept;

  /// Advance the damper by dt seconds toward the command; returns output.
  /// Throws std::invalid_argument when dt <= 0.
  VavOutput step(double dt_s);

 private:
  VavConfig config_;
  double flow_ = 0.0;
  double command_ = 0.0;
};

/// Density * specific heat of air (J/(m^3 K)) used for VAV heat transport.
inline constexpr double kAirVolumetricHeatCapacity = 1.2 * 1005.0;

}  // namespace auditherm::hvac
