#include "auditherm/hvac/vav.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace auditherm::hvac {

VavBox::VavBox(const VavConfig& config) : config_(config) {
  if (config.min_flow_m3_s < 0.0 ||
      config.min_flow_m3_s > config.max_flow_m3_s ||
      config.max_flow_m3_s <= 0.0 || config.actuator_tau_s <= 0.0) {
    throw std::invalid_argument("VavBox: inconsistent config");
  }
  flow_ = config.min_flow_m3_s;
  command_ = config.min_flow_m3_s;
}

void VavBox::command_flow(double flow_m3_s) noexcept {
  command_ = std::clamp(flow_m3_s, config_.min_flow_m3_s, config_.max_flow_m3_s);
}

VavOutput VavBox::step(double dt_s) {
  if (dt_s <= 0.0) throw std::invalid_argument("VavBox::step: dt must be > 0");
  // Exact discretization of the first-order lag flow' = (cmd - flow) / tau.
  const double alpha = 1.0 - std::exp(-dt_s / config_.actuator_tau_s);
  flow_ += alpha * (command_ - flow_);
  return {flow_, config_.supply_temp_c};
}

}  // namespace auditherm::hvac
