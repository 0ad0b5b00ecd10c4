// Tests for the VAV box model.

#include "auditherm/hvac/vav.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace hvac = auditherm::hvac;

TEST(Vav, StartsAtMinimumFlow) {
  hvac::VavBox box{hvac::VavConfig{}};
  EXPECT_DOUBLE_EQ(box.flow(), box.config().min_flow_m3_s);
}

TEST(Vav, CommandsAreClamped) {
  hvac::VavBox box{hvac::VavConfig{}};
  box.command_flow(99.0);
  for (int i = 0; i < 1000; ++i) box.step(60.0);
  EXPECT_NEAR(box.flow(), box.config().max_flow_m3_s, 1e-9);
  box.command_flow(-5.0);
  for (int i = 0; i < 1000; ++i) box.step(60.0);
  EXPECT_NEAR(box.flow(), box.config().min_flow_m3_s, 1e-9);
}

TEST(Vav, FirstOrderLagConvergence) {
  hvac::VavConfig config;
  config.actuator_tau_s = 100.0;
  hvac::VavBox box{config};
  box.command_flow(0.5);
  // After exactly one time constant, ~63.2% of the step is closed.
  const double start = box.flow();
  box.step(100.0);
  const double expected = start + (0.5 - start) * (1.0 - std::exp(-1.0));
  EXPECT_NEAR(box.flow(), expected, 1e-12);
}

TEST(Vav, StepReturnsOutput) {
  hvac::VavBox box{hvac::VavConfig{}};
  const auto out = box.step(30.0);
  EXPECT_DOUBLE_EQ(out.flow_m3_s, box.flow());
  EXPECT_DOUBLE_EQ(out.supply_temp_c, box.config().supply_temp_c);
}

TEST(Vav, ConfigValidation) {
  hvac::VavConfig bad;
  bad.min_flow_m3_s = 1.0;
  bad.max_flow_m3_s = 0.5;
  EXPECT_THROW(hvac::VavBox{bad}, std::invalid_argument);
  bad = {};
  bad.actuator_tau_s = 0.0;
  EXPECT_THROW(hvac::VavBox{bad}, std::invalid_argument);
  bad = {};
  bad.min_flow_m3_s = -0.1;
  EXPECT_THROW(hvac::VavBox{bad}, std::invalid_argument);
}

TEST(Vav, StepValidatesDt) {
  hvac::VavBox box{hvac::VavConfig{}};
  EXPECT_THROW(box.step(0.0), std::invalid_argument);
  EXPECT_THROW(box.step(-1.0), std::invalid_argument);
}
