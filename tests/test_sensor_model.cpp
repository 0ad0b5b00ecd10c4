// Tests for the report-on-change wireless sensor measurement model.

#include "auditherm/sim/sensor_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace sim = auditherm::sim;

namespace {

sim::SensorNoiseConfig noiseless() {
  sim::SensorNoiseConfig config;
  config.noise_std_c = 0.0;
  return config;
}

}  // namespace

TEST(SensorModel, FirstObservationAlwaysReports) {
  sim::SensorChannel ch(noiseless());
  std::mt19937_64 rng(1);
  EXPECT_TRUE(std::isnan(ch.last_report()));
  const double r = ch.observe(20.53, rng);
  EXPECT_FALSE(std::isnan(r));
  EXPECT_DOUBLE_EQ(r, ch.last_report());
}

TEST(SensorModel, QuantizesToTenthDegree) {
  sim::SensorChannel ch(noiseless());
  std::mt19937_64 rng(1);
  EXPECT_NEAR(ch.observe(20.533, rng), 20.5, 1e-12);
  sim::SensorChannel ch2(noiseless());
  EXPECT_NEAR(ch2.observe(20.57, rng), 20.6, 1e-12);
}

TEST(SensorModel, HoldsBelowReportThreshold) {
  sim::SensorChannel ch(noiseless());
  std::mt19937_64 rng(1);
  const double first = ch.observe(20.50, rng);
  // A change of exactly one quantum does NOT exceed the 0.1 threshold.
  const double second = ch.observe(20.58, rng);  // quantizes to 20.6
  EXPECT_DOUBLE_EQ(second, first);
  // A 0.2 move does.
  const double third = ch.observe(20.72, rng);
  EXPECT_NEAR(third, 20.7, 1e-12);
}

TEST(SensorModel, TracksLargeChanges) {
  sim::SensorChannel ch(noiseless());
  std::mt19937_64 rng(1);
  (void)ch.observe(20.0, rng);
  EXPECT_NEAR(ch.observe(22.0, rng), 22.0, 1e-12);
  EXPECT_NEAR(ch.observe(18.5, rng), 18.5, 1e-12);
}

TEST(SensorModel, NoiseIsSeedDeterministic) {
  sim::SensorNoiseConfig config;  // default noise
  sim::SensorChannel a(config), b(config);
  std::mt19937_64 rng_a(99), rng_b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.observe(20.0 + 0.03 * i, rng_a),
                     b.observe(20.0 + 0.03 * i, rng_b));
  }
}

TEST(SensorModel, NoiseStaysWithinAccuracySpec) {
  // The paper's sensors are accurate to +/-0.5 degC; with our noise std
  // the report should rarely stray further than that from the truth.
  sim::SensorNoiseConfig config;
  sim::SensorChannel ch(config);
  std::mt19937_64 rng(7);
  int outliers = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double truth = 20.0 + 0.5 * std::sin(i * 0.05);
    const double report = ch.observe(truth, rng);
    if (std::abs(report - truth) > 0.5) ++outliers;
  }
  EXPECT_LT(outliers, n / 50);  // < 2%
}

TEST(SensorModel, ZeroQuantumDisablesQuantization) {
  sim::SensorNoiseConfig config = noiseless();
  config.quantum_c = 0.0;
  config.report_threshold_c = 0.0;
  sim::SensorChannel ch(config);
  std::mt19937_64 rng(1);
  EXPECT_DOUBLE_EQ(ch.observe(20.537, rng), 20.537);
}

TEST(SensorModel, ConfigValidation) {
  sim::SensorNoiseConfig bad;
  bad.noise_std_c = -0.1;
  EXPECT_THROW(sim::SensorChannel{bad}, std::invalid_argument);
  bad = {};
  bad.quantum_c = -0.1;
  EXPECT_THROW(sim::SensorChannel{bad}, std::invalid_argument);
  bad = {};
  bad.report_threshold_c = -0.1;
  EXPECT_THROW(sim::SensorChannel{bad}, std::invalid_argument);
}
