// Tests for piecewise least-squares identification: exact recovery of
// known systems, gap handling, and mode filtering.

#include "auditherm/sysid/estimator.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "auditherm/timeseries/csv_io.hpp"
#include "support/oracles.hpp"

namespace sysid = auditherm::sysid;
namespace ts = auditherm::timeseries;
namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
using linalg::Matrix;
using linalg::Vector;

namespace {

/// Simulate a known 2-state first-order system with one input and write it
/// into a MultiTrace (channels 1, 2 states; 101 input).
ts::MultiTrace known_first_order_trace(std::size_t n, const Matrix& a,
                                       const Matrix& b, std::uint64_t seed) {
  ts::MultiTrace trace(ts::TimeGrid(0, 5, n), {1, 2, 101});
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> input(0.0, 1.0);
  Vector x{20.0, 21.0};
  for (std::size_t k = 0; k < n; ++k) {
    const double u = input(rng);
    trace.set(k, 0, x[0]);
    trace.set(k, 1, x[1]);
    trace.set(k, 2, u);
    const Vector ax = a * x;
    x[0] = ax[0] + b(0, 0) * u;
    x[1] = ax[1] + b(1, 0) * u;
  }
  return trace;
}

const Matrix kA{{0.9, 0.05}, {0.02, 0.85}};
const Matrix kB{{0.5}, {-0.3}};

sysid::EstimationOptions exact_options() {
  sysid::EstimationOptions opts;
  opts.ridge = 0.0;  // exact recovery needs unregularized LS
  return opts;
}

}  // namespace

TEST(Estimator, RecoversKnownFirstOrderSystem) {
  const auto trace = known_first_order_trace(200, kA, kB, 1);
  sysid::ModelEstimator est({1, 2}, {101}, sysid::ModelOrder::kFirst,
                            exact_options());
  const auto model = est.fit(trace);
  EXPECT_TRUE(support::approx_equal(model.a(), kA, 1e-8));
  EXPECT_TRUE(support::approx_equal(model.b(), kB, 1e-8));
}

TEST(Estimator, RecoversKnownSecondOrderSystem) {
  // Build a genuine second-order scalar system:
  // T(k+1) = 1.2 T(k) - 0.3 dT(k) + 0.4 u(k)  (stable since the
  // companion-form eigenvalues stay inside the unit circle).
  const double a1 = 0.9, a2 = -0.3, bu = 0.4;
  std::mt19937_64 rng(2);
  std::normal_distribution<double> input(0.0, 1.0);
  const std::size_t n = 300;
  ts::MultiTrace trace(ts::TimeGrid(0, 5, n), {1, 101});
  double prev = 20.0, curr = 20.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double u = input(rng);
    trace.set(k, 0, curr);
    trace.set(k, 1, u);
    const double next = a1 * curr + a2 * (curr - prev) + bu * u;
    prev = curr;
    curr = next;
  }
  sysid::ModelEstimator est({1}, {101}, sysid::ModelOrder::kSecond,
                            exact_options());
  const auto model = est.fit(trace);
  EXPECT_NEAR(model.a()(0, 0), a1, 1e-8);
  EXPECT_NEAR(model.a2()(0, 0), a2, 1e-8);
  EXPECT_NEAR(model.b()(0, 0), bu, 1e-8);
}

TEST(Estimator, GapsDoNotFabricateTransitions) {
  // Corrupt one sample mid-trace; the fit must still recover the system
  // because the estimator drops transitions that straddle the gap.
  auto trace = known_first_order_trace(200, kA, kB, 3);
  trace.clear(100, 0);
  // Poison neighbors: if the estimator wrongly used rows 99->101 as a
  // transition the recovered A would shift.
  sysid::ModelEstimator est({1, 2}, {101}, sysid::ModelOrder::kFirst,
                            exact_options());
  const auto model = est.fit(trace);
  EXPECT_TRUE(support::approx_equal(model.a(), kA, 1e-8));
}

TEST(Estimator, RowFilterRestrictsTransitions) {
  // Make the system change behavior halfway; fitting with a filter on the
  // first half must recover the first-half dynamics only.
  const Matrix a_other{{0.5, 0.0}, {0.0, 0.5}};
  auto trace = known_first_order_trace(400, kA, kB, 4);
  // Overwrite the second half with the other system.
  {
    std::mt19937_64 rng(5);
    std::normal_distribution<double> input(0.0, 1.0);
    Vector x{20.0, 21.0};
    for (std::size_t k = 200; k < 400; ++k) {
      const double u = input(rng);
      trace.set(k, 0, x[0]);
      trace.set(k, 1, x[1]);
      trace.set(k, 2, u);
      const Vector ax = a_other * x;
      x[0] = ax[0] + kB(0, 0) * u;
      x[1] = ax[1] + kB(1, 0) * u;
    }
  }
  std::vector<bool> first_half(400, false);
  for (std::size_t k = 0; k < 200; ++k) first_half[k] = true;
  sysid::ModelEstimator est({1, 2}, {101}, sysid::ModelOrder::kFirst,
                            exact_options());
  const auto model = est.fit(trace, first_half);
  EXPECT_TRUE(support::approx_equal(model.a(), kA, 1e-8));
}

TEST(Estimator, SummarizeCountsTransitionsAndSegments) {
  auto trace = known_first_order_trace(100, kA, kB, 6);
  trace.clear(50, 1);  // split into two segments
  sysid::ModelEstimator est({1, 2}, {101}, sysid::ModelOrder::kFirst);
  const auto summary = est.summarize(trace);
  EXPECT_EQ(summary.segments, 2u);
  EXPECT_EQ(summary.transitions, 49u + 48u);
  EXPECT_EQ(summary.parameters, 3u);  // 2 states + 1 input
  const sysid::ModelEstimator est2({1, 2}, {101}, sysid::ModelOrder::kSecond);
  EXPECT_EQ(est2.summarize(trace).parameters, 5u);
}

TEST(Estimator, SecondOrderNeedsThreeRowHistory) {
  // Segments of exactly 2 rows give first-order one transition but
  // second-order none.
  ts::MultiTrace trace(ts::TimeGrid(0, 5, 5), {1, 101});
  for (std::size_t k : {0u, 1u, 3u, 4u}) {
    trace.set(k, 0, 20.0 + k);
    trace.set(k, 1, 1.0);
  }
  sysid::ModelEstimator first({1}, {101}, sysid::ModelOrder::kFirst);
  sysid::ModelEstimator second({1}, {101}, sysid::ModelOrder::kSecond);
  EXPECT_EQ(first.summarize(trace).transitions, 2u);
  EXPECT_EQ(second.summarize(trace).transitions, 0u);
}

TEST(Estimator, ThrowsWithTooFewTransitions) {
  // The rule is max(4 * parameters, 8) usable transitions.
  EXPECT_EQ(sysid::min_transitions(1), 8u);
  EXPECT_EQ(sysid::min_transitions(2), 8u);
  EXPECT_EQ(sysid::min_transitions(3), 12u);
  EXPECT_EQ(sysid::min_transitions(61), 244u);
  // [T1, T2, u] is 3 parameters per row, so a first-order fit needs 12
  // transitions: 13 gap-free rows fit, 12 rows throw.
  sysid::ModelEstimator est({1, 2}, {101}, sysid::ModelOrder::kFirst);
  EXPECT_NO_THROW((void)est.fit(known_first_order_trace(13, kA, kB, 7)));
  try {
    (void)est.fit(known_first_order_trace(12, kA, kB, 7));
    FAIL() << "expected timeseries::InputError";
  } catch (const ts::InputError& e) {
    EXPECT_NE(std::string(e.what()).find("only 11 usable transitions, need 12"),
              std::string::npos)
        << e.what();
  }
}

TEST(Estimator, RidgeDefaultStillAccurate) {
  // The default tiny relative ridge must not visibly bias a well-
  // conditioned problem.
  const auto trace = known_first_order_trace(500, kA, kB, 8);
  sysid::ModelEstimator est({1, 2}, {101}, sysid::ModelOrder::kFirst);
  const auto model = est.fit(trace);
  EXPECT_TRUE(support::approx_equal(model.a(), kA, 1e-3));
  EXPECT_TRUE(support::approx_equal(model.b(), kB, 1e-3));
}

TEST(Estimator, ConstructionValidation) {
  EXPECT_THROW(sysid::ModelEstimator({}, {101}, sysid::ModelOrder::kFirst),
               std::invalid_argument);
  EXPECT_THROW(sysid::ModelEstimator({1}, {}, sysid::ModelOrder::kFirst),
               std::invalid_argument);
  sysid::EstimationOptions bad;
  bad.ridge = -1.0;
  EXPECT_THROW(sysid::ModelEstimator({1}, {101}, sysid::ModelOrder::kFirst,
                                     bad),
               std::invalid_argument);
}

TEST(Estimator, RowFilterSizeValidated) {
  const auto trace = known_first_order_trace(50, kA, kB, 9);
  sysid::ModelEstimator est({1, 2}, {101}, sysid::ModelOrder::kFirst);
  EXPECT_THROW((void)est.fit(trace, std::vector<bool>(10, true)),
               std::invalid_argument);
}
