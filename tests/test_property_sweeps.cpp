// Cross-module property sweeps (parameterized): identification recovers
// random stable systems at any dimension, multi-step evaluation is
// consistent with the model's own simulation, and spectral clustering
// scales over block-graph shapes.

#include <gtest/gtest.h>

#include <random>

#include "auditherm/clustering/spectral.hpp"
#include "auditherm/linalg/vector_ops.hpp"
#include "auditherm/sysid/estimator.hpp"
#include "auditherm/sysid/evaluation.hpp"
#include "support/oracles.hpp"

namespace sysid = auditherm::sysid;
namespace clustering = auditherm::clustering;
namespace ts = auditherm::timeseries;
namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------------------
// Estimator recovery over (state count, input count)
// ---------------------------------------------------------------------------

namespace {

struct SystemShape {
  std::size_t states;
  std::size_t inputs;
};

/// Random stable A (scaled spectral-norm bound) and random B.
std::pair<Matrix, Matrix> random_system(const SystemShape& shape,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> n01(0.0, 1.0);
  Matrix a(shape.states, shape.states);
  for (std::size_t i = 0; i < shape.states; ++i)
    for (std::size_t j = 0; j < shape.states; ++j) a(i, j) = n01(rng);
  // Crude stability: scale so row sums stay below 0.95.
  double max_row = 0.0;
  for (std::size_t i = 0; i < shape.states; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < shape.states; ++j) row += std::abs(a(i, j));
    max_row = std::max(max_row, row);
  }
  a *= 0.95 / max_row;
  Matrix b(shape.states, shape.inputs);
  for (std::size_t i = 0; i < shape.states; ++i)
    for (std::size_t j = 0; j < shape.inputs; ++j) b(i, j) = n01(rng);
  return {a, b};
}

ts::MultiTrace simulate_system(const Matrix& a, const Matrix& b,
                               std::size_t n, std::uint64_t seed) {
  const std::size_t p = a.rows();
  const std::size_t q = b.cols();
  std::vector<ts::ChannelId> channels;
  for (std::size_t i = 0; i < p; ++i) channels.push_back(static_cast<int>(i + 1));
  for (std::size_t i = 0; i < q; ++i) channels.push_back(static_cast<int>(101 + i));
  ts::MultiTrace trace(ts::TimeGrid(0, 30, n), channels);

  std::mt19937_64 rng(seed);
  std::normal_distribution<double> input(0.0, 1.0);
  Vector x(p, 20.0);
  for (std::size_t k = 0; k < n; ++k) {
    Vector u(q);
    for (double& v : u) v = input(rng);
    for (std::size_t i = 0; i < p; ++i) trace.set(k, i, x[i]);
    for (std::size_t i = 0; i < q; ++i) trace.set(k, p + i, u[i]);
    Vector next = a * x;
    linalg::axpy(1.0, b * u, next);
    x = std::move(next);
  }
  return trace;
}

}  // namespace

class EstimatorRecovery : public ::testing::TestWithParam<SystemShape> {};

TEST_P(EstimatorRecovery, RecoversRandomStableSystems) {
  const auto shape = GetParam();
  const auto [a, b] = random_system(shape, 1000 + shape.states * 10 +
                                               shape.inputs);
  const auto trace =
      simulate_system(a, b, 60 * (shape.states + shape.inputs), 7);

  std::vector<ts::ChannelId> states, inputs;
  for (std::size_t i = 0; i < shape.states; ++i) states.push_back(static_cast<int>(i + 1));
  for (std::size_t i = 0; i < shape.inputs; ++i) inputs.push_back(static_cast<int>(101 + i));
  sysid::EstimationOptions opts;
  opts.ridge = 0.0;
  sysid::ModelEstimator estimator(states, inputs, sysid::ModelOrder::kFirst,
                                  opts);
  const auto model = estimator.fit(trace);
  EXPECT_TRUE(support::approx_equal(model.a(), a, 1e-6));
  EXPECT_TRUE(support::approx_equal(model.b(), b, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EstimatorRecovery,
    ::testing::Values(SystemShape{1, 1}, SystemShape{2, 1}, SystemShape{3, 2},
                      SystemShape{5, 3}, SystemShape{8, 4},
                      SystemShape{12, 7}, SystemShape{20, 7}));

// ---------------------------------------------------------------------------
// Evaluation consistency over horizons
// ---------------------------------------------------------------------------

class EvaluationHorizon : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EvaluationHorizon, PerfectModelStaysPerfectAtAnyHorizon) {
  const auto [a, b] = random_system({3, 2}, 99);
  const auto trace = simulate_system(a, b, 200, 3);
  const sysid::ThermalModel model(sysid::ModelOrder::kFirst, a, {}, b,
                                  {1, 2, 3}, {101, 102});
  sysid::EvaluationOptions opts;
  opts.horizon_samples = GetParam();
  opts.min_steps = 1;
  const auto eval = sysid::evaluate_prediction(model, trace, {{0, 200}},
                                               opts);
  ASSERT_EQ(eval.window_count, 1u);
  EXPECT_NEAR(eval.pooled_rms, 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Horizons, EvaluationHorizon,
                         ::testing::Values(1, 5, 27, 80, 199));

// ---------------------------------------------------------------------------
// Spectral clustering over block-graph shapes
// ---------------------------------------------------------------------------

namespace {

struct GraphShape {
  std::size_t blocks;
  std::size_t block_size;
};

}  // namespace

class SpectralBlocks : public ::testing::TestWithParam<GraphShape> {};

TEST_P(SpectralBlocks, RecoversPlantedPartitionAtScale) {
  const auto shape = GetParam();
  const std::size_t n = shape.blocks * shape.block_size;
  clustering::SimilarityGraph graph;
  std::mt19937_64 rng(n);
  std::uniform_real_distribution<double> jitter(-0.05, 0.05);
  graph.weights = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    graph.channels.push_back(static_cast<int>(i + 1));
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool same = i / shape.block_size == j / shape.block_size;
      const double w =
          std::clamp((same ? 0.85 : 0.15) + jitter(rng), 0.0, 1.0);
      graph.weights(i, j) = w;
      graph.weights(j, i) = w;
    }
  }
  clustering::SpectralOptions opts;
  opts.cluster_count = shape.blocks;
  const auto result = clustering::spectral_cluster(graph, opts);
  // Every planted block must be label-pure.
  for (std::size_t blk = 0; blk < shape.blocks; ++blk) {
    const auto label = result.labels[blk * shape.block_size];
    for (std::size_t i = 0; i < shape.block_size; ++i) {
      EXPECT_EQ(result.labels[blk * shape.block_size + i], label)
          << "blocks=" << shape.blocks << " size=" << shape.block_size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpectralBlocks,
    ::testing::Values(GraphShape{2, 4}, GraphShape{2, 12}, GraphShape{3, 9},
                      GraphShape{4, 6}, GraphShape{5, 8}, GraphShape{6, 5}));
