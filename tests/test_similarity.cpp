// Tests for similarity-graph construction.

#include "auditherm/clustering/similarity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "support/oracles.hpp"

namespace clustering = auditherm::clustering;
namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
namespace ts = auditherm::timeseries;
using ts::MultiTrace;
using ts::TimeGrid;

namespace {

/// Channels: 1 and 2 nearly identical; 3 far away; 4 anti-correlated
/// with 1.
MultiTrace make_trace() {
  MultiTrace trace(TimeGrid(0, 30, 50), {1, 2, 3, 4});
  for (std::size_t k = 0; k < 50; ++k) {
    const double x = std::sin(0.3 * static_cast<double>(k));
    trace.set(k, 0, 20.0 + x);
    trace.set(k, 1, 20.05 + x);
    trace.set(k, 2, 25.0 + 0.5 * std::cos(0.7 * static_cast<double>(k)));
    trace.set(k, 3, 20.0 - x);
  }
  return trace;
}

}  // namespace

TEST(Similarity, EuclideanWeightsReflectDistance) {
  const auto trace = make_trace();
  clustering::SimilarityOptions options;
  options.metric = clustering::SimilarityMetric::kEuclidean;
  const auto graph =
      clustering::build_similarity_graph(trace, {1, 2, 3, 4}, options);
  ASSERT_EQ(graph.weights.rows(), 4u);
  // Closest pair (1,2) must get the highest weight; (1,3) is far.
  EXPECT_GT(graph.weights(0, 1), graph.weights(0, 2));
  EXPECT_GT(graph.weights(0, 1), 0.9);
  EXPECT_GT(graph.sigma_used, 0.0);
}

TEST(Similarity, WeightsSymmetricZeroDiagonalBounded) {
  const auto trace = make_trace();
  for (auto metric : {clustering::SimilarityMetric::kEuclidean,
                      clustering::SimilarityMetric::kCorrelation}) {
    clustering::SimilarityOptions options;
    options.metric = metric;
    const auto graph =
        clustering::build_similarity_graph(trace, {1, 2, 3, 4}, options);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(graph.weights(i, i), 0.0);
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_DOUBLE_EQ(graph.weights(i, j), graph.weights(j, i));
        EXPECT_GE(graph.weights(i, j), 0.0);
        EXPECT_LE(graph.weights(i, j), 1.0);
      }
    }
  }
}

TEST(Similarity, CorrelationMetricValues) {
  const auto trace = make_trace();
  const auto graph = clustering::build_similarity_graph(trace, {1, 2, 4});
  // 1-2 perfectly correlated; 1-4 anti-correlated -> clipped to 0.
  EXPECT_NEAR(graph.weights(0, 1), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(graph.weights(0, 2), 0.0);
}

TEST(Similarity, ExplicitSigmaRespected) {
  const auto trace = make_trace();
  clustering::SimilarityOptions options;
  options.metric = clustering::SimilarityMetric::kEuclidean;
  options.sigma = 0.01;  // tiny bandwidth: distant pairs go to ~0
  const auto graph =
      clustering::build_similarity_graph(trace, {1, 3}, options);
  EXPECT_DOUBLE_EQ(graph.sigma_used, 0.01);
  EXPECT_LT(graph.weights(0, 1), 1e-6);
}

TEST(Similarity, ThresholdSparsifies) {
  const auto trace = make_trace();
  clustering::SimilarityOptions options;
  options.threshold = 0.99;
  const auto graph =
      clustering::build_similarity_graph(trace, {1, 2, 3}, options);
  // Only the near-identical pair survives.
  EXPECT_GT(graph.weights(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(graph.weights(0, 2), 0.0);
}

TEST(Similarity, GapsUsePairwiseCompleteRows) {
  auto trace = make_trace();
  for (std::size_t k = 0; k < 10; ++k) trace.clear(k, 0);
  const auto graph = clustering::build_similarity_graph(trace, {1, 2});
  EXPECT_NEAR(graph.weights(0, 1), 1.0, 1e-9);
}

TEST(Similarity, KnnSparsificationKeepsStrongestEdges) {
  const auto trace = make_trace();
  clustering::SimilarityOptions options;
  options.sparsification = clustering::GraphSparsification::kKnn;
  options.knn_k = 1;
  const auto graph =
      clustering::build_similarity_graph(trace, {1, 2, 3, 4}, options);
  // Each vertex keeps its single strongest edge; 1-2 are near-identical so
  // they pick each other, and the union symmetrizes everything kept.
  EXPECT_GT(graph.weights(0, 1), 0.9);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(graph.weights(i, j), graph.weights(j, i));
    }
  }
  // With k = 1 on 4 vertices, at most 4 undirected edges survive.
  EXPECT_LE(support::edge_count(graph.weights), 4u);
  EXPECT_GE(support::edge_count(graph.weights), 2u);
}

TEST(Similarity, KnnFullDegreeKeepsEverything) {
  const auto trace = make_trace();
  clustering::SimilarityOptions dense_options;
  dense_options.threshold_quantile = 0.0;  // no epsilon sparsification
  const auto dense =
      clustering::build_similarity_graph(trace, {1, 2, 3, 4}, dense_options);
  clustering::SimilarityOptions knn_options;
  knn_options.sparsification = clustering::GraphSparsification::kKnn;
  knn_options.knn_k = 3;  // every neighbor of every vertex
  const auto knn =
      clustering::build_similarity_graph(trace, {1, 2, 3, 4}, knn_options);
  // k >= n-1 keeps every positive edge, bitwise.
  EXPECT_EQ(knn.weights, dense.weights);
}

TEST(Similarity, ConnectivityDiagnostics) {
  const auto trace = make_trace();
  // Default epsilon graph on the 4-channel trace.
  const auto graph = clustering::build_similarity_graph(trace, {1, 2, 3, 4});
  EXPECT_GE(support::component_count(graph.weights), 1u);
  EXPECT_LE(support::component_count(graph.weights), 4u);

  // A graph that k-NN provably splits: channels {1,2} co-move, {3} is on
  // its own (4 anti-correlates with 1, clipping its weights to ~0).
  clustering::SimilarityOptions knn_options;
  knn_options.sparsification = clustering::GraphSparsification::kKnn;
  knn_options.knn_k = 1;
  const auto split =
      clustering::build_similarity_graph(trace, {1, 2, 4}, knn_options);
  // 1-2 strongly linked; 4's weights are all clipped to zero, so it ends
  // up isolated — k-NN never invents edges for weightless vertices.
  EXPECT_EQ(support::edge_count(split.weights), 1u);
  EXPECT_EQ(support::component_count(split.weights), 2u);
}

TEST(Similarity, Validation) {
  const auto trace = make_trace();
  EXPECT_THROW((void)clustering::build_similarity_graph(trace, {1}),
               std::invalid_argument);
  EXPECT_THROW((void)clustering::build_similarity_graph(trace, {1, 99}),
               std::invalid_argument);
}

TEST(Similarity, DisjointChannelsThrow) {
  MultiTrace trace(TimeGrid(0, 30, 4), {1, 2});
  trace.set(0, 0, 1.0);
  trace.set(1, 0, 2.0);
  trace.set(2, 1, 3.0);
  trace.set(3, 1, 4.0);  // channels never share a row
  clustering::SimilarityOptions options;
  options.metric = clustering::SimilarityMetric::kEuclidean;
  EXPECT_THROW((void)clustering::build_similarity_graph(trace, {1, 2},
                                                        options),
               std::runtime_error);
}

namespace {

/// Seeded trace whose channels come in groups of identical copies, listed
/// in a shuffled order: a vertex's weights to the copies of one group tie
/// exactly, and its own copies tie at weight 1.
MultiTrace duplicated_trace(std::mt19937_64& rng,
                            std::vector<ts::ChannelId>& ids) {
  constexpr std::size_t kRows = 60;
  std::normal_distribution<double> normal(0.0, 1.0);
  const std::size_t groups = 4 + rng() % 5;
  std::vector<std::size_t> group_of;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t copies = 1 + rng() % 4;
    group_of.insert(group_of.end(), copies, g);
  }
  std::shuffle(group_of.begin(), group_of.end(), rng);
  // Two shared signals mixed per group, so groups correlate with each
  // other at many different (mostly positive) strengths.
  std::vector<double> s1(kRows), s2(kRows), mix(groups), noise(groups * kRows);
  for (std::size_t k = 0; k < kRows; ++k) {
    s1[k] = normal(rng);
    s2[k] = normal(rng);
  }
  for (auto& m : mix) m = normal(rng);
  for (auto& e : noise) e = 0.5 * normal(rng);
  ids.clear();
  for (std::size_t c = 0; c < group_of.size(); ++c) {
    ids.push_back(static_cast<ts::ChannelId>(10 + c));
  }
  MultiTrace trace(TimeGrid(0, 30, kRows), ids);
  for (std::size_t c = 0; c < group_of.size(); ++c) {
    const std::size_t g = group_of[c];
    for (std::size_t k = 0; k < kRows; ++k) {
      trace.set(k, c, 20.0 + s1[k] + mix[g] * s2[k] + noise[g * kRows + k]);
    }
  }
  return trace;
}

/// Each vertex's `k` strongest positive edges by a full sort under
/// (weight descending, index ascending), union-symmetrized. Counts in
/// `straddles` the rows where an exact tie spans the k-th slot.
std::vector<std::vector<bool>> brute_force_keep(const linalg::Matrix& w,
                                                std::size_t k,
                                                std::size_t& straddles) {
  const std::size_t p = w.rows();
  std::vector<std::vector<bool>> keep(p, std::vector<bool>(p, false));
  for (std::size_t i = 0; i < p; ++i) {
    std::vector<std::size_t> order;
    for (std::size_t j = 0; j < p; ++j) {
      if (j != i && w(i, j) > 0.0) order.push_back(j);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (w(i, a) != w(i, b)) return w(i, a) > w(i, b);
      return a < b;
    });
    if (k > 0 && order.size() > k && w(i, order[k - 1]) == w(i, order[k])) {
      ++straddles;
    }
    for (std::size_t r = 0; r < std::min(k, order.size()); ++r) {
      keep[i][order[r]] = true;
      keep[order[r]][i] = true;
    }
  }
  return keep;
}

}  // namespace

TEST(Similarity, TopKTiesGoToTheLowerIndex) {
  std::size_t knn_straddles = 0;
  std::size_t floor_straddles = 0;
  std::mt19937_64 rng(2014);
  for (int seed = 0; seed < 40; ++seed) {
    std::vector<ts::ChannelId> ids;
    const auto trace = duplicated_trace(rng, ids);
    const std::size_t p = ids.size();
    for (const auto metric : {clustering::SimilarityMetric::kCorrelation,
                              clustering::SimilarityMetric::kEuclidean}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(p) + " channels, metric " +
                   std::to_string(static_cast<int>(metric)));
      clustering::SimilarityOptions dense_options;
      dense_options.metric = metric;
      dense_options.threshold_quantile = 0.0;  // no sparsification
      const auto dense =
          clustering::build_similarity_graph(trace, ids, dense_options).weights;

      clustering::SimilarityOptions knn_options;
      knn_options.metric = metric;
      knn_options.sparsification = clustering::GraphSparsification::kKnn;
      knn_options.knn_k = 1 + rng() % 5;
      const auto knn =
          clustering::build_similarity_graph(trace, ids, knn_options).weights;
      const auto knn_keep =
          brute_force_keep(dense, knn_options.knn_k, knn_straddles);

      clustering::SimilarityOptions eps_options;
      eps_options.metric = metric;
      eps_options.threshold_quantile = 0.5 + 0.1 * static_cast<double>(rng() % 4);
      eps_options.knn_floor = 1 + rng() % 4;
      const auto eps =
          clustering::build_similarity_graph(trace, ids, eps_options).weights;
      const auto floor_keep =
          brute_force_keep(dense, eps_options.knn_floor, floor_straddles);
      std::vector<double> upper;
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = i + 1; j < p; ++j) upper.push_back(dense(i, j));
      }
      std::sort(upper.begin(), upper.end());
      const double cutoff = upper[static_cast<std::size_t>(
          eps_options.threshold_quantile *
          static_cast<double>(upper.size() - 1))];

      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          EXPECT_EQ(knn(i, j), knn_keep[i][j] ? dense(i, j) : 0.0)
              << "knn (" << i << ", " << j << ")";
          const bool dropped = !floor_keep[i][j] && dense(i, j) < cutoff;
          EXPECT_EQ(eps(i, j), dropped ? 0.0 : dense(i, j))
              << "epsilon (" << i << ", " << j << ")";
        }
      }
    }
  }
  // The duplicated channels must have put exact ties across the k-th slot.
  EXPECT_GT(knn_straddles, 0u);
  EXPECT_GT(floor_straddles, 0u);
}
