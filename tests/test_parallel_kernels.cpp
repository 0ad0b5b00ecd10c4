// Property tests for the parallelized math kernels: randomized matrices
// and traces must produce results that (a) exactly match a naive serial
// reference with the same per-element summation order, and (b) are
// bitwise identical at 1, 2, and 8 threads. Also checks the similarity
// graph's structural invariants survive parallel construction.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "auditherm/clustering/similarity.hpp"
#include "auditherm/core/parallel.hpp"
#include "auditherm/linalg/matrix.hpp"
#include "auditherm/timeseries/multi_trace.hpp"
#include "auditherm/timeseries/trace_stats.hpp"

namespace core = auditherm::core;
namespace linalg = auditherm::linalg;
namespace timeseries = auditherm::timeseries;
namespace clustering = auditherm::clustering;

namespace {

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = dist(gen);
  return m;
}

/// Reference product with the library's summation order: for each element,
/// ascending k with the zero-skip.
linalg::Matrix reference_multiply(const linalg::Matrix& a,
                                  const linalg::Matrix& b) {
  linalg::Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t k = 0; k < a.cols(); ++k)
        if (a(i, k) != 0.0) c(i, j) += a(i, k) * b(k, j);
  return c;
}

linalg::Matrix reference_gram(const linalg::Matrix& a,
                              const linalg::Matrix& b) {
  linalg::Matrix c(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t k = 0; k < a.rows(); ++k)
        if (a(k, i) != 0.0) c(i, j) += a(k, i) * b(k, j);
  return c;
}

/// Random gappy trace: `p` channels correlated through a shared driver so
/// the similarity graph is non-trivial, with ~`gap_fraction` NaN holes.
timeseries::MultiTrace random_trace(std::size_t rows, std::size_t p,
                                    double gap_fraction, std::uint32_t seed) {
  std::vector<timeseries::ChannelId> ids(p);
  for (std::size_t c = 0; c < p; ++c) ids[c] = static_cast<int>(c + 1);
  timeseries::MultiTrace trace(timeseries::TimeGrid(0, 30, rows), ids);
  std::mt19937 gen(seed);
  std::normal_distribution<double> noise(0.0, 0.3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t k = 0; k < rows; ++k) {
    const double driver = std::sin(0.05 * static_cast<double>(k));
    for (std::size_t c = 0; c < p; ++c) {
      if (unit(gen) < gap_fraction) continue;  // leave the NaN gap
      const double weight = 0.3 + 0.7 * static_cast<double>(c) /
                                      static_cast<double>(p);
      trace.set(k, c, 20.0 + weight * driver + noise(gen));
    }
  }
  return trace;
}

template <typename Fn>
auto at_threads(std::size_t n, Fn&& body) {
  core::ThreadCountScope scope(n);
  return body();
}

}  // namespace

TEST(ParallelKernels, MultiplyMatchesReferenceExactly) {
  // Sized so the row grain actually splits the work across chunks.
  const auto a = random_matrix(211, 97, 1);
  const auto b = random_matrix(97, 83, 2);
  const auto expected = reference_multiply(a, b);
  for (std::size_t threads : {1u, 2u, 8u}) {
    const auto c = at_threads(threads, [&] { return a * b; });
    EXPECT_EQ(c, expected) << "threads=" << threads;
  }
}

TEST(ParallelKernels, GramMatchesReferenceExactly) {
  const auto a = random_matrix(500, 61, 3);
  const auto b = random_matrix(500, 47, 4);
  const auto expected = reference_gram(a, b);
  for (std::size_t threads : {1u, 2u, 8u}) {
    const auto c = at_threads(threads, [&] { return linalg::gram(a, b); });
    EXPECT_EQ(c, expected) << "threads=" << threads;
  }
}

TEST(ParallelKernels, RmsDistanceMatrixMatchesPairReference) {
  const auto trace = random_trace(800, 12, 0.15, 7);
  const auto serial = at_threads(1, [&] {
    return timeseries::rms_distance_matrix(trace);
  });
  // Reference per pair: shared-valid samples, ascending rows.
  for (std::size_t i = 0; i < trace.channel_count(); ++i) {
    EXPECT_EQ(serial(i, i), 0.0);
    for (std::size_t j = i + 1; j < trace.channel_count(); ++j) {
      double d2 = 0.0;
      std::size_t n = 0;
      for (std::size_t k = 0; k < trace.size(); ++k) {
        if (trace.valid(k, i) && trace.valid(k, j)) {
          const double d = trace.value(k, i) - trace.value(k, j);
          d2 += d * d;
          ++n;
        }
      }
      ASSERT_GT(n, 0u);
      EXPECT_EQ(serial(i, j), std::sqrt(d2 / static_cast<double>(n)));
      EXPECT_EQ(serial(j, i), serial(i, j));
    }
  }
  for (std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(at_threads(threads,
                         [&] { return timeseries::rms_distance_matrix(trace); }),
              serial)
        << "threads=" << threads;
  }
}

TEST(ParallelKernels, CorrelationMatrixBitwiseStableAcrossThreads) {
  const auto trace = random_trace(900, 10, 0.1, 8);
  const auto serial = at_threads(1, [&] {
    return timeseries::correlation_matrix(trace);
  });
  for (std::size_t i = 0; i < trace.channel_count(); ++i) {
    EXPECT_EQ(serial(i, i), 1.0);
    for (std::size_t j = 0; j < trace.channel_count(); ++j) {
      EXPECT_EQ(serial(i, j), serial(j, i));
      EXPECT_LE(std::abs(serial(i, j)), 1.0 + 1e-12);
    }
  }
  for (std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(at_threads(threads,
                         [&] { return timeseries::correlation_matrix(trace); }),
              serial)
        << "threads=" << threads;
  }
}

TEST(ParallelKernels, CovarianceAndMeansBitwiseStableAcrossThreads) {
  const auto trace = random_trace(700, 9, 0.2, 9);
  const auto cov1 = at_threads(1, [&] {
    return timeseries::covariance_matrix(trace);
  });
  const auto mean1 = at_threads(1, [&] {
    return timeseries::channel_means(trace);
  });
  for (std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(at_threads(threads,
                         [&] { return timeseries::covariance_matrix(trace); }),
              cov1);
    EXPECT_EQ(at_threads(threads,
                         [&] { return timeseries::channel_means(trace); }),
              mean1);
  }
}

TEST(ParallelKernels, SimilarityGraphInvariantsAcrossThreads) {
  const auto trace = random_trace(600, 14, 0.1, 11);
  for (auto metric : {clustering::SimilarityMetric::kCorrelation,
                      clustering::SimilarityMetric::kEuclidean}) {
    clustering::SimilarityOptions opts;
    opts.metric = metric;
    const auto serial = at_threads(1, [&] {
      return clustering::build_similarity_graph(trace, trace.channels(), opts);
    });
    const std::size_t p = serial.weights.rows();
    for (std::size_t i = 0; i < p; ++i) {
      // Documented invariant: symmetric, zero diagonal (self-similarity is
      // implicit), entries in [0, 1].
      EXPECT_EQ(serial.weights(i, i), 0.0);
      for (std::size_t j = 0; j < p; ++j) {
        EXPECT_EQ(serial.weights(i, j), serial.weights(j, i));
        EXPECT_GE(serial.weights(i, j), 0.0);
        EXPECT_LE(serial.weights(i, j), 1.0);
      }
    }
    for (std::size_t threads : {2u, 8u}) {
      const auto graph = at_threads(threads, [&] {
        return clustering::build_similarity_graph(trace, trace.channels(),
                                                  opts);
      });
      EXPECT_EQ(graph.weights, serial.weights)
          << "threads=" << threads << " metric=" << static_cast<int>(metric);
      EXPECT_EQ(graph.sigma_used, serial.sigma_used);
    }
  }
}
