// Tests for Laplacian spectral clustering and the eigengap heuristic.

#include "auditherm/clustering/spectral.hpp"

#include "auditherm/linalg/decompositions.hpp"
#include "support/oracles.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

namespace clustering = auditherm::clustering;
namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
using linalg::Matrix;

namespace {

/// Block-structured similarity: `blocks` groups of `size` vertices with
/// strong in-block weights and weak cross-block weights.
clustering::SimilarityGraph block_graph(std::size_t blocks, std::size_t size,
                                        double in_w = 0.9,
                                        double cross_w = 0.02) {
  clustering::SimilarityGraph graph;
  const std::size_t n = blocks * size;
  for (std::size_t i = 0; i < n; ++i) {
    graph.channels.push_back(static_cast<int>(i + 1));
  }
  graph.weights = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = (i / size == j / size) ? in_w : cross_w;
      graph.weights(i, j) = w;
      graph.weights(j, i) = w;
    }
  }
  return graph;
}

/// Full-spectrum analysis of the normalized Laplacian from the Jacobi test
/// oracle, built outside analyze_spectrum() so the production spectrum can
/// be compared against it.
clustering::SpectralAnalysis jacobi_analysis(const Matrix& weights) {
  auto eig = support::eigen_symmetric(clustering::normalized_laplacian(weights));
  return {std::move(eig.eigenvalues), std::move(eig.eigenvectors)};
}

/// True when the two labelings induce the same partition (label ids may
/// permute between numerically different embeddings).
bool same_partition(const std::vector<std::size_t>& a,
                    const std::vector<std::size_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      if ((a[i] == a[j]) != (b[i] == b[j])) return false;
    }
  }
  return true;
}

}  // namespace

TEST(Laplacian, RowSumsZeroAndPsd) {
  const auto graph = block_graph(2, 3);
  const auto l = clustering::laplacian(graph.weights);
  for (std::size_t i = 0; i < l.rows(); ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < l.cols(); ++j) row_sum += l(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
  }
  const auto eig = support::eigen_symmetric(l);
  for (double lambda : eig.eigenvalues) EXPECT_GE(lambda, -1e-10);
  EXPECT_NEAR(eig.eigenvalues[0], 0.0, 1e-10);  // the constant mode
}

TEST(Laplacian, RejectsNonSquare) {
  EXPECT_THROW((void)clustering::laplacian(Matrix(2, 3)),
               std::invalid_argument);
}

TEST(Spectral, DisconnectedComponentsGiveZeroEigenvalues) {
  const auto graph = block_graph(3, 4, 0.8, 0.0);  // truly disconnected
  const auto analysis = clustering::analyze_spectrum(graph.weights);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(analysis.eigenvalues[i], 0.0, 1e-10);
  }
  EXPECT_GT(analysis.eigenvalues[3], 0.1);
}

TEST(Spectral, EigengapPicksBlockCount) {
  for (std::size_t blocks : {2u, 3u, 4u}) {
    const auto graph = block_graph(blocks, 5);
    const auto analysis = clustering::analyze_spectrum(graph.weights);
    EXPECT_EQ(analysis.eigengap_cluster_count(), blocks)
        << "blocks=" << blocks;
  }
}

TEST(Spectral, LogEigengapsShape) {
  const auto graph = block_graph(2, 4);
  const auto analysis = clustering::analyze_spectrum(graph.weights);
  const auto gaps = analysis.log_eigengaps();
  EXPECT_EQ(gaps.size(), analysis.eigenvalues.size() - 1);
}

TEST(Spectral, EigengapRangeValidation) {
  // Two eigenvalues hold one gap, below the search's k = 2 floor: the
  // range is empty. One eigenvalue (no gap) is the trivial k = 1.
  const auto pair = clustering::analyze_spectrum(block_graph(1, 2).weights);
  ASSERT_EQ(pair.eigenvalues.size(), 2u);
  EXPECT_THROW((void)pair.eigengap_cluster_count(), std::invalid_argument);
  const auto single = clustering::analyze_spectrum(block_graph(1, 1).weights);
  ASSERT_EQ(single.eigenvalues.size(), 1u);
  EXPECT_EQ(single.eigengap_cluster_count(), 1u);
}

TEST(Spectral, EigengapSearchesTwoToEight) {
  static_assert(clustering::kEigengapMinK == 2);
  static_assert(clustering::kEigengapMaxK == 8);
  // Log-gaps of 1 everywhere except a 3 at k = target and decoys of 10 at
  // k = 1 and k = 9, just outside the range: the scan must pick target.
  const auto spectrum = [](std::size_t target) {
    clustering::SpectralAnalysis a;
    double log_lambda = 0.0;
    for (std::size_t i = 0; i < 12; ++i) {
      a.eigenvalues.push_back(std::exp(log_lambda));
      const std::size_t k = i + 1;  // the gap after eigenvalue i
      log_lambda += k == target ? 3.0 : (k == 1 || k == 9) ? 10.0 : 1.0;
    }
    return a;
  };
  for (std::size_t k = 2; k <= 8; ++k) {
    EXPECT_EQ(spectrum(k).eigengap_cluster_count(), k) << "k=" << k;
  }
}

TEST(Spectral, ClusterRecoveryWithFixedK) {
  const auto graph = block_graph(3, 6);
  clustering::SpectralOptions options;
  options.cluster_count = 3;
  const auto result = clustering::spectral_cluster(graph, options);
  EXPECT_EQ(result.cluster_count, 3u);
  // Each block is one cluster.
  std::set<std::size_t> labels;
  for (std::size_t b = 0; b < 3; ++b) {
    const auto label = result.labels[b * 6];
    labels.insert(label);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(result.labels[b * 6 + i], label);
    }
  }
  EXPECT_EQ(labels.size(), 3u);
}

TEST(Spectral, AutoKMatchesEigengap) {
  const auto graph = block_graph(2, 8);
  const auto result = clustering::spectral_cluster(graph);
  EXPECT_EQ(result.cluster_count, 2u);
  // Only the pairs the eigengap scan and the embedding read are computed.
  EXPECT_EQ(result.eigenvalues.size(),
            clustering::needed_eigenpairs(clustering::SpectralOptions{}, 16));
}

TEST(Spectral, ClustersAccessor) {
  const auto graph = block_graph(2, 3);
  clustering::SpectralOptions options;
  options.cluster_count = 2;
  const auto result = clustering::spectral_cluster(graph, options);
  const auto clusters = result.clusters();
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size() + clusters[1].size(), 6u);
  // cluster_of agrees with the grouping.
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (auto id : clusters[c]) {
      EXPECT_EQ(result.cluster_of(id), c);
    }
  }
  EXPECT_THROW((void)result.cluster_of(999), std::invalid_argument);
}

TEST(Spectral, MalformedClustersThrowInsteadOfUB) {
  // A label >= cluster_count used to index out[labels[i]] out of bounds.
  clustering::ClusteringResult bad;
  bad.channels = {1, 2, 3};
  bad.labels = {0, 1, 2};
  bad.cluster_count = 2;  // label 2 is out of range
  try {
    (void)bad.clusters();
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("label 2"), std::string::npos) << what;
    EXPECT_NE(what.find("index 2"), std::string::npos) << what;
  }

  // Label/channel count mismatch is malformed too.
  clustering::ClusteringResult ragged;
  ragged.channels = {1, 2, 3};
  ragged.labels = {0, 1};
  ragged.cluster_count = 2;
  EXPECT_THROW((void)ragged.clusters(), std::out_of_range);
}

TEST(Spectral, PrecomputedAnalysisOverloadMatchesOneShot) {
  // The stage-cache split: spectral_cluster(graph, analysis, options) from
  // a precomputed spectrum must equal the one-shot overload bitwise.
  const auto graph = block_graph(3, 5);
  clustering::SpectralOptions options;
  options.cluster_count = 3;
  const auto one_shot = clustering::spectral_cluster(graph, options);
  const auto analysis = clustering::analyze_spectrum(
      graph.weights, options.laplacian,
      clustering::needed_eigenpairs(options, graph.channels.size()));
  const auto staged = clustering::spectral_cluster(graph, analysis, options);
  EXPECT_EQ(one_shot.labels, staged.labels);
  EXPECT_EQ(one_shot.cluster_count, staged.cluster_count);
  EXPECT_EQ(one_shot.eigenvalues, staged.eigenvalues);

  // Mismatched analysis dimensions are rejected.
  const auto wrong = clustering::analyze_spectrum(
      block_graph(2, 3).weights, options.laplacian);
  EXPECT_THROW((void)clustering::spectral_cluster(graph, wrong, options),
               std::invalid_argument);
}

TEST(Spectral, ClusterCountValidation) {
  const auto graph = block_graph(2, 2);
  clustering::SpectralOptions options;
  options.cluster_count = 10;
  EXPECT_THROW((void)clustering::spectral_cluster(graph, options),
               std::invalid_argument);
}

TEST(Spectral, DeterministicForSameSeed) {
  const auto graph = block_graph(3, 5);
  const auto a = clustering::spectral_cluster(graph);
  const auto b = clustering::spectral_cluster(graph);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Spectral, TridiagonalMethodRecoversSameClusters) {
  // The production spectrum (the dense partial solver at this size) and
  // the Jacobi oracle's full spectrum give the same clusters, and the
  // leading eigenvalues agree.
  const auto graph = block_graph(3, 6);
  clustering::SpectralOptions options;
  options.cluster_count = 3;
  const auto a = clustering::spectral_cluster(
      graph, jacobi_analysis(graph.weights), options);
  const auto b = clustering::spectral_cluster(graph, options);
  EXPECT_TRUE(same_partition(a.labels, b.labels));
  EXPECT_EQ(a.cluster_count, b.cluster_count);
  ASSERT_EQ(b.eigenvalues.size(),
            clustering::needed_eigenpairs(options, graph.channels.size()));
  for (std::size_t i = 0; i < b.eigenvalues.size(); ++i) {
    EXPECT_NEAR(a.eigenvalues[i], b.eigenvalues[i], 1e-10) << "i=" << i;
  }
}

TEST(Spectral, PartialAnalysisClustersLikeFullSpectrum) {
  // A partial (n x m) analysis with m >= kEigengapMaxK + 1 eigenpairs
  // must produce the same clustering as the full spectrum: only the
  // leading embedding columns feed k-means and the eigengap scan.
  const auto graph = block_graph(3, 6);
  clustering::SpectralOptions options;  // auto-k via eigengap
  const std::size_t n = graph.channels.size();
  const auto pairs = clustering::needed_eigenpairs(options, n);
  EXPECT_EQ(pairs, std::min(n, clustering::kEigengapMaxK + 1));

  const auto full = clustering::spectral_cluster(
      graph, clustering::analyze_spectrum(graph.weights, options.laplacian),
      options);
  ASSERT_EQ(full.eigenvalues.size(), n);
  const auto partial =
      clustering::analyze_spectrum(graph.weights, options.laplacian, pairs);
  ASSERT_EQ(partial.eigenvalues.size(), pairs);
  ASSERT_EQ(partial.eigenvectors.cols(), pairs);
  ASSERT_EQ(partial.eigenvectors.rows(), n);
  const auto staged = clustering::spectral_cluster(graph, partial, options);
  EXPECT_TRUE(same_partition(staged.labels, full.labels));
  EXPECT_EQ(staged.cluster_count, full.cluster_count);
}

TEST(Spectral, PartialAnalysisTooShallowForKThrows) {
  // An analysis holding fewer eigenpairs than the requested k cannot build
  // the embedding; the precomputed overload must reject it, not read OOB.
  const auto graph = block_graph(2, 4);
  const auto partial = clustering::analyze_spectrum(
      graph.weights, clustering::LaplacianKind::kSymmetricNormalized,
      /*max_pairs=*/2);
  clustering::SpectralOptions options;
  options.cluster_count = 3;  // needs 3 embedding columns, analysis has 2
  EXPECT_THROW((void)clustering::spectral_cluster(graph, partial, options),
               std::invalid_argument);
}

TEST(Spectral, NeededEigenpairsClampsToMatrixSize) {
  clustering::SpectralOptions options;  // kEigengapMaxK = 8 -> wants 9
  EXPECT_EQ(clustering::needed_eigenpairs(options, 5), 5u);
  options.cluster_count = 4;
  EXPECT_EQ(clustering::needed_eigenpairs(options, 100), 9u);
  options.cluster_count = 12;  // explicit k above kEigengapMaxK + 1
  EXPECT_EQ(clustering::needed_eigenpairs(options, 100), 12u);
}

TEST(Spectral, AutoMethodMatchesJacobiOnSmallGraphs) {
  // The solver analyze_spectrum() picks for a small graph reproduces the
  // Jacobi oracle: identical labels and the same leading eigenvalues.
  const auto graph = block_graph(3, 5);
  const clustering::SpectralOptions options;
  const auto a = clustering::spectral_cluster(graph, options);
  const auto b = clustering::spectral_cluster(
      graph, jacobi_analysis(graph.weights), options);
  EXPECT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.eigenvalues.size(),
            clustering::needed_eigenpairs(options, graph.channels.size()));
  for (std::size_t i = 0; i < a.eigenvalues.size(); ++i) {
    EXPECT_NEAR(a.eigenvalues[i], b.eigenvalues[i], 1e-10) << "i=" << i;
  }
}

TEST(Spectral, FullSpectrumOnSmallGraphsMatchesJacobi) {
  // Below 10 vertices needed_eigenpairs() asks for every pair, so the
  // analysis is a full spectrum from the dense solver (m == n). Connected
  // and disconnected (repeated zero eigenvalues) graphs, both Laplacians.
  // An empty graph has an empty spectrum.
  EXPECT_TRUE(clustering::analyze_spectrum(Matrix()).eigenvalues.empty());
  for (const auto& graph : {block_graph(2, 4), block_graph(3, 3),
                            block_graph(3, 3, 0.8, 0.0),
                            block_graph(2, 2, 0.9, 0.0)}) {
    const std::size_t n = graph.channels.size();
    ASSERT_LT(n, 10u);
    ASSERT_EQ(clustering::needed_eigenpairs(clustering::SpectralOptions{}, n),
              n);
    for (const auto kind : {clustering::LaplacianKind::kSymmetricNormalized,
                            clustering::LaplacianKind::kUnnormalized}) {
      const auto l = kind == clustering::LaplacianKind::kUnnormalized
                         ? clustering::laplacian(graph.weights)
                         : clustering::normalized_laplacian(graph.weights);
      const auto ref = support::eigen_symmetric(l);
      for (const std::size_t max_pairs : {std::size_t{0}, n}) {
        const auto got =
            clustering::analyze_spectrum(graph.weights, kind, max_pairs);
        const std::string context = "n=" + std::to_string(n) + " kind=" +
                                    std::to_string(static_cast<int>(kind)) +
                                    " max_pairs=" + std::to_string(max_pairs);
        ASSERT_EQ(got.eigenvalues.size(), n) << context;
        ASSERT_EQ(got.eigenvectors.rows(), n) << context;
        ASSERT_EQ(got.eigenvectors.cols(), n) << context;
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_NEAR(got.eigenvalues[j], ref.eigenvalues[j], 1e-10)
              << context << " eigenvalue " << j;
          // Orthonormal columns that solve L v = lambda v.
          for (std::size_t m = 0; m <= j; ++m) {
            double dot = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
              dot += got.eigenvectors(i, j) * got.eigenvectors(i, m);
            }
            EXPECT_NEAR(dot, m == j ? 1.0 : 0.0, 1e-9)
                << context << " columns " << m << "," << j;
          }
          for (std::size_t i = 0; i < n; ++i) {
            double lv = 0.0;
            for (std::size_t c = 0; c < n; ++c) {
              lv += l(i, c) * got.eigenvectors(c, j);
            }
            EXPECT_NEAR(lv, got.eigenvalues[j] * got.eigenvectors(i, j), 1e-9)
                << context << " residual " << j << " row " << i;
          }
        }
      }
    }
    // The one-shot clustering on that full spectrum matches the oracle's.
    const auto a = clustering::spectral_cluster(graph);
    const auto b = clustering::spectral_cluster(
        graph, jacobi_analysis(graph.weights), clustering::SpectralOptions{});
    EXPECT_EQ(a.cluster_count, b.cluster_count);
    EXPECT_TRUE(same_partition(a.labels, b.labels));
  }
}
