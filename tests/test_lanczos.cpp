// Property tests for the sparse Lanczos partial eigensolver: across four
// seeded matrix families (random SPD, near-diagonal, clustered spectra,
// rank-deficient graph Laplacians) the m smallest eigenpairs must agree
// with the dense eigen_symmetric_smallest reference to 1e-8, with
// orthonormal sign-pinned eigenvectors, bitwise thread-count invariance,
// and — end to end — identical cluster labels through the k-NN-sparsified
// spectral pipeline on well-separated synthetic halls. The pre-locked
// basis path (a Laplacian's null space from its components) must give the
// same answers with fewer passes, validate its input, and export its
// numerical health; non-finite matrices must fail on the first iteration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "auditherm/clustering/similarity.hpp"
#include "auditherm/clustering/spectral.hpp"
#include "auditherm/core/parallel.hpp"
#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/linalg/matrix.hpp"
#include "auditherm/linalg/sparse.hpp"
#include "auditherm/linalg/vector_ops.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/timeseries/multi_trace.hpp"
#include "support/matrix_families.hpp"
#include "support/oracles.hpp"

namespace core = auditherm::core;
namespace linalg = auditherm::linalg;
namespace clustering = auditherm::clustering;
namespace obs = auditherm::obs;
namespace ts = auditherm::timeseries;
namespace support = auditherm::test_support;
using linalg::CsrMatrix;
using linalg::Matrix;
using linalg::Vector;
using support::family_matrix;
using support::family_name;
using support::from_dense;
using support::random_spd;
using support::rank_deficient_laplacian;
using support::spectrum_scale;

namespace {

/// Lanczos output vs the dense partial reference: eigenvalues to 1e-8,
/// columns orthonormal and sign-pinned, residuals small, and isolated
/// eigenvalues reproducing the reference direction elementwise.
void expect_matches_dense(const Matrix& a, const linalg::SymmetricEigen& ref,
                          const linalg::SymmetricEigen& got, std::size_t m,
                          const std::string& context) {
  ASSERT_EQ(got.eigenvalues.size(), m) << context;
  ASSERT_EQ(got.eigenvectors.cols(), m) << context;
  ASSERT_EQ(got.eigenvectors.rows(), a.rows()) << context;
  const std::size_t n = a.rows();
  const double scale = spectrum_scale(ref.eigenvalues);

  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_NEAR(got.eigenvalues[j], ref.eigenvalues[j], 1e-8 * scale)
        << context << " eigenvalue " << j;
  }

  for (std::size_t j = 0; j < m; ++j) {
    const Vector vj = got.eigenvectors.col_vector(j);
    EXPECT_NEAR(linalg::norm2(vj), 1.0, 1e-10) << context << " column " << j;
    for (std::size_t l = j + 1; l < m; ++l) {
      EXPECT_NEAR(linalg::dot(vj, got.eigenvectors.col_vector(l)), 0.0, 1e-9)
          << context << " columns " << j << "," << l;
    }
  }

  for (std::size_t j = 0; j < m; ++j) {
    const Vector v = got.eigenvectors.col_vector(j);

    const Vector av = a * v;
    Vector lv = v;
    for (double& x : lv) x *= got.eigenvalues[j];
    EXPECT_NEAR(linalg::norm2(linalg::subtract(av, lv)), 0.0, 1e-8 * scale)
        << context << " residual " << j;

    // Sign convention: the largest-|component| entry is positive.
    std::size_t arg = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (std::abs(v[i]) > std::abs(v[arg])) arg = i;
    EXPECT_GE(v[arg], 0.0) << context << " sign pin " << j;

    // Isolated eigenvalues must reproduce the reference direction (both
    // solvers share the sign pin; the |dot| check tolerates last-ulp pin
    // flips on exact +/- magnitude ties). The gap ABOVE the last returned
    // pair is unknowable from a partial reference — the full spectrum may
    // continue with more copies of the same value — so the last index only
    // counts as isolated when the reference covers the pair above it.
    const double gap_tol = 1e-6 * scale;
    const bool isolated =
        (j == 0 || ref.eigenvalues[j] - ref.eigenvalues[j - 1] > gap_tol) &&
        (j + 1 < ref.eigenvalues.size() &&
         ref.eigenvalues[j + 1] - ref.eigenvalues[j] > gap_tol);
    if (isolated) {
      const Vector r = ref.eigenvectors.col_vector(j);
      const double d = linalg::dot(v, r);
      EXPECT_GT(std::abs(d), 1.0 - 1e-8)
          << context << " isolated direction " << j;
      const double sign = d < 0.0 ? -1.0 : 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(v[i], sign * r[i], 1e-7)
            << context << " vector " << j << " entry " << i;
      }
    }
  }
}

/// Canonical relabeling by first appearance, so two clusterings compare
/// as partitions regardless of cluster numbering.
std::vector<std::size_t> canonical_labels(const std::vector<std::size_t>& in) {
  std::vector<std::size_t> mapping;
  std::vector<std::size_t> out;
  out.reserve(in.size());
  for (const std::size_t label : in) {
    std::size_t canon = mapping.size();
    for (std::size_t k = 0; k < mapping.size(); ++k) {
      if (mapping[k] == label) {
        canon = k;
        break;
      }
    }
    if (canon == mapping.size()) mapping.push_back(label);
    out.push_back(canon);
  }
  return out;
}

/// Spectral analyses of the normalized Laplacian from a named solver, built
/// outside analyze_spectrum() (which picks the solver from the graph size)
/// so small graphs can exercise both: the Jacobi oracle's full spectrum,
/// and Lanczos over the `pairs` smallest pairs.
clustering::SpectralAnalysis jacobi_analysis(const Matrix& weights) {
  auto eig =
      support::eigen_symmetric(clustering::normalized_laplacian(weights));
  return {std::move(eig.eigenvalues), std::move(eig.eigenvectors)};
}

clustering::SpectralAnalysis lanczos_analysis(const Matrix& weights,
                                              std::size_t pairs) {
  auto eig = linalg::eigen_symmetric_smallest_sparse(
      clustering::laplacian_csr(
          weights, clustering::LaplacianKind::kSymmetricNormalized),
      pairs);
  return {std::move(eig.eigenvalues), std::move(eig.eigenvectors)};
}

/// Campus-style traces: `halls` groups of `per_hall` sensors, each hall
/// driven by its own smooth signal, per-sensor deterministic noise far
/// smaller than the hall separation. Channel ids are 1..n in hall order.
ts::MultiTrace campus_trace(std::size_t halls, std::size_t per_hall,
                            std::size_t samples, std::uint64_t seed) {
  std::vector<ts::ChannelId> ids;
  for (std::size_t i = 0; i < halls * per_hall; ++i)
    ids.push_back(static_cast<ts::ChannelId>(i + 1));
  ts::MultiTrace trace(ts::TimeGrid(0, 60, samples), ids);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.05);
  for (std::size_t c = 0; c < ids.size(); ++c) {
    const std::size_t hall = c / per_hall;
    const double w = 0.15 + 0.17 * static_cast<double>(hall);
    const double phase = 0.9 * static_cast<double>(hall);
    for (std::size_t k = 0; k < samples; ++k) {
      const double t = static_cast<double>(k);
      const double base = std::sin(w * t + phase) +
                          0.4 * std::cos(0.5 * w * t) +
                          0.8 * static_cast<double>(hall);
      trace.set(k, c, 21.0 + base + noise(rng));
    }
  }
  return trace;
}

/// k-NN similarity graph (the pipeline's default knn_k) over a
/// campus_trace: one connected component per hall.
clustering::SimilarityGraph knn_campus_graph(std::size_t halls,
                                             std::size_t per_hall,
                                             std::uint64_t seed) {
  const auto trace = campus_trace(halls, per_hall, 240, seed);
  std::vector<ts::ChannelId> ids;
  for (std::size_t i = 0; i < halls * per_hall; ++i)
    ids.push_back(static_cast<ts::ChannelId>(i + 1));
  clustering::SimilarityOptions knn;
  knn.sparsification = clustering::GraphSparsification::kKnn;
  return clustering::build_similarity_graph(trace, ids, knn);
}

/// Unit indicator vectors 1_C / sqrt(|C|) of the residue classes i % blocks:
/// the null basis of rank_deficient_laplacian(n, seed) for its `blocks`.
std::vector<Vector> residue_class_basis(std::size_t n, std::size_t blocks) {
  std::vector<Vector> basis(blocks, Vector(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) basis[i % blocks][i] = 1.0;
  for (Vector& v : basis) {
    const double nv = linalg::norm2(v);
    for (double& x : v) x /= nv;
  }
  return basis;
}

const obs::HistogramSnapshot* find_histogram(
    const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Property sweep: Lanczos vs the dense partial solver over four families.
// ---------------------------------------------------------------------------

TEST(Lanczos, MatchesDensePartialAcrossSeedsAndFamilies) {
  const std::size_t sizes[] = {12, 24, 40, 64};
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    const std::size_t family = seed % 4;
    const std::size_t n = sizes[(seed / 4) % 4];
    const std::size_t m = 2 + seed % 5;  // 2..6 smallest pairs
    const auto a = family_matrix(family, n, 3000 + seed);
    const auto ref = linalg::eigen_symmetric_smallest(a, m);
    const auto got =
        linalg::eigen_symmetric_smallest_sparse(from_dense(a), m);
    const std::string context = std::string("lanczos ") + family_name(family) +
                                " n=" + std::to_string(n) +
                                " m=" + std::to_string(m) +
                                " seed=" + std::to_string(seed);
    expect_matches_dense(a, ref, got, m, context);
  }
}

TEST(Lanczos, FullSpectrumRequestMatchesDense) {
  // m == n exercises the exhausted-complement path of every deflated pass.
  const auto a = random_spd(10, 91);
  const auto ref = linalg::eigen_symmetric_smallest(a, 10);
  const auto got =
      linalg::eigen_symmetric_smallest_sparse(from_dense(a), 10);
  expect_matches_dense(a, ref, got, 10, "full spectrum n=10");
}

TEST(Lanczos, DisconnectedLaplacianRecoversAllZeroModes) {
  // 4 components: the zero eigenvalue has multiplicity 4, which a single
  // Krylov run cannot see — only the deflated restarts surface copies
  // 2, 3, and 4.
  Matrix w(16, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = i + 1; j < 16; ++j) {
      if (i / 4 == j / 4) {
        w(i, j) = 0.5 + 0.1 * static_cast<double>(i + j);
        w(j, i) = w(i, j);
      }
    }
  }
  const auto l = clustering::laplacian(w);
  const auto got =
      linalg::eigen_symmetric_smallest_sparse(from_dense(l), 6);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(got.eigenvalues[j], 0.0, 1e-9) << "zero mode " << j;
  }
  EXPECT_GT(got.eigenvalues[4], 0.5);  // spectral gap after the zero modes
}

TEST(Lanczos, Validation) {
  const auto a = from_dense(random_spd(6, 11));
  EXPECT_THROW((void)linalg::eigen_symmetric_smallest_sparse(
                   from_dense(Matrix(2, 3)), 1),
               std::invalid_argument);
  EXPECT_THROW((void)linalg::eigen_symmetric_smallest_sparse(a, 0),
               std::invalid_argument);
  // m > n is a caller sizing bug: rejected like the dense path.
  EXPECT_THROW((void)linalg::eigen_symmetric_smallest_sparse(a, 7),
               std::invalid_argument);
  EXPECT_NO_THROW((void)linalg::eigen_symmetric_smallest_sparse(a, 6));
}

TEST(Lanczos, TrivialSizes) {
  Matrix one{{4.0}};
  const auto got =
      linalg::eigen_symmetric_smallest_sparse(from_dense(one), 1);
  ASSERT_EQ(got.eigenvalues.size(), 1u);
  EXPECT_DOUBLE_EQ(got.eigenvalues[0], 4.0);
  EXPECT_DOUBLE_EQ(got.eigenvectors(0, 0), 1.0);

  // The zero matrix breaks down on every first step: each pass's 1x1
  // tridiagonal is zero, and its Ritz vector must still be the start
  // vector, not an overflowed inverse iteration.
  const auto zero = linalg::eigen_symmetric_smallest_sparse(
      from_dense(Matrix(8, 8)), 3);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(zero.eigenvalues[j], 0.0) << "pair " << j;
    const Vector vj = zero.eigenvectors.col_vector(j);
    EXPECT_NEAR(linalg::norm2(vj), 1.0, 1e-12) << "pair " << j;
    for (std::size_t l = 0; l < j; ++l) {
      EXPECT_NEAR(linalg::dot(vj, zero.eigenvectors.col_vector(l)), 0.0,
                  1e-12)
          << "pairs " << l << "," << j;
    }
  }
}

TEST(Lanczos, LockedBasisValidation) {
  // Three components (residue classes mod 3): a 3-vector null basis.
  const auto l = rank_deficient_laplacian(12, 1);
  const auto a = from_dense(l);
  const auto basis = residue_class_basis(12, 3);
  auto throws = [&](const std::vector<Vector>& locked, std::size_t m) {
    EXPECT_THROW((void)linalg::eigen_symmetric_smallest_sparse(a, m, locked),
                 std::invalid_argument);
  };
  throws({Vector(11, 0.0)}, 4);                      // wrong length
  throws({basis[0], basis[0]}, 4);                   // not orthogonal
  Vector stretched = basis[0];
  for (double& x : stretched) x *= 1.0 + 1e-6;
  throws({stretched}, 4);                            // not unit length
  throws(basis, 2);                                  // more than m
  Vector e0(12, 0.0);
  e0[0] = 1.0;
  throws({e0}, 4);  // unit, but not an eigenvector

  // The valid basis: locked pairs first, then the dense answer.
  const auto got = linalg::eigen_symmetric_smallest_sparse(a, 5, basis);
  const auto ref = linalg::eigen_symmetric_smallest(l, 5);
  expect_matches_dense(l, ref, got, 5, "locked residue classes");
  // Every requested pair locked: no pass runs, the basis comes back.
  const auto all = linalg::eigen_symmetric_smallest_sparse(a, 3, basis);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(all.eigenvectors.col_vector(j), basis[j]) << "column " << j;
  }
}

TEST(Lanczos, NonFiniteEntriesFailOnTheFirstIteration) {
  // Path-graph Laplacian on 600 vertices with one poisoned entry: the
  // first SpMV already carries the NaN/Inf into alpha, so the solver must
  // stop there rather than run a 600-step pass on garbage.
  const std::size_t n = 600;
  std::vector<std::size_t> row_ptr{0};
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    const double degree = (i > 0 ? 1.0 : 0.0) + (i + 1 < n ? 1.0 : 0.0);
    if (i > 0) {
      col_idx.push_back(i - 1);
      values.push_back(-1.0);
    }
    col_idx.push_back(i);
    values.push_back(degree);
    if (i + 1 < n) {
      col_idx.push_back(i + 1);
      values.push_back(-1.0);
    }
    row_ptr.push_back(values.size());
  }
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto poisoned = values;
    poisoned[poisoned.size() / 2] = bad;
    const CsrMatrix a(n, n, row_ptr, col_idx, poisoned);
    obs::Recorder recorder;
    {
      obs::RecorderScope scope(&recorder);
      try {
        (void)linalg::eigen_symmetric_smallest_sparse(a, 4);
        ADD_FAILURE() << "no throw for " << bad;
      } catch (const std::domain_error& e) {
        EXPECT_NE(std::string(e.what()).find("iteration 1"),
                  std::string::npos)
            << e.what();
      }
    }
    if (obs::kCompiledIn) {
      EXPECT_LE(
          recorder.metrics().counter("linalg.eigen_lanczos_iterations"), 1u)
          << bad;
    }
  }
}

// ---------------------------------------------------------------------------
// Thread-count bitwise determinism.
// ---------------------------------------------------------------------------

TEST(Lanczos, BitwiseStableAcrossThreads) {
  const auto l = rank_deficient_laplacian(128, 9);
  const auto csr = from_dense(l);
  linalg::SymmetricEigen serial;
  {
    core::ThreadCountScope scope(1);
    serial = linalg::eigen_symmetric_smallest_sparse(csr, 6);
  }
  for (std::size_t threads : {2u, 4u, 8u}) {
    core::ThreadCountScope scope(threads);
    const auto eig = linalg::eigen_symmetric_smallest_sparse(csr, 6);
    EXPECT_EQ(eig.eigenvalues, serial.eigenvalues) << "threads=" << threads;
    EXPECT_EQ(eig.eigenvectors, serial.eigenvectors) << "threads=" << threads;
  }

  // Same matrix with its three zero modes pre-locked.
  const auto basis = residue_class_basis(128, 3);
  linalg::SymmetricEigen locked_serial;
  {
    core::ThreadCountScope scope(1);
    locked_serial = linalg::eigen_symmetric_smallest_sparse(csr, 6, basis);
  }
  for (std::size_t threads : {2u, 4u, 8u}) {
    core::ThreadCountScope scope(threads);
    const auto eig = linalg::eigen_symmetric_smallest_sparse(csr, 6, basis);
    EXPECT_EQ(eig.eigenvalues, locked_serial.eigenvalues)
        << "locked threads=" << threads;
    EXPECT_EQ(eig.eigenvectors, locked_serial.eigenvectors)
        << "locked threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: k-NN sparsified graph + Lanczos vs the dense path.
// ---------------------------------------------------------------------------

TEST(Lanczos, KnnGraphSeparatesHallsWithDiagnostics) {
  const auto trace = campus_trace(3, 9, 240, 77);
  std::vector<ts::ChannelId> ids;
  for (int i = 1; i <= 27; ++i) ids.push_back(i);

  clustering::SimilarityOptions knn;
  knn.sparsification = clustering::GraphSparsification::kKnn;
  knn.knn_k = 4;
  const auto graph = clustering::build_similarity_graph(trace, ids, knn);

  // Halls are far better correlated internally than across: the k-NN
  // graph keeps only within-hall edges, one component per hall.
  EXPECT_EQ(support::component_count(graph.weights), 3u);
  // Symmetrized union of per-vertex top-4: between 9*4/2 and 9*4 edges
  // per hall.
  EXPECT_GE(support::edge_count(graph.weights), 3u * 18u);
  EXPECT_LE(support::edge_count(graph.weights), 3u * 36u);
  for (std::size_t i = 0; i < 27; ++i) {
    for (std::size_t j = 0; j < 27; ++j) {
      if (i / 9 != j / 9) {
        EXPECT_EQ(graph.weights(i, j), 0.0)
            << "cross-hall edge " << i << "," << j;
      }
    }
  }
}

TEST(Lanczos, KnnSparsifiedLabelsMatchDensePath) {
  const auto trace = campus_trace(3, 9, 240, 78);
  std::vector<ts::ChannelId> ids;
  for (int i = 1; i <= 27; ++i) ids.push_back(i);

  // Dense path: the paper's epsilon/quantile graph + Jacobi reference.
  const clustering::SpectralOptions options;
  const auto dense_graph = clustering::build_similarity_graph(trace, ids);
  const auto dense_result = clustering::spectral_cluster(
      dense_graph, jacobi_analysis(dense_graph.weights), options);

  // Sparse path: k-NN graph + Lanczos partial spectrum.
  clustering::SimilarityOptions knn;
  knn.sparsification = clustering::GraphSparsification::kKnn;
  knn.knn_k = 4;
  const auto knn_graph = clustering::build_similarity_graph(trace, ids, knn);
  const auto sparse_result = clustering::spectral_cluster(
      knn_graph,
      lanczos_analysis(knn_graph.weights,
                       clustering::needed_eigenpairs(options, ids.size())),
      options);

  // Both discover the three halls and agree label-for-label (as
  // partitions; cluster numbering is canonicalized).
  EXPECT_EQ(dense_result.cluster_count, 3u);
  EXPECT_EQ(sparse_result.cluster_count, 3u);
  EXPECT_EQ(canonical_labels(sparse_result.labels),
            canonical_labels(dense_result.labels));
}

TEST(Lanczos, SparseSolverMatchesDenseOnSameKnnGraph) {
  // Same k-NN graph through both eigensolvers: labels must be identical,
  // isolating the solver swap from the graph change.
  const auto trace = campus_trace(4, 7, 240, 79);
  std::vector<ts::ChannelId> ids;
  for (int i = 1; i <= 28; ++i) ids.push_back(i);
  clustering::SimilarityOptions knn;
  knn.sparsification = clustering::GraphSparsification::kKnn;
  knn.knn_k = 3;
  const auto graph = clustering::build_similarity_graph(trace, ids, knn);

  const clustering::SpectralOptions options;
  const auto jacobi = clustering::spectral_cluster(
      graph, jacobi_analysis(graph.weights), options);
  const auto lanczos = clustering::spectral_cluster(
      graph,
      lanczos_analysis(graph.weights,
                       clustering::needed_eigenpairs(options, ids.size())),
      options);

  EXPECT_EQ(jacobi.cluster_count, 4u);
  EXPECT_EQ(lanczos.cluster_count, jacobi.cluster_count);
  EXPECT_EQ(canonical_labels(lanczos.labels), canonical_labels(jacobi.labels));
}

// ---------------------------------------------------------------------------
// analyze_spectrum's sparse branch: the Laplacian's null basis is locked
// from the graph's components instead of rediscovered one pass at a time.
// ---------------------------------------------------------------------------

TEST(Lanczos, AnalyzeSpectrumLocksTheNullBasisOnKnnGraphs) {
  struct Case {
    std::size_t halls;
    std::size_t per_hall;
    bool isolate;  // cut vertex 0's edges: one more (edgeless) component
  };
  const Case cases[] = {{1, 512, false}, {2, 256, false}, {3, 176, false},
                        {4, 136, false}, {5, 112, false}, {6, 96, false},
                        {3, 200, true}};
  for (const Case& c : cases) {
    auto graph = knn_campus_graph(c.halls, c.per_hall, 500 + c.halls);
    ASSERT_EQ(support::component_count(graph.weights), c.halls)
        << "halls=" << c.halls;
    const std::size_t n = graph.channels.size();
    std::size_t components = c.halls;
    if (c.isolate) {
      for (std::size_t j = 0; j < n; ++j) {
        graph.weights(0, j) = 0.0;
        graph.weights(j, 0) = 0.0;
      }
      ++components;
    }
    for (const auto kind : {clustering::LaplacianKind::kUnnormalized,
                            clustering::LaplacianKind::kSymmetricNormalized}) {
      const bool normalized =
          kind == clustering::LaplacianKind::kSymmetricNormalized;
      // The normalized Laplacian gives an isolated vertex eigenvalue 1.
      const std::size_t null_size =
          normalized && c.isolate ? components - 1 : components;
      clustering::SpectralOptions options;
      options.laplacian = kind;
      const std::size_t m = clustering::needed_eigenpairs(options, n);
      const std::string context =
          std::string(normalized ? "normalized" : "unnormalized") +
          " halls=" + std::to_string(c.halls) + " n=" + std::to_string(n) +
          (c.isolate ? " +isolated" : "");

      obs::Recorder recorder;
      clustering::SpectralAnalysis got;
      {
        obs::RecorderScope scope(&recorder);
        got = clustering::analyze_spectrum(graph.weights, kind, m);
      }
      if (obs::kCompiledIn) {
        EXPECT_EQ(recorder.metrics().counter("linalg.eigen_lanczos_passes"),
                  m - null_size)
            << context;
        EXPECT_EQ(
            recorder.metrics().counter("linalg.eigen_lanczos_locked_pairs"),
            null_size)
            << context;
      }

      const Matrix l = normalized
                           ? clustering::normalized_laplacian(graph.weights)
                           : clustering::laplacian(graph.weights);
      const auto ref = linalg::eigen_symmetric_smallest(l, m);
      expect_matches_dense(l, ref, {got.eigenvalues, got.eigenvectors}, m,
                           context);

      // One cluster per null vector: the sparse spectrum partitions the
      // graph into its halls...
      options.cluster_count = null_size;
      const auto sparse_labels =
          clustering::spectral_cluster(graph, got, options).labels;
      std::vector<std::size_t> halls(n);
      for (std::size_t i = 0; i < n; ++i) halls[i] = i / c.per_hall;
      if (normalized && c.isolate) {
        // ...except the isolated vertex, whose embedding row is exactly
        // zero in the locked basis but rounding noise in the dense one —
        // noise that row normalization inflates to a unit vector, which
        // can seed a k-means cluster of its own. Only the sparse labels
        // are pinned here, with the isolated vertex left out.
        EXPECT_EQ(canonical_labels({sparse_labels.begin() + 1,
                                    sparse_labels.end()}),
                  canonical_labels({halls.begin() + 1, halls.end()}))
            << context;
        continue;
      }
      if (c.isolate) halls[0] = c.halls;  // a cluster of its own
      EXPECT_EQ(canonical_labels(sparse_labels), canonical_labels(halls))
          << context;
      // ...exactly as the dense spectrum does.
      const auto dense_labels =
          clustering::spectral_cluster(
              graph, clustering::SpectralAnalysis{ref.eigenvalues,
                                                  ref.eigenvectors},
              options)
              .labels;
      EXPECT_EQ(canonical_labels(sparse_labels), canonical_labels(dense_labels))
          << context;
    }
  }
}

TEST(Lanczos, ExportsLockedPairsAndResidualHealth) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const auto graph = knn_campus_graph(4, 128, 404);
  ASSERT_EQ(support::component_count(graph.weights), 4u);
  const std::size_t m = 9;
  obs::Recorder recorder;
  {
    obs::RecorderScope scope(&recorder);
    (void)clustering::analyze_spectrum(
        graph.weights, clustering::LaplacianKind::kSymmetricNormalized, m);
  }
  const auto& metrics = recorder.metrics();
  EXPECT_EQ(metrics.counter("linalg.eigen_lanczos_locked_pairs"), 4u);
  EXPECT_EQ(metrics.counter("linalg.eigen_lanczos_passes"), m - 4);
  const auto snap = metrics.snapshot();
  const auto* residual = find_histogram(snap, "linalg.eigen_lanczos_residual");
  ASSERT_NE(residual, nullptr);
  EXPECT_EQ(residual->count, m);  // one observation per returned pair
  EXPECT_LE(residual->max, 1e-10);
}

TEST(Lanczos, AnalyzeSpectrumLocksNothingForNegativeWeights) {
  // Component indicators are null vectors only of a non-negative graph;
  // a negative weight takes the plain deflated passes.
  const auto graph = knn_campus_graph(4, 128, 405);
  ASSERT_EQ(support::component_count(graph.weights), 4u);
  std::size_t i = 1;
  while (graph.weights(0, i) == 0.0) ++i;
  auto w = graph.weights;
  w(0, i) = w(i, 0) = -0.5;
  const std::size_t m = 6;
  for (const auto kind : {clustering::LaplacianKind::kUnnormalized,
                          clustering::LaplacianKind::kSymmetricNormalized}) {
    const bool normalized =
        kind == clustering::LaplacianKind::kSymmetricNormalized;
    const std::string context = normalized ? "normalized" : "unnormalized";
    obs::Recorder recorder;
    clustering::SpectralAnalysis got;
    {
      obs::RecorderScope scope(&recorder);
      got = clustering::analyze_spectrum(w, kind, m);
    }
    if (obs::kCompiledIn) {
      EXPECT_EQ(recorder.metrics().counter("linalg.eigen_lanczos_locked_pairs"),
                0u)
          << context;
      EXPECT_EQ(recorder.metrics().counter("linalg.eigen_lanczos_passes"), m)
          << context;
    }
    const Matrix l = normalized ? clustering::normalized_laplacian(w)
                                : clustering::laplacian(w);
    expect_matches_dense(l, linalg::eigen_symmetric_smallest(l, m),
                         {got.eigenvalues, got.eigenvectors}, m, context);
  }
}
