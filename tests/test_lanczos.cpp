// Property tests for the sparse Lanczos partial eigensolver: across four
// seeded matrix families (random SPD, near-diagonal, clustered spectra,
// rank-deficient graph Laplacians) the m smallest eigenpairs must agree
// with the dense eigen_symmetric_smallest reference to 1e-8, with
// orthonormal sign-pinned eigenvectors, bitwise thread-count invariance,
// and — end to end — identical cluster labels through the k-NN-sparsified
// spectral pipeline on well-separated synthetic halls.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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
#include "auditherm/timeseries/multi_trace.hpp"

namespace core = auditherm::core;
namespace linalg = auditherm::linalg;
namespace clustering = auditherm::clustering;
namespace ts = auditherm::timeseries;
using linalg::CsrMatrix;
using linalg::Matrix;
using linalg::Vector;

namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = dist(rng);
  return m;
}

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  const auto a = random_matrix(n + 2, n, seed);
  auto spd = linalg::gram(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.25;
  return spd;
}

Matrix near_diagonal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> diag(1.0, 10.0);
  std::normal_distribution<double> off(0.0, 1e-3);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = diag(rng);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = off(rng);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

/// Q D Q^T with triples of equal eigenvalues: degenerate-subspace stress.
Matrix clustered_spectrum(std::size_t n, std::uint64_t seed) {
  const linalg::QrDecomposition qr(random_matrix(n, n, seed));
  const auto q = qr.thin_q();
  Vector d(n);
  for (std::size_t i = 0; i < n; ++i)
    d[i] = 1.0 + static_cast<double>(i / 3);
  Matrix qd = q;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) qd(i, j) *= d[j];
  auto a = linalg::outer_product(qd, q);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double s = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = s;
      a(j, i) = s;
    }
  return a;
}

/// Unnormalized Laplacian of a graph with 2-3 disconnected blocks: the
/// zero eigenvalue repeats once per component, which only the
/// deflated-restart path of the Lanczos solver can reproduce.
Matrix rank_deficient_laplacian(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t blocks = 2 + seed % 2;
  Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (i % blocks != j % blocks) continue;
      const double v = 0.1 + unit(rng);
      w(i, j) = v;
      w(j, i) = v;
    }
  }
  return clustering::laplacian(w);
}

Matrix family_matrix(std::size_t family, std::size_t n, std::uint64_t seed) {
  switch (family) {
    case 0: return random_spd(n, seed);
    case 1: return near_diagonal(n, seed);
    case 2: return clustered_spectrum(n, seed);
    default: return rank_deficient_laplacian(n, seed);
  }
}

const char* family_name(std::size_t family) {
  switch (family) {
    case 0: return "spd";
    case 1: return "near_diagonal";
    case 2: return "clustered";
    default: return "laplacian";
  }
}

double spectrum_scale(const Vector& eigenvalues) {
  double scale = 1.0;
  for (const double v : eigenvalues) scale = std::max(scale, std::abs(v));
  return scale;
}

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
    const Vector lv = linalg::scale(got.eigenvalues[j], v);
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
  auto eig = linalg::eigen_symmetric(clustering::normalized_laplacian(weights));
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
        linalg::eigen_symmetric_smallest_sparse(CsrMatrix::from_dense(a), m);
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
      linalg::eigen_symmetric_smallest_sparse(CsrMatrix::from_dense(a), 10);
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
      linalg::eigen_symmetric_smallest_sparse(CsrMatrix::from_dense(l), 6);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(got.eigenvalues[j], 0.0, 1e-9) << "zero mode " << j;
  }
  EXPECT_GT(got.eigenvalues[4], 0.5);  // spectral gap after the zero modes
}

TEST(Lanczos, Validation) {
  const auto a = CsrMatrix::from_dense(random_spd(6, 11));
  EXPECT_THROW((void)linalg::eigen_symmetric_smallest_sparse(
                   CsrMatrix::from_dense(Matrix(2, 3)), 1),
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
      linalg::eigen_symmetric_smallest_sparse(CsrMatrix::from_dense(one), 1);
  ASSERT_EQ(got.eigenvalues.size(), 1u);
  EXPECT_DOUBLE_EQ(got.eigenvalues[0], 4.0);
  EXPECT_DOUBLE_EQ(got.eigenvectors(0, 0), 1.0);
}

// ---------------------------------------------------------------------------
// Thread-count bitwise determinism.
// ---------------------------------------------------------------------------

TEST(Lanczos, BitwiseStableAcrossThreads) {
  const auto l = rank_deficient_laplacian(128, 9);
  const auto csr = CsrMatrix::from_dense(l);
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
  EXPECT_EQ(graph.component_count, 3u);
  // Symmetrized union of per-vertex top-4: between 9*4/2 and 9*4 edges
  // per hall.
  EXPECT_GE(graph.edge_count, 3u * 18u);
  EXPECT_LE(graph.edge_count, 3u * 36u);
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
