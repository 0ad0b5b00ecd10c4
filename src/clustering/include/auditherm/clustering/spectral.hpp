#pragma once

/// \file spectral.hpp
/// Spectral clustering of sensors (Section V).
///
/// Pipeline: similarity graph -> unnormalized Laplacian L = D - W ->
/// eigendecomposition -> cluster count from the largest log-eigengap ->
/// k-means on the spectral embedding (rows of the first k eigenvectors).

#include <cstdint>
#include <vector>

#include "auditherm/clustering/kmeans.hpp"
#include "auditherm/clustering/similarity.hpp"
#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/linalg/matrix.hpp"
#include "auditherm/linalg/sparse.hpp"

namespace auditherm::clustering {

/// Which graph Laplacian drives the embedding.
///
/// The paper's text writes L = D - W (unnormalized); the tutorial it
/// builds on (von Luxburg 2007) recommends the normalized variant in
/// practice, and on densely connected sensor graphs the normalized cut is
/// what keeps single low-degree sensors from being split off as
/// singletons — so normalized is the default here.
enum class LaplacianKind {
  kUnnormalized,         ///< L = D - W (RatioCut relaxation)
  kSymmetricNormalized,  ///< L = I - D^{-1/2} W D^{-1/2} (NCut relaxation)
};

/// Unnormalized graph Laplacian L = D - W.
/// Throws std::invalid_argument when weights is not square.
[[nodiscard]] linalg::Matrix laplacian(const linalg::Matrix& weights);

/// Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}; isolated
/// vertices get an identity row (eigenvalue 1).
/// Throws std::invalid_argument when weights is not square.
[[nodiscard]] linalg::Matrix normalized_laplacian(
    const linalg::Matrix& weights);

/// CSR Laplacian of `weights` built directly from the (sparsified) dense
/// weight matrix, entry-for-entry bitwise identical to compressing the
/// dense laplacian()/normalized_laplacian() output — the same sums in the
/// same order, just skipping stored zeros. This is the operator the
/// Lanczos path consumes. Throws std::invalid_argument when weights is
/// not square.
[[nodiscard]] linalg::CsrMatrix laplacian_csr(const linalg::Matrix& weights,
                                              LaplacianKind kind);

/// The cluster counts the eigengap heuristic searches (Section V). k = 1
/// is no clustering at all; 8 keeps the search to a handful of thermal
/// zones, above the paper's two and the synthetic campuses' four, and
/// bounds the pairs a partial spectrum needs (needed_eigenpairs()).
inline constexpr std::size_t kEigengapMinK = 2;
inline constexpr std::size_t kEigengapMaxK = 8;

/// Eigenstructure of a Laplacian, with the paper's eigengap heuristic.
///
/// May hold the full spectrum (n pairs) or just the m smallest pairs from
/// the partial eigensolver; `eigenvectors` is then n x m with columns
/// pairing with `eigenvalues`. The eigengap heuristic only ever looks at
/// the small end of the spectrum, so it works unchanged on a partial
/// analysis as long as m > kEigengapMaxK.
struct SpectralAnalysis {
  linalg::Vector eigenvalues;  ///< ascending, >= 0 up to roundoff
  linalg::Matrix eigenvectors; ///< columns pair with eigenvalues

  /// Log-domain eigengaps: gap[i] = log lam_{i+1} - log lam_i (0-based,
  /// eigenvalues floored at a small epsilon to survive the zero mode).
  [[nodiscard]] linalg::Vector log_eigengaps() const;

  /// Cluster count chosen by the largest log-eigengap: k such that the
  /// gap between eigenvalue k-1 and k (0-based) is maximal, searched over
  /// k in [kEigengapMinK, kEigengapMaxK] (the top clamped to the gaps
  /// held). The paper's Fig. 6 reads the same rule off its middle column
  /// ("the number of clusters is decided by the largest eigengap").
  /// Returns 1 for fewer than two eigenvalues; throws
  /// std::invalid_argument when exactly two leave no k in range.
  [[nodiscard]] std::size_t eigengap_cluster_count() const;
};

/// ADL hook for the stage cache's byte accounting (core/stage_cache.hpp).
[[nodiscard]] inline std::size_t cache_footprint(
    const SpectralAnalysis& s) noexcept {
  return sizeof(SpectralAnalysis) +
         s.eigenvalues.capacity() * sizeof(double) +
         s.eigenvectors.data().capacity() * sizeof(double);
}

/// Eigendecomposition of the (chosen) Laplacian of `weights`.
///
/// The solver follows from the input alone. `max_pairs` bounds the
/// spectrum: 0 (or >= n) computes the full spectrum with the dense
/// partial solver asked for all n pairs; a positive value below n
/// computes only the `max_pairs` smallest eigenpairs — with the dense
/// partial solver below linalg::kEigenSparseThreshold vertices, and from
/// there up with sparse CSR Lanczos, which never forms the dense
/// Laplacian (pair it with
/// GraphSparsification::kKnn so the Laplacian is actually sparse). The
/// Lanczos path locks the Laplacian's null space up front, one vector per
/// connected component, when every weight is finite and non-negative.
/// `weights` must be symmetric, as SimilarityGraph::weights is.
[[nodiscard]] SpectralAnalysis analyze_spectrum(
    const linalg::Matrix& weights,
    LaplacianKind kind = LaplacianKind::kSymmetricNormalized,
    std::size_t max_pairs = 0);

/// Final output of spectral clustering.
struct ClusteringResult {
  std::vector<timeseries::ChannelId> channels;
  std::vector<std::size_t> labels;  ///< cluster index per channel
  std::size_t cluster_count = 0;
  linalg::Vector eigenvalues;       ///< Laplacian spectrum (for Fig. 6)

  /// Channel ids grouped per cluster (cluster index = position).
  /// Throws std::out_of_range when a label is >= cluster_count (a
  /// malformed result) rather than writing out of bounds.
  [[nodiscard]] std::vector<std::vector<timeseries::ChannelId>> clusters()
      const;

  /// Cluster index of a channel; throws std::invalid_argument when absent.
  [[nodiscard]] std::size_t cluster_of(timeseries::ChannelId id) const;
};

/// ADL hook for the stage cache's byte accounting (core/stage_cache.hpp).
[[nodiscard]] inline std::size_t cache_footprint(
    const ClusteringResult& c) noexcept {
  return sizeof(ClusteringResult) +
         c.channels.capacity() * sizeof(timeseries::ChannelId) +
         c.labels.capacity() * sizeof(std::size_t) +
         c.eigenvalues.capacity() * sizeof(double);
}

/// Spectral-clustering options.
struct SpectralOptions {
  /// Number of clusters; 0 = choose by the largest eigengap.
  std::size_t cluster_count = 0;
  LaplacianKind laplacian = LaplacianKind::kSymmetricNormalized;
  /// Normalize each embedding row to unit length before k-means (the
  /// Ng-Jordan-Weiss step). On densely connected similarity graphs —
  /// sensors in one room are all strongly correlated — this keeps a
  /// single low-degree outlier sensor from dominating the k-means
  /// objective and hiding the spatial partition.
  bool normalize_rows = true;
};

/// Number of smallest eigenpairs spectral clustering actually consumes
/// for an n-vertex graph under `options`: enough columns for the
/// embedding (cluster_count when fixed) and one past kEigengapMaxK so the
/// eigengap scan can see the gap at kEigengapMaxK; never more than n.
[[nodiscard]] std::size_t needed_eigenpairs(const SpectralOptions& options,
                                            std::size_t n);

/// Run spectral clustering on a similarity graph: analyze_spectrum() over
/// the needed_eigenpairs() smallest pairs, then the embedding. Throws
/// std::invalid_argument when cluster_count exceeds the vertex count.
[[nodiscard]] ClusteringResult spectral_cluster(
    const SimilarityGraph& graph, const SpectralOptions& options = {});

/// Spectral clustering from a precomputed Laplacian eigendecomposition
/// (the stage-cache split: the spectrum is the expensive operator, the
/// k-means embedding step is cheap and depends on k). `analysis` must come
/// from analyze_spectrum(graph.weights, options.laplacian, ...); partial
/// analyses are accepted as long as they carry at least the pairs the
/// chosen k needs. Results are bitwise identical to the one-shot overload.
/// Throws std::invalid_argument when cluster_count exceeds the vertex
/// count or the analysis dimensions don't match the graph.
[[nodiscard]] ClusteringResult spectral_cluster(
    const SimilarityGraph& graph, const SpectralAnalysis& analysis,
    const SpectralOptions& options = {});

}  // namespace auditherm::clustering
