// Performance microbenchmarks for the numeric kernels (google-benchmark):
// matrix products, the QR and Cholesky factorizations, least squares and
// the dense symmetric eigensolver at the sizes the pipeline actually uses
// (27 sensors -> 27-61 column regressions, 27x27 Laplacians) plus
// scaled-up 128/256/512 sizes. After the google benchmarks, main()
// runs a single-thread sparse-Lanczos-vs-dense-partial report on k-NN
// campus Laplacians and writes the BENCH_perf_linalg.json artifact (CI's
// perf-smoke gate). The Jacobi test oracle is checked in
// test_eigen_solvers, not timed here.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <vector>

#include "auditherm/clustering/spectral.hpp"
#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/linalg/least_squares.hpp"
#include "auditherm/linalg/sparse.hpp"
#include "auditherm/sim/floorplan.hpp"
#include "bench_common.hpp"

namespace linalg = auditherm::linalg;
using linalg::Matrix;

namespace {

/// Eigenpairs the pipeline asks the partial solver for on big halls: the
/// eigengap scan reads up to kEigengapMaxK = 8, so kEigengapMaxK + 1.
constexpr std::size_t kPartialPairs =
    auditherm::clustering::kEigengapMaxK + 1;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = dist(rng);
  return m;
}

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  const auto a = random_matrix(n + 4, n, seed);
  auto spd = linalg::gram(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

/// Dense Gaussian similarity over the grid geometry of a synthetic
/// `sensor_count`-sensor hall (thermostats excluded, zero diagonal).
Matrix hall_weights(std::size_t sensor_count) {
  const auto plan = auditherm::sim::FloorPlan::synthetic_grid(sensor_count);
  std::vector<auditherm::sim::Position> sites;
  for (const auto& s : plan.sensors()) {
    if (!s.is_thermostat) sites.push_back(s.position);
  }
  const std::size_t n = sites.size();
  constexpr double kSigma = 4.0;  // meters; a few grid pitches
  Matrix weights(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double d = auditherm::sim::distance(sites[i], sites[j]);
      weights(i, j) = std::exp(-(d * d) / (2.0 * kSigma * kSigma));
    }
  }
  return weights;
}

/// True when the first kPartialPairs eigenvalues agree to 1e-8 (normalized
/// Laplacian eigenvalues are O(1), so an absolute tolerance). Written as
/// !(diff <= tol) so a NaN on either side disagrees.
bool eigenvalues_agree(const linalg::SymmetricEigen& a,
                       const linalg::SymmetricEigen& b) {
  for (std::size_t j = 0; j < kPartialPairs; ++j) {
    if (!(std::abs(a.eigenvalues[j] - b.eigenvalues[j]) <= 1e-8)) {
      return false;
    }
  }
  return true;
}

void BM_MatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n, n, 1);
  const auto b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatrixMultiply)->Arg(8)->Arg(16)->Arg(27)->Arg(54)->Complexity();

void BM_Gram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(1000, n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::gram(a, a));
  }
}
BENCHMARK(BM_Gram)->Arg(16)->Arg(34)->Arg(61);

void BM_QrFactorize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(1000, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::QrDecomposition(a));
  }
}
BENCHMARK(BM_QrFactorize)->Arg(16)->Arg(34)->Arg(61);

void BM_CholeskySolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_spd(n, 5);
  const auto b = random_matrix(n, 27, 6);
  for (auto _ : state) {
    linalg::CholeskyDecomposition chol(a);
    benchmark::DoNotOptimize(chol.solve(b));
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(16)->Arg(34)->Arg(61);

void BM_EigenSmallest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_spd(n, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigen_symmetric_smallest(a, kPartialPairs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EigenSmallest)
    ->Arg(27)
    ->Arg(54)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Complexity();

void BM_LeastSquaresRidge(benchmark::State& state) {
  // The exact shape of the paper's second-order occupied-mode regression:
  // ~1800 transitions x 61 parameters, 27 outputs.
  const auto z = random_matrix(1800, 61, 10);
  const auto y = random_matrix(1800, 27, 11);
  linalg::LeastSquaresOptions opts;
  opts.ridge = 1e-7;
  opts.relative_ridge = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::solve_least_squares(z, y, opts));
  }
}
BENCHMARK(BM_LeastSquaresRidge);

/// Wall time of one call of `fn` in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Gaussian grid weights of a synthetic hall, k-NN sparsified (union of
/// each sensor's `k` strongest neighbors, symmetrized) — the graph shape
/// the clustering layer produces with GraphSparsification::kKnn on a
/// campus-scale deployment.
Matrix sparsified_hall_weights(std::size_t sensor_count, std::size_t k) {
  auto weights = hall_weights(sensor_count);
  const std::size_t n = weights.rows();
  // Union-symmetrized k-NN keep mask over the strongest weights.
  std::vector<char> keep(n * n, 0);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (weights(i, a) != weights(i, b)) return weights(i, a) > weights(i, b);
      return a < b;
    });
    std::size_t kept = 0;
    for (const std::size_t j : order) {
      if (j == i || weights(i, j) <= 0.0) continue;
      keep[i * n + j] = 1;
      keep[j * n + i] = 1;
      if (++kept == k) break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!keep[i * n + j]) weights(i, j) = 0.0;
    }
  }
  return weights;
}

/// Single-thread dense-partial vs sparse-Lanczos comparison on k-NN
/// sparsified campus-scale Laplacians (n = 1024, 2048). Both solvers see
/// the SAME matrix — dense as the compressed CSR's dense twin — so the
/// eigenvalue agreement check is exact apples-to-apples. Appends the
/// `sparse` section that CI's perf-smoke job gates on
/// (sparse_speedup_2048 > 1 and sparse_eigenvalues_agree).
bool run_sparse_report(bench::JsonObject& out) {
  bench::print_header(
      "sparse Lanczos vs dense partial on k-NN Laplacians (1 thread)");
  constexpr std::size_t kNeighbors = 12;

  std::vector<bench::JsonObject> points;
  double speedup_2048 = 0.0;
  bool all_agree = true;
  for (const std::size_t sensors : {std::size_t{1024}, std::size_t{2048}}) {
    const auto weights = sparsified_hall_weights(sensors, kNeighbors);
    const auto l = auditherm::clustering::normalized_laplacian(weights);
    const auto csr = auditherm::clustering::laplacian_csr(
        weights, auditherm::clustering::LaplacianKind::kSymmetricNormalized);

    linalg::SymmetricEigen dense;
    const double dense_ms = time_ms(
        [&] { dense = linalg::eigen_symmetric_smallest(l, kPartialPairs); });
    linalg::SymmetricEigen sparse;
    const double sparse_ms = time_ms([&] {
      sparse = linalg::eigen_symmetric_smallest_sparse(csr, kPartialPairs);
    });
    const bool agree = eigenvalues_agree(sparse, dense);
    all_agree = all_agree && agree;

    const double speedup = sparse_ms > 0.0 ? dense_ms / sparse_ms : 0.0;
    if (sensors == 2048) speedup_2048 = speedup;
    std::printf(
        "n=%4zu  nnz=%6zu  dense partial %9.2f ms  sparse lanczos %8.2f ms  "
        "speedup %6.1fx  eigenvalues %s\n",
        l.rows(), csr.nnz(), dense_ms, sparse_ms, speedup,
        agree ? "agree" : "DISAGREE");

    points.push_back(bench::JsonObject()
                         .add("n", l.rows())
                         .add("nnz", csr.nnz())
                         .add("knn_k", kNeighbors)
                         .add("dense_partial_ms", dense_ms)
                         .add("sparse_lanczos_ms", sparse_ms)
                         .add("speedup_sparse_vs_dense", speedup)
                         .add("eigenvalues_agree", agree));
  }

  out.add("sparse_speedup_2048", speedup_2048);
  out.add("sparse_eigenvalues_agree", all_agree);
  out.add("sparse", points);
  return all_agree && speedup_2048 > 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsSession obs_session;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const auditherm::core::ThreadCountScope single_thread(1);
  auto json = bench::artifact("perf_linalg", 1);
  const bool sparse_ok = run_sparse_report(json);
  if (!bench::write_artifact(json, "BENCH_perf_linalg.json")) return 1;
  return sparse_ok ? 0 : 1;
}
