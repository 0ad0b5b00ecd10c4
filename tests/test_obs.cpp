// Observability subsystem tests: the metrics registry, tracing spans, the
// JSON/summary exporters, and the tentpole guarantee — instrumentation
// never perturbs the pipeline's results (obs-enabled runs are bitwise
// identical to obs-disabled runs at any thread count).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "auditherm/auditherm.hpp"

namespace {

using namespace auditherm;

/// A scratch file path private to this test process: ctest runs each test
/// as its own process, in parallel, so a fixed name would be shared.
std::string scratch_path(const std::string& stem, const std::string& ext) {
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid()) + ext;
}

// --- Registry ------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  obs::MetricsRegistry registry;
  const auto c = obs::counter_id("test.counter");
  const auto g = obs::gauge_id("test.gauge");
  const auto h = obs::histogram_id("test.histogram");

  registry.add(c);
  registry.add(c, 41);
  registry.set(g, 2.5);
  registry.set(g, 4.0);  // last write wins
  registry.observe(h, 1.0);
  registry.observe(h, 3.0);
  registry.observe(h, 1000.0);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "test.counter");
  EXPECT_EQ(snap.counters[0].second, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 4.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 3u);
  EXPECT_EQ(snap.histograms[0].sum, 1004.0);
  EXPECT_EQ(snap.histograms[0].max, 1000.0);

  EXPECT_EQ(registry.counter("test.counter"), 42u);
  EXPECT_EQ(registry.counter("never.recorded"), 0u);
}

TEST(MetricsRegistry, HistogramBucketLayout) {
  using L = obs::HistogramLayout;
  EXPECT_EQ(L::bucket_of(0.0), 0u);
  EXPECT_EQ(L::bucket_of(-5.0), 0u);
  EXPECT_EQ(L::bucket_of(1.0), 0u);
  EXPECT_EQ(L::bucket_of(2.0), 1u);
  EXPECT_EQ(L::bucket_of(3.0), 2u);
  EXPECT_EQ(L::bucket_of(4.0), 2u);
  EXPECT_EQ(L::bucket_of(1e18), L::kBucketCount - 1);  // overflow bucket
  EXPECT_EQ(L::upper_bound(0), 1.0);
  EXPECT_EQ(L::upper_bound(3), 8.0);
}

TEST(MetricsRegistry, InternRejectsKindMismatch) {
  (void)obs::counter_id("test.kind_mismatch");
  EXPECT_THROW((void)obs::gauge_id("test.kind_mismatch"),
               std::invalid_argument);
  // Idempotent for the same kind.
  const auto a = obs::counter_id("test.kind_mismatch");
  const auto b = obs::counter_id("test.kind_mismatch");
  EXPECT_EQ(a.index(), b.index());
}

TEST(MetricsRegistry, ConcurrentShardsMergeToExactTotals) {
  obs::MetricsRegistry registry;
  const auto c = obs::counter_id("test.concurrent_counter");
  const auto h = obs::histogram_id("test.concurrent_hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.add(c);
        registry.observe(h, 3.0);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto snap = registry.snapshot();
  EXPECT_EQ(registry.counter("test.concurrent_counter"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto hist = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& s) { return s.name == "test.concurrent_hist"; });
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Integer bucket counts are exact; the double sum is 3.0 * count exactly
  // (powers of two times 3 accumulate without rounding at this scale).
  EXPECT_EQ(hist->sum, 3.0 * kThreads * kPerThread);
}

// --- Recorder / spans ----------------------------------------------------

TEST(TraceSpan, NoRecorderMeansNoSpans) {
  ASSERT_EQ(obs::current(), nullptr);
  { obs::TraceSpan span("orphan"); }
  obs::Recorder recorder;
  EXPECT_TRUE(recorder.spans().empty());
}

TEST(TraceSpan, NestedSpansFormATree) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Recorder recorder;
  {
    obs::RecorderScope scope(&recorder);
    obs::TraceSpan outer("outer");
    {
      obs::TraceSpan inner("inner");
      obs::TraceSpan innermost("innermost");
    }
    obs::TraceSpan sibling("sibling");
  }
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Ordered by id == construction order.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "innermost");
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[3].parent, spans[0].id);
}

TEST(TraceSpan, RecorderScopeIsNoOpWhenAlreadyCurrent) {
  obs::Recorder recorder;
  obs::RecorderScope outer(&recorder);
  EXPECT_EQ(obs::current(), &recorder);
  {
    obs::RecorderScope inner(&recorder);  // no-op, must not clear on exit
    EXPECT_EQ(obs::current(), &recorder);
  }
  EXPECT_EQ(obs::current(), &recorder);
}

// --- Pipeline integration ------------------------------------------------

/// Fixed 8-day dataset shared by the integration tests below.
const sim::AuditoriumDataset& dataset() {
  static const sim::AuditoriumDataset ds = [] {
    sim::DatasetConfig config;
    config.days = 8;
    config.failure_days = 0;
    return sim::generate_dataset(config);
  }();
  return ds;
}

core::DataSplit split() {
  auto required = dataset().sensor_ids();
  const auto inputs = dataset().input_ids();
  required.insert(required.end(), inputs.begin(), inputs.end());
  return core::split_dataset(dataset().trace, required, dataset().schedule,
                             hvac::Mode::kOccupied);
}

core::PipelineResult run_with_options(std::size_t threads,
                                      const core::RunOptions& options) {
  const core::ThreadCountScope scope(threads);
  const core::ThermalModelingPipeline pipeline(core::PipelineConfig{});
  return pipeline.run(dataset().trace, dataset().schedule, split(),
                      dataset().wireless_ids(), dataset().input_ids(),
                      options);
}

void expect_bitwise_equal(const core::PipelineResult& a,
                          const core::PipelineResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
  EXPECT_EQ(a.clustering.eigenvalues, b.clustering.eigenvalues);
  EXPECT_EQ(a.selection.per_cluster, b.selection.per_cluster);
  EXPECT_EQ(a.reduced_model.a(), b.reduced_model.a());
  EXPECT_EQ(a.reduced_model.a2(), b.reduced_model.a2());
  EXPECT_EQ(a.reduced_model.b(), b.reduced_model.b());
  EXPECT_EQ(a.reduced_eval.pooled_rms, b.reduced_eval.pooled_rms);
  EXPECT_EQ(a.cluster_mean_errors.per_cluster_abs,
            b.cluster_mean_errors.per_cluster_abs);
}

TEST(ObsPipeline, SingleThreadSpanTreeIsExact) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Recorder recorder;
  const obs::RecorderScope scope(&recorder);
  (void)run_with_options(/*threads=*/1, core::RunOptions{});

  const auto spans = recorder.spans();
  std::vector<std::string> names;
  names.reserve(spans.size());
  for (const auto& s : spans) names.push_back(s.name);

  // At one thread nothing runs on the pool, so the span log is the exact
  // serial execution order of the instrumented regions.
  const std::vector<std::string> expected = {
      "pipeline.run",
      "pipeline.prepare",
      "stage.training_view",
      "stage.similarity_graph",
      "stage.spectrum",
      "linalg.eigen_symmetric_smallest",
      "stage.clustering",
      "stage.cluster_sets",
      "stage.cluster_means",
      "stage.evaluation_windows",
      "pipeline.select",
      "pipeline.identify",
      "sysid.fit",
      "pipeline.evaluate",
  };
  EXPECT_EQ(names, expected);

  // Parent links: prepare/select/identify/evaluate under run, stages
  // under prepare, kernels under their stage.
  std::map<std::string, std::uint64_t> id_of;
  for (const auto& s : spans) id_of[s.name] = s.id;
  std::map<std::string, std::uint64_t> parent_of;
  for (const auto& s : spans) parent_of[s.name] = s.parent;
  EXPECT_EQ(parent_of["pipeline.run"], 0u);
  EXPECT_EQ(parent_of["pipeline.prepare"], id_of["pipeline.run"]);
  EXPECT_EQ(parent_of["stage.spectrum"], id_of["pipeline.prepare"]);
  EXPECT_EQ(parent_of["linalg.eigen_symmetric_smallest"],
            id_of["stage.spectrum"]);
  EXPECT_EQ(parent_of["pipeline.select"], id_of["pipeline.run"]);
  EXPECT_EQ(parent_of["sysid.fit"], id_of["pipeline.identify"]);
  EXPECT_EQ(parent_of["pipeline.evaluate"], id_of["pipeline.run"]);

  // Exact counters for one uncached run.
  const auto& metrics = recorder.metrics();
  EXPECT_EQ(metrics.counter("pipeline.runs"), 1u);
  EXPECT_EQ(metrics.counter("pipeline.prepares"), 1u);
  EXPECT_EQ(metrics.counter("linalg.eigen_calls"), 1u);
  EXPECT_EQ(metrics.counter("linalg.eigen_partial_calls"), 1u);
  EXPECT_GT(metrics.counter("sysid.fit_transitions"), 0u);
  EXPECT_GT(metrics.counter("parallel.tasks"), 0u);
  // Serial run: no pooled batches, every task on the caller... and the
  // caller-side task counters only tick on the pooled path.
  EXPECT_EQ(metrics.counter("parallel.pooled_batches"), 0u);
  EXPECT_EQ(metrics.counter("parallel.helper_joins"), 0u);
}

TEST(ObsPipeline, CacheCountersMirrorIntoRunRecorder) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Recorder recorder;
  const obs::RecorderScope scope(&recorder);
  core::StageCache cache;
  core::RunOptions options;
  options.cache = &cache;
  (void)run_with_options(1, options);
  (void)run_with_options(1, options);

  const auto& metrics = recorder.metrics();
  const std::string spectrum(core::stage::kSpectrum);
  EXPECT_EQ(metrics.counter("stage_cache.miss." + spectrum), 1u);
  EXPECT_EQ(metrics.counter("stage_cache.hit." + spectrum), 1u);
  EXPECT_EQ(cache.stats(core::stage::kSpectrum).misses, 1u);
  EXPECT_EQ(cache.stats(core::stage::kSpectrum).hits, 1u);
  // The second eigendecomposition never ran: the cache hit skipped it.
  EXPECT_EQ(metrics.counter("linalg.eigen_calls"), 1u);
}

TEST(ObsSpectrum, KnnSpectrumIsOneEigenCallWithNoTridiagonalSpans) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  // 512 sensors in 4 halls, each hall following its own sinusoid: the
  // k-NN graph has 512 vertices, so its spectrum takes the Lanczos path.
  const std::size_t halls = 4;
  const std::size_t per_hall = 128;
  const std::size_t samples = 240;
  std::vector<timeseries::ChannelId> ids;
  for (std::size_t i = 0; i < halls * per_hall; ++i) {
    ids.push_back(static_cast<timeseries::ChannelId>(i + 1));
  }
  timeseries::MultiTrace trace(timeseries::TimeGrid(0, 60, samples), ids);
  std::mt19937_64 rng(512);
  std::normal_distribution<double> noise(0.0, 0.05);
  for (std::size_t c = 0; c < ids.size(); ++c) {
    const double w = 0.15 + 0.17 * static_cast<double>(c / per_hall);
    for (std::size_t k = 0; k < samples; ++k) {
      trace.set(k, c, 21.0 + std::sin(w * static_cast<double>(k)) + noise(rng));
    }
  }
  clustering::SimilarityOptions knn;
  knn.sparsification = clustering::GraphSparsification::kKnn;
  const auto graph = clustering::build_similarity_graph(trace, ids, knn);
  ASSERT_EQ(graph.weights.rows(), linalg::kEigenSparseThreshold);

  obs::Recorder recorder;
  {
    obs::RecorderScope scope(&recorder);
    (void)clustering::analyze_spectrum(
        graph.weights, clustering::LaplacianKind::kSymmetricNormalized, 9);
  }
  // One eigenproblem, one eigen call: the Lanczos convergence checks run
  // on the tridiagonal kernel, which records nothing of its own.
  EXPECT_EQ(recorder.metrics().counter("linalg.eigen_calls"), 1u);
  EXPECT_EQ(recorder.metrics().counter("linalg.eigen_lanczos_calls"), 1u);
  std::size_t lanczos_spans = 0;
  for (const auto& span : recorder.spans()) {
    EXPECT_NE(span.name, "linalg.eigen_symmetric_smallest");
    if (span.name == "linalg.eigen_lanczos") ++lanczos_spans;
  }
  EXPECT_EQ(lanczos_spans, 1u);
}

/// Counter names whose values legitimately depend on the thread count
/// (work stealing balance, pool participation); everything else must be
/// identical at any thread count.
bool thread_dependent(const std::string& name) {
  return name == "parallel.pooled_batches" || name == "parallel.tasks_caller" ||
         name == "parallel.tasks_helper" || name == "parallel.helper_joins";
}

std::map<std::string, std::uint64_t> deterministic_counters(
    const obs::Recorder& recorder) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : recorder.metrics().snapshot().counters) {
    if (!thread_dependent(name)) out[name] = value;
  }
  return out;
}

TEST(ObsPipeline, MultiThreadSweepSpansAreAWellFormedTree) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const std::vector<core::SweepCase> cases{
      {core::SelectionStrategy::kStratifiedNearMean, 7},
      {core::SelectionStrategy::kStratifiedRandom, 1},
      {core::SelectionStrategy::kSimpleRandom, 1},
  };
  const auto sweep_at = [&](std::size_t threads, obs::Recorder& recorder) {
    const core::ThreadCountScope thread_scope(threads);
    const obs::RecorderScope scope(&recorder);
    return core::run_strategy_sweep(core::PipelineConfig{}, cases,
                                    dataset().trace,
                                    dataset().schedule, split(),
                                    dataset().wireless_ids(),
                                    dataset().input_ids(), core::RunOptions{});
  };

  obs::Recorder serial_rec;
  const auto serial = sweep_at(1, serial_rec);
  obs::Recorder pooled_rec;
  const auto pooled = sweep_at(4, pooled_rec);

  // Same results (the standing determinism guarantee)...
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_bitwise_equal(serial[i], pooled[i],
                         "case " + std::to_string(i));
  }
  // ...and the same deterministic counters: batch/task decomposition,
  // stage cache traffic, kernel invocations are thread-count independent.
  EXPECT_EQ(deterministic_counters(serial_rec),
            deterministic_counters(pooled_rec));

  // Structural span checks (exact interleaving varies across threads):
  // ids unique and ascending, every parent precedes its child, and the
  // big phases all show up.
  const auto spans = pooled_rec.spans();
  std::set<std::uint64_t> seen;
  std::size_t case_spans = 0;
  for (const auto& s : spans) {
    EXPECT_TRUE(seen.insert(s.id).second);
    if (s.parent != 0) {
      EXPECT_LT(s.parent, s.id);
      EXPECT_TRUE(seen.count(s.parent)) << s.name;
    }
    if (s.name == "sweep.case") ++case_spans;
  }
  EXPECT_EQ(case_spans, cases.size());
  const auto has = [&](std::string_view name) {
    return std::any_of(spans.begin(), spans.end(),
                       [&](const auto& s) { return s.name == name; });
  };
  EXPECT_TRUE(has("pipeline.sweep"));
  EXPECT_TRUE(has("pipeline.prepare"));
  EXPECT_TRUE(has("parallel.batch"));
  EXPECT_TRUE(has("sysid.fit"));
}

TEST(ObsPipeline, InstrumentedRunIsBitwiseIdenticalToUninstrumented) {
  // The acceptance pin: observability only observes. With a recorder
  // installed vs none at all, at 1 and 4 threads, every float of the
  // result is identical.
  core::RunOptions plain;
  const auto reference = run_with_options(1, plain);
  for (std::size_t threads : {1u, 4u}) {
    obs::Recorder recorder;
    core::PipelineResult instrumented;
    {
      const obs::RecorderScope scope(&recorder);
      instrumented = run_with_options(threads, plain);
    }
    expect_bitwise_equal(reference, instrumented,
                         "obs-enabled threads=" + std::to_string(threads));
    expect_bitwise_equal(reference, run_with_options(threads, plain),
                         "obs-disabled threads=" + std::to_string(threads));
    if (obs::kCompiledIn) {
      EXPECT_FALSE(recorder.spans().empty());
    }
  }
}

// --- Exporters -----------------------------------------------------------

/// Minimal JSON scanner for the exporter tests: enough to check
/// structural well-formedness (balanced, quoted) without a JSON library.
void expect_balanced_json(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ObsExport, JsonCarriesSchemaCountersAndSpans) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Recorder recorder;
  {
    obs::RecorderScope scope(&recorder);
    obs::TraceSpan span("export.test_span");
    recorder.metrics().add_counter("export.test_counter", 7);
    recorder.metrics().set(obs::gauge_id("export.test_gauge"), 2.5);
    recorder.metrics().observe(obs::histogram_id("export.test_hist"), 3.0);
  }
  const auto json = obs::to_json(recorder);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"schema\": \"auditherm.metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"export.test_counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"export.test_gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"export.test_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"export.test_span\""), std::string::npos);
}

TEST(ObsExport, JsonFileRoundTrip) {
  obs::Recorder recorder;
  recorder.metrics().add_counter("export.file_counter", 3);
  const std::string path = scratch_path("obs_export_test", ".json");
  ASSERT_TRUE(obs::write_json_file(path, recorder));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), obs::to_json(recorder));
  std::remove(path.c_str());

  EXPECT_FALSE(obs::write_json_file("/nonexistent-dir/x.json", recorder));
}

TEST(ObsExport, SummaryListsSpansAndCounters) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Recorder recorder;
  {
    obs::RecorderScope scope(&recorder);
    obs::TraceSpan outer("summary.outer");
    obs::TraceSpan inner("summary.inner");
    recorder.metrics().add_counter("summary.counter", 5);
  }
  const std::string path = scratch_path("obs_summary_test", ".txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  obs::write_summary(f, recorder);
  std::fclose(f);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::remove(path.c_str());
  EXPECT_NE(text.find("summary.outer"), std::string::npos);
  EXPECT_NE(text.find("summary.inner"), std::string::npos);
  EXPECT_NE(text.find("summary.counter"), std::string::npos);
}

}  // namespace
