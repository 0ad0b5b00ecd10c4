// Tests for the content-keyed stage cache: build-once semantics, key
// chaining, concurrency, and the sweep contract — cached sweep results
// are bitwise identical to standalone per-case run() at any thread count
// while the Step-1 stages compute exactly once per unique key.

#include "auditherm/core/stage_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "auditherm/core/parallel.hpp"
#include "auditherm/core/pipeline.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/sim/dataset.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace core = auditherm::core;
namespace obs = auditherm::obs;
namespace sim = auditherm::sim;
namespace hvac = auditherm::hvac;
namespace timeseries = auditherm::timeseries;

namespace {

/// Shared small dataset (generation costs a few hundred ms).
const sim::AuditoriumDataset& dataset() {
  static const sim::AuditoriumDataset ds = [] {
    sim::DatasetConfig config;
    config.days = 28;
    config.failure_days = 4;
    return sim::generate_dataset(config);
  }();
  return ds;
}

const core::DataSplit& split() {
  static const core::DataSplit s = [] {
    auto required = dataset().sensor_ids();
    const auto inputs = dataset().input_ids();
    required.insert(required.end(), inputs.begin(), inputs.end());
    return core::split_dataset(dataset().trace, required, dataset().schedule,
                               hvac::Mode::kOccupied);
  }();
  return s;
}

/// Full-strength bitwise comparison of pipeline results.
void expect_bitwise_equal(const core::PipelineResult& a,
                          const core::PipelineResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
  EXPECT_EQ(a.clustering.cluster_count, b.clustering.cluster_count);
  EXPECT_EQ(a.clustering.eigenvalues, b.clustering.eigenvalues);
  EXPECT_EQ(a.selection.per_cluster, b.selection.per_cluster);
  EXPECT_EQ(a.reduced_model.a(), b.reduced_model.a());
  EXPECT_EQ(a.reduced_model.a2(), b.reduced_model.a2());
  EXPECT_EQ(a.reduced_model.b(), b.reduced_model.b());
  EXPECT_EQ(a.reduced_eval.window_count, b.reduced_eval.window_count);
  EXPECT_EQ(a.reduced_eval.channel_rms, b.reduced_eval.channel_rms);
  EXPECT_EQ(a.reduced_eval.pooled_rms, b.reduced_eval.pooled_rms);
  EXPECT_EQ(a.cluster_mean_errors.per_cluster_abs,
            b.cluster_mean_errors.per_cluster_abs);
}

const std::vector<core::SweepCase>& sweep_cases() {
  static const std::vector<core::SweepCase> cases{
      {core::SelectionStrategy::kStratifiedNearMean, 7},
      {core::SelectionStrategy::kStratifiedRandom, 1},
      {core::SelectionStrategy::kStratifiedRandom, 2},
      {core::SelectionStrategy::kSimpleRandom, 1},
      {core::SelectionStrategy::kSimpleRandom, 2},
      {core::SelectionStrategy::kThermostats, 7},
  };
  return cases;
}

}  // namespace

TEST(StageKeyHasher, OrderAndContentSensitive) {
  core::StageKeyHasher a, b;
  a.add(std::uint64_t{1});
  a.add(std::uint64_t{2});
  b.add(std::uint64_t{2});
  b.add(std::uint64_t{1});
  EXPECT_NE(a.value(), b.value());

  core::StageKeyHasher c, d;
  c.add(1.5);
  d.add(1.5);
  EXPECT_EQ(c.value(), d.value());
  d.add(false);
  EXPECT_NE(c.value(), d.value());
}

TEST(StageKeyHasher, NanPayloadsCollapse) {
  // Every NaN encoding is "a gap"; keys must not depend on the payload.
  core::StageKeyHasher a, b;
  a.add(std::nan("1"));
  b.add(std::nan("2"));
  EXPECT_EQ(a.value(), b.value());
  core::StageKeyHasher c;
  c.add(0.0);
  EXPECT_NE(a.value(), c.value());

  // The same through the lane-hashed span of doubles.
  std::vector<double> span_a(9, 1.25);
  std::vector<double> span_b = span_a;
  span_a[5] = std::nan("1");
  span_b[5] = -std::nan("7");
  core::StageKeyHasher sa, sb, sc;
  sa.add(std::span<const double>(span_a));
  sb.add(std::span<const double>(span_b));
  EXPECT_EQ(sa.value(), sb.value());
  span_b[8] = 1.2500000000000002;
  sc.add(std::span<const double>(span_b));
  EXPECT_NE(sa.value(), sc.value());
}

TEST(StageKeyHasher, MaskBitsMatter) {
  const std::vector<bool> mask_a{true, false, true};
  const std::vector<bool> mask_b{true, false, false};
  const std::vector<bool> mask_c{true, false};
  core::StageKeyHasher a, b, c;
  a.add(mask_a);
  b.add(mask_b);
  c.add(mask_c);
  EXPECT_NE(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_NE(b.value(), c.value());
}

TEST(StageKeyHasher, EveryByteOfASpanMatters) {
  // A 100-byte span runs through the four lanes (96 bytes) and the tail
  // (4); changing any one byte must change the key.
  std::vector<unsigned char> bytes(100);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  core::StageKeyHasher base;
  base.add_bytes(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char flip : {0x01, 0x80, 0xff}) {
      auto edited = bytes;
      edited[i] ^= flip;
      core::StageKeyHasher h;
      h.add_bytes(edited.data(), edited.size());
      EXPECT_NE(h.value(), base.value()) << "offset " << i;
    }
  }
}

TEST(StageKeyHasher, LengthsGiveDistinctKeys) {
  // Zero bytes of lengths 0..40 (word path, tail, and the 32-byte lane
  // threshold) all key differently, through add_bytes and as strings.
  const std::vector<unsigned char> zeros(40, 0);
  std::vector<std::uint64_t> keys;
  for (std::size_t n = 0; n <= zeros.size(); ++n) {
    core::StageKeyHasher bytes, text;
    bytes.add_bytes(zeros.data(), n);
    text.add(std::string_view(reinterpret_cast<const char*>(zeros.data()), n));
    keys.push_back(bytes.value());
    keys.push_back(text.value());
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(TraceFingerprint, SensitiveToContentInsensitiveToNanPayload) {
  timeseries::MultiTrace a(timeseries::TimeGrid(0, 30, 4), {1, 2});
  a.set(0, 0, 20.0);
  a.set(1, 1, 21.5);
  auto b = a;
  EXPECT_EQ(core::trace_fingerprint(a), core::trace_fingerprint(b));

  b.set(1, 1, 21.500000000000004);  // one ulp-ish edit must miss
  EXPECT_NE(core::trace_fingerprint(a), core::trace_fingerprint(b));

  // Same values on a different grid is different content.
  timeseries::MultiTrace c(timeseries::TimeGrid(0, 15, 4), {1, 2});
  c.set(0, 0, 20.0);
  c.set(1, 1, 21.5);
  EXPECT_NE(core::trace_fingerprint(a), core::trace_fingerprint(c));
}

TEST(StageCache, BuildsOncePerKeyAndCountsHits) {
  core::StageCache cache;
  std::atomic<int> builds{0};
  const auto build = [&] {
    ++builds;
    return 42;
  };
  const auto first = cache.get_or_build<int>("stage_a", 1, build);
  const auto again = cache.get_or_build<int>("stage_a", 1, build);
  EXPECT_EQ(*first, 42);
  EXPECT_EQ(first.get(), again.get());  // hit aliases the stored artifact
  EXPECT_EQ(builds.load(), 1);

  (void)cache.get_or_build<int>("stage_a", 2, build);  // new key
  EXPECT_EQ(builds.load(), 2);

  const auto stats = cache.stats("stage_a");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(StageCache, StagesWithEqualKeysDoNotCollide) {
  core::StageCache cache;
  const auto a =
      cache.get_or_build<int>("stage_a", 7, [] { return 1; });
  const auto b =
      cache.get_or_build<double>("stage_b", 7, [] { return 2.5; });
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2.5);
  EXPECT_EQ(cache.stats("stage_a").misses, 1u);
  EXPECT_EQ(cache.stats("stage_b").misses, 1u);
}

TEST(StageCache, ConcurrentFirstTouchBuildsExactlyOnce) {
  // Hammer one key from many raw threads: the entry mutex must serialize
  // the builders so the artifact is built exactly once, and every caller
  // gets the same object.
  core::StageCache cache;
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const int>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        seen[t] = cache.get_or_build<int>("shared", 99, [&] {
          ++builds;
          return 7;
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(seen[t]);
    EXPECT_EQ(seen[t].get(), seen[0].get());
  }
  const auto stats = cache.stats("shared");
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads * 50u - 1u);
}

TEST(StageCache, PreparePopulatesEveryStage) {
  core::StageCache cache;
  core::PipelineConfig config;
  const core::ThermalModelingPipeline pipeline(config);
  const auto art =
      pipeline.prepare(dataset().trace, dataset().schedule, split(),
                       dataset().wireless_ids(), dataset().input_ids(), &cache);
  ASSERT_TRUE(art.training_store);
  ASSERT_GT(art.training.size(), 0u);
  ASSERT_TRUE(art.graph);
  ASSERT_TRUE(art.spectrum);
  ASSERT_TRUE(art.clustering);
  ASSERT_TRUE(art.clusters);
  ASSERT_TRUE(art.windows);
  ASSERT_TRUE(art.cluster_means);
  EXPECT_EQ(art.cluster_means->size(), art.clusters->size());
  EXPECT_EQ(art.train_mode_mask.size(), dataset().trace.size());
  for (const auto name :
       {core::stage::kTrainingView, core::stage::kSimilarityGraph,
        core::stage::kSpectrum, core::stage::kClustering,
        core::stage::kClusterSets, core::stage::kClusterMeans,
        core::stage::kWindows}) {
    EXPECT_EQ(cache.stats(name).misses, 1u) << name;
    EXPECT_EQ(cache.stats(name).hits, 0u) << name;
  }

  // A second prepare with the same inputs is all hits, aliasing the same
  // artifacts.
  const auto again =
      pipeline.prepare(dataset().trace, dataset().schedule, split(),
                       dataset().wireless_ids(), dataset().input_ids(), &cache);
  EXPECT_EQ(art.clustering.get(), again.clustering.get());
  EXPECT_EQ(art.spectrum.get(), again.spectrum.get());
  EXPECT_EQ(cache.stats(core::stage::kClustering).misses, 1u);
  EXPECT_EQ(cache.stats(core::stage::kClustering).hits, 1u);
}

TEST(StageCache, KeyChainingReusesUpstreamStages) {
  // Changing the cluster count must rebuild the clustering but reuse the
  // training view, similarity graph, and spectrum (the expensive
  // eigendecomposition) — the fig-10 access pattern.
  core::StageCache cache;
  core::PipelineConfig base;
  for (std::size_t k = 2; k <= 5; ++k) {
    core::PipelineConfig config = base;
    config.spectral.cluster_count = k;
    const core::ThermalModelingPipeline pipeline(config);
    (void)pipeline.prepare(dataset().trace, dataset().schedule, split(),
                           dataset().wireless_ids(), dataset().input_ids(),
                           &cache);
  }
  EXPECT_EQ(cache.stats(core::stage::kTrainingView).misses, 1u);
  EXPECT_EQ(cache.stats(core::stage::kSimilarityGraph).misses, 1u);
  EXPECT_EQ(cache.stats(core::stage::kSpectrum).misses, 1u);
  EXPECT_EQ(cache.stats(core::stage::kSpectrum).hits, 3u);
  EXPECT_EQ(cache.stats(core::stage::kClustering).misses, 4u);
  EXPECT_EQ(cache.stats(core::stage::kClustering).hits, 0u);
  // Windows don't depend on the clustering at all.
  EXPECT_EQ(cache.stats(core::stage::kWindows).misses, 1u);
}

TEST(StageCache, CachedRunMatchesUncachedRunBitwise) {
  core::PipelineConfig config;
  config.strategy = core::SelectionStrategy::kStratifiedNearMean;
  const core::ThermalModelingPipeline pipeline(config);
  const auto uncached = pipeline.run(
      dataset().trace, dataset().schedule, split(), dataset().wireless_ids(),
      dataset().input_ids(),
      core::RunOptions{.thermostat_ids = dataset().thermostat_ids()});
  core::StageCache cache;
  for (int rep = 0; rep < 2; ++rep) {
    const auto cached = pipeline.run(
        dataset().trace, dataset().schedule, split(), dataset().wireless_ids(),
        dataset().input_ids(),
        core::RunOptions{.thermostat_ids = dataset().thermostat_ids(),
                         .cache = &cache});
    expect_bitwise_equal(uncached, cached,
                         "cached rep " + std::to_string(rep));
  }
  EXPECT_EQ(cache.stats(core::stage::kClustering).misses, 1u);
  EXPECT_EQ(cache.stats(core::stage::kClustering).hits, 1u);
}

TEST(StageCache, SweepIsBitwiseIdenticalToPerCaseRunsAtAnyThreadCount) {
  // The acceptance contract: a sweep over N cases performs exactly one
  // clustering/eigendecomposition (cache counters say so) and its results
  // are bitwise identical to standalone uncached per-case runs, at 1, 2,
  // 4, and 8 threads.
  const auto& ds = dataset();
  const auto& cases = sweep_cases();

  // Reference: standalone uncached serial runs.
  std::vector<core::PipelineResult> reference;
  {
    const core::ThreadCountScope serial(1);
    for (const auto& c : cases) {
      core::PipelineConfig config;
      config.strategy = c.strategy;
      config.selection_seed = c.seed;
      const core::ThermalModelingPipeline pipeline(config);
      reference.push_back(pipeline.run(
          ds.trace, ds.schedule, split(), ds.wireless_ids(), ds.input_ids(),
          core::RunOptions{.thermostat_ids = ds.thermostat_ids()}));
    }
  }

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::StageCache cache;
    const core::PipelineConfig base;
    const core::ThreadCountScope scope(threads);
    const auto sweep = core::run_strategy_sweep(
        base, cases, ds.trace, ds.schedule, split(), ds.wireless_ids(),
        ds.input_ids(),
        core::RunOptions{.thermostat_ids = ds.thermostat_ids(),
                         .cache = &cache});
    ASSERT_EQ(sweep.size(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      expect_bitwise_equal(sweep[i], reference[i],
                           "threads " + std::to_string(threads) + " case " +
                               std::to_string(i));
    }
    // Exactly one Step-1 computation per stage for the whole sweep; the
    // cases run on the prepared artifacts and never touch the cache.
    for (const auto name :
         {core::stage::kTrainingView, core::stage::kSimilarityGraph,
          core::stage::kSpectrum, core::stage::kClustering,
          core::stage::kClusterSets, core::stage::kClusterMeans,
          core::stage::kWindows}) {
      EXPECT_EQ(cache.stats(name).misses, 1u)
          << name << " at " << threads << " threads";
      EXPECT_EQ(cache.stats(name).hits, 0u)
          << name << " at " << threads << " threads";
    }
  }
}

TEST(StageCache, SweepWithoutExternalCacheStillWorks) {
  // The default path (no caller-provided cache) prepares a zero-copy
  // prefix that views the caller's trace.
  const auto& ds = dataset();
  const core::PipelineConfig base;
  const std::vector<core::SweepCase> cases{
      {core::SelectionStrategy::kStratifiedNearMean, 7},
      {core::SelectionStrategy::kSimpleRandom, 3},
  };
  std::vector<core::PipelineResult> sweep;
  {
    const core::ThreadCountScope scope(2);
    sweep = core::run_strategy_sweep(
        base, cases, ds.trace, ds.schedule, split(), ds.wireless_ids(),
        ds.input_ids(),
        core::RunOptions{.thermostat_ids = ds.thermostat_ids()});
  }
  ASSERT_EQ(sweep.size(), 2u);
  core::PipelineConfig config;
  config.strategy = cases[1].strategy;
  config.selection_seed = cases[1].seed;
  const core::ThermalModelingPipeline pipeline(config);
  const auto standalone = pipeline.run(
      ds.trace, ds.schedule, split(), ds.wireless_ids(), ds.input_ids(),
      core::RunOptions{.thermostat_ids = ds.thermostat_ids()});
  expect_bitwise_equal(sweep[1], standalone, "uncached sweep case 1");
}

// --- Budget, LRU eviction, and lifecycle (PR 7) ---------------------------

namespace {

/// Byte size of a cached vector<double> under the sized_artifact trait.
std::size_t vec_bytes(std::size_t n) {
  const std::vector<double> probe(n);
  return core::sized_artifact<std::vector<double>>::bytes(probe);
}

}  // namespace

TEST(StageCacheBudget, SizedArtifactAccountsVectorsAndAdlTypes) {
  EXPECT_EQ(vec_bytes(100),
            sizeof(std::vector<double>) + 100 * sizeof(double));
  // Nested vectors recurse.
  std::vector<std::vector<double>> nested(2, std::vector<double>(10));
  const auto nested_bytes =
      core::sized_artifact<std::vector<std::vector<double>>>::bytes(nested);
  EXPECT_GE(nested_bytes, 2 * 10 * sizeof(double));
  // ADL hook: a MultiTrace accounts its sample matrix.
  const timeseries::MultiTrace trace(timeseries::TimeGrid(0, 30, 16), {1, 2});
  EXPECT_GE(core::sized_artifact<timeseries::MultiTrace>::bytes(trace),
            16 * 2 * sizeof(double));
}

TEST(StageCacheBudget, EvictsLeastRecentlyUsedWhenOverBudget) {
  // Room for two 100-double artifacts, not three.
  core::StageCache cache(core::CacheBudget{2 * vec_bytes(100) + 64});
  const auto build = [] { return std::vector<double>(100, 1.0); };
  (void)cache.get_or_build<std::vector<double>>("vec", 1, build);
  (void)cache.get_or_build<std::vector<double>>("vec", 2, build);
  EXPECT_EQ(cache.eviction_count(), 0u);
  // Touch key 1 so key 2 is the LRU tail, then overflow with key 3.
  (void)cache.get_or_build<std::vector<double>>("vec", 1, build);
  (void)cache.get_or_build<std::vector<double>>("vec", 3, build);
  EXPECT_EQ(cache.eviction_count(), 1u);
  EXPECT_LE(cache.resident_bytes(), cache.budget_bytes());
  // Key 1 survived (hit), key 2 was evicted (miss rebuilds it).
  (void)cache.get_or_build<std::vector<double>>("vec", 1, build);
  (void)cache.get_or_build<std::vector<double>>("vec", 2, build);
  const auto stats = cache.stats("vec");
  // Misses: keys 1, 2, 3 first builds + key 2 rebuild.
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
  // Rebuilding key 2 overflowed again (evicting key 3): two evictions.
  EXPECT_EQ(cache.eviction_count(), 2u);
  EXPECT_EQ(cache.evicted_bytes(), 2 * vec_bytes(100));
}

TEST(StageCacheBudget, EvictionOrderIsDeterministicUnderFixedTouches) {
  // The same touch sequence on two fresh caches evicts the same keys.
  const auto run_sequence = [](core::StageCache& cache) {
    const auto build = [] { return std::vector<double>(50, 2.0); };
    const std::uint64_t touches[] = {1, 2, 3, 1, 4, 2, 5, 3, 1, 6};
    for (const auto key : touches) {
      (void)cache.get_or_build<std::vector<double>>("seq", key, build);
    }
    return std::tuple{cache.eviction_count(), cache.evicted_bytes(),
                      cache.resident_bytes(), cache.stats("seq").hits,
                      cache.stats("seq").misses};
  };
  core::StageCache a(core::CacheBudget{3 * vec_bytes(50) + 32});
  core::StageCache b(core::CacheBudget{3 * vec_bytes(50) + 32});
  EXPECT_EQ(run_sequence(a), run_sequence(b));
  EXPECT_GT(a.eviction_count(), 0u);
  EXPECT_LE(a.resident_bytes(), a.budget_bytes());
}

TEST(StageCacheBudget, UnlimitedByDefaultNeverEvicts) {
  core::StageCache cache;
  for (std::uint64_t k = 0; k < 32; ++k) {
    (void)cache.get_or_build<std::vector<double>>(
        "vec", k, [] { return std::vector<double>(100); });
  }
  EXPECT_EQ(cache.eviction_count(), 0u);
  EXPECT_EQ(cache.size(), 32u);
  EXPECT_EQ(cache.budget_bytes(), 0u);
}

TEST(StageCacheBudget, EvictionSkipsInFlightBuilds) {
  // A nested build (same thread, different key) publishes a large value
  // while the outer entry is still building: eviction must only consider
  // completed entries, and the outer publish must still land.
  core::StageCache cache(core::CacheBudget{vec_bytes(10) + 32});
  const auto outer = cache.get_or_build<std::vector<double>>(
      "outer", 1, [&] {
        const auto inner = cache.get_or_build<std::vector<double>>(
            "inner", 1, [] { return std::vector<double>(200, 3.0); });
        return std::vector<double>(inner->begin(), inner->begin() + 10);
      });
  ASSERT_EQ(outer->size(), 10u);
  EXPECT_DOUBLE_EQ(outer->front(), 3.0);
  EXPECT_LE(cache.resident_bytes(), cache.budget_bytes());
  EXPECT_GE(cache.eviction_count(), 1u);
}

TEST(StageCacheLifecycle, FailedBuildLeavesNoEntryAndWaitersRebuild) {
  core::StageCache cache;

  // A throwing builder leaves no entry and counts nothing; the next
  // caller of that key builds afresh.
  EXPECT_THROW((void)cache.get_or_build<int>(
                   "flaky", 1,
                   []() -> int { throw std::runtime_error("build failed"); }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats("flaky").misses, 0u);
  int rebuilds = 0;
  const auto next = cache.get_or_build<int>("flaky", 1, [&] {
    ++rebuilds;
    return 9;
  });
  EXPECT_EQ(*next, 9);
  EXPECT_EQ(rebuilds, 1);

  // A waiter parked on an in-flight build that then throws wakes up and
  // builds the key itself.
  std::atomic<bool> builder_started{false};
  std::atomic<bool> release_builder{false};
  const auto slow_failing_build = [&]() -> int {
    builder_started.store(true);
    while (!release_builder.load()) std::this_thread::yield();
    throw std::runtime_error("build failed");
  };
  std::thread builder([&] {
    EXPECT_THROW((void)cache.get_or_build<int>("flaky", 2, slow_failing_build),
                 std::runtime_error);
  });
  while (!builder_started.load()) std::this_thread::yield();

  std::atomic<int> waiter_builds{0};
  std::shared_ptr<const int> waited;
  std::thread waiter([&] {
    waited = cache.get_or_build<int>("flaky", 2, [&] {
      waiter_builds.fetch_add(1);
      return 7;
    });
  });
  // Give the waiter a moment to park, then fail the build it waits on.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release_builder.store(true);
  builder.join();
  waiter.join();

  ASSERT_TRUE(waited);
  EXPECT_EQ(*waited, 7);
  EXPECT_EQ(waiter_builds.load(), 1);
  EXPECT_EQ(cache.size(), 2u);
  const auto stats = cache.stats("flaky");
  EXPECT_EQ(stats.misses, 2u);  // one successful build per key
  EXPECT_EQ(stats.hits, 0u);
}

TEST(StageCacheLifecycle, ConcurrentRequestThreadsParkOnOneBuild) {
  // Serve's request threads call get_or_build from OUTSIDE any parallel
  // region: exactly one build must run, the rest park and adopt the
  // published artifact (pointer-identical, hence bitwise-equal).
  constexpr int kThreads = 8;
  core::StageCache cache;
  std::atomic<int> builds{0};
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<const std::vector<double>>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[t] = cache.get_or_build<std::vector<double>>(
          "request", 99, [&] {
            builds.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            return std::vector<double>{1.0, 2.0, 3.0};
          });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get()) << "thread " << t;
  }
  const auto stats = cache.stats("request");
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads - 1));
}

TEST(StageCacheLifecycle, RefusesCallsFromInsideAParallelRegion) {
  // A pool thread parked on an in-flight build could wait on a builder
  // that waits for the pool's batch mutex, so the cache refuses every
  // call from inside a pooled batch and builds nothing.
  const core::ThreadCountScope pooled(4);
  core::StageCache cache;
  EXPECT_THROW(core::parallel_for(0, 8, 1,
                                  [&](std::size_t i) {
                                    (void)cache.get_or_build<int>(
                                        "pooled", i % 2, [] { return 1; });
                                  }),
               std::logic_error);
  EXPECT_EQ(cache.size(), 0u);
  const auto totals = cache.totals();
  EXPECT_EQ(totals.hits + totals.misses, 0u);
}

TEST(StageCacheLifecycle, CountersMirrorWithConcurrentRecorderTraffic) {
  // Lock-order regression (TSan-covered in CI): the cache mirrors its
  // counters into the current obs recorder. With request threads hitting
  // the cache while other threads pound the recorder directly, any
  // nesting of the cache mutex inside recorder shard locks (or vice
  // versa) is a lock-order inversion TSan reports.
  obs::Recorder recorder;
  const obs::RecorderScope scope(&recorder);
  core::StageCache cache(core::CacheBudget{4 * vec_bytes(64)});
  std::atomic<bool> stop{false};

  std::vector<std::thread> recorders;
  recorders.reserve(2);
  for (int r = 0; r < 2; ++r) {
    recorders.emplace_back([&] {
      while (!stop.load()) obs::add_counter("test.external_traffic");
    });
  }
  std::vector<std::thread> cachers;
  cachers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    cachers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        (void)cache.get_or_build<std::vector<double>>(
            "mirrored", static_cast<std::uint64_t>((t + i) % 8),
            [] { return std::vector<double>(64, 4.0); });
      }
    });
  }
  for (auto& t : cachers) t.join();
  stop.store(true);
  for (auto& t : recorders) t.join();

  const auto totals = cache.totals();
  EXPECT_EQ(totals.hits + totals.misses, 4u * 200u);
  if (obs::kCompiledIn) {
    // The mirror reached the recorder (hit + miss + eviction counters).
    std::uint64_t mirrored = 0;
    for (const auto& [name, value] :
         recorder.metrics().snapshot().counters) {
      if (name.starts_with("stage_cache.")) mirrored += value;
    }
    EXPECT_GE(mirrored, 4u * 200u);
  }
}
