// Tests for the zero-copy TraceView data path: grid/NaN semantics of the
// view operations, bitwise view-vs-copy equivalence across every consumer
// that was migrated to views (trace_stats, clustering, sysid, selection,
// fingerprinting), zero-copy accounting via the timeseries.bytes_copied
// counter, coverage() degeneracy pins for the traces views are cut from,
// and — under ASan — detection of a view outliving its trace.

#include "auditherm/timeseries/trace_view.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "auditherm/clustering/baselines.hpp"
#include "auditherm/clustering/similarity.hpp"
#include "auditherm/core/stage_cache.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/selection/evaluation.hpp"
#include "auditherm/selection/gp_placement.hpp"
#include "auditherm/selection/strategies.hpp"
#include "auditherm/sysid/estimator.hpp"
#include "auditherm/sysid/evaluation.hpp"
#include "auditherm/timeseries/multi_trace.hpp"
#include "auditherm/timeseries/trace_stats.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define AUDITHERM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AUDITHERM_TEST_ASAN 1
#endif
#endif

namespace clustering = auditherm::clustering;
namespace core = auditherm::core;
namespace hvac = auditherm::hvac;
namespace linalg = auditherm::linalg;
namespace obs = auditherm::obs;
namespace selection = auditherm::selection;
namespace sysid = auditherm::sysid;
namespace ts = auditherm::timeseries;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Bit pattern of a double; two NaNs from the same source sample compare
/// equal, which is exactly the bitwise-identity the view path promises.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise(double a, double b, const std::string& what) {
  EXPECT_EQ(bits(a), bits(b)) << what << ": " << a << " vs " << b;
}

void expect_bitwise(const linalg::Vector& a, const linalg::Vector& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bitwise(a[i], b[i], what + "[" + std::to_string(i) + "]");
  }
}

void expect_bitwise(const linalg::Matrix& a, const linalg::Matrix& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      expect_bitwise(a(i, j), b(i, j),
                     what + "(" + std::to_string(i) + "," +
                         std::to_string(j) + ")");
    }
  }
}

/// The core contract: a view and the materialized trace it is equivalent
/// to hold identical grids, channels, and sample bits.
void expect_view_equals_trace(const ts::TraceView& view,
                              const ts::MultiTrace& trace,
                              const std::string& what) {
  ASSERT_EQ(view.size(), trace.size()) << what;
  ASSERT_EQ(view.channel_count(), trace.channel_count()) << what;
  EXPECT_EQ(view.channels(), trace.channels()) << what;
  EXPECT_EQ(view.grid().start(), trace.grid().start()) << what;
  EXPECT_EQ(view.grid().step(), trace.grid().step()) << what;
  EXPECT_EQ(view.grid().size(), trace.grid().size()) << what;
  for (std::size_t k = 0; k < view.size(); ++k) {
    for (std::size_t c = 0; c < view.channel_count(); ++c) {
      expect_bitwise(view.value(k, c), trace.value(k, c),
                     what + " value(" + std::to_string(k) + "," +
                         std::to_string(c) + ")");
      EXPECT_EQ(view.valid(k, c), trace.valid(k, c)) << what;
    }
  }
}

/// Random gapped trace: `rows` x `channels.size()`, each sample missing
/// with probability `gap_p`.
ts::MultiTrace random_trace(std::mt19937_64& rng, std::size_t rows,
                            const std::vector<ts::ChannelId>& channels,
                            double gap_p) {
  ts::MultiTrace trace(ts::TimeGrid(0, 30, rows), channels);
  std::normal_distribution<double> value(20.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t k = 0; k < rows; ++k) {
    for (std::size_t c = 0; c < channels.size(); ++c) {
      trace.set(k, c, coin(rng) < gap_p ? kNaN : value(rng));
    }
  }
  return trace;
}

/// Sum of the timeseries.bytes_copied counter in a recorder's snapshot.
std::uint64_t bytes_copied(const obs::Recorder& recorder) {
  for (const auto& [name, value] : recorder.metrics().snapshot().counters) {
    if (name == "timeseries.bytes_copied") return value;
  }
  return 0;
}

/// Deterministic "hall" trace for the heavyweight consumers: sensors in
/// two thermal groups plus an input block [h; o; l; w], mild noise, a few
/// NaN gaps. Rich enough for similarity graphs, GP placement, and sysid.
struct HallData {
  ts::MultiTrace trace;
  std::vector<ts::ChannelId> sensors;
  std::vector<ts::ChannelId> inputs;
};

HallData make_hall(std::size_t days) {
  const std::size_t per_day = 48;  // 30-minute samples
  const std::size_t rows = days * per_day;
  const std::vector<ts::ChannelId> sensors{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<ts::ChannelId> inputs{101, 102, 103, 104};
  std::vector<ts::ChannelId> all = sensors;
  all.insert(all.end(), inputs.begin(), inputs.end());
  ts::MultiTrace trace(ts::TimeGrid(0, 30, rows), all);
  std::mt19937_64 rng(99);
  std::normal_distribution<double> noise(0.0, 0.05);
  for (std::size_t k = 0; k < rows; ++k) {
    const double t = static_cast<double>(k) / per_day;
    const double warm = 22.0 + 2.0 * std::sin(2.0 * M_PI * t);
    const double cool = 20.0 + 1.0 * std::sin(2.0 * M_PI * t + 0.8);
    for (std::size_t c = 0; c < sensors.size(); ++c) {
      const double base = c < 4 ? warm : cool;
      trace.set(k, c, base + 0.1 * static_cast<double>(c) + noise(rng));
    }
    trace.set(k, 8, 18.0 + 0.5 * std::sin(2.0 * M_PI * t));    // h
    trace.set(k, 9, k % per_day >= 12 && k % per_day < 42 ? 60.0 : 0.0);
    trace.set(k, 10, 0.3 + 0.1 * std::cos(2.0 * M_PI * t));    // l
    trace.set(k, 11, 10.0 + 5.0 * std::sin(2.0 * M_PI * t / 7.0));
  }
  // A few gaps so the pairwise-complete paths are exercised.
  trace.clear(10, 0);
  trace.clear(11, 0);
  if (rows > 57) trace.clear(57, 5);
  return {std::move(trace), sensors, inputs};
}

}  // namespace

// ---------------------------------------------------------------------------
// View-operation semantics
// ---------------------------------------------------------------------------

TEST(TraceView, WholeTraceViewMatchesSource) {
  std::mt19937_64 rng(1);
  const auto trace = random_trace(rng, 20, {3, 1, 7}, 0.2);
  const ts::TraceView view(trace);
  expect_view_equals_trace(view, trace, "whole-trace view");
  EXPECT_EQ(view.channel_index(7), trace.channel_index(7));
  EXPECT_EQ(view.channel_index(99), std::nullopt);
  EXPECT_EQ(view.require_channel(1), 1u);
  EXPECT_THROW((void)view.require_channel(99), std::invalid_argument);
}

TEST(TraceView, SelectChannelsMatchesMaterialized) {
  std::mt19937_64 rng(2);
  const auto trace = random_trace(rng, 15, {3, 1, 7, 4}, 0.15);
  const std::vector<ts::ChannelId> subset{7, 3};
  expect_view_equals_trace(ts::TraceView(trace).select_channels(subset),
                           trace.select_channels(subset), "select_channels");
  EXPECT_THROW((void)ts::TraceView(trace).select_channels({3, 99}),
               std::invalid_argument);
  EXPECT_THROW((void)ts::TraceView(trace).select_channels({3, 3}),
               std::invalid_argument);
}

TEST(TraceView, SliceRowsAdvancesGridLikeMaterialized) {
  std::mt19937_64 rng(3);
  const auto trace = random_trace(rng, 24, {1, 2}, 0.1);
  expect_view_equals_trace(ts::TraceView(trace).slice_rows(5, 17),
                           trace.slice_rows(5, 17), "slice_rows");
  // Empty slice is legal and yields an empty grid at the advanced start.
  const auto empty = ts::TraceView(trace).slice_rows(4, 4);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.grid().start(), trace.grid().start() + 4 * 30);
  EXPECT_THROW((void)ts::TraceView(trace).slice_rows(5, 30),
               std::out_of_range);
  EXPECT_THROW((void)ts::TraceView(trace).slice_rows(9, 5),
               std::out_of_range);
}

TEST(TraceView, FilterRowsReindexesLikeMaterialized) {
  std::mt19937_64 rng(4);
  const auto trace = random_trace(rng, 12, {1, 2, 3}, 0.25);
  std::vector<bool> keep(12, false);
  for (std::size_t k = 0; k < 12; k += 3) keep[k] = true;
  expect_view_equals_trace(ts::TraceView(trace).filter_rows(keep),
                           trace.filter_rows(keep), "filter_rows");
  EXPECT_THROW((void)ts::TraceView(trace).filter_rows(std::vector<bool>(5)),
               std::invalid_argument);
}

TEST(TraceView, OperationsComposeLikeMaterializedChain) {
  std::mt19937_64 rng(5);
  const auto trace = random_trace(rng, 30, {9, 4, 6, 2, 8}, 0.2);
  std::vector<bool> keep(20, false);
  for (std::size_t k = 0; k < 20; ++k) keep[k] = (k % 2 == 0);
  const auto view = ts::TraceView(trace)
                        .select_channels({8, 4, 6})
                        .slice_rows(3, 23)
                        .filter_rows(keep)
                        .select_channels({6, 8});
  const auto copy = trace.select_channels({8, 4, 6})
                        .slice_rows(3, 23)
                        .filter_rows(keep)
                        .select_channels({6, 8});
  expect_view_equals_trace(view, copy, "composed chain");
}

// ---------------------------------------------------------------------------
// MultiTrace::coverage() degeneracy (regression pins: degenerate traces
// are defined as 0.0, never a 0/0)
// ---------------------------------------------------------------------------

TEST(TraceView, CoverageOfDegenerateViewsIsZero) {
  const ts::MultiTrace zero_rows(ts::TimeGrid(0, 30, 0), {1, 2});
  EXPECT_EQ(zero_rows.coverage(), 0.0);

  const ts::MultiTrace zero_channels(ts::TimeGrid(0, 30, 10), {});
  EXPECT_EQ(zero_channels.coverage(), 0.0);

  EXPECT_EQ(ts::MultiTrace().coverage(), 0.0);

  std::mt19937_64 rng(6);
  const auto trace = random_trace(rng, 8, {1, 2}, 0.0);
  EXPECT_EQ(trace.coverage(), 1.0);
  // Empty row mask, empty channel subset and empty slice all degenerate
  // to 0.0.
  EXPECT_EQ(trace.filter_rows(std::vector<bool>(8, false)).coverage(), 0.0);
  EXPECT_EQ(trace.select_channels({}).coverage(), 0.0);
  EXPECT_EQ(trace.slice_rows(3, 3).coverage(), 0.0);
}

// ---------------------------------------------------------------------------
// Property sweep: ≥50 random traces, random view chains, every light
// consumer bitwise identical on view vs materialized copy
// ---------------------------------------------------------------------------

TEST(TraceViewProperty, RandomViewChainsMatchMaterializedEverywhere) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int iteration = 0; iteration < 60; ++iteration) {
    // Edge-case iterations: single row, empty mask, all-gaps.
    const bool single_row = iteration % 13 == 3;
    const bool empty_mask = iteration % 11 == 5;
    const bool all_gaps = iteration % 17 == 9;
    const std::size_t rows =
        single_row ? 1 : 2 + static_cast<std::size_t>(rng() % 38);
    const std::size_t n_channels = 2 + static_cast<std::size_t>(rng() % 6);
    std::vector<ts::ChannelId> channels(n_channels);
    for (std::size_t c = 0; c < n_channels; ++c) {
      channels[c] = static_cast<ts::ChannelId>(10 * (c + 1) + c % 3);
    }
    const double gap_p = all_gaps ? 1.0 : coin(rng) * 0.4;
    const auto trace = random_trace(rng, rows, channels, gap_p);

    // A random chain of up to three view operations, mirrored on the
    // materialized side.
    ts::TraceView view(trace);
    ts::MultiTrace copy = trace;
    const int ops = static_cast<int>(rng() % 4);
    for (int op = 0; op < ops; ++op) {
      switch (rng() % 3) {
        case 0: {  // channel subset (shuffled order, size >= 1)
          auto ids = copy.channels();
          std::shuffle(ids.begin(), ids.end(), rng);
          ids.resize(1 + rng() % ids.size());
          view = view.select_channels(ids);
          copy = copy.select_channels(ids);
          break;
        }
        case 1: {  // row range
          const std::size_t first = rng() % (copy.size() + 1);
          const std::size_t last =
              first + rng() % (copy.size() - first + 1);
          view = view.slice_rows(first, last);
          copy = copy.slice_rows(first, last);
          break;
        }
        default: {  // row mask (possibly empty)
          std::vector<bool> keep(copy.size());
          for (std::size_t k = 0; k < keep.size(); ++k) {
            keep[k] = !empty_mask && coin(rng) < 0.6;
          }
          view = view.filter_rows(keep);
          copy = copy.filter_rows(keep);
          break;
        }
      }
    }

    const std::string tag = "iteration " + std::to_string(iteration);
    expect_view_equals_trace(view, copy, tag);
    EXPECT_EQ(core::trace_fingerprint(view), core::trace_fingerprint(copy))
        << tag;
    EXPECT_EQ(ts::rows_with_all_valid(view), ts::rows_with_all_valid(copy))
        << tag;
    expect_bitwise(ts::row_mean(view), ts::row_mean(copy), tag + " row_mean");
    expect_bitwise(ts::correlation_matrix(view), ts::correlation_matrix(copy),
                   tag + " correlation");
    expect_bitwise(ts::covariance_matrix(view), ts::covariance_matrix(copy),
                   tag + " covariance");
    expect_bitwise(ts::rms_distance_matrix(view),
                   ts::rms_distance_matrix(copy), tag + " rms_distance");
    expect_bitwise(ts::channel_means(view), ts::channel_means(copy),
                   tag + " channel_means");
    if (view.channel_count() >= 2) {
      const auto ids = view.channels();
      expect_bitwise(ts::pairwise_max_differences(view, ids),
                     ts::pairwise_max_differences(copy, ids),
                     tag + " pairwise_max_differences");
      expect_bitwise(ts::row_mean(view, {ids[0], ids[1]}),
                     ts::row_mean(copy, {ids[0], ids[1]}),
                     tag + " row_mean subset");
      EXPECT_EQ(ts::rows_with_all_valid(view, {ids.back()}),
                ts::rows_with_all_valid(copy, {ids.back()}))
          << tag;
    }
  }
}

// ---------------------------------------------------------------------------
// Heavyweight consumers: clustering, selection, sysid, evaluation — all
// bitwise identical fed a view or the materialized equivalent
// ---------------------------------------------------------------------------

TEST(TraceViewConsumers, ClusteringAndSelectionBitwiseEqual) {
  const auto hall = make_hall(4);
  // Non-trivial view: drop one sensor, drop the first day.
  std::vector<ts::ChannelId> kept = {1, 2, 3, 5, 6, 7, 8};
  for (ts::ChannelId id : hall.inputs) kept.push_back(id);
  const auto view = ts::TraceView(hall.trace)
                        .select_channels(kept)
                        .slice_rows(48, hall.trace.size());
  const auto copy =
      hall.trace.select_channels(kept).slice_rows(48, hall.trace.size());
  const std::vector<ts::ChannelId> sensors{1, 2, 3, 5, 6, 7, 8};

  const auto graph_v = clustering::build_similarity_graph(view, sensors);
  const auto graph_c = clustering::build_similarity_graph(copy, sensors);
  EXPECT_EQ(graph_v.channels, graph_c.channels);
  expect_bitwise(graph_v.weights, graph_c.weights, "similarity weights");
  expect_bitwise(graph_v.sigma_used, graph_c.sigma_used, "sigma_used");

  const auto km_v = clustering::kmeans_trace_cluster(view, sensors, 2);
  const auto km_c = clustering::kmeans_trace_cluster(copy, sensors, 2);
  EXPECT_EQ(km_v.labels, km_c.labels);
  EXPECT_EQ(km_v.cluster_count, km_c.cluster_count);

  const selection::ClusterSets clusters{{1, 2, 3}, {5, 6, 7, 8}};
  EXPECT_EQ(selection::stratified_near_mean(view, clusters).per_cluster,
            selection::stratified_near_mean(copy, clusters).per_cluster);
  EXPECT_EQ(selection::simple_random(view, clusters, 7).per_cluster,
            selection::simple_random(copy, clusters, 7).per_cluster);
  EXPECT_EQ(selection::gp_mutual_information_selection(view, sensors, 2),
            selection::gp_mutual_information_selection(copy, sensors, 2));

  const selection::Selection sel = selection::stratified_near_mean(view, clusters);
  const auto errors_v =
      selection::evaluate_cluster_mean_prediction(view, clusters, sel);
  const auto errors_c =
      selection::evaluate_cluster_mean_prediction(copy, clusters, sel);
  ASSERT_EQ(errors_v.per_cluster_abs.size(), errors_c.per_cluster_abs.size());
  for (std::size_t c = 0; c < errors_v.per_cluster_abs.size(); ++c) {
    expect_bitwise(errors_v.per_cluster_abs[c], errors_c.per_cluster_abs[c],
                   "cluster-mean errors");
  }
}

TEST(TraceViewConsumers, SysidFitAndEvaluationBitwiseEqual) {
  const auto hall = make_hall(4);
  const auto view = ts::TraceView(hall.trace).slice_rows(0, 96);
  const auto copy = hall.trace.slice_rows(0, 96);
  const std::vector<ts::ChannelId> states{1, 5};

  sysid::ModelEstimator est(states, hall.inputs, sysid::ModelOrder::kSecond);
  const auto model_v = est.fit(view);
  const auto model_c = est.fit(copy);
  expect_bitwise(model_v.a(), model_c.a(), "A");
  expect_bitwise(model_v.a2(), model_c.a2(), "A2");
  expect_bitwise(model_v.b(), model_c.b(), "B");

  const auto summary_v = est.summarize(view);
  const auto summary_c = est.summarize(copy);
  EXPECT_EQ(summary_v.transitions, summary_c.transitions);

  hvac::Schedule schedule;
  std::vector<ts::ChannelId> required = states;
  required.insert(required.end(), hall.inputs.begin(), hall.inputs.end());
  const auto valid_v = ts::rows_with_all_valid(view, required);
  EXPECT_EQ(valid_v, ts::rows_with_all_valid(copy, required));
  // Evaluation windows: occupied rows with every channel valid.
  auto mask = schedule.mode_mask(view.grid(), hvac::Mode::kOccupied);
  for (std::size_t k = 0; k < mask.size(); ++k) {
    mask[k] = mask[k] && valid_v[k];
  }
  const auto windows = ts::find_segments(mask, 2);
  ASSERT_FALSE(windows.empty());

  const sysid::EvaluationOptions eval_opts;
  const auto eval_v =
      sysid::evaluate_prediction(model_v, view, windows, eval_opts);
  const auto eval_c =
      sysid::evaluate_prediction(model_c, copy, windows, eval_opts);
  EXPECT_EQ(eval_v.window_count, eval_c.window_count);
  expect_bitwise(eval_v.pooled_rms, eval_c.pooled_rms, "pooled_rms");
  expect_bitwise(eval_v.channel_rms, eval_c.channel_rms, "channel_rms");
  expect_bitwise(eval_v.window_channel_rms, eval_c.window_channel_rms,
                 "window_channel_rms");
}

// ---------------------------------------------------------------------------
// Zero-copy accounting: the view path moves no bytes; the materializing
// APIs all count into timeseries.bytes_copied
// ---------------------------------------------------------------------------

TEST(TraceViewBytes, ViewPathCopiesNothing) {
  const auto hall = make_hall(3);
  const std::vector<ts::ChannelId> sensors = hall.sensors;
  obs::Recorder recorder;
  {
    obs::RecorderScope scope(&recorder);
    std::vector<bool> keep(hall.trace.size());
    for (std::size_t k = 0; k < keep.size(); ++k) keep[k] = (k % 2 == 0);
    const auto view = ts::TraceView(hall.trace)
                          .select_channels(sensors)
                          .slice_rows(2, 100)
                          .filter_rows(std::vector<bool>(98, true));
    // The whole refactored read path on top of the view: none of it may
    // materialize. (gp_mutual_information_selection is the regression
    // pin for the old double-materialization.)
    (void)clustering::build_similarity_graph(view, sensors);
    (void)selection::stratified_near_mean(view, {{1, 2, 3, 4}, {5, 6, 7, 8}});
    (void)selection::gp_mutual_information_selection(view, sensors, 2);
    (void)ts::correlation_matrix(view);
    (void)ts::rows_with_all_valid(view);
    (void)ts::row_mean(view);
    (void)core::trace_fingerprint(view);
    (void)keep;
  }
  EXPECT_EQ(bytes_copied(recorder), 0u)
      << "zero-copy view path moved sample bytes";
}

TEST(TraceViewBytes, MaterializingApisAreCounted) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (AUDITHERM_OBS=OFF)";
  }
  const auto hall = make_hall(1);
  obs::Recorder recorder;
  {
    obs::RecorderScope scope(&recorder);
    (void)hall.trace.select_channels({1, 2});
  }
  EXPECT_EQ(bytes_copied(recorder),
            hall.trace.size() * 2 * sizeof(double));

  obs::Recorder recorder2;
  {
    obs::RecorderScope scope(&recorder2);
    (void)hall.trace.slice_rows(0, 10);
    (void)hall.trace.filter_rows(
        std::vector<bool>(hall.trace.size(), true));
  }
  EXPECT_GT(bytes_copied(recorder2), 0u);
}

// ---------------------------------------------------------------------------
// Fingerprinting: cache keys are view/copy agnostic
// ---------------------------------------------------------------------------

TEST(TraceViewFingerprint, ViewKeysIdenticallyToMaterialized) {
  std::mt19937_64 rng(8);
  const auto trace = random_trace(rng, 40, {1, 2, 3, 4}, 0.3);
  std::vector<bool> keep(40);
  for (std::size_t k = 0; k < 40; ++k) keep[k] = (k % 3 != 0);

  const auto view =
      ts::TraceView(trace).select_channels({2, 4}).filter_rows(keep);
  const auto copy = trace.select_channels({2, 4}).filter_rows(keep);
  EXPECT_EQ(core::trace_fingerprint(view), core::trace_fingerprint(copy));
  // And the fingerprint still distinguishes different content.
  EXPECT_NE(core::trace_fingerprint(view), core::trace_fingerprint(trace));
}

// ---------------------------------------------------------------------------
// Lifetime: a view outliving its trace is a use-after-free, and ASan
// sees it (the documented ownership rule is enforceable, not advisory)
// ---------------------------------------------------------------------------

TEST(TraceViewLifetimeDeathTest, DanglingViewDiesUnderAsan) {
#if defined(AUDITHERM_TEST_ASAN)
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ts::TraceView dangling;
        {
          ts::MultiTrace local(ts::TimeGrid(0, 30, 4), {1});
          for (std::size_t k = 0; k < 4; ++k) {
            local.set(k, 0, static_cast<double>(k));
          }
          dangling = ts::TraceView(local);
        }
        // The source died; reading through the view must trap.
        volatile double v = dangling.value(0, 0);
        (void)v;
      },
      "AddressSanitizer");
#else
  GTEST_SKIP() << "dangling-view detection requires ASan "
                  "(-DAUDITHERM_SANITIZE=address,undefined)";
#endif
}
