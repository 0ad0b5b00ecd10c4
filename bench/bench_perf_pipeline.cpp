// Performance reports perfbench does not cover. main() times the full
// pipeline and a 4-strategy sweep at 1/2/4/8 threads — the sweep both
// uncached (standalone run() per case) and through the content-keyed stage
// cache — on the standard 98-day dataset, prints a speedup table with
// cache hit/miss counters, and verifies the results are bitwise identical
// across thread counts and cache modes. It then measures the sample bytes
// the strategy sweep's data path moves (copy path vs zero-copy view path)
// and writes everything to BENCH_perf_pipeline.json; the exit code is
// nonzero when a bitwise check fails or either view path copies.
//
// The per-layer timings (similarity graph, spectrum, fit, evaluation, the
// whole analyze op) live in perfbench's ledger (`--trace 1`); the one
// google benchmark left, BM_GpPlacement, times the stage no perfbench
// workload runs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "auditherm/auditherm.hpp"
#include "auditherm/core/parallel.hpp"
#include "bench_common.hpp"

using namespace auditherm;

namespace {

void BM_GpPlacement(benchmark::State& state) {
  static const sim::AuditoriumDataset ds = [] {
    sim::DatasetConfig config;
    config.days = 28;
    config.failure_days = 4;
    return sim::generate_dataset(config);
  }();
  const auto training = ds.trace.filter_rows(core::and_masks(
      bench::standard_split(ds).train_mask,
      ds.schedule.mode_mask(ds.trace.grid(), hvac::Mode::kOccupied)));
  const auto count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(selection::gp_mutual_information_selection(
        training, ds.wireless_ids(), count));
  }
}
BENCHMARK(BM_GpPlacement)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Threads-vs-serial speedup report -----------------------------------
// Runs on the standard 98-day dataset (the paper's full trace) so the
// numbers track the real reproduction workload.

const sim::AuditoriumDataset& standard_dataset() {
  static const auto ds = bench::make_standard_dataset();
  return ds;
}

const core::DataSplit& standard_split() {
  static const auto s = bench::standard_split(standard_dataset());
  return s;
}

core::PipelineResult run_pipeline_at(std::size_t threads) {
  const core::ThreadCountScope scope(threads);
  const core::ThermalModelingPipeline pipeline(core::PipelineConfig{});
  return pipeline.run(
      standard_dataset().trace, standard_dataset().schedule, standard_split(),
      standard_dataset().wireless_ids(), standard_dataset().input_ids(),
      core::RunOptions{.thermostat_ids = standard_dataset().thermostat_ids()});
}

const std::vector<core::SweepCase>& sweep_cases() {
  static const std::vector<core::SweepCase> cases{
      {core::SelectionStrategy::kStratifiedNearMean, 7},
      {core::SelectionStrategy::kStratifiedRandom, 1},
      {core::SelectionStrategy::kSimpleRandom, 1},
      {core::SelectionStrategy::kThermostats, 7},
  };
  return cases;
}

/// The sweep through run_strategy_sweep: the Step-1 prefix (similarity
/// graph, eigendecomposition, clustering, windows) is prepared once
/// through `cache`, and every case runs on those artifacts.
std::vector<core::PipelineResult> run_sweep_cached(std::size_t threads,
                                                   core::StageCache* cache) {
  const core::ThreadCountScope scope(threads);
  return core::run_strategy_sweep(
      core::PipelineConfig{}, sweep_cases(), standard_dataset().trace,
      standard_dataset().schedule, standard_split(),
      standard_dataset().wireless_ids(), standard_dataset().input_ids(),
      core::RunOptions{
          .thermostat_ids = standard_dataset().thermostat_ids(),
          .cache = cache});
}

/// The pre-cache baseline: each case is a full standalone run() that
/// recomputes every Step-1 stage from scratch.
std::vector<core::PipelineResult> run_sweep_uncached(std::size_t threads) {
  const core::ThreadCountScope scope(threads);
  std::vector<core::PipelineResult> results;
  for (const auto& c : sweep_cases()) {
    core::PipelineConfig config;
    config.strategy = c.strategy;
    config.selection_seed = c.seed;
    const core::ThermalModelingPipeline pipeline(config);
    results.push_back(pipeline.run(
        standard_dataset().trace, standard_dataset().schedule,
        standard_split(), standard_dataset().wireless_ids(),
        standard_dataset().input_ids(),
        core::RunOptions{
            .thermostat_ids = standard_dataset().thermostat_ids()}));
  }
  return results;
}

/// Best-of-3 wall time in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (ms < best) best = ms;
  }
  return best;
}

bool results_bitwise_equal(const core::PipelineResult& a,
                           const core::PipelineResult& b) {
  return a.clustering.labels == b.clustering.labels &&
         a.selection.per_cluster == b.selection.per_cluster &&
         a.reduced_model.a() == b.reduced_model.a() &&
         a.reduced_model.a2() == b.reduced_model.a2() &&
         a.reduced_model.b() == b.reduced_model.b() &&
         a.reduced_eval.channel_rms == b.reduced_eval.channel_rms &&
         a.reduced_eval.pooled_rms == b.reduced_eval.pooled_rms;
}

// --- Copy-path vs view-path bytes report --------------------------------
// Measures how many sample bytes the strategy sweep's data path moves on
// scaled-up synthetic halls, legacy materializing path vs the zero-copy
// TraceView path, via the timeseries.bytes_copied counter.

struct HallData {
  timeseries::MultiTrace trace;
  hvac::Schedule schedule;
  core::DataSplit split;
  std::vector<timeseries::ChannelId> sensor_ids;
  std::vector<timeseries::ChannelId> input_ids;
  std::vector<timeseries::ChannelId> thermostat_ids;
};

/// Deterministic `sensor_count`-sensor hall on the synthetic grid plan:
/// two thermal zones split at mid-depth, per-sensor phase/offset from the
/// floor position, sparse deterministic NaN gaps, and an [h; o; l; w]
/// input block driven by the schedule.
HallData make_synthetic_hall(std::size_t sensor_count, std::size_t days) {
  const auto plan = sim::FloorPlan::synthetic_grid(sensor_count);
  std::vector<timeseries::ChannelId> sensor_ids, thermostat_ids;
  std::vector<sim::Position> sites;
  for (const auto& s : plan.sensors()) {
    if (s.is_thermostat) {
      thermostat_ids.push_back(s.id);
      continue;
    }
    sensor_ids.push_back(s.id);
    sites.push_back(s.position);
  }
  const std::vector<timeseries::ChannelId> input_ids{2001, 2002, 2003, 2004};
  std::vector<timeseries::ChannelId> all = sensor_ids;
  all.insert(all.end(), thermostat_ids.begin(), thermostat_ids.end());
  all.insert(all.end(), input_ids.begin(), input_ids.end());

  constexpr std::size_t kPerDay = 48;  // 30-minute samples
  const std::size_t rows = days * kPerDay;
  timeseries::MultiTrace trace(timeseries::TimeGrid(0, 30, rows), all);
  const hvac::Schedule schedule;
  for (std::size_t k = 0; k < rows; ++k) {
    const double day_phase =
        2.0 * M_PI * static_cast<double>(k % kPerDay) / kPerDay;
    const bool on = schedule.occupied_at(trace.grid().at(k));
    for (std::size_t c = 0; c < sensor_ids.size(); ++c) {
      // Every 8th sensor drops three mid-day samples per day — gaps in
      // the occupied window, but few enough rows that every day stays
      // usable for split_dataset at any hall size.
      if (c % 8 == 0 && k % kPerDay == 13 + 2 * (c % 3)) continue;
      const double zone = sites[c].y < 0.5 * plan.depth() ? 1.0 : -1.0;
      const double v = 21.0 + 2.0 * zone * std::sin(day_phase) +
                       0.05 * sites[c].x +
                       0.01 * std::sin(day_phase * 3.0 + 0.1 * c);
      trace.set(k, c, v);
    }
    std::size_t base = sensor_ids.size();
    for (std::size_t t = 0; t < thermostat_ids.size(); ++t) {
      trace.set(k, base + t, 21.5 + 1.5 * std::sin(day_phase + 0.2 * t));
    }
    base += thermostat_ids.size();
    trace.set(k, base + 0, 18.0 + 0.5 * std::sin(day_phase));       // h
    trace.set(k, base + 1, on ? 60.0 : 0.0);                        // o
    trace.set(k, base + 2, on ? 0.4 : 0.1);                         // l
    trace.set(k, base + 3, 10.0 + 5.0 * std::sin(day_phase / 7.0)); // w
  }
  auto split = core::split_dataset(trace, all, schedule,
                                   hvac::Mode::kOccupied);
  return {std::move(trace),     schedule, std::move(split),
          std::move(sensor_ids), input_ids, std::move(thermostat_ids)};
}

std::uint64_t sample_bytes_copied(const obs::Recorder& recorder) {
  for (const auto& [name, value] : recorder.metrics().snapshot().counters) {
    if (name == "timeseries.bytes_copied") return value;
  }
  return 0;
}

const std::vector<core::SweepCase>& hall_cases() {
  // A seed sweep like the paper's tables: deterministic SMS/GP cases plus
  // the random strategies at three seeds each.
  static const std::vector<core::SweepCase> cases{
      {core::SelectionStrategy::kStratifiedNearMean, 7},
      {core::SelectionStrategy::kStratifiedRandom, 1},
      {core::SelectionStrategy::kStratifiedRandom, 2},
      {core::SelectionStrategy::kStratifiedRandom, 3},
      {core::SelectionStrategy::kSimpleRandom, 1},
      {core::SelectionStrategy::kSimpleRandom, 2},
      {core::SelectionStrategy::kSimpleRandom, 3},
      {core::SelectionStrategy::kThermostats, 7},
  };
  return cases;
}

/// Replay the sample copies the pre-TraceView data path performed for a
/// per-case sweep: each case materialized the training rows
/// (filter_rows) and the similarity stage's channel subset
/// (select_channels). GP cases added two more sensor-width copies; this
/// sweep draws none, so the replay *under*-counts the legacy traffic.
/// Returns the byte count, and checks the materialized training keys
/// identically to the zero-copy view of the same rows.
std::uint64_t legacy_copy_replay(const HallData& hall, std::size_t cases,
                                 bool& training_identical) {
  const auto mask = core::and_masks(
      hall.split.train_mask,
      hall.schedule.mode_mask(hall.trace.grid(), hvac::Mode::kOccupied));
  obs::Recorder recorder;
  obs::RecorderScope scope(&recorder);
  for (std::size_t i = 0; i < cases; ++i) {
    const auto training = hall.trace.filter_rows(mask);
    benchmark::DoNotOptimize(training.select_channels(hall.sensor_ids));
    if (i == 0) {
      training_identical =
          core::trace_fingerprint(training) ==
          core::trace_fingerprint(
              timeseries::TraceView(hall.trace).filter_rows(mask));
    }
  }
  return sample_bytes_copied(recorder);
}

/// Prints the copy-vs-view table and adds it as `copy_vs_view`. False when
/// a sweep result differs from its per-case run or either view path
/// copied sample bytes.
bool copy_vs_view_report(bench::JsonObject& out) {
  std::printf("\n----------------------------------------------------------\n");
  std::printf("Copy-path vs view-path sample traffic (synthetic halls,\n");
  std::printf("8-case sweep; bytes from the timeseries.bytes_copied\n");
  std::printf("counter%s)\n",
              obs::kCompiledIn ? "" : " — observability compiled OUT");
  std::printf("----------------------------------------------------------\n");
  std::printf("%8s %6s %14s %13s %12s %8s\n", "sensors", "rows",
              "copy_bytes", "view_percase", "view_sweep", "bitwise");

  std::vector<bench::JsonObject> rows;
  bool ok = true;
  const core::ThreadCountScope serial(1);
  for (const std::size_t sensors : {std::size_t{128}, std::size_t{512}}) {
    const auto hall = make_synthetic_hall(sensors, 10);

    const core::PipelineConfig base;
    core::RunOptions plain;
    plain.thermostat_ids = hall.thermostat_ids;

    // View-path sweep: the uncached sweep prepares its prefix as views of
    // the hall's trace, so it copies no samples either.
    std::vector<core::PipelineResult> sweep;
    std::uint64_t view_sweep_bytes = 0;
    {
      obs::Recorder recorder;
      obs::RecorderScope scope(&recorder);
      sweep = core::run_strategy_sweep(base, hall_cases(), hall.trace,
                                       hall.schedule, hall.split,
                                       hall.sensor_ids, hall.input_ids, plain);
      view_sweep_bytes = sample_bytes_copied(recorder);
    }

    bool equal = false;
    const std::uint64_t copy_bytes =
        legacy_copy_replay(hall, hall_cases().size(), equal);

    // Per-case standalone runs: pure zero-copy views end to end. They
    // double as the equality check — the sweep must match them bit for
    // bit.
    std::uint64_t view_percase_bytes = 0;
    {
      obs::Recorder recorder;
      obs::RecorderScope scope(&recorder);
      for (std::size_t i = 0; i < hall_cases().size(); ++i) {
        core::PipelineConfig config = base;
        config.strategy = hall_cases()[i].strategy;
        config.selection_seed = hall_cases()[i].seed;
        const core::ThermalModelingPipeline pipeline(config);
        const auto single =
            pipeline.run(hall.trace, hall.schedule, hall.split,
                         hall.sensor_ids, hall.input_ids, plain);
        equal = equal && results_bitwise_equal(sweep[i], single);
      }
      view_percase_bytes = sample_bytes_copied(recorder);
    }
    ok = ok && equal && view_percase_bytes == 0 && view_sweep_bytes == 0;

    std::printf("%8zu %6zu %14llu %13llu %12llu %8s\n", sensors,
                hall.trace.size(), static_cast<unsigned long long>(copy_bytes),
                static_cast<unsigned long long>(view_percase_bytes),
                static_cast<unsigned long long>(view_sweep_bytes),
                equal ? "yes" : "NO");
    rows.push_back(bench::JsonObject()
                       .add("sensors", sensors)
                       .add("rows", hall.trace.size())
                       .add("copy_path_bytes", std::size_t{copy_bytes})
                       .add("view_percase_bytes", std::size_t{view_percase_bytes})
                       .add("view_sweep_bytes", std::size_t{view_sweep_bytes})
                       .add("results_identical", equal));
  }
  out.add("copy_vs_view", rows);
  return ok;
}

/// Prints the threads-vs-serial table and adds it as `runs`. False when a
/// run differs bitwise from the 1-thread reference.
bool speedup_report(bench::JsonObject& out) {
  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  const auto reference = run_pipeline_at(1);
  const auto sweep_reference = run_sweep_uncached(1);

  std::printf("\n----------------------------------------------------------\n");
  std::printf("Threads-vs-serial speedup (98-day dataset, best of 3)\n");
  std::printf("sweep4 = 4-strategy sweep; uncached recomputes Step 1 per\n");
  std::printf("case, cached shares it through the stage cache\n");
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());
  std::printf("----------------------------------------------------------\n");
  std::printf("%8s %12s %8s %17s %15s %9s %8s\n", "threads", "pipeline_ms",
              "speedup", "sweep4_uncached", "sweep4_cached", "cache_x",
              "bitwise");

  std::vector<bench::JsonObject> runs;
  bool all_identical = true;
  double serial_ms = 0.0;
  core::StageStats cache_totals;
  for (const std::size_t t : thread_counts) {
    bool identical = true;
    const double pipeline_ms = time_ms([&] {
      const auto r = run_pipeline_at(t);
      identical = identical && results_bitwise_equal(r, reference);
    });
    const double uncached_ms = time_ms([&] { (void)run_sweep_uncached(t); });
    const double cached_ms = time_ms([&] {
      // Fresh cache per repetition: the timed region includes the one
      // Step-1 build plus the fan-out over its artifacts, like a real
      // sweep.
      core::StageCache cache;
      const auto sweep = run_sweep_cached(t, &cache);
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        identical =
            identical && results_bitwise_equal(sweep[i], sweep_reference[i]);
      }
      cache_totals = cache.totals();
    });
    if (t == 1) serial_ms = pipeline_ms;
    all_identical = all_identical && identical;
    std::printf("%8zu %12.1f %7.2fx %17.1f %15.1f %8.2fx %8s\n", t,
                pipeline_ms, serial_ms / pipeline_ms, uncached_ms, cached_ms,
                uncached_ms / cached_ms, identical ? "yes" : "NO");
    runs.push_back(bench::JsonObject()
                       .add("threads", t)
                       .add("pipeline_ms", pipeline_ms)
                       .add("pipeline_speedup", serial_ms / pipeline_ms)
                       .add("sweep4_uncached_ms", uncached_ms)
                       .add("sweep4_cached_ms", cached_ms)
                       .add("cache_speedup", uncached_ms / cached_ms)
                       .add("bitwise_identical", identical));
  }
  std::printf("stage cache per sweep: %zu hits / %zu misses\n",
              cache_totals.hits, cache_totals.misses);

  out.add("dataset_days", std::size_t{98});
  out.add("sweep_cases", sweep_cases().size());
  out.add("stage_cache", bench::JsonObject()
                             .add("hits", cache_totals.hits)
                             .add("misses", cache_totals.misses));
  out.add("runs", runs);
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsSession obs_session;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  auto json = bench::artifact("perf_pipeline", core::thread_count());
  const bool speedup_ok = speedup_report(json);
  const bool copy_ok = copy_vs_view_report(json);
  if (!bench::write_artifact(json, "BENCH_perf_pipeline.json")) return 1;
  return speedup_ok && copy_ok ? 0 : 1;
}
