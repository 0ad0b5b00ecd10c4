#pragma once

/// \file bench_common.hpp
/// Shared setup for the reproduction benches: the standard 98-day dataset
/// (the paper's Jan 31 - May 8 trace), its train/validation split, and
/// small printing helpers. Every bench regenerating a paper table or
/// figure starts from make_standard_dataset() so results are comparable
/// across benches.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "auditherm/auditherm.hpp"
#include "bench_json.hpp"

namespace bench {

/// Environment-driven observability for bench mains, mirroring the CLI's
/// --metrics-out / --trace flags:
///   AUDITHERM_METRICS_OUT=FILE  write the run's metrics + spans as JSON
///   AUDITHERM_TRACE=1           print the span tree + counters to stderr
/// With neither set, no recorder is installed and the bench runs exactly
/// as before (instrumentation sites cost one relaxed load each).
/// Declare one at the top of main(); outputs are written on destruction.
class ObsSession {
 public:
  ObsSession() : recorder_(make_recorder()), scope_(recorder_.get()) {}
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    if (recorder_ == nullptr) return;
    if (trace_enabled()) {
      auditherm::obs::write_summary(stderr, *recorder_);
    }
    const char* out = std::getenv("AUDITHERM_METRICS_OUT");
    if (out != nullptr && *out != '\0' &&
        !auditherm::obs::write_json_file(out, *recorder_)) {
      std::fprintf(stderr, "warning: could not write %s\n", out);
    }
  }

  [[nodiscard]] auditherm::obs::Recorder* recorder() const noexcept {
    return recorder_.get();
  }

 private:
  static bool trace_enabled() {
    const char* t = std::getenv("AUDITHERM_TRACE");
    return t != nullptr && *t != '\0' && std::strcmp(t, "0") != 0;
  }

  static std::unique_ptr<auditherm::obs::Recorder> make_recorder() {
    const char* out = std::getenv("AUDITHERM_METRICS_OUT");
    if (trace_enabled() || (out != nullptr && *out != '\0')) {
      return std::make_unique<auditherm::obs::Recorder>();
    }
    return nullptr;
  }

  std::unique_ptr<auditherm::obs::Recorder> recorder_;
  auditherm::obs::RecorderScope scope_;
};

/// The standard evaluation dataset: 98 days with ~34 failure days, as in
/// the paper (98 collected, 64 usable).
inline auditherm::sim::AuditoriumDataset make_standard_dataset() {
  auditherm::sim::DatasetConfig config;
  config.days = 98;
  config.failure_days = 34;
  return auditherm::sim::generate_dataset(config);
}

/// Channels that must be valid for a row to count toward usability.
inline std::vector<auditherm::timeseries::ChannelId> required_channels(
    const auditherm::sim::AuditoriumDataset& dataset) {
  auto req = dataset.sensor_ids();
  const auto inputs = dataset.input_ids();
  req.insert(req.end(), inputs.begin(), inputs.end());
  return req;
}

/// The paper's half/half chronological split over usable days.
inline auditherm::core::DataSplit standard_split(
    const auditherm::sim::AuditoriumDataset& dataset,
    auditherm::hvac::Mode mode = auditherm::hvac::Mode::kOccupied) {
  return auditherm::core::split_dataset(dataset.trace,
                                        required_channels(dataset),
                                        dataset.schedule, mode);
}

/// Evaluation windows on the given day-mask: rows in `mode` with valid
/// inputs, segmented.
inline std::vector<auditherm::timeseries::Segment> evaluation_windows(
    const auditherm::sim::AuditoriumDataset& dataset,
    const std::vector<bool>& day_mask, auditherm::hvac::Mode mode) {
  using namespace auditherm;
  auto mask = core::and_masks(
      day_mask, dataset.schedule.mode_mask(dataset.trace.grid(), mode));
  mask = core::and_masks(mask, timeseries::rows_with_all_valid(
                                   dataset.trace, dataset.input_ids()));
  return timeseries::find_segments(mask, 2);
}

/// Step-1 artifacts (training view, similarity graph, spectrum,
/// clustering, windows, cluster means) shared through `cache`: benches
/// that sweep cluster counts or strategies reuse the expensive stages —
/// notably the eigendecomposition — instead of rebuilding them per point.
inline auditherm::core::StageArtifacts prepare_stages(
    const auditherm::sim::AuditoriumDataset& dataset,
    const auditherm::core::DataSplit& split,
    auditherm::core::StageCache& cache, std::size_t cluster_count = 0) {
  auditherm::core::PipelineConfig config;
  config.spectral.cluster_count = cluster_count;
  const auditherm::core::ThermalModelingPipeline pipeline(config);
  return pipeline.prepare(dataset.trace, dataset.schedule, split,
                          dataset.wireless_ids(), dataset.input_ids(),
                          &cache);
}

inline void print_cache_stats(const auditherm::core::StageCache& cache) {
  const auto totals = cache.totals();
  std::printf("stage cache: %zu hits / %zu misses (%zu artifacts)\n",
              totals.hits, totals.misses, cache.size());
}

inline void print_header(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void print_row(const std::string& label, double paper, double ours) {
  std::printf("%-34s paper %6.2f   measured %6.3f\n", label.c_str(), paper,
              ours);
}

}  // namespace bench
