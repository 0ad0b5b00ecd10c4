#pragma once

/// \file multi_trace.hpp
/// Multi-channel time series with explicit gaps.
///
/// A MultiTrace holds p channels (sensors, VAVs, scalar inputs) sampled on
/// a shared TimeGrid; missing samples are NaN, mirroring the dropouts the
/// paper's wireless network and backend server produced. All downstream
/// machinery (piecewise system identification, clustering, selection)
/// consumes this type.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "auditherm/linalg/matrix.hpp"
#include "auditherm/timeseries/time_grid.hpp"

namespace auditherm::timeseries {

/// Identifier of a channel (the paper's sensor IDs: 1..39, 40/41 for the
/// HVAC thermostats; we reuse the same numbering).
using ChannelId = int;

/// Multi-channel uniformly sampled trace with NaN gaps.
///
/// Invariant: values() is size() x channel_count(); channel ids are unique.
class MultiTrace {
 public:
  MultiTrace() = default;

  /// Create an all-gap trace for `channels` on `grid`.
  /// Throws std::invalid_argument on duplicate channel ids.
  MultiTrace(TimeGrid grid, std::vector<ChannelId> channels);

  /// Trace that adopts `values` (NaN = gap) as its storage. Throws
  /// std::invalid_argument on duplicate channel ids or when `values` is
  /// not grid.size() x channels.size().
  MultiTrace(TimeGrid grid, std::vector<ChannelId> channels,
             linalg::Matrix values);

  [[nodiscard]] const TimeGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] std::size_t size() const noexcept { return grid_.size(); }
  [[nodiscard]] std::size_t channel_count() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] const std::vector<ChannelId>& channels() const noexcept {
    return channels_;
  }

  /// Column index of a channel id; std::nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> channel_index(
      ChannelId id) const noexcept;

  /// Column index of a channel id; throws std::invalid_argument when absent.
  [[nodiscard]] std::size_t require_channel(ChannelId id) const;

  /// Sample of channel column `c` at row `k` (NaN when missing, unchecked).
  [[nodiscard]] double value(std::size_t k, std::size_t c) const noexcept {
    return values_(k, c);
  }

  /// True when the sample is present (not NaN).
  [[nodiscard]] bool valid(std::size_t k, std::size_t c) const noexcept;

  /// Set the sample of channel column `c` at row `k`.
  void set(std::size_t k, std::size_t c, double v) noexcept { values_(k, c) = v; }

  /// Mark the sample missing.
  void clear(std::size_t k, std::size_t c) noexcept;

  /// Full data matrix (rows = samples, cols = channels, NaN = gap).
  [[nodiscard]] const linalg::Matrix& values() const noexcept { return values_; }
  [[nodiscard]] linalg::Matrix& values() noexcept { return values_; }

  /// New trace restricted to the given channels (order preserved as given).
  /// Throws std::invalid_argument when a channel is absent.
  ///
  /// This and the row-subset siblings below MATERIALIZE: they deep-copy
  /// the selected samples (counted in the `timeseries.bytes_copied`
  /// counter). The read path should prefer the zero-copy TraceView
  /// equivalents (trace_view.hpp); these remain as the escape hatch for
  /// results that must outlive the source trace.
  [[nodiscard]] MultiTrace select_channels(
      const std::vector<ChannelId>& ids) const;

  /// New trace restricted to sample rows [first, last).
  /// Throws std::out_of_range when the range exceeds the trace.
  [[nodiscard]] MultiTrace slice_rows(std::size_t first, std::size_t last) const;

  /// New trace keeping only rows where `keep[k]` is true. The resulting
  /// grid is *reindexed* (rows become contiguous); use together with
  /// segmentation helpers to avoid fabricating transitions across removed
  /// rows. Throws std::invalid_argument when keep.size() != size().
  [[nodiscard]] MultiTrace filter_rows(const std::vector<bool>& keep) const;

  /// Fraction of present (non-NaN) samples over all channels and rows.
  [[nodiscard]] double coverage() const noexcept;

 private:
  TimeGrid grid_;
  std::vector<ChannelId> channels_;
  linalg::Matrix values_;
};

/// ADL hook for the stage cache's byte accounting (core/stage_cache.hpp):
/// header, channel-id storage, and the sample matrix payload.
[[nodiscard]] inline std::size_t cache_footprint(const MultiTrace& t) noexcept {
  return sizeof(MultiTrace) + t.channels().capacity() * sizeof(ChannelId) +
         t.values().data().capacity() * sizeof(double);
}

}  // namespace auditherm::timeseries

// The zero-copy view over a MultiTrace, its implicit conversion, and the
// rows_with_all_valid / row_mean free functions (which now take views)
// ride along with this header so every existing includer keeps compiling.
#include "auditherm/timeseries/trace_view.hpp"  // IWYU pragma: export
