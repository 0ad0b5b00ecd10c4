#pragma once

/// \file trace_view.hpp
/// Zero-copy view over a MultiTrace: a channel subset plus a row range or
/// row mask, preserving TimeGrid semantics and the NaN-gap invariants.
///
/// The pipeline's evaluation repeatedly re-fits models and re-computes
/// similarity over *subsets* of one trace — per strategy, per cluster, per
/// mode — and every MultiTrace::select_channels / slice_rows / filter_rows
/// call deep-copies the samples. A TraceView expresses the same subsets as
/// an index mapping over the source matrix, so the whole read path
/// (trace_stats, clustering, sysid, selection, the pipeline) consumes the
/// data in place. Views compose: select_channels / slice_rows /
/// filter_rows on a view return another view whose grid matches what the
/// equivalent materialized chain would produce, bit for bit.
///
/// Ownership: a view never owns its samples. It is valid only while the
/// MultiTrace it was built from is alive and unmodified in shape; anything
/// that must outlive the source (a cache entry, a stored artifact) keeps
/// that MultiTrace alive with it. See DESIGN.md §"View ownership and
/// lifetime".
///
/// Derived channels (with_channel) are the one exception to "never owns":
/// an input-plan resolution materializes a column once (e.g. estimated
/// occupancy) and attaches it to the view as a shared_ptr column indexed
/// by *source* row, so every composition (select/slice/filter) keeps
/// reading it through the same row mapping as the base matrix. Views
/// without derived channels are bit-for-bit unchanged in behavior.

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "auditherm/linalg/matrix.hpp"
#include "auditherm/timeseries/time_grid.hpp"

namespace auditherm::timeseries {

class MultiTrace;

/// Identifier of a channel (same alias as multi_trace.hpp declares; the
/// redeclaration keeps this header usable on its own).
using ChannelId = int;

/// Non-owning channel-subset + row-subset view of a MultiTrace.
///
/// Invariant: grid().size() == size(); channel ids are unique; value(k, c)
/// reads exactly the source sample the equivalent materialized trace would
/// hold at (k, c), so every consumer is bitwise identical on either.
class TraceView {
 public:
  /// Empty view (0 rows, 0 channels).
  TraceView() = default;

  /// Whole-trace view. Implicit on purpose: every function taking a
  /// `const TraceView&` keeps accepting a MultiTrace unchanged.
  TraceView(const MultiTrace& trace);  // NOLINT(google-explicit-constructor)

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

  /// Column index of a channel id; throws std::invalid_argument when
  /// absent.
  [[nodiscard]] std::size_t require_channel(ChannelId id) const;

  /// Sample of view channel `c` at view row `k` (NaN when missing,
  /// unchecked).
  [[nodiscard]] double value(std::size_t k, std::size_t c) const noexcept {
    const std::size_t col = cols_[c];
    if (col & kDerivedColumn) {
      return (*derived_[col & ~kDerivedColumn])[source_row(k)];
    }
    return data_[source_row(k) * stride_ + col];
  }

  /// True when the sample is present (not NaN).
  [[nodiscard]] bool valid(std::size_t k, std::size_t c) const noexcept;

  /// Source-trace row that view row `k` reads.
  [[nodiscard]] std::size_t source_row(std::size_t k) const noexcept {
    return rows_.empty() ? row_first_ + k : rows_[k];
  }

  /// View restricted to the given channels (order preserved as given);
  /// still zero-copy. Throws std::invalid_argument when a channel is
  /// absent or duplicated.
  [[nodiscard]] TraceView select_channels(
      const std::vector<ChannelId>& ids) const;

  /// View restricted to view rows [first, last); the grid start advances
  /// exactly as MultiTrace::slice_rows would move it. Throws
  /// std::out_of_range when the range exceeds the view.
  [[nodiscard]] TraceView slice_rows(std::size_t first,
                                     std::size_t last) const;

  /// View keeping only view rows where `keep[k]` is true; the grid is
  /// reindexed (rows become contiguous) exactly as
  /// MultiTrace::filter_rows would. Throws std::invalid_argument when
  /// keep.size() != size().
  [[nodiscard]] TraceView filter_rows(const std::vector<bool>& keep) const;

  /// View with an extra derived channel appended. `column` is indexed by
  /// *source* row (one sample per row of the trace the view was built
  /// from, NaN for gaps), so row subsets taken before or after attachment
  /// read identical samples. The view shares ownership of the column.
  /// Throws std::invalid_argument when the id already exists, the column
  /// is null, or its size differs from the source trace's row count.
  [[nodiscard]] TraceView with_channel(
      ChannelId id, std::shared_ptr<const linalg::Vector> column) const;

 private:
  /// High bit of a cols_ entry marking a derived column; the low bits then
  /// index derived_ instead of the source matrix.
  static constexpr std::size_t kDerivedColumn =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);

  const double* data_ = nullptr;     ///< the source trace's row-major values
  std::size_t source_rows_ = 0;      ///< row count of the source trace
  std::size_t stride_ = 0;           ///< source row pitch (its channel count)
  TimeGrid grid_;                    ///< the view's (reindexed) grid
  std::vector<ChannelId> channels_;  ///< view channel ids, in view order
  std::vector<std::size_t> cols_;    ///< view column -> source column, or
                                     ///< kDerivedColumn | derived_ index
  std::size_t row_first_ = 0;        ///< contiguous-row offset
  std::vector<std::size_t> rows_;    ///< view row -> source row; empty =
                                     ///< contiguous [row_first_, +size())
  /// Attached derived columns, each sized to the source trace's rows and
  /// shared with whoever materialized them (alive as long as any copy of
  /// the view is).
  std::vector<std::shared_ptr<const linalg::Vector>> derived_;
};

/// Row mask that is true where *all* listed channels are valid.
/// With empty `ids`, all channels are required.
[[nodiscard]] std::vector<bool> rows_with_all_valid(
    const TraceView& trace, const std::vector<ChannelId>& ids = {});

/// Per-row mean across the given channels, skipping missing samples;
/// NaN when no channel is present in that row. With empty `ids`, averages
/// all channels.
[[nodiscard]] linalg::Vector row_mean(const TraceView& trace,
                                      const std::vector<ChannelId>& ids = {});

}  // namespace auditherm::timeseries
