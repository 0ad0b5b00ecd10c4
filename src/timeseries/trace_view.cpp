#include "auditherm/timeseries/trace_view.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::timeseries {

TraceView::TraceView(const MultiTrace& trace)
    : data_(trace.values().data().data()),
      source_rows_(trace.values().rows()),
      stride_(trace.values().cols()),
      grid_(trace.grid()),
      channels_(trace.channels()),
      cols_(trace.channel_count()) {
  for (std::size_t c = 0; c < cols_.size(); ++c) cols_[c] = c;
}

std::optional<std::size_t> TraceView::channel_index(
    ChannelId id) const noexcept {
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (channels_[c] == id) return c;
  }
  return std::nullopt;
}

std::size_t TraceView::require_channel(ChannelId id) const {
  if (auto c = channel_index(id)) return *c;
  throw std::invalid_argument("TraceView: unknown channel id " +
                              std::to_string(id));
}

bool TraceView::valid(std::size_t k, std::size_t c) const noexcept {
  return !std::isnan(value(k, c));
}

TraceView TraceView::select_channels(
    const std::vector<ChannelId>& ids) const {
  std::unordered_set<ChannelId> seen;
  for (ChannelId id : ids) {
    if (!seen.insert(id).second) {
      throw std::invalid_argument("TraceView: duplicate channel id " +
                                  std::to_string(id));
    }
  }
  TraceView out = *this;
  out.channels_ = ids;
  out.cols_.resize(ids.size());
  for (std::size_t c = 0; c < ids.size(); ++c) {
    out.cols_[c] = cols_[require_channel(ids[c])];
  }
  return out;
}

TraceView TraceView::slice_rows(std::size_t first, std::size_t last) const {
  if (first > last || last > size()) {
    throw std::out_of_range("TraceView::slice_rows");
  }
  TraceView out = *this;
  out.grid_ = TimeGrid(
      grid_.start() + static_cast<Minutes>(first) * grid_.step(),
      grid_.step(), last - first);
  if (rows_.empty()) {
    out.row_first_ = row_first_ + first;
  } else {
    out.rows_.assign(rows_.begin() + static_cast<std::ptrdiff_t>(first),
                     rows_.begin() + static_cast<std::ptrdiff_t>(last));
  }
  return out;
}

TraceView TraceView::filter_rows(const std::vector<bool>& keep) const {
  if (keep.size() != size()) {
    throw std::invalid_argument("TraceView::filter_rows: mask size mismatch");
  }
  TraceView out = *this;
  out.row_first_ = 0;
  out.rows_.clear();
  for (std::size_t k = 0; k < keep.size(); ++k) {
    if (keep[k]) out.rows_.push_back(source_row(k));
  }
  out.grid_ = TimeGrid(grid_.start(), grid_.step(), out.rows_.size());
  return out;
}

TraceView TraceView::with_channel(
    ChannelId id, std::shared_ptr<const linalg::Vector> column) const {
  if (channel_index(id)) {
    throw std::invalid_argument("TraceView::with_channel: channel id " +
                                std::to_string(id) + " already present");
  }
  if (!column) {
    throw std::invalid_argument("TraceView::with_channel: null column");
  }
  if (column->size() != source_rows_) {
    throw std::invalid_argument(
        "TraceView::with_channel: column has " +
        std::to_string(column->size()) + " rows, source trace has " +
        std::to_string(source_rows_));
  }
  TraceView out = *this;
  out.channels_.push_back(id);
  out.cols_.push_back(kDerivedColumn | out.derived_.size());
  out.derived_.push_back(std::move(column));
  return out;
}

std::vector<bool> rows_with_all_valid(const TraceView& trace,
                                      const std::vector<ChannelId>& ids) {
  std::vector<std::size_t> cols;
  if (ids.empty()) {
    cols.resize(trace.channel_count());
    for (std::size_t c = 0; c < cols.size(); ++c) cols[c] = c;
  } else {
    cols.reserve(ids.size());
    for (ChannelId id : ids) cols.push_back(trace.require_channel(id));
  }
  std::vector<bool> mask(trace.size(), true);
  for (std::size_t k = 0; k < trace.size(); ++k) {
    for (std::size_t c : cols) {
      if (!trace.valid(k, c)) {
        mask[k] = false;
        break;
      }
    }
  }
  return mask;
}

linalg::Vector row_mean(const TraceView& trace,
                        const std::vector<ChannelId>& ids) {
  std::vector<std::size_t> cols;
  if (ids.empty()) {
    cols.resize(trace.channel_count());
    for (std::size_t c = 0; c < cols.size(); ++c) cols[c] = c;
  } else {
    cols.reserve(ids.size());
    for (ChannelId id : ids) cols.push_back(trace.require_channel(id));
  }
  linalg::Vector out(trace.size(), std::numeric_limits<double>::quiet_NaN());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t c : cols) {
      if (trace.valid(k, c)) {
        s += trace.value(k, c);
        ++n;
      }
    }
    if (n > 0) out[k] = s / static_cast<double>(n);
  }
  return out;
}

}  // namespace auditherm::timeseries
