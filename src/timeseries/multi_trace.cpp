#include "auditherm/timeseries/multi_trace.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "auditherm/obs/trace_span.hpp"

namespace auditherm::timeseries {

namespace {

constexpr double kGap = std::numeric_limits<double>::quiet_NaN();

/// Every materializing API routes its copied sample count through here so
/// the copy-vs-view benchmarks can read one counter.
void note_bytes_copied(std::size_t samples) {
  static const obs::MetricId kBytesCopied =
      obs::counter_id("timeseries.bytes_copied");
  obs::add_counter(kBytesCopied, samples * sizeof(double));
}

}  // namespace

MultiTrace::MultiTrace(TimeGrid grid, std::vector<ChannelId> channels)
    : MultiTrace(grid, channels,
                 linalg::Matrix(grid.size(), channels.size(), kGap)) {}

MultiTrace::MultiTrace(TimeGrid grid, std::vector<ChannelId> channels,
                       linalg::Matrix values)
    : grid_(grid), channels_(std::move(channels)), values_(std::move(values)) {
  if (values_.rows() != grid_.size() || values_.cols() != channels_.size()) {
    throw std::invalid_argument("MultiTrace: values are not rows x channels");
  }
  std::unordered_set<ChannelId> seen;
  for (ChannelId id : channels_) {
    if (!seen.insert(id).second) {
      throw std::invalid_argument("MultiTrace: duplicate channel id " +
                                  std::to_string(id));
    }
  }
}

std::optional<std::size_t> MultiTrace::channel_index(
    ChannelId id) const noexcept {
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (channels_[c] == id) return c;
  }
  return std::nullopt;
}

std::size_t MultiTrace::require_channel(ChannelId id) const {
  if (auto c = channel_index(id)) return *c;
  throw std::invalid_argument("MultiTrace: unknown channel id " +
                              std::to_string(id));
}

bool MultiTrace::valid(std::size_t k, std::size_t c) const noexcept {
  return !std::isnan(values_(k, c));
}

void MultiTrace::clear(std::size_t k, std::size_t c) noexcept {
  values_(k, c) = kGap;
}

MultiTrace MultiTrace::select_channels(
    const std::vector<ChannelId>& ids) const {
  note_bytes_copied(size() * ids.size());
  MultiTrace out(grid_, ids);
  for (std::size_t c = 0; c < ids.size(); ++c) {
    const std::size_t src = require_channel(ids[c]);
    for (std::size_t k = 0; k < size(); ++k) {
      out.values_(k, c) = values_(k, src);
    }
  }
  return out;
}

MultiTrace MultiTrace::slice_rows(std::size_t first, std::size_t last) const {
  if (first > last || last > size()) {
    throw std::out_of_range("MultiTrace::slice_rows");
  }
  note_bytes_copied((last - first) * channel_count());
  TimeGrid g(grid_.start() + static_cast<Minutes>(first) * grid_.step(),
             grid_.step(), last - first);
  MultiTrace out(g, channels_);
  for (std::size_t k = first; k < last; ++k) {
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      out.values_(k - first, c) = values_(k, c);
    }
  }
  return out;
}

MultiTrace MultiTrace::filter_rows(const std::vector<bool>& keep) const {
  if (keep.size() != size()) {
    throw std::invalid_argument("MultiTrace::filter_rows: mask size mismatch");
  }
  std::size_t n = 0;
  for (bool b : keep) n += b ? 1 : 0;
  note_bytes_copied(n * channel_count());
  TimeGrid g(grid_.start(), grid_.step(), n);
  MultiTrace out(g, channels_);
  std::size_t row = 0;
  for (std::size_t k = 0; k < size(); ++k) {
    if (!keep[k]) continue;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      out.values_(row, c) = values_(k, c);
    }
    ++row;
  }
  return out;
}

double MultiTrace::coverage() const noexcept {
  const std::size_t total = size() * channel_count();
  if (total == 0) return 0.0;
  std::size_t present = 0;
  for (double v : values_.data()) present += std::isnan(v) ? 0 : 1;
  return static_cast<double>(present) / static_cast<double>(total);
}

}  // namespace auditherm::timeseries
