#include "auditherm/core/split.hpp"

#include <algorithm>
#include <stdexcept>

namespace auditherm::core {

DataSplit split_dataset(const timeseries::MultiTrace& trace,
                        const std::vector<timeseries::ChannelId>& required,
                        const hvac::Schedule& schedule, hvac::Mode mode,
                        double min_coverage, double train_fraction) {
  if (min_coverage < 0.0 || min_coverage > 1.0) {
    throw std::invalid_argument("split_dataset: min_coverage outside [0, 1]");
  }
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("split_dataset: train_fraction outside (0, 1)");
  }
  if (trace.size() == 0) {
    throw std::invalid_argument("split_dataset: empty trace");
  }

  const auto valid = timeseries::rows_with_all_valid(trace, required);
  const auto last_day = static_cast<std::size_t>(
      timeseries::day_of(trace.grid()[trace.size() - 1]));

  std::vector<std::size_t> mode_rows(last_day + 1, 0);
  std::vector<std::size_t> valid_rows(last_day + 1, 0);
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const auto t = trace.grid()[k];
    if (schedule.mode_at(t) != mode) continue;
    const auto d = static_cast<std::size_t>(timeseries::day_of(t));
    ++mode_rows[d];
    if (valid[k]) ++valid_rows[d];
  }

  DataSplit split;
  for (std::size_t d = 0; d <= last_day; ++d) {
    if (mode_rows[d] == 0) continue;
    const double coverage = static_cast<double>(valid_rows[d]) /
                            static_cast<double>(mode_rows[d]);
    if (coverage >= min_coverage) split.usable_days.push_back(d);
  }

  const auto n_train = static_cast<std::size_t>(
      static_cast<double>(split.usable_days.size()) * train_fraction);
  split.train_days.assign(split.usable_days.begin(),
                          split.usable_days.begin() +
                              static_cast<std::ptrdiff_t>(n_train));
  split.validation_days.assign(split.usable_days.begin() +
                                   static_cast<std::ptrdiff_t>(n_train),
                               split.usable_days.end());
  split.train_mask = day_mask(trace.grid(), split.train_days);
  split.validation_mask = day_mask(trace.grid(), split.validation_days);
  return split;
}

std::vector<bool> and_masks(const std::vector<bool>& a,
                            const std::vector<bool>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("and_masks: size mismatch");
  }
  std::vector<bool> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] && b[i];
  return out;
}

std::vector<bool> day_mask(const timeseries::TimeGrid& grid,
                           const std::vector<std::size_t>& days) {
  std::vector<bool> mask(grid.size(), false);
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const auto d = static_cast<std::size_t>(timeseries::day_of(grid[k]));
    mask[k] = std::find(days.begin(), days.end(), d) != days.end();
  }
  return mask;
}

}  // namespace auditherm::core
