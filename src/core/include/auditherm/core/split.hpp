#pragma once

/// \file split.hpp
/// Usable-day accounting and train/validation splitting (Section IV.C).
///
/// The paper collected 98 days, excluded days with sensor and server
/// failures leaving 64, and used half for training and half for
/// validation. These helpers reproduce that bookkeeping on any gapped
/// trace: a day is usable when enough of its mode-window rows have every
/// required channel valid.

#include <vector>

#include "auditherm/hvac/schedule.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::core {

/// Result of splitting a trace into train/validation day sets.
struct DataSplit {
  std::vector<std::size_t> usable_days;
  std::vector<std::size_t> train_days;
  std::vector<std::size_t> validation_days;
  /// Row masks over the source trace: true when the row's day belongs to
  /// the respective set (mode is NOT folded in; AND with a mode mask).
  std::vector<bool> train_mask;
  std::vector<bool> validation_mask;
};

/// Split `trace` chronologically: usable days are found, then the first
/// `train_fraction` of them train and the rest validate. A day is usable
/// when at least `min_coverage` of its rows in `mode` have every
/// `required` channel valid (a day with no such rows is never usable).
/// Throws std::invalid_argument for fractions outside (0, 1) or
/// min_coverage outside [0, 1].
[[nodiscard]] DataSplit split_dataset(
    const timeseries::MultiTrace& trace,
    const std::vector<timeseries::ChannelId>& required,
    const hvac::Schedule& schedule, hvac::Mode mode,
    double min_coverage = 0.5, double train_fraction = 0.5);

/// Elementwise AND of two row masks; throws std::invalid_argument on size
/// mismatch.
[[nodiscard]] std::vector<bool> and_masks(const std::vector<bool>& a,
                                          const std::vector<bool>& b);

/// Row mask selecting the given day indices on a grid.
[[nodiscard]] std::vector<bool> day_mask(const timeseries::TimeGrid& grid,
                                         const std::vector<std::size_t>& days);

}  // namespace auditherm::core
