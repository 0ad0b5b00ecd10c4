// Tests for usable-day accounting and train/validation splitting.

#include "auditherm/core/split.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace core = auditherm::core;
namespace ts = auditherm::timeseries;
namespace hvac = auditherm::hvac;
using ts::MultiTrace;
using ts::TimeGrid;

namespace {

/// Six days on a 30-min grid with one channel; days 2 and 4 have holes in
/// the occupied window (day 2 fully missing, day 4 half missing).
MultiTrace make_trace() {
  MultiTrace trace(TimeGrid(0, 30, 6 * 48), {1});
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const auto t = trace.grid()[k];
    const auto day = ts::day_of(t);
    if (day == 2) continue;  // fully missing day
    if (day == 4 && ts::minute_of_day(t) >= 6 * 60 &&
        ts::minute_of_day(t) < 14 * 60) {
      continue;  // more than half the occupied window missing
    }
    trace.set(k, 0, 20.0);
  }
  return trace;
}

}  // namespace

TEST(Split, DayModeCoverage) {
  // A day is usable when enough of its occupied rows are valid: days 0, 1,
  // 3 and 5 cover all of them, day 4 between 30% and 70%, day 2 none.
  const auto trace = make_trace();
  const auto usable = [&](double min_coverage) {
    return core::split_dataset(trace, {1}, hvac::Schedule{},
                               hvac::Mode::kOccupied, min_coverage)
        .usable_days;
  };
  EXPECT_EQ(usable(1.0), (std::vector<std::size_t>{0, 1, 3, 5}));
  EXPECT_EQ(usable(0.7), (std::vector<std::size_t>{0, 1, 3, 5}));
  EXPECT_EQ(usable(0.3), (std::vector<std::size_t>{0, 1, 3, 4, 5}));
  EXPECT_EQ(usable(1e-9), (std::vector<std::size_t>{0, 1, 3, 4, 5}));
}

TEST(Split, UsableDaysExcludeFailures) {
  const auto trace = make_trace();
  const auto split = core::split_dataset(trace, {1}, hvac::Schedule{},
                                         hvac::Mode::kOccupied, 0.6);
  EXPECT_EQ(split.usable_days, (std::vector<std::size_t>{0, 1, 3, 5}));
}

TEST(Split, ChronologicalHalves) {
  const auto trace = make_trace();
  const auto split = core::split_dataset(trace, {1}, hvac::Schedule{},
                                         hvac::Mode::kOccupied, 0.6);
  EXPECT_EQ(split.train_days, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(split.validation_days, (std::vector<std::size_t>{3, 5}));
}

TEST(Split, MasksMatchDaySets) {
  const auto trace = make_trace();
  const auto split = core::split_dataset(trace, {1}, hvac::Schedule{},
                                         hvac::Mode::kOccupied, 0.6);
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const auto day = static_cast<std::size_t>(ts::day_of(trace.grid()[k]));
    const bool in_train = day == 0 || day == 1;
    const bool in_valid = day == 3 || day == 5;
    EXPECT_EQ(split.train_mask[k], in_train);
    EXPECT_EQ(split.validation_mask[k], in_valid);
  }
}

TEST(Split, TrainFractionRespected) {
  const auto trace = make_trace();
  const auto split = core::split_dataset(trace, {1}, hvac::Schedule{},
                                         hvac::Mode::kOccupied, 0.6, 0.75);
  EXPECT_EQ(split.train_days.size(), 3u);
  EXPECT_EQ(split.validation_days.size(), 1u);
}

TEST(Split, Validation) {
  const auto trace = make_trace();
  EXPECT_THROW((void)core::split_dataset(trace, {1}, hvac::Schedule{},
                                         hvac::Mode::kOccupied, -0.1),
               std::invalid_argument);
  EXPECT_THROW((void)core::split_dataset(trace, {1}, hvac::Schedule{},
                                         hvac::Mode::kOccupied, 0.5, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)core::split_dataset(MultiTrace{}, {1}, hvac::Schedule{},
                                         hvac::Mode::kOccupied),
               std::invalid_argument);
}

TEST(Split, AndMasks) {
  EXPECT_EQ(core::and_masks({true, true, false}, {true, false, false}),
            (std::vector<bool>{true, false, false}));
  EXPECT_THROW((void)core::and_masks({true}, {true, false}),
               std::invalid_argument);
}

TEST(Split, DayMask) {
  TimeGrid grid(0, ts::kMinutesPerDay / 2, 6);  // 2 samples per day, 3 days
  const auto mask = core::day_mask(grid, {1});
  EXPECT_EQ(mask, (std::vector<bool>{false, false, true, true, false, false}));
}
