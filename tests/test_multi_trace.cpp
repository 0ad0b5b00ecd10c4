// Tests for the gapped multi-channel trace container.

#include "auditherm/timeseries/multi_trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace ts = auditherm::timeseries;
using ts::MultiTrace;
using ts::TimeGrid;

namespace {

MultiTrace make_trace() {
  MultiTrace trace(TimeGrid(0, 5, 4), {10, 20, 30});
  // Row 0: all valid; row 1: channel 20 missing; row 2: all missing;
  // row 3: all valid.
  for (std::size_t c = 0; c < 3; ++c) {
    trace.set(0, c, 1.0 + static_cast<double>(c));
    trace.set(3, c, 4.0 + static_cast<double>(c));
  }
  trace.set(1, 0, 1.5);
  trace.set(1, 2, 3.5);
  return trace;
}

}  // namespace

TEST(MultiTrace, StartsAllGaps) {
  MultiTrace trace(TimeGrid(0, 5, 3), {1, 2});
  for (std::size_t k = 0; k < 3; ++k)
    for (std::size_t c = 0; c < 2; ++c) EXPECT_FALSE(trace.valid(k, c));
  EXPECT_DOUBLE_EQ(trace.coverage(), 0.0);
}

TEST(MultiTrace, DuplicateChannelThrows) {
  EXPECT_THROW(MultiTrace(TimeGrid(0, 5, 1), {1, 1}), std::invalid_argument);
}

TEST(MultiTrace, ChannelLookup) {
  const auto trace = make_trace();
  EXPECT_EQ(trace.channel_index(20), std::optional<std::size_t>{1});
  EXPECT_EQ(trace.channel_index(99), std::nullopt);
  EXPECT_EQ(trace.require_channel(30), 2u);
  EXPECT_THROW((void)trace.require_channel(99), std::invalid_argument);
}

TEST(MultiTrace, SetClearValid) {
  auto trace = make_trace();
  EXPECT_TRUE(trace.valid(0, 0));
  trace.clear(0, 0);
  EXPECT_FALSE(trace.valid(0, 0));
  EXPECT_TRUE(std::isnan(trace.value(0, 0)));
}

TEST(MultiTrace, Coverage) {
  const auto trace = make_trace();
  // 8 present of 12 cells.
  EXPECT_NEAR(trace.coverage(), 8.0 / 12.0, 1e-12);
}

TEST(MultiTrace, SelectChannelsReordersAndCopies) {
  const auto trace = make_trace();
  const auto sub = trace.select_channels({30, 10});
  ASSERT_EQ(sub.channel_count(), 2u);
  EXPECT_EQ(sub.channels()[0], 30);
  EXPECT_DOUBLE_EQ(sub.value(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sub.value(0, 1), 1.0);
  EXPECT_THROW((void)trace.select_channels({77}), std::invalid_argument);
}

TEST(MultiTrace, SliceRows) {
  const auto trace = make_trace();
  const auto sliced = trace.slice_rows(1, 3);
  EXPECT_EQ(sliced.size(), 2u);
  EXPECT_EQ(sliced.grid().start(), 5);
  EXPECT_DOUBLE_EQ(sliced.value(0, 0), 1.5);
  EXPECT_FALSE(sliced.valid(1, 0));
  EXPECT_THROW((void)trace.slice_rows(3, 2), std::out_of_range);
  EXPECT_THROW((void)trace.slice_rows(0, 5), std::out_of_range);
}

TEST(MultiTrace, FilterRows) {
  const auto trace = make_trace();
  const auto filtered = trace.filter_rows({true, false, false, true});
  EXPECT_EQ(filtered.size(), 2u);
  EXPECT_DOUBLE_EQ(filtered.value(1, 0), 4.0);
  EXPECT_THROW((void)trace.filter_rows({true}), std::invalid_argument);
}

TEST(MultiTrace, RowsWithAllValid) {
  const auto trace = make_trace();
  const auto all = ts::rows_with_all_valid(trace);
  EXPECT_EQ(all, (std::vector<bool>{true, false, false, true}));
  const auto subset = ts::rows_with_all_valid(trace, {10, 30});
  EXPECT_EQ(subset, (std::vector<bool>{true, true, false, true}));
  EXPECT_THROW((void)ts::rows_with_all_valid(trace, {99}),
               std::invalid_argument);
}

TEST(MultiTrace, RowMeanSkipsGaps) {
  const auto trace = make_trace();
  const auto mean_all = ts::row_mean(trace);
  EXPECT_DOUBLE_EQ(mean_all[0], 2.0);        // (1+2+3)/3
  EXPECT_DOUBLE_EQ(mean_all[1], 2.5);        // (1.5+3.5)/2, gap skipped
  EXPECT_TRUE(std::isnan(mean_all[2]));      // fully missing row
  const auto mean_sub = ts::row_mean(trace, {10});
  EXPECT_DOUBLE_EQ(mean_sub[3], 4.0);
}
