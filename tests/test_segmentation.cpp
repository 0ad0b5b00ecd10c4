// Tests for continuous-interval segmentation.

#include "auditherm/timeseries/segmentation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ts = auditherm::timeseries;
using ts::Segment;

TEST(Segmentation, FindsMaximalRuns) {
  const std::vector<bool> mask{true, true, false, true, true, true, false};
  const auto segs = ts::find_segments(mask);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (Segment{0, 2}));
  EXPECT_EQ(segs[1], (Segment{3, 6}));
}

TEST(Segmentation, MinLengthFiltersShortRuns) {
  const std::vector<bool> mask{true, false, true, true, false, true, true, true};
  const auto segs = ts::find_segments(mask, 3);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{5, 8}));
}

TEST(Segmentation, EmptyAndAllTrue) {
  EXPECT_TRUE(ts::find_segments({}).empty());
  EXPECT_TRUE(ts::find_segments({false, false}).empty());
  const auto segs = ts::find_segments({true, true, true});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].length(), 3u);
}

TEST(Segmentation, MinLengthZeroThrows) {
  EXPECT_THROW((void)ts::find_segments({true}, 0), std::invalid_argument);
}

