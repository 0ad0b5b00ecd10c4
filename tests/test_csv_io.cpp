// Tests for CSV round-tripping of gapped traces.

#include "auditherm/timeseries/csv_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ts = auditherm::timeseries;
using ts::MultiTrace;
using ts::TimeGrid;

namespace {

MultiTrace make_trace() {
  MultiTrace trace(TimeGrid(30, 5, 3), {1, 42});
  trace.set(0, 0, 20.5);
  trace.set(0, 1, 21.0);
  trace.set(2, 0, 19.75);  // row 1 fully missing, row 2 channel 42 missing
  return trace;
}

/// Bitwise round-trip check: grid, channels, validity pattern, and exact
/// double equality (max_digits10 guarantees the decimal form recovers the
/// same bits).
void expect_exact_round_trip(const MultiTrace& original,
                             const MultiTrace& loaded) {
  ASSERT_EQ(loaded.grid(), original.grid());
  ASSERT_EQ(loaded.channels(), original.channels());
  for (std::size_t k = 0; k < original.size(); ++k) {
    for (std::size_t c = 0; c < original.channel_count(); ++c) {
      ASSERT_EQ(loaded.valid(k, c), original.valid(k, c))
          << "validity mismatch at row " << k << ", channel " << c;
      if (original.valid(k, c)) {
        ASSERT_EQ(loaded.value(k, c), original.value(k, c))
            << "value mismatch at row " << k << ", channel " << c;
      }
    }
  }
}

}  // namespace

TEST(CsvIo, RoundTripPreservesEverything) {
  const auto original = make_trace();
  std::stringstream ss;
  ts::write_csv(ss, original);
  const auto loaded = ts::read_csv(ss);
  expect_exact_round_trip(original, loaded);
}

TEST(CsvIo, HeaderFormat) {
  std::stringstream ss;
  ts::write_csv(ss, make_trace());
  std::string step_comment, header;
  std::getline(ss, step_comment);
  std::getline(ss, header);
  EXPECT_EQ(step_comment, "# step_minutes=5");
  EXPECT_EQ(header, "time_minutes,ch1,ch42");
}

TEST(CsvIo, FullPrecisionSurvivesRoundTrip) {
  // Values chosen to die under the old precision(10) truncation: 17
  // significant digits, irrationals, extreme magnitudes, negative zero.
  MultiTrace trace(TimeGrid(0, 30, 6), {7});
  trace.set(0, 0, 0.1 + 0.2);                   // 0.30000000000000004
  trace.set(1, 0, 3.141592653589793);           // pi to the last bit
  trace.set(2, 0, 1.0 + 1e-15);
  trace.set(3, 0, std::numeric_limits<double>::min());  // smallest normal
  trace.set(4, 0, -1.7976931348623157e308);     // -DBL_MAX
  trace.set(5, 0, 123456.78901234567);
  std::stringstream ss;
  ts::write_csv(ss, trace);
  expect_exact_round_trip(trace, ts::read_csv(ss));
}

TEST(CsvIo, RandomTracePropertyRoundTrip) {
  // Property test: any trace — random grids (including a single row),
  // random channel ids, NaN gaps, full-range values — round-trips
  // bit-for-bit through write_csv / read_csv.
  std::mt19937_64 rng(20260806);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t start =
        static_cast<std::int64_t>(rng() % 100000) - 50000;
    const std::int64_t step = 1 + static_cast<std::int64_t>(rng() % 120);
    const std::size_t rows = 1 + rng() % 40;  // single-row traces included
    const std::size_t nch = 1 + rng() % 6;
    std::vector<int> channels;
    int next_id = 1 + static_cast<int>(rng() % 5);
    for (std::size_t c = 0; c < nch; ++c) {
      channels.push_back(next_id);
      next_id += 1 + static_cast<int>(rng() % 40);
    }
    MultiTrace trace(TimeGrid(start, step, rows), channels);
    for (std::size_t k = 0; k < rows; ++k) {
      for (std::size_t c = 0; c < nch; ++c) {
        if (unit(rng) < 0.25) continue;  // leave a NaN gap
        // Full-entropy doubles over a wide range of magnitudes.
        const double magnitude = std::pow(10.0, unit(rng) * 20.0 - 10.0);
        trace.set(k, c, (unit(rng) - 0.5) * magnitude);
      }
    }
    std::stringstream ss;
    ts::write_csv(ss, trace);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_exact_round_trip(trace, ts::read_csv(ss));
  }
}

TEST(CsvIo, SingleRowKeepsWrittenStep) {
  // Regression: a single-row trace used to read back with step 1 no
  // matter what was written; the step comment now persists the grid.
  MultiTrace trace(TimeGrid(100, 30, 1), {1});
  trace.set(0, 0, 20.0);
  std::stringstream ss;
  ts::write_csv(ss, trace);
  const auto loaded = ts::read_csv(ss);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.grid().start(), 100);
  EXPECT_EQ(loaded.grid().step(), 30);
}

TEST(CsvIo, SingleRowWithoutCommentGetsUnitStep) {
  // Backward compatibility: files from the old writer have no comment.
  std::stringstream ss("time_minutes,ch1\n100,20.0\n");
  const auto trace = ts::read_csv(ss);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.grid().start(), 100);
  EXPECT_EQ(trace.grid().step(), 1);
}

TEST(CsvIo, CrlfInputParses) {
  // CRLF line endings used to reach std::stod as "20.5\r" and throw a
  // bare std::invalid_argument.
  const auto original = make_trace();
  std::stringstream ss;
  ts::write_csv(ss, original);
  std::string crlf;
  for (char ch : ss.str()) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  std::stringstream crlf_ss(crlf);
  expect_exact_round_trip(original, ts::read_csv(crlf_ss));
}

TEST(CsvIo, StepCommentDisagreeingWithDataThrows) {
  std::stringstream ss("# step_minutes=10\ntime_minutes,ch1\n0,1.0\n5,2.0\n");
  EXPECT_THROW((void)ts::read_csv(ss), std::runtime_error);
}

TEST(CsvIo, NonPositiveStepCommentThrows) {
  std::stringstream ss("# step_minutes=0\ntime_minutes,ch1\n0,1.0\n");
  EXPECT_THROW((void)ts::read_csv(ss), std::runtime_error);
  std::stringstream ss2("# step_minutes=-5\ntime_minutes,ch1\n0,1.0\n");
  EXPECT_THROW((void)ts::read_csv(ss2), std::runtime_error);
}

TEST(CsvIo, UnknownCommentsAreIgnored) {
  std::stringstream ss(
      "# exported by auditherm\ntime_minutes,ch1\n# mid-file note\n0,1.0\n"
      "5,2.0\n");
  const auto trace = ts::read_csv(ss);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.grid().step(), 5);
}

TEST(CsvIo, BadValueReportsRowAndColumn) {
  std::stringstream ss("time_minutes,ch1,ch2\n0,1.0,2.0\n5,oops,2.5\n");
  try {
    (void)ts::read_csv(ss);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'oops'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("column 2"), std::string::npos) << what;
  }
}

TEST(CsvIo, BadTimeReportsLine) {
  std::stringstream ss("time_minutes,ch1\nnoon,1.0\n");
  try {
    (void)ts::read_csv(ss);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'noon'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(CsvIo, TrailingJunkInNumberThrows) {
  // std::stod would accept "1.5x" by parsing the prefix; full-cell
  // consumption is required.
  std::stringstream ss("time_minutes,ch1\n0,1.5x\n");
  EXPECT_THROW((void)ts::read_csv(ss), std::runtime_error);
}

TEST(CsvIo, OutOfRangeValueThrowsRuntimeError) {
  // 1e999 overflows double: std::out_of_range from stod, rewrapped.
  std::stringstream ss("time_minutes,ch1\n0,1e999\n");
  try {
    (void)ts::read_csv(ss);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad sample value '1e999'"), std::string::npos)
        << what;
  }
}

TEST(CsvIo, InfiniteSamplesAreRefusedWithPosition) {
  for (const std::string cell : {"inf", "-inf", "Infinity"}) {
    std::stringstream ss("time_minutes,ch1,ch2\n0,1.0,2.0\n5,1.5," + cell +
                         "\n");
    try {
      (void)ts::read_csv(ss);
      FAIL() << "expected std::runtime_error for '" << cell << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "read_csv: non-finite sample '" +
                                           cell + "' at line 3, column 3");
    }
  }
}

TEST(CsvIo, NanCellReadsAsGap) {
  std::stringstream ss("time_minutes,ch1,ch2\n0,nan,2.0\n5,1.5,NaN\n");
  const auto trace = ts::read_csv(ss);
  EXPECT_FALSE(trace.valid(0, 0));
  EXPECT_TRUE(trace.valid(0, 1));
  EXPECT_TRUE(trace.valid(1, 0));
  EXPECT_FALSE(trace.valid(1, 1));
}

TEST(CsvIo, RejectsEmptyInput) {
  std::stringstream ss("");
  EXPECT_THROW((void)ts::read_csv(ss), std::runtime_error);
  // Comment-only input has no header either.
  std::stringstream ss2("# step_minutes=5\n");
  EXPECT_THROW((void)ts::read_csv(ss2), std::runtime_error);
}

TEST(CsvIo, RejectsBadHeader) {
  std::stringstream ss("time,ch1\n0,1\n");
  EXPECT_THROW((void)ts::read_csv(ss), std::runtime_error);
  std::stringstream ss2("time_minutes,foo\n0,1\n");
  EXPECT_THROW((void)ts::read_csv(ss2), std::runtime_error);
  std::stringstream ss3("time_minutes,ch1x\n0,1\n");
  EXPECT_THROW((void)ts::read_csv(ss3), std::runtime_error);
}

TEST(CsvIo, RejectsRaggedRow) {
  std::stringstream ss("time_minutes,ch1,ch2\n0,1.0\n");
  EXPECT_THROW((void)ts::read_csv(ss), std::runtime_error);
}

TEST(CsvIo, RejectsNonUniformStep) {
  std::stringstream ss("time_minutes,ch1\n0,1.0\n5,2.0\n12,3.0\n");
  EXPECT_THROW((void)ts::read_csv(ss), std::runtime_error);
}

TEST(CsvIo, RejectsNonIncreasingTime) {
  std::stringstream ss("time_minutes,ch1\n10,1.0\n10,2.0\n");
  EXPECT_THROW((void)ts::read_csv(ss), std::runtime_error);
}

TEST(CsvIo, FileRoundTrip) {
  const auto original = make_trace();
  // Per-process name: ctest runs tests as parallel processes.
  const std::string path = ::testing::TempDir() + "/auditherm_trace_" +
                           std::to_string(::getpid()) + ".csv";
  ts::write_csv_file(path, original);
  std::ifstream file(path);
  const auto loaded = ts::read_csv(file);
  EXPECT_EQ(loaded.grid(), original.grid());
  EXPECT_NEAR(loaded.coverage(), original.coverage(), 1e-12);
  std::remove(path.c_str());
}

TEST(CsvIo, MissingFileThrows) {
  EXPECT_THROW(ts::write_csv_file("/nonexistent/dir/out.csv", make_trace()),
               std::runtime_error);
}
