// Tests for CSV round-tripping of gapped traces, and for the one-pass
// reader and chunked writer against the stod / ostream oracles.

#include "auditherm/timeseries/csv_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/csv_oracle.hpp"

namespace ts = auditherm::timeseries;
namespace support = auditherm::test_support;
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

TEST(CsvIo, SubnormalSamplesRoundTrip) {
  // The old std::stod reader refused its own writer's output here:
  // "bad sample value '9.9999999999999694e-311' at line 3, column 2",
  // because stod reports ERANGE for every subnormal result.
  MultiTrace trace(TimeGrid(0, 5, 3), {1, 2});
  trace.set(0, 0, 9.9999999999999694e-311);
  trace.set(1, 0, std::numeric_limits<double>::denorm_min());
  trace.set(2, 1, -std::numeric_limits<double>::denorm_min());
  trace.set(0, 1, -0.0);
  std::stringstream ss;
  ts::write_csv(ss, trace);
  const std::string text = ss.str();
  EXPECT_NE(text.find("0,9.9999999999999694e-311,-0\n"), std::string::npos)
      << text;
  const auto loaded = ts::read_csv(text);
  expect_exact_round_trip(trace, loaded);
  EXPECT_TRUE(std::signbit(loaded.value(0, 1)));
}

namespace {

/// What read_csv makes of one cell: a sample (or the grid start, for a
/// time cell), a gap, or an error message.
struct CellOutcome {
  std::optional<double> value;  ///< nullopt with an empty error = gap
  std::string error;
};

CellOutcome outcome_of(const std::function<MultiTrace()>& read,
                       bool time_cell) {
  try {
    const MultiTrace trace = read();
    if (time_cell) return {static_cast<double>(trace.grid().start()), ""};
    if (!trace.valid(0, 0)) return {std::nullopt, ""};
    return {trace.value(0, 0), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

std::string bad_value(const std::string& cell) {
  return "read_csv: bad sample value '" + cell + "' at line 2, column 2";
}

std::string non_finite(const std::string& cell) {
  return "read_csv: non-finite sample '" + cell + "' at line 2, column 2";
}

std::string bad_time(const std::string& cell) {
  return "read_csv: bad time value '" + cell + "' at line 2, column 1";
}

}  // namespace

TEST(CsvIo, NumberSyntaxMatchesStod) {
  // Every cell std::stod / std::stoll took, read_csv takes, with the same
  // value or the same error; only subnormals differ on purpose (they
  // parse now). A bare from_chars would refuse "+1.5", " 1.5" and hex.
  constexpr double kGapMark = std::numeric_limits<double>::quiet_NaN();
  struct Row {
    std::string cell;
    bool time_cell;
    double value;       ///< expected value; kGapMark = gap
    std::string error;  ///< expected error ("" = parses)
    bool oracle_differs;
  };
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<Row> table = {
      {"+1.5", false, 1.5, "", false},
      {" 1.5", false, 1.5, "", false},
      {"\t\r+2", false, 2.0, "", false},
      {"1.5 ", false, 0, bad_value("1.5 "), false},
      {"0x1p3", false, 8.0, "", false},
      {"-0X1.8P1", false, -3.0, "", false},
      {"0x.8", false, 0.5, "", false},
      {"0x", false, 0, bad_value("0x"), false},
      {"0x-1", false, 0, bad_value("0x-1"), false},
      {"0xinf", false, 0, bad_value("0xinf"), false},
      {"+-1", false, 0, bad_value("+-1"), false},
      {"--1", false, 0, bad_value("--1"), false},
      {"+ 1", false, 0, bad_value("+ 1"), false},
      {"1e999", false, 0, bad_value("1e999"), false},
      {"-1e999", false, 0, bad_value("-1e999"), false},
      {"1e-400", false, 0, bad_value("1e-400"), false},
      {"0x1p-1080", false, 0, bad_value("0x1p-1080"), false},
      {"4.9e-324", false, denorm, "", true},
      {"9.9999999999999694e-311", false, 9.9999999999999694e-311, "", true},
      {"nan", false, kGapMark, "", false},
      {"-nan", false, kGapMark, "", false},
      {"nan(123)", false, kGapMark, "", false},
      {"NaN", false, kGapMark, "", false},
      {"inf", false, 0, non_finite("inf"), false},
      {"+inf", false, 0, non_finite("+inf"), false},
      {"-Infinity", false, 0, non_finite("-Infinity"), false},
      {"infx", false, 0, bad_value("infx"), false},
      {"1.", false, 1.0, "", false},
      {".5", false, 0.5, "", false},
      {"-0", false, -0.0, "", false},
      {"1E5", false, 1e5, "", false},
      {"1e", false, 0, bad_value("1e"), false},
      {" ", false, 0, bad_value(" "), false},
      {"+30", true, 30, "", false},
      {" 30", true, 30, "", false},
      {"-30", true, -30, "", false},
      {"30 ", true, 0, bad_time("30 "), false},
      {"0x1e", true, 0, bad_time("0x1e"), false},
      {"+-30", true, 0, bad_time("+-30"), false},
      {"3.0", true, 0, bad_time("3.0"), false},
      {" ", true, 0, bad_time(" "), false},
      {"99999999999999999999", true, 0, bad_time("99999999999999999999"),
       false},
  };
  for (const Row& row : table) {
    SCOPED_TRACE("cell '" + row.cell + (row.time_cell ? "' (time)" : "'"));
    const std::string csv = row.time_cell
                                ? "time_minutes,ch1\n" + row.cell + ",1.0\n"
                                : "time_minutes,ch1\n0," + row.cell + "\n";
    const CellOutcome got =
        outcome_of([&] { return ts::read_csv(csv); }, row.time_cell);
    if (!row.error.empty()) {
      EXPECT_EQ(got.error, row.error);
    } else if (std::isnan(row.value)) {
      EXPECT_EQ(got.error, "");
      EXPECT_FALSE(got.value.has_value()) << "expected a gap";
    } else {
      EXPECT_EQ(got.error, "");
      ASSERT_TRUE(got.value.has_value());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*got.value),
                std::bit_cast<std::uint64_t>(row.value));
    }
    std::istringstream oracle_in(csv);
    const CellOutcome oracle = outcome_of(
        [&] { return support::read_csv_stod(oracle_in); }, row.time_cell);
    if (row.oracle_differs) {
      EXPECT_EQ(oracle.error, bad_value(row.cell));
    } else {
      EXPECT_EQ(oracle.error, got.error);
      EXPECT_EQ(oracle.value.has_value(), got.value.has_value());
      if (oracle.value && got.value) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(*oracle.value),
                  std::bit_cast<std::uint64_t>(*got.value));
      }
    }
  }
}

namespace {

/// One random cell in one of the spellings std::stod accepts (or, rarely,
/// one it refuses), never subnormal.
std::string random_cell(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double v =
      (unit(rng) - 0.5) * std::pow(10.0, unit(rng) * 16.0 - 6.0);
  char buf[64];
  switch (rng() % 16) {
    case 0: return "";
    case 1: return "nan";
    case 2: return rng() % 2 ? "-nan" : "NaN";
    case 3: std::snprintf(buf, sizeof(buf), "%a", v); return buf;
    case 4: std::snprintf(buf, sizeof(buf), "%+.3f", v); return buf;
    case 5: std::snprintf(buf, sizeof(buf), " %g", v); return buf;
    case 6: std::snprintf(buf, sizeof(buf), "%.0f.", std::round(v)); return buf;
    case 7: std::snprintf(buf, sizeof(buf), "%E", v); return buf;
    case 8:
      if (rng() % 8 == 0) {
        const char* odd[] = {"inf", "-Infinity", "1e999", "1e-400", "oops",
                             "1.5x", " ", "+-2", "2 ", "0x"};
        return odd[rng() % 10];
      }
      [[fallthrough]];
    default: std::snprintf(buf, sizeof(buf), "%.17g", v); return buf;
  }
}

/// A random CSV in the shapes real exports take: CRLF or LF, blank and
/// comment lines, a step comment (sometimes contradicting the data), gap
/// columns that end rows in a trailing comma, and, rarely, a ragged row,
/// a bad or non-uniform time, or a bad cell.
std::string random_csv(std::mt19937_64& rng) {
  const bool crlf = rng() % 2 == 0;
  const std::string eol = crlf ? "\r\n" : "\n";
  const std::size_t nch = 1 + rng() % 5;
  const std::size_t rows = rng() % 12;
  const long long start = static_cast<long long>(rng() % 2000) - 1000;
  const long long step = 1 + static_cast<long long>(rng() % 60);
  std::string csv;
  if (rng() % 2) {
    const long long declared = rng() % 10 == 0 ? step + 1 : step;
    csv += "# step_minutes=" + std::to_string(declared) + eol;
  }
  if (rng() % 4 == 0) csv += "# exported by a building portal" + eol;
  csv += "time_minutes";
  for (std::size_t c = 0; c < nch; ++c) {
    csv += ",ch" + std::to_string(1 + c * 7 + rng() % 7);
  }
  csv += eol;
  for (std::size_t k = 0; k < rows; ++k) {
    if (rng() % 10 == 0) csv += eol;  // blank line
    if (rng() % 12 == 0) csv += "# note" + eol;
    long long t = start + static_cast<long long>(k) * step;
    if (rng() % 40 == 0) t += 1;  // a non-uniform (or non-increasing) step
    std::string time = std::to_string(t);
    switch (rng() % 30) {
      case 0: time = "+" + time; break;
      case 1: time = " " + time; break;
      case 2: time += "x"; break;
      default: break;
    }
    csv += time;
    for (std::size_t c = 0; c < nch; ++c) csv += "," + random_cell(rng);
    if (rng() % 60 == 0) csv += ",";  // ragged
    csv += eol;
  }
  if (rng() % 3 == 0 && csv.size() >= eol.size()) {
    csv.resize(csv.size() - eol.size());  // no final line ending
  }
  return csv;
}

/// Same grid, channels, gaps and sample bits (NaN payloads aside).
void expect_same_trace(const MultiTrace& a, const MultiTrace& b) {
  ASSERT_EQ(a.grid(), b.grid());
  ASSERT_EQ(a.channels(), b.channels());
  for (std::size_t k = 0; k < a.size(); ++k) {
    for (std::size_t c = 0; c < a.channel_count(); ++c) {
      ASSERT_EQ(a.valid(k, c), b.valid(k, c)) << "row " << k << " ch " << c;
      if (a.valid(k, c)) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.value(k, c)),
                  std::bit_cast<std::uint64_t>(b.value(k, c)))
            << "row " << k << " ch " << c;
      }
    }
  }
}

}  // namespace

TEST(CsvIo, MatchesStodOracleOnSeededInputs) {
  std::mt19937_64 rng(20261019);
  std::size_t parsed = 0;
  std::size_t failed = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::string csv = random_csv(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ":\n" + csv);
    std::optional<MultiTrace> expected;
    std::string expected_error;
    try {
      std::istringstream in(csv);
      expected = support::read_csv_stod(in);
    } catch (const ts::InputError& e) {
      expected_error = e.what();
    }
    try {
      const MultiTrace got = ts::read_csv(csv);
      ASSERT_TRUE(expected.has_value())
          << "read_csv accepted what the oracle refused: " << expected_error;
      expect_same_trace(got, *expected);
      ++parsed;
    } catch (const ts::InputError& e) {
      EXPECT_EQ(std::string(e.what()), expected_error);
      ++failed;
    }
  }
  // Both outcomes must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(parsed, 150u);
  EXPECT_GT(failed, 150u);
}

TEST(CsvIo, ValueErrorsYieldToLaterStepErrors) {
  // Values used to be parsed only after every line was read and the time
  // step checked, so a later non-uniform step outranks an earlier bad
  // value; keep that order.
  const std::string csv =
      "time_minutes,ch1\n0,1.0\n5,oops\n10,2.0\n20,3.0\n";
  try {
    (void)ts::read_csv(csv);
    FAIL() << "expected an InputError";
  } catch (const ts::InputError& e) {
    EXPECT_EQ(std::string(e.what()),
              "read_csv: non-uniform time step at line 5");
  }
  std::istringstream oracle(csv);
  EXPECT_THROW((void)support::read_csv_stod(oracle), ts::InputError);
  // With the step repaired, the bad value is what is reported.
  try {
    (void)ts::read_csv("time_minutes,ch1\n0,1.0\n5,oops\n10,2.0\n15,inf\n");
    FAIL() << "expected an InputError";
  } catch (const ts::InputError& e) {
    EXPECT_EQ(std::string(e.what()),
              "read_csv: bad sample value 'oops' at line 3, column 2");
  }
}

TEST(CsvIo, DuplicateChannelIsAnInputError) {
  // MultiTrace's message, but as the input error it is (HTTP 400).
  try {
    (void)ts::read_csv("time_minutes,ch3,ch3\n0,1,2\n");
    FAIL() << "expected an InputError";
  } catch (const ts::InputError& e) {
    EXPECT_EQ(std::string(e.what()), "MultiTrace: duplicate channel id 3");
  }
}

TEST(CsvIo, WriterBytesMatchOstreamOracle) {
  // Property: for seeded random traces holding gaps, -0, subnormals,
  // +-1e308, integral values and full-entropy bit patterns, write_csv's
  // to_chars text is byte for byte the old ostream writer's; one trace
  // is wide and long enough to cross the writer's chunk boundary.
  std::mt19937_64 rng(20261020);
  const std::vector<double> specials = {
      -0.0, 0.0, 1e308, -1e308, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(), -9.9999999999999694e-311,
      std::numeric_limits<double>::min(), 20.0, -3.0, 1e15, 1e16, 1e17,
      123456789012345678.0, 0.1, 20.300000000000001};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t rows = trial == 0 ? 3000 : 1 + rng() % 30;
    const std::size_t nch = trial == 0 ? 9 : 1 + rng() % 6;
    std::vector<int> channels;
    for (std::size_t c = 0; c < nch; ++c) {
      channels.push_back(static_cast<int>(c * 13 + rng() % 13) -
                         (trial % 5 == 0 ? 40 : 0));
    }
    const auto start = static_cast<std::int64_t>(rng() % 200000) - 100000;
    const auto step = 1 + static_cast<std::int64_t>(rng() % 1440);
    MultiTrace trace(TimeGrid(start, step, rows), channels);
    for (std::size_t k = 0; k < rows; ++k) {
      for (std::size_t c = 0; c < nch; ++c) {
        switch (rng() % 4) {
          case 0: break;  // gap
          case 1: trace.set(k, c, specials[rng() % specials.size()]); break;
          default: {
            const double v = std::bit_cast<double>(rng());
            if (std::isfinite(v)) trace.set(k, c, v);
          }
        }
      }
    }
    std::ostringstream got;
    std::ostringstream expected;
    ts::write_csv(got, trace);
    support::write_csv_ostream(expected, trace);
    ASSERT_EQ(got.str(), expected.str()) << "trial " << trial;
  }
}

TEST(CsvIo, MutantsYieldATraceOrAnInputError) {
  // Seeded mutation fuzz: byte flips, truncation, inserted ',', '\r',
  // NUL and '#', and swapped lines over a valid file. Every mutant must
  // parse or fail with an InputError — no other exception, crash or hang
  // (this suite also runs under ASan/UBSan).
  MultiTrace base(TimeGrid(-30, 15, 24), {1, 7, 42});
  std::mt19937_64 values(7);
  for (std::size_t k = 0; k < base.size(); ++k) {
    for (std::size_t c = 0; c < base.channel_count(); ++c) {
      if (values() % 5 != 0) {
        base.set(k, c, static_cast<double>(values() % 4000) / 100.0 - 5.0);
      }
    }
  }
  std::ostringstream os;
  ts::write_csv(os, base);
  const std::string original = os.str();

  std::mt19937_64 rng(20261021);
  const auto started = std::chrono::steady_clock::now();
  std::size_t parsed = 0;
  for (int mutant = 0; mutant < 2000; ++mutant) {
    std::string text = original;
    const std::size_t edits = 1 + rng() % 3;
    for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng() % text.size();
      switch (rng() % 7) {
        case 0: text[at] = static_cast<char>(rng() % 256); break;
        case 1: text.resize(at); break;
        case 2: text.insert(at, 1, ','); break;
        case 3: text.insert(at, 1, '\r'); break;
        case 4: text.insert(at, 1, '\0'); break;
        case 5: text.insert(at, 1, '#'); break;
        default: {
          std::vector<std::string> lines;
          std::istringstream split(text);
          for (std::string l; std::getline(split, l);) lines.push_back(l);
          if (lines.size() >= 2) {
            std::swap(lines[rng() % lines.size()],
                      lines[rng() % lines.size()]);
          }
          text.clear();
          for (const auto& l : lines) text += l + "\n";
        }
      }
    }
    try {
      (void)ts::read_csv(text);
      ++parsed;
    } catch (const ts::InputError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << mutant << " threw a non-input error: "
                    << e.what();
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 2000u);
  RecordProperty("parsed_mutants", static_cast<int>(parsed));
  RecordProperty("seconds", std::to_string(seconds));
}
