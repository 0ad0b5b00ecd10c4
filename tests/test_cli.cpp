// Tests for the shared CLI option parser: the declarative OptionSet,
// the duplicate/unknown/missing-flag error paths, and decoding of the
// common flags (--threads, --metrics-out, --trace); plus the built
// `auditherm` binary's exit status on removed flags and on a trace whose
// analysis overflows.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "auditherm/core/cli.hpp"

namespace {

namespace cli = auditherm::core::cli;

cli::OptionSet test_set() {
  return cli::OptionSet(
      "frob",
      {
          {.name = "data", .takes_value = true, .required = true,
           .value_name = "FILE", .help = "input trace"},
          {.name = "clusters", .takes_value = true, .required = false,
           .value_name = "K", .help = "cluster count"},
          {.name = "trace", .takes_value = false, .required = false,
           .value_name = "", .help = "print span tree"},
      });
}

cli::ParsedOptions parse(const cli::OptionSet& set,
                         std::vector<std::string> args) {
  std::vector<const char*> argv{"auditherm", set.command().c_str()};
  for (const auto& a : args) argv.push_back(a.c_str());
  return set.parse(static_cast<int>(argv.size()), argv.data(), 2);
}

/// Expect `parse` to throw a UsageError whose message contains `needle`.
void expect_usage_error(const cli::OptionSet& set,
                        std::vector<std::string> args,
                        const std::string& needle) {
  try {
    (void)parse(set, std::move(args));
    FAIL() << "expected UsageError containing \"" << needle << "\"";
  } catch (const cli::UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(CliOptionSet, ParsesValuesBooleansAndDefaults) {
  const auto set = test_set();
  const auto parsed =
      parse(set, {"--data", "trace.csv", "--clusters", "4", "--trace"});
  EXPECT_TRUE(parsed.has("data"));
  EXPECT_EQ(parsed.require("data"), "trace.csv");
  EXPECT_EQ(parsed.get_long("clusters", 2), 4);
  EXPECT_TRUE(parsed.has("trace"));
  EXPECT_FALSE(parsed.has("seed"));
  EXPECT_EQ(parsed.get("seed"), std::nullopt);
  EXPECT_EQ(parsed.get_long("seed", 7), 7);
}

TEST(CliOptionSet, RejectsDuplicateFlags) {
  const auto set = test_set();
  expect_usage_error(set, {"--data", "a.csv", "--data", "b.csv"},
                     "duplicate flag --data");
  // Boolean flags too — repetition is not idempotent, it is a typo.
  expect_usage_error(set, {"--data", "a.csv", "--trace", "--trace"},
                     "duplicate flag --trace");
}

TEST(CliOptionSet, RejectsUnknownFlagsNamingTheCommand) {
  const auto set = test_set();
  expect_usage_error(set, {"--data", "a.csv", "--bogus", "1"},
                     "unknown flag --bogus");
  expect_usage_error(set, {"--data", "a.csv", "--bogus", "1"}, "frob");
}

TEST(CliOptionSet, RejectsMissingRequiredAndMissingValue) {
  const auto set = test_set();
  expect_usage_error(set, {"--clusters", "4"}, "--data");
  expect_usage_error(set, {"--data"}, "--data expects a value");
}

TEST(CliOptionSet, RejectsFlagLikeValues) {
  const auto set = test_set();
  // `--data --trace` is a forgotten value, not a filename named
  // "--trace"; consuming it used to silently swallow the next flag.
  expect_usage_error(set, {"--data", "--trace"}, "--data expects a value");
  expect_usage_error(set, {"--data", "--clusters", "4"},
                     "--data expects a value");
  // Single-dash tokens are still ordinary values (negative numbers).
  const auto parsed = parse(set, {"--data", "a.csv", "--clusters", "-2"});
  EXPECT_EQ(parsed.require("clusters"), "-2");
}

TEST(CliOptionSet, ParsesEqualsSyntax) {
  const auto set = test_set();
  const auto parsed = parse(set, {"--data=trace.csv", "--clusters=4"});
  EXPECT_EQ(parsed.require("data"), "trace.csv");
  EXPECT_EQ(parsed.get_long("clusters", 2), 4);
}

TEST(CliOptionSet, EqualsSyntaxAllowsFlagLikeAndEmptyValues) {
  const auto set = test_set();
  // The explicit form is the escape hatch for values that *do* begin
  // with "--" (or are empty).
  const auto parsed = parse(set, {"--data=--weird.csv", "--clusters="});
  EXPECT_EQ(parsed.require("data"), "--weird.csv");
  EXPECT_EQ(parsed.require("clusters"), "");
}

TEST(CliOptionSet, EqualsSyntaxRejectedOnBooleanFlags) {
  const auto set = test_set();
  expect_usage_error(set, {"--data", "a.csv", "--trace=1"},
                     "--trace does not take a value");
}

TEST(CliOptionSet, EqualsSyntaxStillRejectsDuplicatesAndUnknowns) {
  const auto set = test_set();
  expect_usage_error(set, {"--data=a.csv", "--data", "b.csv"},
                     "duplicate flag --data");
  expect_usage_error(set, {"--data=a.csv", "--bogus=1"},
                     "unknown flag --bogus");
}

TEST(CliOptionSet, RejectsPositionalArguments) {
  const auto set = test_set();
  expect_usage_error(set, {"trace.csv"}, "trace.csv");
}

TEST(CliOptionSet, GetLongRejectsNonIntegers) {
  const auto set = test_set();
  const auto parsed = parse(set, {"--data", "a.csv", "--clusters", "4x"});
  EXPECT_THROW((void)parsed.get_long("clusters", 0), cli::UsageError);
}

TEST(CliOptionSet, RequireThrowsWhenAbsent) {
  const auto set = test_set();
  const auto parsed = parse(set, {"--data", "a.csv"});
  EXPECT_THROW((void)parsed.require("clusters"), cli::UsageError);
}

TEST(CliOptionSet, DuplicateSpecNamesAreAProgrammingError) {
  cli::OptionSpec x;
  x.name = "x";
  EXPECT_THROW(cli::OptionSet("bad", {x, x}), std::invalid_argument);
}

TEST(CliOptionSet, UsageListsEveryFlag) {
  const auto set = test_set();
  const auto usage = set.usage();
  EXPECT_NE(usage.find("frob"), std::string::npos);
  EXPECT_NE(usage.find("--data"), std::string::npos);
  EXPECT_NE(usage.find("--clusters"), std::string::npos);
  EXPECT_NE(usage.find("--trace"), std::string::npos);
  EXPECT_NE(usage.find("FILE"), std::string::npos);
}

// --- Common observability flags ------------------------------------------

cli::OptionSet common_set() {
  return cli::OptionSet("common", cli::common_options());
}

TEST(CliCommonOptions, DefaultsWhenNoFlagsGiven) {
  const auto common = cli::parse_common(parse(common_set(), {}));
  EXPECT_EQ(common.threads, 0u);
  EXPECT_TRUE(common.metrics_out.empty());
  EXPECT_FALSE(common.trace);
  EXPECT_FALSE(common.observability_enabled());
}

TEST(CliCommonOptions, DecodesAllThreeFlags) {
  const auto common = cli::parse_common(parse(
      common_set(), {"--threads", "4", "--metrics-out", "m.json", "--trace"}));
  EXPECT_EQ(common.threads, 4u);
  EXPECT_EQ(common.metrics_out, "m.json");
  EXPECT_TRUE(common.trace);
  EXPECT_TRUE(common.observability_enabled());
}

TEST(CliCommonOptions, MetricsOutAloneEnablesObservability) {
  const auto common = cli::parse_common(
      parse(common_set(), {"--metrics-out", "m.json"}));
  EXPECT_FALSE(common.trace);
  EXPECT_TRUE(common.observability_enabled());
}

TEST(CliCommonOptions, RejectsNegativeThreads) {
  EXPECT_THROW(
      (void)cli::parse_common(parse(common_set(), {"--threads", "-2"})),
      cli::UsageError);
}

/// Run the built `auditherm` binary with `args`, capturing stdout (and,
/// unless `stderr_redirect` sends it elsewhere, stderr) into `output`;
/// returns the exit status (-1 if it did not exit).
int run_auditherm(const std::string& args, std::string& output,
                  const std::string& stderr_redirect = "2>&1") {
  const std::string command = std::string("'") + AUDITHERM_CLI_PATH + "' " +
                              args + " " + stderr_redirect;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliBinary, AnalyzeRejectsRemovedFlags) {
  // The eigensolver follows from the graph and the stage cache is always
  // on, so --eigen and --cache are unknown flags: usage errors (exit 2)
  // that print the analyze usage.
  const std::pair<std::string, std::string> removed[] = {
      {"--eigen jacobi", "unknown flag --eigen"},
      {"--cache off", "unknown flag --cache"},
  };
  for (const auto& [args, message] : removed) {
    std::string output;
    EXPECT_EQ(run_auditherm("analyze --data unused.csv " + args, output), 2);
    EXPECT_NE(output.find(message), std::string::npos) << output;
    EXPECT_NE(output.find("usage: auditherm analyze"), std::string::npos)
        << output;
  }
}

TEST(CliBinary, AnalyzeRejectsOutOfRangeFieldsBeforeReadingTheTrace) {
  // Usage errors (exit 2 with the analyze usage), raised before the data
  // file is opened: unused.csv does not exist.
  const std::pair<std::string, std::string> bad[] = {
      {"--clusters -1", "--clusters must be >= 0"},
      {"--knn -3 --graph knn", "--knn must be >= 0"},
      {"--sweep -2", "--sweep must be >= 0"},
      {"--per-cluster -1", "--per-cluster must be >= 1"},
      {"--order 7", "--order must be 1 or 2"},
      {"--stream -5", "--stream expects a window length"},
      {"--metric eucldean", "unknown --metric value 'eucldean'"},
  };
  for (const auto& [args, message] : bad) {
    std::string output;
    EXPECT_EQ(run_auditherm("analyze --data unused.csv " + args, output), 2)
        << args;
    EXPECT_NE(output.find(message), std::string::npos) << output;
    EXPECT_NE(output.find("usage: auditherm analyze"), std::string::npos)
        << output;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CliBinary, AnalyzeFailsInsteadOfPrintingANonFiniteResult) {
  // A finite but huge VAV-flow sample parses, then overflows the fit of a
  // validation day: analyze must exit nonzero naming the value, and print
  // no report with inf or nan in it. Per-process paths: ctest runs tests
  // as parallel processes.
  const std::string stem = ::testing::TempDir() + "/auditherm_cli_" +
                           std::to_string(::getpid());
  const std::string trace = stem + "_trace.csv";
  const std::string errors = stem + "_stderr.txt";
  std::string output;
  ASSERT_EQ(run_auditherm("simulate --out '" + trace +
                              "' --days 21 --failure-days 4",
                          output),
            0)
      << output;

  // Data row 700 of ch101 becomes 1e308.
  std::istringstream in(read_file(trace));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::size_t header = 0;
  while (header < lines.size() && lines[header].rfind("time_minutes", 0) != 0)
    ++header;
  ASSERT_LT(header + 701, lines.size());
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) cells.push_back(cell);
    if (!line.empty() && line.back() == ',') cells.emplace_back();
    return cells;
  };
  const auto names = split(lines[header]);
  std::size_t column = 0;
  while (column < names.size() && names[column] != "ch101") ++column;
  ASSERT_LT(column, names.size());
  auto cells = split(lines[header + 701]);
  cells[column] = "1e308";
  std::string row;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    row += (c == 0 ? "" : ",") + cells[c];
  }
  lines[header + 701] = row;
  {
    std::ofstream out(trace);
    for (const auto& line : lines) out << line << '\n';
  }

  std::string report;
  EXPECT_NE(run_auditherm("analyze --data '" + trace + "'", report,
                          "2>'" + errors + "'"),
            0);
  const std::string error_text = read_file(errors);
  EXPECT_NE(error_text.find("error: analyze: non-finite pooled RMS"),
            std::string::npos)
      << error_text;
  EXPECT_EQ(report.find("nan"), std::string::npos) << report;
  EXPECT_EQ(report.find("inf"), std::string::npos) << report;
  std::remove(trace.c_str());
  std::remove(errors.c_str());
}

}  // namespace

TEST(CliOptionSet, GetDoubleParsesAndRejects) {
  const auto set = test_set();
  const auto parsed = parse(set, {"--data", "t.csv", "--clusters", "0.25"});
  EXPECT_DOUBLE_EQ(parsed.get_double("clusters", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(parsed.get_double("missing", 0.5), 0.5);
  const auto bad = parse(set, {"--data", "t.csv", "--clusters", "0.2x"});
  EXPECT_THROW((void)bad.get_double("clusters", 0.0), cli::UsageError);
}
