#pragma once

/// \file cli.hpp
/// Shared declarative command-line option parsing for the auditherm
/// tools. Each subcommand declares its flags once as an OptionSet; the
/// parser then enforces the rules every subcommand should share:
///   * flags are `--name value` (or bare `--name` for booleans),
///   * a duplicated flag is an error, not a silent last-one-wins,
///   * an unknown flag is an error that carries the subcommand's usage,
///   * required flags are checked after parsing.
///
/// The flags every subcommand accepts (--threads, --metrics-out,
/// --trace) are provided by common_options() so tools cannot drift apart
/// in spelling or semantics.

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace auditherm::core::cli {

/// Parse failure; `what()` is the user-facing message (the tool appends
/// the subcommand usage text).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declarative description of one `--flag`.
struct OptionSpec {
  std::string name;        ///< without the leading "--"
  bool takes_value = true; ///< false = boolean presence flag
  bool required = false;
  std::string value_name;  ///< usage placeholder, e.g. "FILE" or "N"
  std::string help;        ///< one-line description for usage text
};

/// Result of a successful parse: flag name -> value ("" for booleans).
class ParsedOptions {
 public:
  /// True when the flag appeared on the command line.
  [[nodiscard]] bool has(std::string_view name) const;
  /// The flag's value, or nullopt when absent.
  [[nodiscard]] std::optional<std::string> get(std::string_view name) const;
  /// The flag's value; throws UsageError when absent (used for flags
  /// whose requiredness depends on other flags).
  [[nodiscard]] std::string require(std::string_view name) const;
  /// Integer value with a fallback; throws UsageError on a non-integer.
  [[nodiscard]] long get_long(std::string_view name, long fallback) const;
  /// Floating-point value with a fallback; throws UsageError on a
  /// non-number.
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const;

 private:
  friend class OptionSet;
  std::unordered_map<std::string, std::string> values_;
};

/// A subcommand's full flag vocabulary.
class OptionSet {
 public:
  /// Throws std::invalid_argument when two specs share a name.
  OptionSet(std::string command, std::vector<OptionSpec> specs);

  /// Parse argv[first..argc); throws UsageError on an unknown flag, a
  /// duplicated flag, a value-taking flag with no value, or a missing
  /// required flag.
  [[nodiscard]] ParsedOptions parse(int argc, const char* const* argv,
                                    int first) const;

  /// Multi-line usage text: synopsis plus one line per flag.
  [[nodiscard]] std::string usage() const;

  [[nodiscard]] const std::string& command() const noexcept {
    return command_;
  }

 private:
  [[nodiscard]] const OptionSpec* find(std::string_view name) const;

  std::string command_;
  std::vector<OptionSpec> specs_;
};

/// The flags shared by every auditherm subcommand:
///   --threads N        worker threads (0 = auto); results identical at
///                      any value
///   --metrics-out FILE write run metrics + spans as JSON
///   --trace            print the span tree and counters to stderr
[[nodiscard]] std::vector<OptionSpec> common_options();

/// Decoded values of the common_options() flags.
struct CommonOptions {
  std::size_t threads = 0;   ///< 0 = inherit global/default
  std::string metrics_out;   ///< empty = no JSON export
  bool trace = false;
  /// True when any observability output was requested (a recorder should
  /// be installed for the run).
  [[nodiscard]] bool observability_enabled() const noexcept {
    return trace || !metrics_out.empty();
  }
};

/// Decode the common flags; throws UsageError on a bad value (e.g.
/// `--threads -2`).
[[nodiscard]] CommonOptions parse_common(const ParsedOptions& options);

}  // namespace auditherm::core::cli
