#include "auditherm/core/cli.hpp"

#include <algorithm>
#include <cstring>

namespace auditherm::core::cli {

bool ParsedOptions::has(std::string_view name) const {
  return values_.find(std::string(name)) != values_.end();
}

std::optional<std::string> ParsedOptions::get(std::string_view name) const {
  const auto it = values_.find(std::string(name));
  return it == values_.end() ? std::nullopt
                             : std::optional<std::string>(it->second);
}

std::string ParsedOptions::require(std::string_view name) const {
  const auto v = get(name);
  if (!v) throw UsageError("missing required --" + std::string(name));
  return *v;
}

long ParsedOptions::get_long(std::string_view name, long fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const long parsed = std::stol(*v, &consumed);
    if (consumed != v->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw UsageError("--" + std::string(name) + " expects an integer, got '" +
                     *v + "'");
  }
}

double ParsedOptions::get_double(std::string_view name,
                                 double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(*v, &consumed);
    if (consumed != v->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw UsageError("--" + std::string(name) + " expects a number, got '" +
                     *v + "'");
  }
}

OptionSet::OptionSet(std::string command, std::vector<OptionSpec> specs)
    : command_(std::move(command)), specs_(std::move(specs)) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    for (std::size_t j = i + 1; j < specs_.size(); ++j) {
      if (specs_[i].name == specs_[j].name) {
        throw std::invalid_argument("OptionSet: duplicate spec --" +
                                    specs_[i].name);
      }
    }
  }
}

const OptionSpec* OptionSet::find(std::string_view name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ParsedOptions OptionSet::parse(int argc, const char* const* argv,
                               int first) const {
  ParsedOptions out;
  for (int i = first; i < argc; ++i) {
    const char* raw = argv[i];
    if (std::strncmp(raw, "--", 2) != 0) {
      throw UsageError(std::string("expected --flag, got '") + raw + "'");
    }
    // Split --name=value before lookup so both spellings share the
    // validation below.
    std::string name(raw + 2);
    std::optional<std::string> inline_value;
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name.resize(eq);
    }
    const OptionSpec* spec = find(name);
    if (spec == nullptr) {
      throw UsageError("unknown flag --" + name + " for '" + command_ + "'");
    }
    if (out.values_.find(name) != out.values_.end()) {
      throw UsageError("duplicate flag --" + name +
                       " (each flag may be given once)");
    }
    std::string value;
    if (spec->takes_value) {
      if (inline_value) {
        value = std::move(*inline_value);
      } else {
        // A following token that is itself a flag means the value was
        // forgotten — consuming it would silently misparse
        // `--metrics-out --trace` into metrics_out = "--trace".
        if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
          throw UsageError("--" + name + " expects a value");
        }
        value = argv[++i];
      }
    } else if (inline_value) {
      throw UsageError("--" + name + " does not take a value");
    }
    out.values_.emplace(name, std::move(value));
  }
  for (const auto& spec : specs_) {
    if (spec.required && !out.has(spec.name)) {
      throw UsageError("missing required --" + spec.name);
    }
  }
  return out;
}

std::string OptionSet::usage() const {
  std::string text = "usage: auditherm " + command_;
  for (const auto& spec : specs_) {
    text += ' ';
    if (!spec.required) text += '[';
    text += "--" + spec.name;
    if (spec.takes_value) {
      text += ' ';
      text += spec.value_name.empty() ? "VALUE" : spec.value_name;
    }
    if (!spec.required) text += ']';
  }
  text += '\n';
  for (const auto& spec : specs_) {
    std::string flag = "  --" + spec.name;
    if (spec.takes_value) {
      flag += ' ';
      flag += spec.value_name.empty() ? "VALUE" : spec.value_name;
    }
    constexpr std::size_t kHelpColumn = 26;
    if (flag.size() < kHelpColumn) flag.append(kHelpColumn - flag.size(), ' ');
    text += flag + ' ' + spec.help + '\n';
  }
  return text;
}

std::vector<OptionSpec> common_options() {
  return {
      {"threads", true, false, "N",
       "worker threads (0 = auto); results identical at any value"},
      {"metrics-out", true, false, "FILE",
       "write run metrics and tracing spans as JSON"},
      {"trace", false, false, "",
       "print the span tree and counters to stderr"},
  };
}

CommonOptions parse_common(const ParsedOptions& options) {
  CommonOptions common;
  const long threads = options.get_long("threads", 0);
  if (threads < 0) throw UsageError("--threads must be >= 0");
  common.threads = static_cast<std::size_t>(threads);
  if (const auto out = options.get("metrics-out")) common.metrics_out = *out;
  common.trace = options.has("trace");
  return common;
}

}  // namespace auditherm::core::cli
