#pragma once

/// \file bench_json.hpp
/// The one JSON emitter behind every BENCH_*.json artifact. Each artifact
/// starts with the same header (see artifact()) so a reader can tell the
/// format, the bench and the machine from the file alone:
///
///   {"schema": "auditherm.bench", "schema_version": 1, "bench": NAME,
///    "environment": {"cpus": N, "threads": N, "build_type": TYPE}, ...}
///
/// Numbers print with %.6g; a non-finite double prints as null, never as
/// printf's nan/inf, which are not JSON. jq orders null below every
/// number, so a gate that compares with < or <= must first check
/// `type == "number"`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef AUDITHERM_BUILD_TYPE
#define AUDITHERM_BUILD_TYPE "unknown"
#endif

namespace bench {

/// Ordered JSON object: add() entries in output order, then str() or
/// write_file(). Keys are plain identifiers, so only string values are
/// escaped. Nested objects print on one line; a top-level array of objects
/// prints one element per line.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value) {
    if (!std::isfinite(value)) return put(key, "null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return put(key, buf);
  }
  JsonObject& add(const std::string& key, std::size_t value) {
    return put(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, bool value) {
    return put(key, value ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return put(key, quoted + "\"");
  }
  JsonObject& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonObject& add(const std::string& key, const JsonObject& value) {
    return put(key, value.render(false));
  }
  JsonObject& add(const std::string& key,
                  const std::vector<JsonObject>& values) {
    std::string array = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      array += i > 0 ? ",\n    " : "\n    ";
      array += values[i].render(false);
    }
    return put(key, array + (values.empty() ? "]" : "\n  ]"));
  }

  [[nodiscard]] std::string str() const { return render(true) + "\n"; }

  [[nodiscard]] bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = str();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  JsonObject& put(const std::string& key, std::string rendered) {
    entries_.emplace_back(key, std::move(rendered));
    return *this;
  }

  /// The top level prints one entry per line; nested objects stay inline.
  [[nodiscard]] std::string render(bool top) const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ",";
      out += top ? "\n  " : (i > 0 ? " " : "");
      out += "\"" + entries_[i].first + "\": " + entries_[i].second;
    }
    return out + (top ? "\n}" : "}");
  }

  std::vector<std::pair<std::string, std::string>> entries_;
};

/// A new artifact for bench `name`, header included. `threads` is the
/// thread count the bench's headline numbers ran at.
inline JsonObject artifact(const std::string& name, std::size_t threads) {
  JsonObject environment;
  environment.add("cpus",
                  std::size_t{std::max(1u, std::thread::hardware_concurrency())});
  environment.add("threads", threads);
  environment.add("build_type", AUDITHERM_BUILD_TYPE);
  JsonObject json;
  json.add("schema", "auditherm.bench");
  json.add("schema_version", std::size_t{1});
  json.add("bench", name);
  json.add("environment", environment);
  return json;
}

/// Write `json` to `path` and say so on stdout; false (with a warning on
/// stderr) when the file cannot be written.
inline bool write_artifact(const JsonObject& json, const std::string& path) {
  if (!json.write_file(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// max() that keeps a NaN: once either side is NaN the result is NaN, so
/// a folded agreement statistic cannot hide one.
inline double max_nan(double a, double b) {
  return std::isnan(a) || std::isnan(b) ? std::nan("") : std::max(a, b);
}

}  // namespace bench
