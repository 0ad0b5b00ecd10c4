// Tests for the BENCH_*.json emitter (bench/bench_json.hpp): every artifact
// must parse as strict JSON, start with the schema header, nest objects and
// arrays of objects, and print a non-finite number as null so no numeric
// gate can pass on NaN.

#include "bench_json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "auditherm/serve/json.hpp"

namespace json = auditherm::serve::json;

namespace {

const json::Value& member(const json::Value& object, const char* key) {
  const json::Value* value = object.find(key);
  if (value == nullptr) throw std::runtime_error(std::string("no ") + key);
  return *value;
}

}  // namespace

TEST(BenchJson, NestsObjectsAndArraysOfObjects) {
  std::vector<bench::JsonObject> rows;
  for (std::size_t t : {1u, 2u}) {
    rows.push_back(bench::JsonObject()
                       .add("threads", t)
                       .add("ms", 1.5 * static_cast<double>(t))
                       .add("ok", t == 1));
  }
  bench::JsonObject doc;
  doc.add("name", "fleet \"a\"\\b")
      .add("inner", bench::JsonObject().add("hits", std::size_t{3}))
      .add("runs", rows)
      .add("empty", std::vector<bench::JsonObject>{});

  const auto parsed = json::parse(doc.str());
  EXPECT_EQ(member(parsed, "name").string, "fleet \"a\"\\b");
  EXPECT_EQ(member(member(parsed, "inner"), "hits").number, 3.0);
  const auto& runs = member(parsed, "runs");
  ASSERT_TRUE(runs.is_array());
  ASSERT_EQ(runs.array.size(), 2u);
  EXPECT_EQ(member(runs.array[1], "threads").number, 2.0);
  EXPECT_EQ(member(runs.array[1], "ms").number, 3.0);
  EXPECT_TRUE(member(runs.array[0], "ok").boolean);
  EXPECT_FALSE(member(runs.array[1], "ok").boolean);
  EXPECT_TRUE(member(parsed, "empty").is_array());
  EXPECT_TRUE(member(parsed, "empty").array.empty());
}

TEST(BenchJson, ArtifactStartsWithTheSchemaHeader) {
  auto doc = bench::artifact("perf_linalg", 1);
  doc.add("speedup", 2.0);
  const auto parsed = json::parse(doc.str());
  ASSERT_TRUE(parsed.is_object());
  ASSERT_GE(parsed.object.size(), 5u);
  EXPECT_EQ(parsed.object[0].first, "schema");
  EXPECT_EQ(parsed.object[0].second.string, "auditherm.bench");
  EXPECT_EQ(parsed.object[1].first, "schema_version");
  EXPECT_EQ(parsed.object[1].second.number, 1.0);
  EXPECT_EQ(parsed.object[2].first, "bench");
  EXPECT_EQ(parsed.object[2].second.string, "perf_linalg");
  EXPECT_EQ(parsed.object[3].first, "environment");
  const auto& env = parsed.object[3].second;
  EXPECT_GE(member(env, "cpus").number, 1.0);
  EXPECT_EQ(member(env, "threads").number, 1.0);
  EXPECT_TRUE(member(env, "build_type").is_string());
  EXPECT_EQ(member(parsed, "speedup").number, 2.0);
}

TEST(BenchJson, NonFiniteNumbersAreNull) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  volatile double zero = 0.0;  // 0/0 is the NaN printf renders as -nan
  bench::JsonObject doc;
  doc.add("nan", nan)
      .add("neg_nan", -nan)
      .add("zero_over_zero", zero / zero)
      .add("inf", inf)
      .add("neg_inf", -inf)
      .add("rows", std::vector<bench::JsonObject>{
                       bench::JsonObject().add("delta", nan)})
      .add("finite", -0.25);
  // The strict parser rejects nan, -nan and inf tokens outright.
  const auto parsed = json::parse(doc.str());
  for (const char* key : {"nan", "neg_nan", "zero_over_zero", "inf",
                          "neg_inf"}) {
    EXPECT_TRUE(member(parsed, key).is_null()) << key;
  }
  EXPECT_TRUE(member(member(parsed, "rows").array.at(0), "delta").is_null());
  EXPECT_EQ(member(parsed, "finite").number, -0.25);
}

TEST(BenchJson, MaxNanKeepsANan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(bench::max_nan(1e-12, 3.0), 3.0);
  EXPECT_TRUE(std::isnan(bench::max_nan(1e-12, std::abs(nan))));
  EXPECT_TRUE(std::isnan(bench::max_nan(nan, 1.0)));
  // std::max drops the NaN operand — the fold max_nan replaces.
  EXPECT_EQ(std::max(1e-12, std::abs(nan)), 1e-12);
}
