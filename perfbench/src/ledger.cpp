// Per-layer ledger: turns a recorded span tree into wall-clock self time
// per layer and per op.
//
// A span's layer is the layer its name maps to; unmapped spans (parallel
// batches, sweep cases, input-plan resolution) inherit their parent's, and
// everything under the strategy sweep stays in core.sweep so the sweep's
// per-case fits do not leak into the single-run fit/evaluate layers. The
// time of a layer is the wall time of its outermost spans minus the union
// of the intervals of nested spans of other layers; the union (not the sum)
// keeps concurrent children on pool threads from double counting.

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr std::string_view kSweep = "core.sweep";

/// Span name -> ledger layer; "" = inherit the parent's layer.
std::string_view layer_of(std::string_view name) {
  static const std::unordered_map<std::string_view, std::string_view> kMap = {
      {"bench.file_read", "bench.file_read"},
      {"timeseries.read_csv", "timeseries.read_csv"},
      {"serve.classify_channels", "serve.classify_channels"},
      {"core.split_dataset", "core.split_dataset"},
      {"pipeline.prepare", "core.prepare_other"},
      {"stage.training_view", "core.prepare_other"},
      {"stage.cluster_sets", "core.prepare_other"},
      {"stage.cluster_means", "core.prepare_other"},
      {"stage.evaluation_windows", "core.prepare_other"},
      {"stage.similarity_graph", "clustering.similarity_graph"},
      {"stage.spectrum", "linalg.spectrum"},
      {"stage.clustering", "clustering.kmeans"},
      {"pipeline.run", "core.run_other"},
      {"pipeline.select", "selection.select"},
      {"pipeline.identify", "sysid.fit"},
      {"sysid.fit", "sysid.fit"},
      {"pipeline.evaluate", "sysid.evaluate"},
      {"core.run_streaming_identification", "sysid.stream"},
      {"pipeline.streaming", "sysid.stream"},
      {"core.run_strategy_sweep", kSweep},
      {"pipeline.sweep", kSweep},
  };
  if (const auto it = kMap.find(name); it != kMap.end()) return it->second;
  if (name.starts_with("linalg.eigen")) return "linalg.spectrum";
  if (name.starts_with("sysid.stream.")) return "sysid.stream";
  return {};
}

struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Length of the union of `intervals` clipped to `bounds`.
std::uint64_t covered(std::vector<Interval> intervals, Interval bounds) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::uint64_t total = 0;
  std::uint64_t reach = bounds.begin;
  for (const Interval& iv : intervals) {
    const std::uint64_t b = std::max(iv.begin, reach);
    const std::uint64_t e = std::min(iv.end, bounds.end);
    if (e > b) {
      total += e - b;
      reach = e;
    }
  }
  return total;
}

}  // namespace

const std::vector<std::string>& ledger_layers() {
  static const std::vector<std::string> kLayers = {
      "bench.file_read",
      "timeseries.read_csv",
      "serve.classify_channels",
      "core.split_dataset",
      "core.prepare_other",
      "clustering.similarity_graph",
      "linalg.spectrum",
      "clustering.kmeans",
      "core.run_other",
      "selection.select",
      "sysid.fit",
      "sysid.evaluate",
      "sysid.stream",
      "core.sweep"};
  return kLayers;
}

std::vector<std::map<std::string, double>> layer_times(
    const std::vector<auditherm::obs::SpanRecord>& spans,
    const std::string& root_name) {
  // Ids grow in construction order, so a parent precedes its children.
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  std::vector<std::string_view> layer(spans.size());
  std::vector<std::ptrdiff_t> parent(spans.size(), -1);
  std::vector<std::ptrdiff_t> op(spans.size(), -1);
  std::unordered_map<std::size_t, std::size_t> op_slot;

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (const auto it = index.find(s.parent);
        s.parent != 0 && it != index.end()) {
      parent[i] = static_cast<std::ptrdiff_t>(it->second);
      children[it->second].push_back(i);
    }
    if (s.name == root_name) {
      op[i] = static_cast<std::ptrdiff_t>(i);
      op_slot.emplace(i, op_slot.size());
      continue;  // a root has no layer of its own
    }
    const std::string_view inherited =
        parent[i] >= 0 ? layer[static_cast<std::size_t>(parent[i])]
                       : std::string_view{};
    const std::string_view mapped = layer_of(s.name);
    layer[i] = inherited == kSweep || mapped.empty() ? inherited : mapped;
    op[i] = parent[i] >= 0 ? op[static_cast<std::size_t>(parent[i])] : -1;
  }

  std::vector<std::map<std::string, double>> per_op(op_slot.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (layer[i].empty() || op[i] < 0) continue;
    const bool starts_layer =
        parent[i] < 0 || layer[static_cast<std::size_t>(parent[i])] != layer[i];
    if (!starts_layer) continue;
    // Nearest descendants that start another layer.
    std::vector<Interval> nested;
    std::vector<std::size_t> stack(children[i].begin(), children[i].end());
    while (!stack.empty()) {
      const std::size_t c = stack.back();
      stack.pop_back();
      if (layer[c] == layer[i]) {
        stack.insert(stack.end(), children[c].begin(), children[c].end());
      } else {
        nested.push_back({spans[c].start_ns,
                          spans[c].start_ns + spans[c].duration_ns});
      }
    }
    const Interval self{spans[i].start_ns,
                        spans[i].start_ns + spans[i].duration_ns};
    const std::uint64_t own = spans[i].duration_ns - covered(nested, self);
    per_op[op_slot.at(static_cast<std::size_t>(op[i]))]
          [std::string(layer[i])] += static_cast<double>(own) / 1e6;
  }
  return per_op;
}

}  // namespace perfbench
