#include "auditherm/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace auditherm::obs {

namespace {

/// Process-wide intern table: metric names -> dense indices. Grows only;
/// intentionally leaked so late metric recording (e.g. static destructors)
/// never races teardown.
struct InternTable {
  struct Info {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::size_t hist_slot = MetricId{}.histogram_slot();
  };

  std::mutex mutex;
  std::vector<Info> infos;
  std::unordered_map<std::string, std::size_t> by_name;
  std::size_t histogram_count = 0;
};

InternTable& interns() {
  static InternTable* t = new InternTable();
  return *t;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::atomic<std::uint64_t> g_registry_epoch{1};

}  // namespace

std::size_t HistogramLayout::bucket_of(double value) noexcept {
  if (!(value > 1.0)) return 0;  // NaN and everything <= 1 land in bucket 0
  const double b = std::ceil(std::log2(value));
  const auto idx = b < 0.0 ? std::size_t{0} : static_cast<std::size_t>(b);
  return idx < kBucketCount ? idx : kBucketCount - 1;
}

MetricId intern_metric(std::string_view name, MetricKind kind) {
  auto& table = interns();
  const std::lock_guard<std::mutex> lock(table.mutex);
  const auto it = table.by_name.find(std::string(name));
  if (it != table.by_name.end()) {
    const auto& info = table.infos[it->second];
    if (info.kind != kind) {
      throw std::invalid_argument("intern_metric: '" + std::string(name) +
                                  "' already interned as " +
                                  kind_name(info.kind));
    }
    return MetricId(it->second, info.hist_slot);
  }
  if (table.infos.size() >= MetricsRegistry::kMaxMetrics) {
    throw std::length_error("intern_metric: metric capacity exhausted");
  }
  InternTable::Info info;
  info.name = std::string(name);
  info.kind = kind;
  if (kind == MetricKind::kHistogram) {
    if (table.histogram_count >= MetricsRegistry::kMaxHistograms) {
      throw std::length_error("intern_metric: histogram capacity exhausted");
    }
    info.hist_slot = table.histogram_count++;
  }
  const std::size_t index = table.infos.size();
  table.by_name.emplace(info.name, index);
  table.infos.push_back(std::move(info));
  return MetricId(index, table.infos.back().hist_slot);
}

/// Per-thread slice of a registry. Writes come only from the owning
/// thread; relaxed atomics make concurrent snapshot reads tear-free.
struct MetricsRegistry::Shard {
  struct Hist {
    std::array<std::atomic<std::uint64_t>, HistogramLayout::kBucketCount>
        buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};  ///< bit-cast double
    std::atomic<std::uint64_t> max_bits{0};  ///< bit-cast double
  };

  std::array<std::atomic<std::uint64_t>, kMaxMetrics> counters{};
  std::array<Hist, kMaxHistograms> hists{};
};

namespace {

/// Thread-local shard cache: a handful of (registry epoch, shard) pairs so
/// alternating between a few registries (a run recorder plus per-cache
/// stats) stays lock-free. Epochs are process-unique, so a dead registry
/// can never be confused with a live one.
struct ShardCacheEntry {
  std::uint64_t epoch = 0;
  void* shard = nullptr;
};
constexpr std::size_t kShardCacheSize = 4;
thread_local std::array<ShardCacheEntry, kShardCacheSize> t_shard_cache{};
thread_local std::size_t t_shard_cache_next = 0;

}  // namespace

MetricsRegistry::MetricsRegistry()
    : epoch_(g_registry_epoch.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard() noexcept {
  for (const auto& entry : t_shard_cache) {
    if (entry.epoch == epoch_) return *static_cast<Shard*>(entry.shard);
  }
  return register_shard();
}

MetricsRegistry::Shard& MetricsRegistry::register_shard() {
  Shard* shard = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = shard_by_thread_[std::this_thread::get_id()];
    if (slot == nullptr) {
      shards_.push_back(std::make_unique<Shard>());
      slot = shards_.back().get();
    }
    shard = slot;
  }
  t_shard_cache[t_shard_cache_next] = {epoch_, shard};
  t_shard_cache_next = (t_shard_cache_next + 1) % kShardCacheSize;
  return *shard;
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) noexcept {
  if (!id.valid()) return;
  local_shard().counters[id.index()].fetch_add(delta,
                                               std::memory_order_relaxed);
}

void MetricsRegistry::set(MetricId id, double value) {
  if (!id.valid()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  gauges_[id.index()] = value;
}

void MetricsRegistry::observe(MetricId id, double value) noexcept {
  if (!id.valid() || id.histogram_slot() == MetricId{}.histogram_slot()) {
    return;
  }
  auto& hist = local_shard().hists[id.histogram_slot()];
  hist.buckets[HistogramLayout::bucket_of(value)].fetch_add(
      1, std::memory_order_relaxed);
  hist.count.fetch_add(1, std::memory_order_relaxed);
  // Owner-thread-only writes: plain load + store, atomics only guard
  // against torn reads from a concurrent snapshot.
  const double clamped = std::isnan(value) ? 0.0 : value;
  const double sum =
      std::bit_cast<double>(hist.sum_bits.load(std::memory_order_relaxed)) +
      clamped;
  hist.sum_bits.store(std::bit_cast<std::uint64_t>(sum),
                      std::memory_order_relaxed);
  const double prev_max =
      std::bit_cast<double>(hist.max_bits.load(std::memory_order_relaxed));
  if (clamped > prev_max) {
    hist.max_bits.store(std::bit_cast<std::uint64_t>(clamped),
                        std::memory_order_relaxed);
  }
}

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta) {
  add(counter_id(name), delta);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  std::size_t index = 0;
  {
    auto& table = interns();
    const std::lock_guard<std::mutex> lock(table.mutex);
    const auto it = table.by_name.find(std::string(name));
    if (it == table.by_name.end()) return 0;
    index = it->second;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->counters[index].load(std::memory_order_relaxed);
  }
  return total;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Copy the intern metadata first (its mutex never nests inside ours).
  std::vector<InternTable::Info> infos;
  {
    auto& table = interns();
    const std::lock_guard<std::mutex> lock(table.mutex);
    infos = table.infos;
  }

  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const auto& info = infos[i];
    switch (info.kind) {
      case MetricKind::kCounter: {
        std::uint64_t total = 0;
        for (const auto& shard : shards_) {
          total += shard->counters[i].load(std::memory_order_relaxed);
        }
        if (total != 0) snap.counters.emplace_back(info.name, total);
        break;
      }
      case MetricKind::kGauge: {
        const auto it = gauges_.find(i);
        if (it != gauges_.end()) snap.gauges.emplace_back(info.name, it->second);
        break;
      }
      case MetricKind::kHistogram: {
        HistogramSnapshot h;
        h.name = info.name;
        // Shards merge in registration order: bucket/count sums are
        // integer (order-independent); the double `sum` folds in that
        // fixed order.
        for (const auto& shard : shards_) {
          const auto& sh = shard->hists[info.hist_slot];
          h.count += sh.count.load(std::memory_order_relaxed);
          h.sum += std::bit_cast<double>(
              sh.sum_bits.load(std::memory_order_relaxed));
          h.max = std::max(h.max, std::bit_cast<double>(sh.max_bits.load(
                                      std::memory_order_relaxed)));
          for (std::size_t b = 0; b < HistogramLayout::kBucketCount; ++b) {
            h.buckets[b] += sh.buckets[b].load(std::memory_order_relaxed);
          }
        }
        if (h.count != 0) snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

}  // namespace auditherm::obs
