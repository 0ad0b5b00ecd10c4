#include "auditherm/core/stage_cache.hpp"

#include <array>
#include <span>
#include <stdexcept>
#include <utility>

#include "auditherm/core/parallel.hpp"
#include "auditherm/obs/trace_span.hpp"

namespace auditherm::core {

namespace {

constexpr std::string_view kHitPrefix = "stage_cache.hit.";
constexpr std::string_view kMissPrefix = "stage_cache.miss.";
constexpr std::string_view kEvictionPrefix = "stage_cache.eviction.";
constexpr std::string_view kEvictedBytes = "stage_cache.evicted_bytes";
constexpr std::string_view kResidentGauge = "stage_cache.resident_bytes";

std::string event_name(std::string_view prefix, std::string_view stage) {
  std::string name;
  name.reserve(prefix.size() + stage.size());
  name.append(prefix);
  name.append(stage);
  return name;
}

}  // namespace

std::uint64_t trace_fingerprint(const timeseries::TraceView& trace) {
  StageKeyHasher h;
  h.add(trace.grid().start());
  h.add(trace.grid().step());
  h.add(static_cast<std::uint64_t>(trace.size()));
  h.add(trace.channels());
  // Row-major samples in fixed-size blocks, each one lane-hashed span.
  std::array<double, 512> block;
  std::size_t used = 0;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    for (std::size_t c = 0; c < trace.channel_count(); ++c) {
      block[used++] = trace.value(k, c);
      if (used == block.size()) {
        h.add(std::span<const double>(block));
        used = 0;
      }
    }
  }
  h.add(std::span<const double>(block.data(), used));
  return h.value();
}

std::uint64_t StageCache::tag_key(std::string_view stage,
                                  std::uint64_t key) noexcept {
  StageKeyHasher h;
  h.add(stage);
  h.add(key);
  return h.value();
}

StageStats& StageCache::stats_locked(std::string_view stage) {
  const auto it = stats_.find(stage);
  if (it != stats_.end()) return it->second;
  return stats_.emplace(std::string(stage), StageStats{}).first->second;
}

void StageCache::evict_over_budget_locked(PendingEvents& events) {
  if (budget_.bytes == 0) return;
  while (resident_bytes_ > budget_.bytes && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    // lru_ holds only completed entries, so the lookup always succeeds.
    resident_bytes_ -= it->second.bytes;
    ++evictions_;
    evicted_bytes_ += it->second.bytes;
    events.emplace_back(event_name(kEvictionPrefix, it->second.stage), 1);
    events.emplace_back(std::string(kEvictedBytes), it->second.bytes);
    entries_.erase(it);
  }
}

std::shared_ptr<const void> StageCache::get_or_build_erased(
    std::string_view stage, std::uint64_t tagged_key,
    const std::function<ErasedArtifact()>& build) {
  // A pool thread parked here could wait on a builder that itself waits
  // for the pool's batch mutex. Callers prepare before they fan out.
  if (detail::in_parallel_region()) {
    throw std::logic_error(
        "StageCache::get_or_build: called from inside a parallel region");
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      Entry& entry = entries_[tagged_key];
      if (entry.value) {
        lru_.splice(lru_.begin(), lru_, entry.lru);
        ++stats_locked(stage).hits;
        std::shared_ptr<const void> value = entry.value;
        lock.unlock();
        mirror_event(stage, /*hit=*/true);
        return value;
      }
      if (!entry.building) {
        entry.building = true;
        break;
      }
      build_done_.wait(lock);
    }
  }

  // The builder runs with no cache lock held: it may fan out over the
  // thread pool, and holding a lock here would order the cache against
  // the pool's internals (lock-order inversion).
  ErasedArtifact built;
  try {
    built = build();
  } catch (...) {
    {
      // Leave no entry: parked waiters wake, find the key absent and
      // rebuild, as does the next caller.
      const std::lock_guard<std::mutex> lock(mutex_);
      entries_.erase(tagged_key);
    }
    build_done_.notify_all();
    throw;
  }

  PendingEvents events;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // The claimed entry is still present: eviction skips in-flight
    // entries.
    Entry& entry = entries_.find(tagged_key)->second;
    entry.building = false;
    entry.value = built.value;
    entry.bytes = built.bytes;
    entry.stage.assign(stage);
    entry.lru = lru_.insert(lru_.begin(), tagged_key);
    resident_bytes_ += entry.bytes;
    ++stats_locked(stage).misses;
    evict_over_budget_locked(events);
  }
  build_done_.notify_all();
  mirror_event(stage, /*hit=*/false);
  flush_events(events);
  return std::move(built.value);
}

void StageCache::mirror_event(std::string_view stage, bool hit) {
  // Runs with mutex_ released: the recorder's shard locks must never nest
  // inside the cache lock (serve shares one recorder across every request
  // thread).
  if (!obs::enabled()) return;
  obs::add_counter(event_name(hit ? kHitPrefix : kMissPrefix, stage));
}

void StageCache::flush_events(const PendingEvents& events) {
  if (events.empty()) return;
  for (const auto& [name, delta] : events) obs::add_counter(name, delta);
  // Gauge the post-eviction resident set so /metrics exports show the
  // budget holding. Reading resident_bytes() re-locks briefly; the value
  // is advisory (monotonic correctness lives in the counters above).
  if (obs::kCompiledIn) {
    static const obs::MetricId id = obs::gauge_id(kResidentGauge);
    obs::set_gauge(id, static_cast<double>(resident_bytes()));
  }
}

StageStats StageCache::stats(std::string_view stage) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stats_.find(stage);
  return it == stats_.end() ? StageStats{} : it->second;
}

StageStats StageCache::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  StageStats total;
  for (const auto& [stage, s] : stats_) {
    total.hits += s.hits;
    total.misses += s.misses;
  }
  return total;
}

std::size_t StageCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.value) ++n;
  }
  return n;
}

std::size_t StageCache::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::uint64_t StageCache::eviction_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::uint64_t StageCache::evicted_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evicted_bytes_;
}

}  // namespace auditherm::core
