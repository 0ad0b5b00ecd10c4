#include "auditherm/core/stage_cache.hpp"

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
  for (std::size_t k = 0; k < trace.size(); ++k) {
    for (std::size_t c = 0; c < trace.channel_count(); ++c) {
      h.add(trace.value(k, c));
    }
  }
  return h.value();
}

std::uint64_t StageCache::tag_key(std::string_view stage,
                                  std::uint64_t key) noexcept {
  StageKeyHasher h;
  h.add(stage);
  h.add(key);
  return h.value();
}

void StageCache::touch_locked(Entry& entry) {
  if (entry.in_lru) lru_.splice(lru_.begin(), lru_, entry.lru);
}

void StageCache::insert_lru_locked(Entry& entry, std::uint64_t key) {
  entry.lru = lru_.insert(lru_.begin(), key);
  entry.in_lru = true;
}

void StageCache::publish_locked(Entry& entry, std::uint64_t key,
                                std::string_view stage,
                                ErasedArtifact&& built) {
  entry.value = std::move(built.value);
  entry.bytes = built.bytes;
  entry.stage.assign(stage);
  resident_bytes_ += entry.bytes;
  // In-flight entries stay out of the LRU list so eviction can never
  // remove a key someone is still building under; the claimer links the
  // entry when it finishes.
  if (!entry.building) insert_lru_locked(entry, key);
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
  bool claimed = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      Entry& entry = entries_[tagged_key];
      if (entry.value) {
        touch_locked(entry);
        std::shared_ptr<const void> value = entry.value;
        lock.unlock();
        count_event(stage, /*hit=*/true);
        return value;
      }
      if (!entry.building) {
        entry.building = true;
        claimed = true;
        break;
      }
      // Someone else is building this key. Parking inside a parallel
      // region would stall the pool the builder may itself be waiting
      // for, so there we race a duplicate build instead (first publish
      // wins); otherwise wait for the builder to publish.
      if (detail::in_parallel_region()) break;
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
    if (claimed) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        // Our claimed entry is still present: eviction skips in-flight
        // entries and only the claimer clears `building`.
        const auto it = entries_.find(tagged_key);
        if (it->second.value) {
          // A duplicate builder published while we failed; keep its
          // artifact and make it evictable.
          it->second.building = false;
          if (!it->second.in_lru) insert_lru_locked(it->second, tagged_key);
        } else {
          // Leave no entry: parked waiters wake, find the key absent and
          // rebuild, as does the next caller.
          entries_.erase(it);
        }
      }
      build_done_.notify_all();
    }
    throw;
  }

  std::shared_ptr<const void> result = built.value;
  bool hit = false;
  PendingEvents events;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = entries_.find(tagged_key);
    if (claimed) {
      // The entry is ours and still present (eviction skips in-flight
      // entries).
      Entry& entry = it->second;
      entry.building = false;
      if (!entry.value) {
        publish_locked(entry, tagged_key, stage, std::move(built));
      } else {
        // Lost a duplicate-build race; keep the published artifact so
        // every caller aliases the same object.
        result = entry.value;
        hit = true;
        if (!entry.in_lru) insert_lru_locked(entry, tagged_key);
        touch_locked(entry);
      }
      evict_over_budget_locked(events);
    } else {
      // Duplicate build from inside a parallel region: publish only if
      // the entry still exists and nobody beat us to it.
      if (it == entries_.end()) {
        // Evicted (or erased by a failed claimer) since we broke out;
        // our caller still gets the freshly built artifact.
        lock.unlock();
        count_event(stage, /*hit=*/false);
        return result;
      }
      Entry& entry = it->second;
      if (entry.value) {
        result = entry.value;
        hit = true;
        touch_locked(entry);
      } else {
        publish_locked(entry, tagged_key, stage, std::move(built));
        evict_over_budget_locked(events);
      }
    }
  }
  if (claimed) build_done_.notify_all();
  count_event(stage, hit);
  flush_events(events);
  return result;
}

void StageCache::count_event(std::string_view stage, bool hit) {
  const std::string name =
      event_name(hit ? kHitPrefix : kMissPrefix, stage);
  registry_.add_counter(name);
  // Mirror into the current run recorder (if one is installed) so
  // --metrics-out JSON carries cache behavior without caller plumbing.
  // Runs with mutex_ released: the recorder's shard locks must never
  // nest inside the cache lock (serve shares one recorder across every
  // request thread).
  obs::add_counter(name);
}

void StageCache::flush_events(const PendingEvents& events) {
  if (events.empty()) return;
  for (const auto& [name, delta] : events) {
    registry_.add_counter(name, delta);
    obs::add_counter(name, delta);
  }
  // Gauge the post-eviction resident set so /metrics exports show the
  // budget holding. Reading resident_bytes() re-locks briefly; the value
  // is advisory (monotonic correctness lives in the counters above).
  const double resident = static_cast<double>(resident_bytes());
  registry_.set_gauge(kResidentGauge, resident);
  if (obs::kCompiledIn) {
    static const obs::MetricId id = obs::gauge_id(kResidentGauge);
    obs::set_gauge(id, resident);
  }
}

StageStats StageCache::stats(std::string_view stage) const {
  StageStats s;
  s.hits = static_cast<std::size_t>(
      registry_.counter(event_name(kHitPrefix, stage)));
  s.misses = static_cast<std::size_t>(
      registry_.counter(event_name(kMissPrefix, stage)));
  return s;
}

StageStats StageCache::totals() const {
  StageStats total;
  for (const auto& [name, value] : registry_.snapshot().counters) {
    if (name.starts_with(kHitPrefix)) {
      total.hits += static_cast<std::size_t>(value);
    } else if (name.starts_with(kMissPrefix)) {
      total.misses += static_cast<std::size_t>(value);
    }
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
