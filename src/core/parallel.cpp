#include "auditherm/core/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "auditherm/obs/trace_span.hpp"

namespace auditherm::core {

namespace {

/// Batch/task metrics, resolved once. All recording below is purely
/// observational (counters and clock reads) — it never influences the
/// chunk decomposition or task claiming, so instrumented runs stay
/// bitwise identical to uninstrumented ones.
struct ParallelMetrics {
  obs::MetricId batches = obs::counter_id("parallel.batches");
  obs::MetricId pooled_batches = obs::counter_id("parallel.pooled_batches");
  obs::MetricId tasks = obs::counter_id("parallel.tasks");
  obs::MetricId tasks_caller = obs::counter_id("parallel.tasks_caller");
  obs::MetricId tasks_helper = obs::counter_id("parallel.tasks_helper");
  obs::MetricId helper_joins = obs::counter_id("parallel.helper_joins");
  obs::MetricId threads = obs::gauge_id("parallel.threads");
  obs::MetricId batch_us = obs::histogram_id("parallel.batch_us");
  obs::MetricId task_us = obs::histogram_id("parallel.task_us");
};

const ParallelMetrics& parallel_metrics() {
  static const ParallelMetrics m;
  return m;
}

/// Upper bound on pool workers: beyond this, oversubscription only adds
/// scheduler churn on any machine we target.
constexpr std::size_t kMaxWorkers = 64;

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t env_threads() {
  const char* raw = std::getenv("AUDITHERM_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || v < 0) {
    throw std::runtime_error(
        std::string("AUDITHERM_THREADS is not a non-negative integer: ") +
        raw);
  }
  return static_cast<std::size_t>(v);
}

std::atomic<std::size_t> g_override{0};

thread_local bool t_in_parallel_region = false;

/// One in-flight batch of tasks. The task decomposition is fixed before
/// any thread runs; threads only race to *claim* indices, so results are
/// thread-count independent.
struct Batch {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* task = nullptr;
  /// Observability sink captured when the batch was posted (null = off);
  /// workers record per-task timings through it.
  obs::Recorder* recorder = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  /// Helpers currently inside run_some(); the batch may not be destroyed
  /// until this returns to zero.
  std::atomic<std::size_t> active{0};
  /// Per-task exception slots; after the batch, the lowest-index one is
  /// rethrown so failure is as deterministic as success.
  std::vector<std::exception_ptr> errors;

  void run_some(bool helper) {
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      const std::uint64_t t0 = recorder != nullptr ? recorder->now_ns() : 0;
      try {
        (*task)(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (recorder != nullptr) {
        const auto& m = parallel_metrics();
        recorder->metrics().observe(
            m.task_us, static_cast<double>(recorder->now_ns() - t0) / 1e3);
        recorder->metrics().add(helper ? m.tasks_helper : m.tasks_caller);
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    }
    t_in_parallel_region = false;
  }
};

/// Lazily created worker pool. Workers park on a condition variable and
/// help with whatever batch is posted; the caller always participates, so
/// a pool of W workers serves thread counts up to W + 1.
class Pool {
 public:
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& task,
           std::size_t max_threads) {
    obs::Recorder* rec = obs::kCompiledIn ? obs::current() : nullptr;
    // The batch span parents any span a worker thread opens while this
    // batch runs (sweep cases); top-level batches are serialized by
    // batch_mutex, so the single ambient slot is safe.
    obs::TraceSpan span("parallel.batch");
    const std::uint64_t batch_t0 = rec != nullptr ? rec->now_ns() : 0;
    if (rec != nullptr) {
      const auto& m = parallel_metrics();
      rec->metrics().add(m.pooled_batches);
      rec->metrics().set(m.threads, static_cast<double>(max_threads));
      obs::set_ambient_parent(span.id());
    }

    Batch batch;
    batch.count = count;
    batch.task = &task;
    batch.recorder = rec;
    batch.errors.resize(count);

    ensure_workers(max_threads - 1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch_ = &batch;
      // Cap how many workers may join: determinism never depends on it,
      // but it honors thread_count() as an actual concurrency bound.
      helpers_allowed_ = max_threads - 1;
      ++generation_;
    }
    cv_.notify_all();

    batch.run_some(/*helper=*/false);
    // The caller ran out of unclaimed tasks. Retract the batch, then wait
    // for claimed tasks to finish and registered helpers to step out
    // before the batch (and `task`) leaves scope.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch_ = nullptr;
    }
    std::size_t spins = 0;
    while (batch.done.load(std::memory_order_acquire) < count ||
           batch.active.load(std::memory_order_acquire) > 0) {
      if (++spins < 1024) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    if (rec != nullptr) {
      obs::set_ambient_parent(0);
      rec->metrics().observe(
          parallel_metrics().batch_us,
          static_cast<double>(rec->now_ns() - batch_t0) / 1e3);
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (batch.errors[i]) std::rethrow_exception(batch.errors[i]);
    }
  }

 private:
  void ensure_workers(std::size_t wanted) {
    wanted = wanted < kMaxWorkers ? wanted : kMaxWorkers;
    std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < wanted) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      Batch* batch = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
          return stopping_ || (batch_ != nullptr && generation_ != seen);
        });
        if (stopping_) return;
        seen = generation_;
        if (helpers_allowed_ == 0) continue;
        --helpers_allowed_;
        batch = batch_;
        // Register under the lock: the caller cannot have retracted the
        // batch yet, and it will wait for active to drain before
        // destroying it.
        batch->active.fetch_add(1, std::memory_order_acq_rel);
      }
      if (batch->recorder != nullptr) {
        batch->recorder->metrics().add(parallel_metrics().helper_joins);
      }
      batch->run_some(/*helper=*/true);
      batch->active.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  Batch* batch_ = nullptr;
  std::size_t helpers_allowed_ = 0;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
};

/// Meyers-style singleton, intentionally leaked so worker threads never
/// race static teardown at process exit.
Pool& pool() {
  static Pool* p = new Pool();
  return *p;
}

/// Serializes top-level batches: the pool handles one batch at a time and
/// concurrent callers queue here. Nested regions never reach this lock
/// (they run inline), so it cannot self-deadlock.
std::mutex& batch_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

std::size_t thread_count() {
  const std::size_t override_n = g_override.load(std::memory_order_relaxed);
  if (override_n > 0) return override_n;
  const std::size_t env_n = env_threads();
  if (env_n > 0) return env_n;
  return hardware_threads();
}

std::size_t set_thread_count(std::size_t n) {
  return g_override.exchange(n, std::memory_order_relaxed);
}

namespace detail {

bool in_parallel_region() noexcept { return t_in_parallel_region; }

void run_tasks(std::size_t count,
               const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  // Batch/task counts are identical at any thread count: the same
  // decomposition reaches this point whether the tasks then run inline or
  // on the pool. Timings (parallel.batch_us / task_us) cover only pooled
  // batches, where the clock reads are amortized over real work.
  if (obs::Recorder* rec = obs::kCompiledIn ? obs::current() : nullptr) {
    const auto& m = parallel_metrics();
    rec->metrics().add(m.batches);
    rec->metrics().add(m.tasks, count);
  }
  const std::size_t threads = thread_count();
  if (threads <= 1 || count == 1 || t_in_parallel_region) {
    // Serial fallback: same tasks, ascending order, no pool involved.
    // (An exception propagates immediately here; the pooled path runs
    // every task and rethrows the lowest-index failure — either way the
    // caller observes the lowest-index exception.)
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::lock_guard<std::mutex> lock(batch_mutex());
  pool().run(count, task, threads);
}

}  // namespace detail

}  // namespace auditherm::core
