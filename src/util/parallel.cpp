#include "util/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

namespace ethshard::util {

namespace {

std::atomic<const ParallelTelemetryHooks*> g_telemetry{nullptr};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void set_parallel_telemetry(const ParallelTelemetryHooks* hooks) {
  g_telemetry.store(hooks, std::memory_order_release);
}

const ParallelTelemetryHooks* parallel_telemetry() {
  return g_telemetry.load(std::memory_order_acquire);
}

std::size_t default_thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (count == 0) return;
  if (threads == 0) threads = default_thread_count();
  threads = std::min(threads, count);

  // Telemetry never influences scheduling — workers pull from the same
  // atomic cursor whether or not a hook table is installed.
  const ParallelTelemetryHooks* tel = parallel_telemetry();

  if (threads == 1) {
    if (tel != nullptr) {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < count; ++i) fn(i);
      tel->add_count("pool/dispatches", 1);
      tel->add_count("pool/tasks", count);
      tel->record_hist("pool/task_wait_ms", 0.0);
      tel->record_hist("pool/task_run_ms", ms_since(start));
      return;
    }
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  const auto dispatch_start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::atomic<bool> abort{false};

  auto worker = [&](std::size_t worker_index) {
    // Wait = spawn latency: dispatch entry to this worker's first pull.
    // Run = the worker's whole busy stretch. One histogram sample each
    // per worker keeps the per-task loop free of clock queries.
    const auto worker_start = std::chrono::steady_clock::now();
    if (tel != nullptr && tel->on_worker_start != nullptr)
      tel->on_worker_start(worker_index);
    if (tel != nullptr)
      tel->record_hist(
          "pool/task_wait_ms",
          std::chrono::duration<double, std::milli>(worker_start -
                                                    dispatch_start)
              .count());
    std::size_t executed = 0;
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        fn(i);
        ++executed;
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (tel != nullptr) {
      tel->record_hist("pool/task_run_ms", ms_since(worker_start));
      tel->add_count("pool/tasks", executed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  if (tel != nullptr) {
    tel->add_count("pool/dispatches", 1);
    tel->add_count("pool/workers", threads);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ethshard::util
