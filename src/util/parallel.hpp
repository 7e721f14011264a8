// Minimal data parallelism for embarrassingly parallel work.
//
// The figure harnesses run dozens of independent simulations (method × k
// grids); parallel_map fans them out over a fixed number of threads while
// keeping results in input order. No work stealing, no dependencies —
// just an atomic cursor over an index range.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ethshard::util {

/// Hardware concurrency with a sane floor (the API never returns 0).
std::size_t default_thread_count();

/// Telemetry hooks for the parallel runtime. The obs layer links against
/// util (not the other way round), so it installs these callbacks when
/// metrics recording is switched on; with no table installed the runtime
/// records nothing and pays one relaxed atomic load per dispatch.
///
/// Both callbacks are invoked concurrently from worker threads and must
/// be thread-safe. The installed table must outlive every parallel call
/// made while it is installed (obs uses a static table).
struct ParallelTelemetryHooks {
  void (*record_hist)(const char* name, double value);
  void (*add_count)(const char* name, std::uint64_t delta);
  /// Called once from each pool worker thread as it starts (the trace
  /// layer names the worker's timeline lane from it). May be null.
  void (*on_worker_start)(std::size_t worker_index);
};

/// Atomically installs (or, with nullptr, clears) the hook table.
void set_parallel_telemetry(const ParallelTelemetryHooks* hooks);
const ParallelTelemetryHooks* parallel_telemetry();

/// Applies fn(index) for every index in [0, count) across `threads`
/// workers (0 → default_thread_count()). Blocks until done. The first
/// exception thrown by any worker is rethrown on the caller after all
/// workers stop picking up new work.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

/// Maps fn over inputs in parallel; results keep input order. R only
/// needs to be movable — each worker constructs its result in place in a
/// per-slot std::optional, so no default constructor is required.
template <typename T, typename F>
auto parallel_map(const std::vector<T>& inputs, F&& fn,
                  std::size_t threads = 0)
    -> std::vector<std::invoke_result_t<F&, const T&>> {
  using R = std::invoke_result_t<F&, const T&>;
  std::vector<std::optional<R>> slots(inputs.size());
  parallel_for(
      inputs.size(),
      [&](std::size_t i) { slots[i].emplace(fn(inputs[i])); }, threads);
  std::vector<R> results;
  results.reserve(inputs.size());
  for (std::optional<R>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace ethshard::util
