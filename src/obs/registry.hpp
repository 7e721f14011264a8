// Named metrics for the simulation engine: counters, gauges, and timer
// statistics, aggregated in a thread-local-then-merged Registry.
//
// Writers bump a per-(thread, registry) sink guarded by its own mutex —
// uncontended in the common case, so the hot path is a thread-local map
// lookup plus an uncontended lock. snapshot() merges every sink the
// registry has ever handed out (sinks are owned by the registry, so data
// from joined worker threads is never lost).
//
// The cost stays near zero when observability is off: enabled() is a
// relaxed atomic load checked before any work, and the default is off.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"

namespace ethshard::obs {

/// Runtime master switch for metrics recording (default off). Cheap to
/// query; writers check it before touching any registry state.
bool enabled();
void set_enabled(bool on);

namespace internal {
/// (Re)installs or clears the parallel-runtime hook table based on the
/// current metrics + tracing switches. Called by set_enabled and
/// set_trace_enabled; not part of the public surface.
void refresh_parallel_hooks();
}  // namespace internal

/// Aggregate of every record_ms() call made under one timer name. Exact
/// count/total/min/max plus a log-bucketed distribution of the samples,
/// so snapshots answer p50/p90/p99 as well as the mean.
struct TimerStat {
  std::uint64_t count = 0;
  double total_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
  Histogram hist;

  double mean_ms() const {
    return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
  }
  double quantile_ms(double q) const { return hist.quantile(q); }
  void add(double ms);
  void merge(const TimerStat& other);
};

/// Point-in-time view of a Registry, merged across threads. Ordered maps
/// so exports and tests are deterministic (keys always sort).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, TimerStat> timers;
  /// Free-standing distributions recorded via record_hist — unit-less
  /// values (queue depths, vertex counts, wait times) rather than the
  /// scope durations timers capture.
  std::map<std::string, Histogram> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && timers.empty() &&
           histograms.empty();
  }
  void merge(const MetricsSnapshot& other);
};

/// Thread-local-then-merged metric store. The process-wide instance is
/// global(); scoped instances (see ScopedRegistry in obs.hpp) let an
/// experiment grid attribute metrics to one cell at a time.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Adds `delta` to the named monotonic counter.
  void add_counter(std::string_view name, std::uint64_t delta = 1);
  /// Sets the named gauge to its latest value (last write wins).
  void set_gauge(std::string_view name, double value);
  /// Records one duration sample under the named timer.
  void record_ms(std::string_view name, double ms);
  /// Records one sample in the named histogram (values need not be
  /// durations — counts, depths and sizes are equally at home).
  void record_hist(std::string_view name, double value);

  /// Folds an external snapshot into this registry (e.g. a per-cell
  /// registry's totals into the process-wide one).
  void absorb(const MetricsSnapshot& snapshot);

  /// Merged view across all threads that ever wrote to this registry.
  MetricsSnapshot snapshot() const;

  /// Drops all recorded data (sinks stay registered).
  void reset();

  /// The process-wide registry.
  static Registry& global();

 private:
  struct Sink {
    std::mutex mu;
    std::unordered_map<std::string, std::uint64_t> counters;
    std::unordered_map<std::string, double> gauges;
    std::unordered_map<std::string, TimerStat> timers;
    std::unordered_map<std::string, Histogram> histograms;
  };

  Sink& local_sink();

  /// Never-reused identity for the thread-local sink cache, so a stale
  /// cache entry for a destroyed registry can never alias a new one.
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  MetricsSnapshot absorbed_;
};

}  // namespace ethshard::obs
