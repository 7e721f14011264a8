// Umbrella header for the observability layer: the thread-redirectable
// current registry, scoped timers, and the instrumentation macros used in
// hot paths.
//
// The runtime switches (obs::set_enabled / obs::set_trace_enabled, both
// default off) gate all recording behind one relaxed atomic load.
#pragma once

#include <string_view>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ethshard::obs {

/// The registry this thread's instrumentation writes to. Defaults to
/// Registry::global(); ScopedRegistry redirects it.
Registry& current();

/// RAII redirection of this thread's metrics to `r` — how an experiment
/// grid attributes instrumentation to one cell at a time. Only affects
/// the constructing thread.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& r);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* prev_;
};

/// RAII timer recording one sample under `name` in the thread's current
/// registry. `name` must outlive the timer (string literals in practice).
/// The enable check is latched at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  bool active_;
  double start_ms_ = 0;
};

}  // namespace ethshard::obs

#define ETHSHARD_OBS_CONCAT_INNER(a, b) a##b
#define ETHSHARD_OBS_CONCAT(a, b) ETHSHARD_OBS_CONCAT_INNER(a, b)

/// Adds `delta` to the named counter (evaluated only when enabled).
#define ETHSHARD_OBS_COUNT(name, delta)                        \
  do {                                                         \
    if (::ethshard::obs::enabled())                            \
      ::ethshard::obs::current().add_counter((name), (delta)); \
  } while (0)

/// Sets the named gauge (evaluated only when enabled).
#define ETHSHARD_OBS_GAUGE(name, value)                        \
  do {                                                         \
    if (::ethshard::obs::enabled())                            \
      ::ethshard::obs::current().set_gauge((name), (value));   \
  } while (0)

/// Records one duration sample in milliseconds.
#define ETHSHARD_OBS_RECORD_MS(name, ms)                       \
  do {                                                         \
    if (::ethshard::obs::enabled())                            \
      ::ethshard::obs::current().record_ms((name), (ms));      \
  } while (0)

/// Records one sample in the named histogram (any unit: counts, depths,
/// durations). Distributions answer p50/p90/p99/max in the snapshot.
#define ETHSHARD_OBS_HIST(name, value)                          \
  do {                                                          \
    if (::ethshard::obs::enabled())                             \
      ::ethshard::obs::current().record_hist(                   \
          (name), static_cast<double>(value));                  \
  } while (0)

/// Times the enclosing scope under `name`.
#define ETHSHARD_OBS_TIMER(name)          \
  ::ethshard::obs::ScopedTimer ETHSHARD_OBS_CONCAT(obs_timer_, \
                                                   __LINE__)(name)

/// Opens a trace span for the enclosing scope.
#define ETHSHARD_OBS_SPAN(name)          \
  ::ethshard::obs::ScopedSpan ETHSHARD_OBS_CONCAT(obs_span_, \
                                                  __LINE__)(name)
