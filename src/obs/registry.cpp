#include "obs/registry.hpp"

#include <atomic>
#include <cstdio>

#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace ethshard::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_registry_id{1};

// Adapter the parallel runtime calls back into (util cannot depend on
// obs, so obs installs these when recording is switched on). Worker
// threads have no ScopedRegistry of their own, so samples land in
// whatever registry current() resolves to on that thread — the global
// one in practice.
void parallel_record_hist(const char* name, double value) {
  if (enabled()) current().record_hist(name, value);
}

void parallel_add_count(const char* name, std::uint64_t delta) {
  if (enabled()) current().add_counter(name, delta);
}

// Names the pool worker's timeline lane so traces show "pool-worker-N"
// instead of a bare thread number. Worker indices repeat across
// dispatches; identically named lanes are fine (the tid disambiguates).
void parallel_worker_start(std::size_t worker_index) {
  if (!trace_enabled()) return;
  char name[32];
  std::snprintf(name, sizeof(name), "pool-worker-%zu", worker_index);
  set_current_thread_lane(name);
}

constexpr util::ParallelTelemetryHooks kParallelHooks{
    &parallel_record_hist, &parallel_add_count, &parallel_worker_start};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
  internal::refresh_parallel_hooks();
}

namespace internal {

void refresh_parallel_hooks() {
  // Hook the parallel runtime's pool telemetry in/out with the master
  // switches (metrics feed the registry, tracing names worker lanes) so
  // fully disabled runs pay nothing beyond one null-pointer check.
  const bool on = enabled() || trace_enabled();
  util::set_parallel_telemetry(on ? &kParallelHooks : nullptr);
}

}  // namespace internal

void TimerStat::add(double ms) {
  if (count == 0) {
    min_ms = ms;
    max_ms = ms;
  } else {
    if (ms < min_ms) min_ms = ms;
    if (ms > max_ms) max_ms = ms;
  }
  ++count;
  total_ms += ms;
  hist.record(ms);
}

void TimerStat::merge(const TimerStat& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  if (other.min_ms < min_ms) min_ms = other.min_ms;
  if (other.max_ms > max_ms) max_ms = other.max_ms;
  count += other.count;
  total_ms += other.total_ms;
  hist.merge(other.hist);
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] = v;
  for (const auto& [name, stat] : other.timers) timers[name].merge(stat);
  for (const auto& [name, h] : other.histograms)
    histograms[name].merge(h);
}

Registry::Registry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry::Sink& Registry::local_sink() {
  // Cache keyed by the registry's never-reused id: a destroyed registry
  // leaves a dead entry behind, but no new registry can ever match it.
  thread_local std::unordered_map<std::uint64_t, Sink*> cache;
  auto [it, fresh] = cache.try_emplace(id_, nullptr);
  if (fresh) {
    auto sink = std::make_unique<Sink>();
    it->second = sink.get();
    const std::lock_guard<std::mutex> lock(mu_);
    sinks_.push_back(std::move(sink));
  }
  return *it->second;
}

void Registry::add_counter(std::string_view name, std::uint64_t delta) {
  Sink& sink = local_sink();
  const std::lock_guard<std::mutex> lock(sink.mu);
  sink.counters[std::string(name)] += delta;
}

void Registry::set_gauge(std::string_view name, double value) {
  Sink& sink = local_sink();
  const std::lock_guard<std::mutex> lock(sink.mu);
  sink.gauges[std::string(name)] = value;
}

void Registry::record_ms(std::string_view name, double ms) {
  Sink& sink = local_sink();
  const std::lock_guard<std::mutex> lock(sink.mu);
  sink.timers[std::string(name)].add(ms);
}

void Registry::record_hist(std::string_view name, double value) {
  Sink& sink = local_sink();
  const std::lock_guard<std::mutex> lock(sink.mu);
  sink.histograms[std::string(name)].record(value);
}

void Registry::absorb(const MetricsSnapshot& snapshot) {
  const std::lock_guard<std::mutex> lock(mu_);
  absorbed_.merge(snapshot);
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out = absorbed_;
  for (const auto& sink : sinks_) {
    const std::lock_guard<std::mutex> sink_lock(sink->mu);
    for (const auto& [name, v] : sink->counters) out.counters[name] += v;
    for (const auto& [name, v] : sink->gauges) out.gauges[name] = v;
    for (const auto& [name, stat] : sink->timers)
      out.timers[name].merge(stat);
    for (const auto& [name, h] : sink->histograms)
      out.histograms[name].merge(h);
  }
  return out;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  absorbed_ = MetricsSnapshot{};
  for (const auto& sink : sinks_) {
    const std::lock_guard<std::mutex> sink_lock(sink->mu);
    sink->counters.clear();
    sink->gauges.clear();
    sink->timers.clear();
    sink->histograms.clear();
  }
}

Registry& Registry::global() {
  // Leaked so worker threads may flush metrics during static teardown.
  static Registry* instance = new Registry();
  return *instance;
}

}  // namespace ethshard::obs
