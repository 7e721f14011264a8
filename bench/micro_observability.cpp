// Microbenchmarks (google-benchmark) for the observability layer.
//
// The acceptance question: with the runtime flag off, how much does the
// instrumentation cost a real hot path? The BM_Mlkp_* pair answers
// it end-to-end (the macro sites collapse to one relaxed atomic load +
// branch each); the BM_Disabled_* group prices a single macro site, and
// the BM_Enabled_* group prices the actual recording work so the cost of
// turning the flag on is equally documented.
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/mlkp.hpp"
#include "util/rng.hpp"

namespace {

using namespace ethshard;

graph::Graph ba_graph(std::uint64_t n) {
  util::Rng rng(42);
  return graph::make_barabasi_albert(n, 3, rng);
}

// ------------------------------------------------- per-site costs, off

void BM_Disabled_Counter(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) ETHSHARD_OBS_COUNT("bench/counter", 1);
}
BENCHMARK(BM_Disabled_Counter);

void BM_Disabled_Timer(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    ETHSHARD_OBS_TIMER("bench/timer");
  }
}
BENCHMARK(BM_Disabled_Timer);

void BM_Disabled_Span(benchmark::State& state) {
  obs::set_trace_enabled(false);
  for (auto _ : state) {
    ETHSHARD_OBS_SPAN("bench/span");
  }
}
BENCHMARK(BM_Disabled_Span);

// -------------------------------------------------- per-site costs, on

void BM_Enabled_Counter(benchmark::State& state) {
  obs::Registry registry;
  const obs::ScopedRegistry scope(registry);
  obs::set_enabled(true);
  for (auto _ : state) ETHSHARD_OBS_COUNT("bench/counter", 1);
  obs::set_enabled(false);
}
BENCHMARK(BM_Enabled_Counter);

void BM_Enabled_Timer(benchmark::State& state) {
  obs::Registry registry;
  const obs::ScopedRegistry scope(registry);
  obs::set_enabled(true);
  for (auto _ : state) {
    ETHSHARD_OBS_TIMER("bench/timer");
  }
  obs::set_enabled(false);
}
BENCHMARK(BM_Enabled_Timer);

void BM_Snapshot(benchmark::State& state) {
  obs::Registry registry;
  const obs::ScopedRegistry scope(registry);
  obs::set_enabled(true);
  for (int i = 0; i < state.range(0); ++i)
    registry.add_counter("bench/counter" + std::to_string(i), 1);
  obs::set_enabled(false);
  for (auto _ : state) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_Snapshot)->Arg(10)->Arg(100);

// --------------------------------------- end-to-end: instrumented mlkp
//
// The partitioner body carries ~10 macro sites (phase timers, spans,
// counters). Compare flag-off against flag-on on the same graph; the
// flag-off time is what every uninstrumented run pays.

void BM_Mlkp_ObsOff(benchmark::State& state) {
  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  const graph::Graph g = ba_graph(static_cast<std::uint64_t>(state.range(0)));
  partition::MlkpPartitioner mlkp;
  for (auto _ : state) {
    partition::Partition p = mlkp.partition(g, 8);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_Mlkp_ObsOff)->Arg(10000)->Arg(100000);

void BM_Mlkp_ObsOn(benchmark::State& state) {
  obs::Registry registry;
  const obs::ScopedRegistry scope(registry);
  obs::set_enabled(true);
  const graph::Graph g = ba_graph(static_cast<std::uint64_t>(state.range(0)));
  partition::MlkpPartitioner mlkp;
  for (auto _ : state) {
    partition::Partition p = mlkp.partition(g, 8);
    benchmark::DoNotOptimize(p);
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_Mlkp_ObsOn)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
