// Microbenchmarks (google-benchmark) for the partitioning substrate, plus
// the ablations called out in DESIGN.md §5: heavy-edge vs random matching,
// refinement on/off, and BLP round counts. Each benchmark reports the
// achieved static edge-cut as a counter alongside the runtime.
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "metrics/metrics.hpp"
#include "partition/blp.hpp"
#include "partition/coarsen.hpp"
#include "partition/hash_partitioner.hpp"
#include "partition/kernighan_lin.hpp"
#include "partition/mlkp.hpp"
#include "partition/streaming.hpp"
#include "util/rng.hpp"

namespace {

using namespace ethshard;

graph::Graph ba_graph(std::uint64_t n) {
  util::Rng rng(42);
  return graph::make_barabasi_albert(n, 3, rng);
}

graph::Graph grid_graph(std::uint64_t side) {
  return graph::make_grid(side, side);
}

void report_cut(benchmark::State& state, const graph::Graph& g,
                const partition::Partition& p) {
  state.counters["edge_cut"] = metrics::static_edge_cut(g, p);
  state.counters["balance"] = metrics::static_balance(p);
}

// ------------------------------------------------------------ throughput

void BM_Hash(benchmark::State& state) {
  const graph::Graph g = ba_graph(static_cast<std::uint64_t>(state.range(0)));
  partition::HashPartitioner hp;
  partition::Partition p;
  for (auto _ : state) {
    p = hp.partition(g, 8);
    benchmark::DoNotOptimize(p);
  }
  report_cut(state, g, p);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_Hash)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Mlkp(benchmark::State& state) {
  const graph::Graph g = ba_graph(static_cast<std::uint64_t>(state.range(0)));
  partition::MlkpPartitioner mlkp;
  partition::Partition p;
  for (auto _ : state) {
    p = mlkp.partition(g, 8);
    benchmark::DoNotOptimize(p);
  }
  report_cut(state, g, p);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_Mlkp)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_KernighanLin(benchmark::State& state) {
  const graph::Graph g = ba_graph(static_cast<std::uint64_t>(state.range(0)));
  partition::KernighanLinPartitioner kl;
  partition::Partition p;
  for (auto _ : state) {
    p = kl.partition(g, 8);
    benchmark::DoNotOptimize(p);
  }
  report_cut(state, g, p);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_KernighanLin)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_Ldg(benchmark::State& state) {
  const graph::Graph g = ba_graph(static_cast<std::uint64_t>(state.range(0)));
  partition::LdgPartitioner ldg;
  partition::Partition p;
  for (auto _ : state) {
    p = ldg.partition(g, 8);
    benchmark::DoNotOptimize(p);
  }
  report_cut(state, g, p);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_Ldg)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_Fennel(benchmark::State& state) {
  const graph::Graph g = ba_graph(static_cast<std::uint64_t>(state.range(0)));
  partition::FennelPartitioner fennel;
  partition::Partition p;
  for (auto _ : state) {
    p = fennel.partition(g, 8);
    benchmark::DoNotOptimize(p);
  }
  report_cut(state, g, p);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_Fennel)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------- ablations

void BM_MlkpMatching(benchmark::State& state) {
  const graph::Graph g = grid_graph(100);
  partition::MlkpConfig cfg;
  cfg.matching = state.range(0) == 0 ? partition::MatchingScheme::kHeavyEdge
                                     : partition::MatchingScheme::kRandom;
  partition::MlkpPartitioner mlkp(cfg);
  partition::Partition p;
  for (auto _ : state) {
    p = mlkp.partition(g, 4);
    benchmark::DoNotOptimize(p);
  }
  report_cut(state, g, p);
  state.SetLabel(state.range(0) == 0 ? "heavy-edge" : "random");
}
BENCHMARK(BM_MlkpMatching)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MlkpRefinement(benchmark::State& state) {
  const graph::Graph g = grid_graph(100);
  partition::MlkpConfig cfg;
  cfg.refine = state.range(0) != 0;
  partition::MlkpPartitioner mlkp(cfg);
  partition::Partition p;
  for (auto _ : state) {
    p = mlkp.partition(g, 4);
    benchmark::DoNotOptimize(p);
  }
  report_cut(state, g, p);
  state.SetLabel(state.range(0) ? "refine" : "no-refine");
}
BENCHMARK(BM_MlkpRefinement)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_BlpRounds(benchmark::State& state) {
  util::Rng rng(7);
  const graph::Graph g =
      graph::make_planted_partition(4, 250, 0.08, 0.005, rng);
  partition::HashPartitioner hp;
  const partition::Partition initial = hp.partition(g, 4);
  partition::BlpConfig cfg;
  cfg.rounds = static_cast<int>(state.range(0));
  partition::Partition p;
  for (auto _ : state) {
    p = initial;
    partition::BalancedLabelPropagation blp(cfg);
    benchmark::DoNotOptimize(blp.refine(g, p));
  }
  report_cut(state, g, p);
}
BENCHMARK(BM_BlpRounds)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CoarsenOnce(benchmark::State& state) {
  const graph::Graph g = ba_graph(static_cast<std::uint64_t>(state.range(0)));
  util::Rng rng(13);
  for (auto _ : state) {
    // One level of coarsen(): a matching and its contraction.
    benchmark::DoNotOptimize(partition::contract(
        g, partition::match_vertices(
               g, partition::MatchingScheme::kHeavyEdge, rng.next())));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_CoarsenOnce)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
