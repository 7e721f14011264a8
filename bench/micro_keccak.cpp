// Microbenchmarks (google-benchmark) for the Keccak-256 kernel: one
// generated transaction (Transaction::hash, paid once per transaction of
// every sealed block) and raw byte strings on either side of the 136-byte
// rate.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "eth/keccak.hpp"
#include "workload/generator.hpp"

namespace {

using namespace ethshard;

const workload::History& history() {
  static const workload::History h = [] {
    workload::GeneratorConfig cfg;
    cfg.scale = 0.0002;
    cfg.seed = 1234;
    return workload::EthereumHistoryGenerator(cfg).generate();
  }();
  return h;
}

void BM_KeccakTxHash(benchmark::State& state) {
  std::vector<const eth::Transaction*> txs;
  for (const eth::Block& b : history().chain.blocks())
    for (const eth::Transaction& tx : b.transactions) txs.push_back(&tx);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(txs[i]->hash());
    if (++i == txs.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeccakTxHash);

void BM_Keccak256Bytes(benchmark::State& state) {
  const std::string msg(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) benchmark::DoNotOptimize(eth::keccak256(msg));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Keccak256Bytes)->Arg(32)->Arg(136)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
