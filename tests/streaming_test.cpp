// StreamingDifferential: the pull-based BlockSource path (DESIGN.md §6e)
// must be bit-identical to replaying a materialized History — the same
// SimulationResult and the same telemetry JSONL modulo wall-clock and
// resident-memory fields — for every paper strategy family, under both
// LoadModels. This suite is the license to stream by default. It also
// pins the supporting pieces to their materialized references:
// TraceSource against read_trace, the factory-based experiment grid
// against the History adapter, and MaterializedSource's zero-copy
// contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulator.hpp"
#include "core/strategy_registry.hpp"
#include "core/telemetry.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"

namespace ethshard::core {
namespace {

// Workload scale knob (tests/CMakeLists.txt sets it): shrinks the
// histories without thinning the strategy × load-model matrix.
double diff_scale() {
  if (const char* s = std::getenv("ETHSHARD_DIFF_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 0.0004;
}

workload::GeneratorConfig diff_config(std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.scale = diff_scale();
  cfg.seed = seed;
  return cfg;
}

struct RunOutput {
  SimulationResult result;
  std::string telemetry;  // JSONL; empty when no sink was attached
};

SimulatorConfig sim_config(std::uint32_t k, LoadModel load_model) {
  SimulatorConfig cfg;
  cfg.k = k;
  cfg.load_model = load_model;
  return cfg;
}

RunOutput run_source(workload::BlockSource& source, const std::string& spec,
                     std::uint32_t k, LoadModel load_model,
                     bool with_telemetry) {
  const auto strategy = StrategyRegistry::global().make(spec,
                                                       /*default_seed=*/7);
  SimulatorConfig cfg = sim_config(k, load_model);
  std::ostringstream os;
  std::unique_ptr<TelemetrySink> sink;
  if (with_telemetry) {
    sink = std::make_unique<TelemetrySink>(os);
    cfg.consumers.push_back(sink.get());
  }
  ShardingSimulator sim(source, *strategy, cfg);
  RunOutput out;
  out.result = sim.run();
  out.telemetry = os.str();
  return out;
}

RunOutput run_history(const workload::History& history,
                      const std::string& spec, std::uint32_t k,
                      LoadModel load_model, bool with_telemetry) {
  const auto strategy = StrategyRegistry::global().make(spec,
                                                       /*default_seed=*/7);
  SimulatorConfig cfg = sim_config(k, load_model);
  std::ostringstream os;
  std::unique_ptr<TelemetrySink> sink;
  if (with_telemetry) {
    sink = std::make_unique<TelemetrySink>(os);
    cfg.consumers.push_back(sink.get());
  }
  ShardingSimulator sim(history, *strategy, cfg);
  RunOutput out;
  out.result = sim.run();
  out.telemetry = os.str();
  return out;
}

// Blanks the value of a `"key": <number>` field wherever it appears.
std::string blank_field(const std::string& text, const std::string& key) {
  std::string needle = "\"";
  needle += key;
  needle += "\": ";
  std::string out;
  out.reserve(text.size());
  std::size_t copied = 0;
  std::size_t at = 0;
  while ((at = text.find(needle, copied)) != std::string::npos) {
    const std::size_t value = at + needle.size();
    std::size_t end = value;
    while (end < text.size() && text[end] != ',' && text[end] != '}' &&
           text[end] != '\n')
      ++end;
    out.append(text, copied, value - copied);
    out += 'X';
    copied = end;
  }
  out.append(text, copied);
  return out;
}

// Telemetry modulo per-run measurements: wall clocks and the resident-
// memory gauges (a streamed run legitimately has a different RSS than a
// materialized one — that difference is the point of the API).
std::string normalized_telemetry(const std::string& jsonl) {
  return blank_field(
      blank_field(blank_field(blank_field(jsonl, "window_wall_ms"),
                              "partitioner_ms"),
                  "rss_mb"),
      "peak_rss_mb");
}

// Every SimulationResult field except wall-clock timings, compared
// exactly (EXPECT_EQ on doubles is bitwise-for-equality — intentional:
// streaming promises the same arithmetic, not similar arithmetic).
void expect_identical(const SimulationResult& a, const SimulationResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.strategy_name, b.strategy_name);
  EXPECT_EQ(a.k, b.k);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a.windows[i].window_start, b.windows[i].window_start);
    EXPECT_EQ(a.windows[i].window_end, b.windows[i].window_end);
    EXPECT_EQ(a.windows[i].dynamic_edge_cut, b.windows[i].dynamic_edge_cut);
    EXPECT_EQ(a.windows[i].dynamic_balance, b.windows[i].dynamic_balance);
    EXPECT_EQ(a.windows[i].static_edge_cut, b.windows[i].static_edge_cut);
    EXPECT_EQ(a.windows[i].static_balance, b.windows[i].static_balance);
    EXPECT_EQ(a.windows[i].interactions, b.windows[i].interactions);
  }
  ASSERT_EQ(a.repartitions.size(), b.repartitions.size());
  for (std::size_t i = 0; i < a.repartitions.size(); ++i) {
    SCOPED_TRACE("repartition " + std::to_string(i));
    EXPECT_EQ(a.repartitions[i].time, b.repartitions[i].time);
    EXPECT_EQ(a.repartitions[i].moves, b.repartitions[i].moves);
    EXPECT_EQ(a.repartitions[i].moved_state_units,
              b.repartitions[i].moved_state_units);
    // compute_ms is wall clock — the one field allowed to differ.
  }
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.total_moved_state_units, b.total_moved_state_units);
  EXPECT_EQ(a.online_moves, b.online_moves);
  EXPECT_EQ(a.online_moved_state_units, b.online_moved_state_units);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.distinct_edges, b.distinct_edges);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.final_static_edge_cut, b.final_static_edge_cut);
  EXPECT_EQ(a.final_static_balance, b.final_static_balance);
  EXPECT_EQ(a.executed_cross_shard_fraction,
            b.executed_cross_shard_fraction);
  EXPECT_EQ(a.gap_windows_skipped, b.gap_windows_skipped);
}

struct Cell {
  const char* spec;
  std::uint32_t k;
};

// The five paper strategy families; periods shortened so the 0.0004-scale
// history still triggers several repartitions per run.
constexpr Cell kCells[] = {
    {"hashing", 4},
    {"kl:period_days=2", 8},
    {"metis:period_days=3", 4},
    {"r-metis:period_days=2", 4},
    {"tr-metis", 4},
};

// The tentpole differential: a GeneratedSource pulled by the simulator
// must reproduce a materialized generate() run bit for bit — both load
// models, every strategy family.
TEST(StreamingDifferential, GeneratedMatchesMaterialized) {
  const workload::GeneratorConfig cfg = diff_config(99);
  const workload::History history =
      workload::EthereumHistoryGenerator(cfg).generate();
  for (const Cell& cell : kCells) {
    for (const LoadModel lm : {LoadModel::kCalls, LoadModel::kGas}) {
      const std::string label = std::string(cell.spec) + " lm=" +
                                (lm == LoadModel::kCalls ? "calls" : "gas");
      const RunOutput materialized = run_history(
          history, cell.spec, cell.k, lm, /*with_telemetry=*/true);
      ASSERT_FALSE(materialized.result.windows.empty()) << label;
      // A fresh source per run: BlockSource is single-pass by contract.
      workload::GeneratedSource source(cfg);
      const RunOutput streamed = run_source(source, cell.spec, cell.k, lm,
                                            /*with_telemetry=*/true);
      expect_identical(materialized.result, streamed.result, label);
      EXPECT_EQ(normalized_telemetry(materialized.telemetry),
                normalized_telemetry(streamed.telemetry))
          << label;
    }
  }
}

// Draining a GeneratedSource reproduces generate() exactly — same hash
// chain, same block count, and the directory only materializes at
// end-of-stream.
TEST(StreamingDifferential, GeneratedSourceDrainMatchesGenerate) {
  const workload::GeneratorConfig cfg = diff_config(31);
  const workload::History history =
      workload::EthereumHistoryGenerator(cfg).generate();
  workload::GeneratedSource source(cfg);
  EXPECT_EQ(source.info().seed, cfg.seed);
  EXPECT_EQ(source.info().scale, cfg.scale);
  eth::Chain chain;
  eth::Block block;
  while (source.next(block)) chain.append(std::move(block));
  ASSERT_EQ(chain.blocks().size(), history.chain.blocks().size());
  ASSERT_FALSE(chain.blocks().empty());
  for (std::size_t i = 0; i < chain.blocks().size(); ++i) {
    ASSERT_EQ(chain.blocks()[i].hash(), history.chain.blocks()[i].hash())
        << "block " << i;
  }
  ASSERT_NE(source.directory(), nullptr);
  EXPECT_EQ(source.directory()->size(), history.accounts.size());
}

// The trace leg: write_trace → TraceSource streamed into the simulator
// vs write_trace → read_trace → materialized replay. Both sides consume
// the same serialized bytes, so everything downstream must match.
TEST(StreamingDifferential, TraceSourceMatchesMaterializedTrace) {
  const workload::History history =
      workload::EthereumHistoryGenerator(diff_config(7)).generate();
  std::ostringstream trace;
  workload::write_trace(trace, history);
  const std::string bytes = trace.str();

  std::istringstream materialized_in(bytes);
  const workload::History from_trace = workload::read_trace(materialized_in);

  const RunOutput materialized = run_history(
      from_trace, "hashing", 4, LoadModel::kCalls, /*with_telemetry=*/true);
  std::istringstream streaming_in(bytes);
  workload::TraceSource streaming_source(streaming_in);
  const RunOutput streamed =
      run_source(streaming_source, "hashing", 4, LoadModel::kCalls,
                 /*with_telemetry=*/true);
  expect_identical(materialized.result, streamed.result, "trace");
  EXPECT_EQ(normalized_telemetry(materialized.telemetry),
            normalized_telemetry(streamed.telemetry));

  // Block-level round trip: the streamed blocks are the read_trace blocks.
  std::istringstream drain_in(bytes);
  workload::TraceSource source(drain_in);
  EXPECT_EQ(source.directory(), nullptr);  // unknown until end-of-stream
  eth::Chain chain;
  eth::Block block;
  while (source.next(block)) chain.append(std::move(block));
  ASSERT_EQ(chain.blocks().size(), from_trace.chain.blocks().size());
  for (std::size_t i = 0; i < chain.blocks().size(); ++i) {
    ASSERT_EQ(chain.blocks()[i].hash(),
              from_trace.chain.blocks()[i].hash())
        << "block " << i;
  }
  ASSERT_NE(source.directory(), nullptr);
  EXPECT_EQ(source.directory()->size(), from_trace.accounts.size());
}

// The factory-based experiment grid (each cell opens its own stream)
// must equal the History-adapter grid cell for cell.
TEST(StreamingDifferential, FactoryExperimentMatchesHistoryExperiment) {
  const workload::GeneratorConfig cfg = diff_config(3);
  const workload::History history =
      workload::EthereumHistoryGenerator(cfg).generate();

  ExperimentConfig ec;
  ec.methods = {Method::kHashing, Method::kKl};
  ec.shard_counts = {2, 4};

  const workload::GeneratedSourceFactory sources(cfg);
  const std::vector<ExperimentRun> streamed = run_experiment(sources, ec);
  const std::vector<ExperimentRun> materialized =
      run_experiment(history, ec);

  ASSERT_EQ(streamed.size(), materialized.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    const std::string label = "cell " + std::to_string(i);
    EXPECT_EQ(streamed[i].method, materialized[i].method) << label;
    EXPECT_EQ(streamed[i].k, materialized[i].k) << label;
    expect_identical(materialized[i].result, streamed[i].result, label);
    EXPECT_EQ(streamed[i].dynamic_edge_cut.median,
              materialized[i].dynamic_edge_cut.median)
        << label;
    EXPECT_EQ(streamed[i].dynamic_balance.median,
              materialized[i].dynamic_balance.median)
        << label;
    EXPECT_EQ(streamed[i].normalized_balance_median,
              materialized[i].normalized_balance_median)
        << label;
  }
}

// MaterializedSource is the zero-copy adapter: next_ref() hands out
// pointers into the wrapped chain's own storage, and the directory is
// exposed unchanged.
TEST(StreamingDifferential, MaterializedSourceIsZeroCopy) {
  const workload::History history =
      workload::EthereumHistoryGenerator(diff_config(11)).generate();
  workload::MaterializedSource source(history.chain, &history.accounts);
  EXPECT_EQ(source.directory(), &history.accounts);
  const auto& blocks = history.chain.blocks();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const eth::Block* ref = source.next_ref();
    ASSERT_NE(ref, nullptr);
    EXPECT_EQ(ref, &blocks[i]) << "block " << i;  // pointer identity
  }
  EXPECT_EQ(source.next_ref(), nullptr);
}

}  // namespace
}  // namespace ethshard::core
