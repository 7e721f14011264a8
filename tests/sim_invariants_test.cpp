// Property tests tying the simulator's incremental static metrics to the
// from-scratch definitions in metrics/, plus a golden regression test for
// the experiment comparison table.
//
// The simulator tracks static edge-cut with O(1)-per-edge incremental
// bookkeeping (plus targeted recomputation after repartitions and
// migrations). These tests replay randomized generated histories and
// assert that at EVERY window boundary the incremental numbers equal
// metrics::static_edge_cut / metrics::static_balance evaluated from
// scratch on the symmetrized cumulative graph — the invariant that makes
// Fig. 3's static curves trustworthy.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulator.hpp"
#include "core/strategies.hpp"
#include "core/strategy_registry.hpp"
#include "metrics/metrics.hpp"
#include "util/sim_time.hpp"
#include "workload/block_source.hpp"
#include "workload/generator.hpp"

namespace ethshard::core {
namespace {

workload::History tiny_history(std::uint64_t seed,
                               double scale = 0.0004) {
  workload::GeneratorConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  return workload::EthereumHistoryGenerator(cfg).generate();
}

/// Wraps any strategy and, at every window boundary, recomputes the
/// static metrics from scratch. should_repartition fires after the
/// simulator pushed the window's sample and before any repartition can
/// change the assignment, so the from-scratch values computed here must
/// equal the incremental ones in the sample just recorded.
class RecordingStrategy final : public ShardingStrategy {
 public:
  explicit RecordingStrategy(std::unique_ptr<ShardingStrategy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const SimulatorEnv& env) override {
    return inner_->place(v, peers, env);
  }

  bool should_repartition(const WindowSnapshot& snapshot,
                          const SimulatorEnv& env) override {
    // Quiet windows produce no sample, so record only what the
    // simulator records.
    if (snapshot.interactions > 0) {
      const graph::Graph g = env.cumulative_graph();
      expected_.emplace_back(
          metrics::static_edge_cut(g, env.current_partition()),
          metrics::static_balance(env.current_partition()));
    }
    return inner_->should_repartition(snapshot, env);
  }

  partition::Partition compute_partition(const SimulatorEnv& env) override {
    return inner_->compute_partition(env);
  }

  void on_transaction(std::span<const graph::Vertex> involved,
                      const SimulatorEnv& env, MigrationSink& sink) override {
    inner_->on_transaction(involved, env, sink);
  }

  /// (static_edge_cut, static_balance) per busy window, from scratch.
  const std::vector<std::pair<double, double>>& expected() const {
    return expected_;
  }

 private:
  std::unique_ptr<ShardingStrategy> inner_;
  std::vector<std::pair<double, double>> expected_;
};

void expect_incremental_matches_scratch(const std::string& spec,
                                        std::uint64_t history_seed,
                                        std::uint32_t k) {
  const workload::History history = tiny_history(history_seed);
  RecordingStrategy strategy(
      StrategyRegistry::global().make(spec, /*default_seed=*/7));
  SimulatorConfig cfg;
  cfg.k = k;
  ShardingSimulator sim(history, strategy, cfg);
  const SimulationResult result = sim.run();

  ASSERT_GT(result.windows.size(), 10u) << spec;
  ASSERT_EQ(result.windows.size(), strategy.expected().size()) << spec;
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    const auto& [cut, balance] = strategy.expected()[i];
    EXPECT_NEAR(result.windows[i].static_edge_cut, cut, 1e-12)
        << spec << " window " << i;
    EXPECT_NEAR(result.windows[i].static_balance, balance, 1e-12)
        << spec << " window " << i;
  }
}

// R-METIS with a short period repartitions often, exercising the
// post-repartition full recomputation between long incremental stretches.
TEST(SimStaticMetrics, IncrementalMatchesScratchUnderRMetis) {
  expect_incremental_matches_scratch("r-metis:period_days=2", 3, 3);
  expect_incremental_matches_scratch("r-metis:period_days=2", 11, 4);
}

// Hashing never repartitions: the pure incremental path, long histories.
TEST(SimStaticMetrics, IncrementalMatchesScratchUnderHashing) {
  expect_incremental_matches_scratch("hashing", 5, 3);
}

// DSM migrates vertices mid-window (online moves), which dirties the
// static cut and forces the targeted-recompute path every busy window.
TEST(SimStaticMetrics, IncrementalMatchesScratchUnderDsm) {
  expect_incremental_matches_scratch("dsm", 3, 3);
}

// METIS repartitions the full cumulative graph — label-permutation-heavy
// partitions stress the post-repartition cut rebuild.
TEST(SimStaticMetrics, IncrementalMatchesScratchUnderMetis) {
  expect_incremental_matches_scratch("metis:period_days=3", 11, 3);
}

// -------------------------------------- incremental differential suite
//
// cfg.verify_incremental makes the simulator itself recompute the static
// cut from scratch at every window flush and after every repartition (and
// rebuild the cumulative snapshot to compare with the cache), aborting on
// any divergence. Running migration-heavy strategies under it is the
// differential test for the O(deg) cut-delta path.

void expect_verified_run(const std::string& spec, std::uint64_t history_seed,
                         std::uint32_t k) {
  const workload::History history = tiny_history(history_seed);
  const auto strategy =
      StrategyRegistry::global().make(spec, /*default_seed=*/7);
  SimulatorConfig cfg;
  cfg.k = k;
  cfg.verify_incremental = true;
  ShardingSimulator sim(history, *strategy, cfg);
  const SimulationResult result = sim.run();
  EXPECT_GT(result.windows.size(), 10u) << spec;
}

TEST(IncrementalDifferential, HashingPureIncrementalPath) {
  expect_verified_run("hashing", 5, 2);
  expect_verified_run("hashing", 5, 8);
}

// KL/BLP repartitions move many vertices at once — the heaviest consumer
// of the per-vertex cut deltas.
TEST(IncrementalDifferential, BlpMigrationHeavy) {
  expect_verified_run("kl", 3, 4);
  expect_verified_run("kl", 11, 8);
}

TEST(IncrementalDifferential, DsmOnlineMigrations) {
  expect_verified_run("dsm", 3, 3);
}

// Full-graph METIS repartitions relabel wholesale, alternating the
// delta path with the recompute fallback.
TEST(IncrementalDifferential, MetisFamilies) {
  expect_verified_run("metis:period_days=3", 11, 4);
  expect_verified_run("r-metis:period_days=2", 3, 3);
  expect_verified_run("r-metis:period_days=2", 7, 8);
  expect_verified_run("tr-metis", 5, 4);
}

// ------------------------------------------------ gap fast-forwarding

/// Sees every window and does nothing with it: attaching it turns the gap
/// fast-forward off.
class NullConsumer final : public TelemetryConsumer {
 public:
  void on_window(const WindowTelemetry&) override {}
};

/// Runs `spec` over a history with a long mid-trace traffic gap, with no
/// consumer (the fast-forward runs) and with a no-op consumer (every
/// window is flushed), and requires identical observable output.
void expect_fast_forward_equivalent(const std::string& spec,
                                    std::uint32_t k) {
  const workload::History base = tiny_history(3);
  const auto& blocks = base.chain.blocks();
  ASSERT_FALSE(blocks.empty());
  const util::Timestamp mid =
      (blocks.front().timestamp + blocks.back().timestamp) / 2;

  auto run = [&](bool fast_forward) {
    workload::TrafficGapSource gapped(
        std::make_unique<workload::MaterializedSource>(base.chain,
                                                       &base.accounts),
        mid, 400 * util::kDay);
    const auto strategy =
        StrategyRegistry::global().make(spec, /*default_seed=*/7);
    NullConsumer null_consumer;
    SimulatorConfig cfg;
    cfg.k = k;
    if (!fast_forward) cfg.consumers.push_back(&null_consumer);
    ShardingSimulator sim(gapped, *strategy, cfg);
    return sim.run();
  };
  const SimulationResult on = run(true);
  const SimulationResult off = run(false);

  EXPECT_GT(on.gap_windows_skipped, 0u) << spec;
  EXPECT_EQ(off.gap_windows_skipped, 0u) << spec;

  ASSERT_EQ(on.windows.size(), off.windows.size()) << spec;
  for (std::size_t i = 0; i < on.windows.size(); ++i) {
    const WindowSample& a = on.windows[i];
    const WindowSample& b = off.windows[i];
    EXPECT_EQ(a.window_start, b.window_start) << spec << " window " << i;
    EXPECT_EQ(a.window_end, b.window_end) << spec << " window " << i;
    EXPECT_EQ(a.interactions, b.interactions) << spec << " window " << i;
    EXPECT_EQ(a.dynamic_edge_cut, b.dynamic_edge_cut) << spec << " " << i;
    EXPECT_EQ(a.dynamic_balance, b.dynamic_balance) << spec << " " << i;
    EXPECT_EQ(a.static_edge_cut, b.static_edge_cut) << spec << " " << i;
    EXPECT_EQ(a.static_balance, b.static_balance) << spec << " " << i;
  }
  ASSERT_EQ(on.repartitions.size(), off.repartitions.size()) << spec;
  for (std::size_t i = 0; i < on.repartitions.size(); ++i) {
    EXPECT_EQ(on.repartitions[i].time, off.repartitions[i].time) << spec;
    EXPECT_EQ(on.repartitions[i].moves, off.repartitions[i].moves) << spec;
    EXPECT_EQ(on.repartitions[i].moved_state_units,
              off.repartitions[i].moved_state_units)
        << spec;
  }
  EXPECT_EQ(on.total_moves, off.total_moves) << spec;
  EXPECT_EQ(on.vertices, off.vertices) << spec;
  EXPECT_EQ(on.distinct_edges, off.distinct_edges) << spec;
  EXPECT_EQ(on.interactions, off.interactions) << spec;
  EXPECT_EQ(on.final_static_edge_cut, off.final_static_edge_cut) << spec;
  EXPECT_EQ(on.executed_cross_shard_fraction,
            off.executed_cross_shard_fraction)
      << spec;
}

// Hashing never repartitions (kNeverOnEmpty): the whole gap collapses.
TEST(GapFastForward, HashingSkipsWholeGap) {
  expect_fast_forward_equivalent("hashing", 4);
}

// Periodic strategies still repartition *inside* the gap at their usual
// cadence; skipping must stop at every consultation point.
TEST(GapFastForward, PeriodicStrategyKeepsGapRepartitions) {
  expect_fast_forward_equivalent("kl", 4);
  expect_fast_forward_equivalent("r-metis:period_days=2", 3);
}

// -------------------------------------------------- comparison_table

/// Drops the trailing cellMs column (wall-clock, not deterministic) from
/// every row of a comparison_table.
std::string strip_wall_clock_column(const std::string& table) {
  std::istringstream is(table);
  std::ostringstream os;
  std::string line;
  while (std::getline(is, line)) {
    const auto content_end = line.find_last_not_of(' ');
    if (content_end == std::string::npos) {
      os << "\n";
      continue;
    }
    const auto col_start = line.find_last_of(' ', content_end);
    const auto keep_end = line.find_last_not_of(' ', col_start);
    os << (keep_end == std::string::npos ? std::string()
                                         : line.substr(0, keep_end + 1))
       << "\n";
  }
  return os.str();
}

TEST(ComparisonTable, GoldenRegression) {
  const workload::History history = tiny_history(123);
  ExperimentConfig cfg;
  cfg.methods = {Method::kHashing, Method::kRMetis};
  cfg.shard_counts = {2, 4};
  cfg.seed = 7;
  cfg.threads = 1;
  const std::vector<ExperimentRun> runs = run_experiment(history, cfg);
  const std::string got =
      strip_wall_clock_column(comparison_table(runs));

  // Regenerate by running this test and copying the printed `got` value.
  // A change here must be an intentional partitioner/simulator behaviour
  // change, never incidental drift. (Last change: self-calls no longer
  // count in the dynamic edge-cut denominator, which shifts dynCut and
  // the derived speedup.)
  const std::string expected =
      "method      k dynCut(med) dynBal(med)   normBal    speedup"
      "        moves  reparts\n"
      "Hashing     2      0.5000      1.2857    0.2857      0.792"
      "            0        0\n"
      "Hashing     4      0.7692      2.0000    0.3333      0.869"
      "            0        0\n"
      "R-METIS     2      0.3750      1.3333    0.3333      0.918"
      "         9730       63\n"
      "R-METIS     4      0.6000      2.0000    0.3333      1.003"
      "        14928       63\n";
  EXPECT_EQ(got, expected);
}

// The table itself (minus wall clock) must be reproducible run to run —
// guards against nondeterminism sneaking into the experiment grid.
TEST(ComparisonTable, DeterministicAcrossRuns) {
  const workload::History history = tiny_history(123);
  ExperimentConfig cfg;
  cfg.methods = {Method::kRMetis};
  cfg.shard_counts = {2};
  cfg.seed = 7;
  const std::string a =
      strip_wall_clock_column(comparison_table(run_experiment(history, cfg)));
  const std::string b =
      strip_wall_clock_column(comparison_table(run_experiment(history, cfg)));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ethshard::core
