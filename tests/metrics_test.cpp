// Tests for the metrics module: Eq. 1/2 static & dynamic, normalization,
// window accumulation and distribution summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "core/simulator.hpp"
#include "core/strategies.hpp"
#include "eth/gas.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "metrics/metrics.hpp"
#include "metrics/summary.hpp"
#include "partition/types.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "workload/generator.hpp"

namespace ethshard::metrics {
namespace {

using graph::Graph;
using graph::Vertex;
using partition::Partition;

Graph weighted_square() {
  // 0-1 (w=10), 1-2 (w=1), 2-3 (w=10), 3-0 (w=1); vertex weights 1,1,5,5.
  graph::GraphBuilder b;
  b.add_vertex(1);
  b.add_vertex(1);
  b.add_vertex(5);
  b.add_vertex(5);
  b.add_edge(0, 1, 10);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 10);
  b.add_edge(3, 0, 1);
  return b.build_undirected();
}

TEST(EdgeCutMetric, StaticCountsEdges) {
  const Graph g = weighted_square();
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  p.assign(3, 1);
  // Edges 1-2 and 3-0 cross: 2 of 4.
  EXPECT_DOUBLE_EQ(static_edge_cut(g, p), 0.5);
}

TEST(EdgeCutMetric, DynamicWeighsFrequencies) {
  const Graph g = weighted_square();
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  p.assign(3, 1);
  // Crossing weight 2 of total 22.
  EXPECT_DOUBLE_EQ(dynamic_edge_cut(g, p), 2.0 / 22.0);
}

TEST(EdgeCutMetric, WorstSplitCutsHeavyEdges) {
  const Graph g = weighted_square();
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 0);
  p.assign(3, 1);
  EXPECT_DOUBLE_EQ(static_edge_cut(g, p), 1.0);
  EXPECT_DOUBLE_EQ(dynamic_edge_cut(g, p), 1.0);
}

TEST(EdgeCutMetric, EdgelessGraphIsZero) {
  graph::GraphBuilder b;
  b.ensure_vertices(3);
  const Graph g = b.build_undirected();
  Partition p(3, 2, 0);
  EXPECT_DOUBLE_EQ(static_edge_cut(g, p), 0.0);
  EXPECT_DOUBLE_EQ(dynamic_edge_cut(g, p), 0.0);
}

TEST(BalanceMetric, StaticUsesVertexCounts) {
  Partition p(6, 2);
  for (Vertex v = 0; v < 6; ++v) p.assign(v, v < 4 ? 0 : 1);
  // max=4, k=2, n=6 → 4*2/6.
  EXPECT_DOUBLE_EQ(static_balance(p), 4.0 * 2 / 6);
}

TEST(BalanceMetric, PerfectBalanceIsOne) {
  Partition p(8, 4);
  for (Vertex v = 0; v < 8; ++v) p.assign(v, static_cast<std::uint32_t>(v % 4));
  EXPECT_DOUBLE_EQ(static_balance(p), 1.0);
}

TEST(BalanceMetric, DynamicUsesWeights) {
  const Graph g = weighted_square();  // weights 1,1,5,5
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  p.assign(3, 1);
  // Loads: shard0 = 2, shard1 = 10; balance = 10*2/12.
  EXPECT_DOUBLE_EQ(dynamic_balance(g, p), 10.0 * 2 / 12);
}

TEST(BalanceMetric, EverythingInOneShardEqualsK) {
  Partition p(10, 5, 0);
  EXPECT_DOUBLE_EQ(static_balance(p), 5.0);
}

TEST(NormalizedBalance, MapsRangeToUnitInterval) {
  EXPECT_DOUBLE_EQ(normalized_balance(1.0, 8), 0.0);
  EXPECT_DOUBLE_EQ(normalized_balance(8.0, 8), 1.0);
  EXPECT_DOUBLE_EQ(normalized_balance(1.5, 2), 0.5);
  EXPECT_DOUBLE_EQ(normalized_balance(2.0, 1), 0.0);  // k=1 degenerate
}

// ---------------------------------------------------- WindowAccumulator

TEST(WindowAccumulator, EdgeCutFraction) {
  WindowAccumulator acc(2);
  acc.record_interaction(0, 0, 3);
  acc.record_interaction(0, 1, 1);
  EXPECT_DOUBLE_EQ(acc.dynamic_edge_cut(), 0.25);
  EXPECT_EQ(acc.total_interactions(), 4u);
  EXPECT_EQ(acc.cross_interactions(), 1u);
}

TEST(WindowAccumulator, BalanceFromLoads) {
  WindowAccumulator acc(2);
  acc.record_activity(0, 9);
  acc.record_activity(1, 3);
  EXPECT_DOUBLE_EQ(acc.dynamic_balance(), 9.0 * 2 / 12);
}

TEST(WindowAccumulator, EmptyWindowDefaults) {
  WindowAccumulator acc(4);
  EXPECT_TRUE(acc.empty());
  EXPECT_DOUBLE_EQ(acc.dynamic_edge_cut(), 0.0);
  EXPECT_DOUBLE_EQ(acc.dynamic_balance(), 1.0);
}

TEST(WindowAccumulator, ResetClears) {
  WindowAccumulator acc(2);
  acc.record_interaction(0, 1, 5);
  acc.record_activity(1, 5);
  acc.reset();
  EXPECT_TRUE(acc.empty());
  EXPECT_DOUBLE_EQ(acc.dynamic_edge_cut(), 0.0);
}

TEST(WindowAccumulator, RejectsOutOfRangeShard) {
  WindowAccumulator acc(2);
  EXPECT_THROW(acc.record_interaction(0, 2), util::CheckFailure);
  EXPECT_THROW(acc.record_activity(5), util::CheckFailure);
}

// ---------------------------------------------------------------- Summary

TEST(Summary, FiveNumberSummary) {
  const Summary s = summarize({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_EQ(s.count, 5u);
}

TEST(Summary, InterpolatedQuartiles) {
  const Summary s = summarize({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
}

TEST(Summary, SingleValue) {
  const Summary s = summarize({7});
  EXPECT_DOUBLE_EQ(s.min, 7);
  EXPECT_DOUBLE_EQ(s.median, 7);
  EXPECT_DOUBLE_EQ(s.max, 7);
}

TEST(Summary, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.median, 0);
}

TEST(Summary, QuantileSortedEndpoints) {
  const std::vector<double> v = {1, 2, 3};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 3);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 2);
}

TEST(Summary, MeanStdevKnownValues) {
  const MeanStdev ms = mean_stdev({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(ms.mean, 5.0);
  EXPECT_NEAR(ms.stdev, 2.138, 0.001);  // sample stdev (n-1)
  EXPECT_EQ(ms.count, 8u);
}

TEST(Summary, MeanStdevDegenerateCases) {
  EXPECT_EQ(mean_stdev({}).count, 0u);
  const MeanStdev one = mean_stdev({42});
  EXPECT_DOUBLE_EQ(one.mean, 42.0);
  EXPECT_DOUBLE_EQ(one.stdev, 0.0);
  const MeanStdev same = mean_stdev({3, 3, 3});
  EXPECT_DOUBLE_EQ(same.stdev, 0.0);
}

TEST(Summary, ToStringContainsFields) {
  const std::string s = to_string(summarize({1, 2, 3}));
  EXPECT_NE(s.find("med="), std::string::npos);
  EXPECT_NE(s.find("mean="), std::string::npos);
}

// --------------------------------------------- consistency with partition

TEST(Consistency, WindowAccumulatorMatchesGraphMetrics) {
  // Recording every edge of a static graph into the accumulator must give
  // the same dynamic edge-cut as the graph-level computation.
  const Graph g = graph::make_grid(6, 6);
  Partition p(g.num_vertices(), 2);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    p.assign(v, v % 2 == 0 ? 0u : 1u);

  WindowAccumulator acc(2);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (const graph::Arc& a : g.neighbors(v))
      if (v < a.to)
        acc.record_interaction(p.shard_of(v), p.shard_of(a.to), a.weight);

  EXPECT_DOUBLE_EQ(acc.dynamic_edge_cut(), dynamic_edge_cut(g, p));
}

TEST(Consistency, SelfCallsDropOutOfTheCutDenominator) {
  // Replaying a traffic mix that includes self-calls must agree with
  // metrics::dynamic_edge_cut on the symmetrized window graph, which
  // drops self-loops. Routing self-calls through record_interaction
  // instead would deflate the accumulator's cut (regression guard for
  // the denominator-mismatch bug).
  graph::GraphBuilder b;
  b.ensure_vertices(4);
  Partition p(4, 2);
  for (Vertex v = 0; v < 4; ++v) p.assign(v, v < 2 ? 0u : 1u);

  struct Call {
    Vertex from, to;
    graph::Weight times;
  };
  const std::vector<Call> calls = {
      {0, 1, 3}, {0, 2, 2}, {1, 1, 50}, {3, 3, 10}, {2, 3, 4}, {1, 3, 1}};

  WindowAccumulator acc(2);
  for (const Call& c : calls) {
    b.add_edge(c.from, c.to, c.times);
    if (c.from == c.to)
      acc.record_self_interaction(c.times);
    else
      acc.record_interaction(p.shard_of(c.from), p.shard_of(c.to), c.times);
  }

  const graph::Graph window = b.build_undirected();
  EXPECT_DOUBLE_EQ(acc.dynamic_edge_cut(), dynamic_edge_cut(window, p));
  // Volume still counts every call; the denominator only pairs.
  EXPECT_EQ(acc.total_interactions(), 70u);
  EXPECT_EQ(acc.pair_interactions(), 10u);
  EXPECT_EQ(acc.cross_interactions(), 3u);
  EXPECT_DOUBLE_EQ(acc.dynamic_edge_cut(), 0.3);
}

TEST(WindowAccumulator, SelfOnlyWindowHasZeroCut) {
  WindowAccumulator acc(2);
  acc.record_self_interaction(12);
  EXPECT_EQ(acc.total_interactions(), 12u);
  EXPECT_EQ(acc.pair_interactions(), 0u);
  EXPECT_DOUBLE_EQ(acc.dynamic_edge_cut(), 0.0);
  EXPECT_FALSE(acc.empty());
}

// ----------------------------------- simulator metrics against brute force

/// Delegates to a real strategy and records, from the hooks the simulator
/// calls, what a from-scratch recompute needs: the shards every
/// transaction's calls executed under (on_transaction runs after the
/// calls, before any migration the inner strategy requests) and the
/// partition in force at the end of the replay.
class RecordingStrategy final : public core::ShardingStrategy {
 public:
  RecordingStrategy(std::unique_ptr<core::ShardingStrategy> inner,
                    std::vector<eth::Transaction> txs)
      : inner_(std::move(inner)), txs_(std::move(txs)) {}

  std::string name() const override { return inner_->name(); }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const core::SimulatorEnv& env) override {
    return inner_->place(v, peers, env);
  }
  bool should_repartition(const core::WindowSnapshot& snapshot,
                          const core::SimulatorEnv& env) override {
    return inner_->should_repartition(snapshot, env);
  }
  util::Timestamp no_repartition_before(
      util::Timestamp last_repartition) const override {
    return inner_->no_repartition_before(last_repartition);
  }
  // The simulator may relabel the shards of this result before applying
  // it; edge-cut and balance do not depend on the labels.
  Partition compute_partition(const core::SimulatorEnv& env) override {
    final_ = inner_->compute_partition(env);
    return final_;
  }
  void on_transaction(std::span<const graph::Vertex> involved,
                      const core::SimulatorEnv& env,
                      core::MigrationSink& sink) override {
    ASSERT_LT(next_tx_, txs_.size());
    const Partition& p = env.current_partition();
    for (const eth::Call& c : txs_[next_tx_++].calls) {
      if (c.from == c.to) continue;
      ++pair_calls_;
      if (p.shard_of(c.from) != p.shard_of(c.to)) ++cross_calls_;
    }
    inner_->on_transaction(involved, env, sink);
    final_ = env.current_partition();
  }

  const Partition& final_partition() const { return final_; }
  double cross_shard_fraction() const {
    return pair_calls_ == 0 ? 0.0
                            : static_cast<double>(cross_calls_) /
                                  static_cast<double>(pair_calls_);
  }

 private:
  std::unique_ptr<core::ShardingStrategy> inner_;
  std::vector<eth::Transaction> txs_;
  std::size_t next_tx_ = 0;
  std::uint64_t pair_calls_ = 0;
  std::uint64_t cross_calls_ = 0;
  Partition final_{0, 1};
};

/// A small random history: `accounts` ids, a block about every hour for
/// eight weeks (so the two-week periodic methods repartition several
/// times), 1-3 transactions per block of 1-3 chained calls, a few of them
/// self-calls.
workload::History random_history(std::uint64_t seed, std::uint64_t accounts) {
  util::Rng rng(seed);
  workload::History h;
  for (std::uint64_t a = 0; a < accounts; ++a)
    h.accounts.create(eth::AccountKind::kExternallyOwned, 0);
  util::Timestamp t = 0;
  for (std::uint64_t number = 0; t < 8 * util::kWeek; ++number) {
    eth::Block b;
    b.number = number;
    b.timestamp = t;
    if (number > 0) b.parent_hash = h.chain.last().hash();
    const std::uint64_t txs = 1 + rng.uniform(3);
    for (std::uint64_t i = 0; i < txs; ++i) {
      eth::Transaction tx;
      tx.sender = rng.uniform(accounts);
      eth::AccountId from = tx.sender;
      const std::uint64_t calls = 1 + rng.uniform(3);
      for (std::uint64_t c = 0; c < calls; ++c) {
        const eth::AccountId to =
            rng.bernoulli(0.05) ? from : rng.uniform(accounts);
        tx.calls.push_back(eth::Call{from, to, eth::CallKind::kTransfer, 1});
        from = to;
      }
      b.transactions.push_back(std::move(tx));
    }
    h.chain.append(std::move(b));
    t += 1800 + static_cast<util::Timestamp>(rng.uniform(3600));
  }
  return h;
}

TEST(Consistency, SimulatorMetricsMatchBruteForce) {
  // Eq. 1 (static edge-cut over the symmetrized cumulative graph), Eq. 2
  // (static balance) and the executed cross-shard fraction, as the
  // simulator maintains them incrementally, against a recompute from the
  // history and the final partition, for every method on 20 seeds.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const workload::History h = random_history(seed, 30 + seed * 3);
    std::vector<eth::Transaction> txs;
    std::set<std::pair<eth::AccountId, eth::AccountId>> edges;
    for (const eth::Block& b : h.chain.blocks())
      for (const eth::Transaction& tx : b.transactions) {
        txs.push_back(tx);
        for (const eth::Call& c : tx.calls)
          if (c.from != c.to)
            edges.emplace(std::min(c.from, c.to), std::max(c.from, c.to));
      }

    for (const core::Method method : core::kAllMethods) {
      const std::uint32_t k = 2 + static_cast<std::uint32_t>(seed % 3);
      RecordingStrategy strategy(core::make_strategy(method, seed), txs);
      core::SimulatorConfig cfg;
      cfg.k = k;
      cfg.verify_incremental = true;
      const core::SimulationResult r =
          core::ShardingSimulator(h, strategy, cfg).run();
      SCOPED_TRACE(core::method_name(method) + " seed " +
                   std::to_string(seed));

      const Partition& p = strategy.final_partition();
      std::uint64_t cut = 0;
      for (const auto& [a, b] : edges)
        if (p.shard_of(a) != p.shard_of(b)) ++cut;
      EXPECT_DOUBLE_EQ(r.final_static_edge_cut,
                       static_cast<double>(cut) /
                           static_cast<double>(edges.size()));

      std::vector<std::uint64_t> sizes(k, 0);
      std::uint64_t placed = 0;
      for (Vertex v = 0; v < p.size(); ++v) {
        if (p.shard_of(v) == partition::kUnassigned) continue;
        ++sizes[p.shard_of(v)];
        ++placed;
      }
      EXPECT_DOUBLE_EQ(r.final_static_balance,
                       static_cast<double>(
                           *std::max_element(sizes.begin(), sizes.end())) *
                           k / static_cast<double>(placed));

      EXPECT_DOUBLE_EQ(r.executed_cross_shard_fraction,
                       strategy.cross_shard_fraction());
    }
  }
}

/// Delegates to a real strategy and, at every compute_partition, checks
/// env.window_graph() against a fresh GraphBuilder fed only the calls of
/// the transactions executed since the previous repartition (on_transaction
/// counts them; a repartition runs between blocks, so the count is exact).
class WindowCheckingStrategy final : public core::ShardingStrategy {
 public:
  WindowCheckingStrategy(std::unique_ptr<core::ShardingStrategy> inner,
                         std::vector<eth::Transaction> txs,
                         std::uint64_t accounts, core::LoadModel load_model)
      : inner_(std::move(inner)),
        txs_(std::move(txs)),
        accounts_(accounts),
        load_model_(load_model) {}

  std::string name() const override { return inner_->name(); }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const core::SimulatorEnv& env) override {
    return inner_->place(v, peers, env);
  }
  bool should_repartition(const core::WindowSnapshot& snapshot,
                          const core::SimulatorEnv& env) override {
    return inner_->should_repartition(snapshot, env);
  }
  util::Timestamp no_repartition_before(
      util::Timestamp last_repartition) const override {
    return inner_->no_repartition_before(last_repartition);
  }
  Partition compute_partition(const core::SimulatorEnv& env) override {
    check_window_graph(env.window_graph());
    window_begin_ = next_tx_;
    ++checked_;
    return inner_->compute_partition(env);
  }
  void on_transaction(std::span<const graph::Vertex> involved,
                      const core::SimulatorEnv& env,
                      core::MigrationSink& sink) override {
    ++next_tx_;
    inner_->on_transaction(involved, env, sink);
  }

  std::uint64_t checked() const { return checked_; }

 private:
  void check_window_graph(const core::WindowGraph& wg) const {
    graph::GraphBuilder fresh;
    fresh.ensure_vertices(accounts_, /*default_weight=*/0);
    for (std::size_t t = window_begin_; t < next_tx_; ++t)
      for (const eth::Call& c : txs_[t].calls) {
        graph::Weight load = 1;
        if (load_model_ == core::LoadModel::kGas)
          load = 1 + eth::call_gas(c, /*callee_exists=*/true) / 1000;
        fresh.add_edge(c.from, c.to, 1);
        fresh.add_vertex_weight(c.from, load);
        if (c.to != c.from) fresh.add_vertex_weight(c.to, load);
      }
    std::vector<Vertex> active;
    for (Vertex v = 0; v < accounts_; ++v)
      if (fresh.vertex_weight(v) > 0) active.push_back(v);
    EXPECT_EQ(wg.to_global, active) << "at repartition " << checked_;
    EXPECT_EQ(wg.undirected, fresh.build_undirected().induced_subgraph(active))
        << "at repartition " << checked_;
  }

  std::unique_ptr<core::ShardingStrategy> inner_;
  std::vector<eth::Transaction> txs_;
  std::uint64_t accounts_;
  core::LoadModel load_model_;
  std::size_t next_tx_ = 0;
  std::size_t window_begin_ = 0;
  std::uint64_t checked_ = 0;
};

TEST(Consistency, WindowGraphMatchesBruteForce) {
  // The graph R-METIS, TR-METIS and KL partition — "the graph since the
  // last (re)partitioning" (§II-C) — against a from-scratch build of that
  // slice of the history: active set in ascending id, symmetrized edge
  // weights and activity vertex weights, under both load models.
  for (const core::Method method :
       {core::Method::kRMetis, core::Method::kTrMetis, core::Method::kKl}) {
    std::uint64_t checked = 0;
    for (const core::LoadModel load_model :
         {core::LoadModel::kCalls, core::LoadModel::kGas})
      for (const std::uint32_t k : {2u, 8u})
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          const std::uint64_t accounts = 30 + seed * 7;
          const workload::History h = random_history(seed, accounts);
          std::vector<eth::Transaction> txs;
          for (const eth::Block& b : h.chain.blocks())
            txs.insert(txs.end(), b.transactions.begin(),
                       b.transactions.end());
          SCOPED_TRACE(core::method_name(method) + " k " + std::to_string(k) +
                       " seed " + std::to_string(seed) +
                       (load_model == core::LoadModel::kGas ? " gas"
                                                            : " calls"));
          WindowCheckingStrategy strategy(core::make_strategy(method, seed),
                                          std::move(txs), accounts,
                                          load_model);
          core::SimulatorConfig cfg;
          cfg.k = k;
          cfg.load_model = load_model;
          core::ShardingSimulator(h, strategy, cfg).run();
          checked += strategy.checked();
        }
    EXPECT_GT(checked, 0u) << core::method_name(method)
                           << " never repartitioned";
  }
}

}  // namespace
}  // namespace ethshard::metrics
