// Tests for the core module: placement rules, the five strategies'
// behaviour, and the replay simulator's invariants.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <tuple>

#include "core/placement.hpp"
#include "core/simulator.hpp"
#include "core/strategies.hpp"
#include <sstream>

#include "core/experiment.hpp"
#include "core/result_io.hpp"
#include "core/throughput.hpp"
#include "obs/obs.hpp"
#include "util/csv.hpp"
#include "util/check.hpp"
#include "workload/generator.hpp"

namespace ethshard::core {
namespace {

using partition::ShardId;

// -------------------------------------------------------------- placement

TEST(Placement, MinCutPicksMajorityPeerShard) {
  const std::vector<ShardId> peers = {1, 1, 0, 2};
  const std::vector<std::uint64_t> sizes = {100, 100, 100};
  EXPECT_EQ(place_min_cut(peers, sizes, 3), 1u);
}

TEST(Placement, MinCutTieBreaksTowardBalance) {
  const std::vector<ShardId> peers = {0, 1};
  const std::vector<std::uint64_t> sizes = {50, 10};
  EXPECT_EQ(place_min_cut(peers, sizes, 2), 1u);
}

TEST(Placement, NoPeersPicksLeastPopulated) {
  const std::vector<std::uint64_t> sizes = {5, 3, 9};
  EXPECT_EQ(place_min_cut({}, sizes, 3), 1u);
}

TEST(Placement, UnassignedPeersIgnored) {
  const std::vector<ShardId> peers = {partition::kUnassigned, 2};
  const std::vector<std::uint64_t> sizes = {1, 1, 1};
  EXPECT_EQ(place_min_cut(peers, sizes, 3), 2u);
}

TEST(Placement, HashIsStable) {
  EXPECT_EQ(place_by_hash(42, 8), place_by_hash(42, 8));
  EXPECT_LT(place_by_hash(42, 8), 8u);
}

TEST(Placement, HashRoughlyUniform) {
  std::vector<int> counts(4, 0);
  for (graph::Vertex v = 0; v < 8000; ++v) ++counts[place_by_hash(v, 4)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 200);
}

// ------------------------------------------------------------- strategies

TEST(Strategies, FactoryProducesAllFive) {
  for (Method m : kAllMethods) {
    const auto s = make_strategy(m);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), method_name(m));
  }
}

TEST(Strategies, MethodNames) {
  EXPECT_EQ(method_name(Method::kHashing), "Hashing");
  EXPECT_EQ(method_name(Method::kKl), "KL");
  EXPECT_EQ(method_name(Method::kMetis), "METIS");
  EXPECT_EQ(method_name(Method::kRMetis), "R-METIS");
  EXPECT_EQ(method_name(Method::kTrMetis), "TR-METIS");
}

// --------------------------------------------------------------- fixture

const workload::History& tiny_history() {
  static const workload::History history = [] {
    workload::GeneratorConfig cfg;
    cfg.scale = 0.001;
    cfg.seed = 99;
    return workload::EthereumHistoryGenerator(cfg).generate();
  }();
  return history;
}

SimulationResult run_method(Method m, std::uint32_t k) {
  const auto strategy = make_strategy(m, /*seed=*/5);
  SimulatorConfig cfg;
  cfg.k = k;
  ShardingSimulator sim(tiny_history(), *strategy, cfg);
  return sim.run();
}

/// Forwards to `inner` and, at every repartition, counts the placed
/// vertices whose raw label differs between the current partition and the
/// one `inner` returns: the moves a simulator that did not align labels
/// would charge.
class RawMoveCounter final : public ShardingStrategy {
 public:
  explicit RawMoveCounter(ShardingStrategy& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const SimulatorEnv& env) override {
    return inner_.place(v, peers, env);
  }
  bool should_repartition(const WindowSnapshot& snapshot,
                          const SimulatorEnv& env) override {
    return inner_.should_repartition(snapshot, env);
  }
  util::Timestamp no_repartition_before(
      util::Timestamp last_repartition) const override {
    return inner_.no_repartition_before(last_repartition);
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override {
    partition::Partition next = inner_.compute_partition(env);
    const partition::Partition& current = env.current_partition();
    for (graph::Vertex v = 0; v < next.size(); ++v) {
      const partition::ShardId a = current.shard_of(v);
      const partition::ShardId b = next.shard_of(v);
      if (a != b && a != partition::kUnassigned &&
          b != partition::kUnassigned)
        ++raw_moves_;
    }
    return next;
  }
  void on_transaction(std::span<const graph::Vertex> involved,
                      const SimulatorEnv& env, MigrationSink& sink) override {
    inner_.on_transaction(involved, env, sink);
  }

  std::uint64_t raw_moves() const { return raw_moves_; }

 private:
  ShardingStrategy& inner_;
  std::uint64_t raw_moves_ = 0;
};

// -------------------------------------------------------------- simulator

TEST(Simulator, HashingProducesZeroMoves) {
  const SimulationResult r = run_method(Method::kHashing, 2);
  EXPECT_EQ(r.total_moves, 0u);
  EXPECT_TRUE(r.repartitions.empty());
}

TEST(Simulator, HashingStaticBalanceNearOne) {
  const SimulationResult r = run_method(Method::kHashing, 2);
  EXPECT_LT(r.final_static_balance, 1.1);
}

TEST(Simulator, HashingHighDynamicEdgeCut) {
  const SimulationResult r = run_method(Method::kHashing, 2);
  // Random assignment of endpoints → ~half the interactions cross.
  EXPECT_GT(r.executed_cross_shard_fraction, 0.3);
}

TEST(Simulator, WindowsAreOrderedAndSane) {
  const SimulationResult r = run_method(Method::kHashing, 2);
  ASSERT_GT(r.windows.size(), 100u);
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const WindowSample& w = r.windows[i];
    // Full metric window everywhere except the run's final partial
    // window, whose end is clamped to just past the last block.
    if (i + 1 < r.windows.size()) {
      EXPECT_EQ(w.window_end - w.window_start, util::kMetricWindow);
    } else {
      EXPECT_GT(w.window_end, w.window_start);
      EXPECT_LE(w.window_end - w.window_start, util::kMetricWindow);
    }
    EXPECT_GE(w.dynamic_edge_cut, 0.0);
    EXPECT_LE(w.dynamic_edge_cut, 1.0);
    EXPECT_GE(w.dynamic_balance, 1.0 - 1e-9);
    EXPECT_LE(w.dynamic_balance, 2.0 + 1e-9);  // k = 2 bound
    EXPECT_GE(w.static_edge_cut, 0.0);
    EXPECT_LE(w.static_edge_cut, 1.0);
    if (i > 0) {
      EXPECT_GE(w.window_start, r.windows[i - 1].window_start);
    }
  }
}

TEST(Simulator, PeriodicStrategiesRepartitionRoughlyBiweekly) {
  const SimulationResult r = run_method(Method::kRMetis, 2);
  // ~2.4 years of history / 2 weeks ≈ 63 repartitions; the early months
  // are too quiet to always produce windows, so allow a broad band.
  EXPECT_GT(r.repartitions.size(), 30u);
  EXPECT_LT(r.repartitions.size(), 80u);
  for (std::size_t i = 1; i < r.repartitions.size(); ++i)
    EXPECT_GE(r.repartitions[i].time - r.repartitions[i - 1].time,
              util::kRepartitionPeriod);
}

TEST(Simulator, MetisMovesExceedWindowMethods) {
  const SimulationResult metis = run_method(Method::kMetis, 2);
  const SimulationResult rmetis = run_method(Method::kRMetis, 2);
  const SimulationResult trmetis = run_method(Method::kTrMetis, 2);
  EXPECT_GT(metis.total_moves, rmetis.total_moves);
  EXPECT_GT(rmetis.total_moves, trmetis.total_moves);
}

TEST(Simulator, MetisCutsLessThanHashing) {
  const SimulationResult metis = run_method(Method::kMetis, 2);
  const SimulationResult hash = run_method(Method::kHashing, 2);
  EXPECT_LT(metis.final_static_edge_cut, hash.final_static_edge_cut);
}

TEST(Simulator, AllMethodsCompleteAtAllK) {
  for (Method m : kAllMethods) {
    for (std::uint32_t k : {2u, 4u}) {
      const SimulationResult r = run_method(m, k);
      EXPECT_EQ(r.k, k);
      EXPECT_GT(r.vertices, 0u);
      EXPECT_GT(r.interactions, 0u);
      EXPECT_FALSE(r.windows.empty()) << method_name(m);
    }
  }
}

TEST(Simulator, TrMetisRepartitionsLessOftenThanRMetis) {
  const SimulationResult rmetis = run_method(Method::kRMetis, 2);
  const SimulationResult trmetis = run_method(Method::kTrMetis, 2);
  EXPECT_LT(trmetis.repartitions.size(), rmetis.repartitions.size() + 5);
}

TEST(Simulator, KlKeepsDynamicBalanceReasonable) {
  const SimulationResult kl = run_method(Method::kKl, 2);
  std::vector<double> balances;
  for (const WindowSample& w : kl.windows)
    balances.push_back(w.dynamic_balance);
  const double mean =
      std::accumulate(balances.begin(), balances.end(), 0.0) /
      static_cast<double>(balances.size());
  EXPECT_LT(mean, 1.8);
}

TEST(Simulator, InteractionsMatchHistory) {
  const SimulationResult r = run_method(Method::kHashing, 2);
  const workload::HistoryStats st = workload::stats_of(tiny_history());
  EXPECT_EQ(r.interactions, st.calls);
  EXPECT_EQ(r.vertices, st.accounts + st.contracts);
}

TEST(Simulator, WindowInteractionsSumToTotal) {
  const SimulationResult r = run_method(Method::kHashing, 2);
  std::uint64_t sum = 0;
  for (const WindowSample& w : r.windows) sum += w.interactions;
  EXPECT_EQ(sum, r.interactions);
}

TEST(Simulator, RepartitionMovesMatchEvents) {
  const SimulationResult r = run_method(Method::kMetis, 2);
  std::uint64_t sum = 0;
  std::uint64_t state = 0;
  for (const RepartitionEvent& e : r.repartitions) {
    sum += e.moves;
    state += e.moved_state_units;
    // Moving a vertex moves at least one state unit.
    EXPECT_GE(e.moved_state_units, e.moves);
  }
  EXPECT_EQ(sum, r.total_moves);
  EXPECT_EQ(state, r.total_moved_state_units);
  EXPECT_GT(r.total_moves, 0u);
}

TEST(Simulator, LabelAlignmentReducesMoves) {
  // Unaligned, a from-scratch repartitioner would be charged for label
  // permutations too, so the raw count can only be more (or equal).
  const auto strategy = make_strategy(Method::kMetis, 5);
  RawMoveCounter counter(*strategy);
  SimulatorConfig cfg;
  cfg.k = 2;
  ShardingSimulator sim(tiny_history(), counter, cfg);
  const SimulationResult a = sim.run();

  EXPECT_LE(a.total_moves, counter.raw_moves());
}

TEST(Simulator, SingleUse) {
  const auto strategy = make_strategy(Method::kHashing);
  SimulatorConfig cfg;
  cfg.k = 2;
  ShardingSimulator sim(tiny_history(), *strategy, cfg);
  sim.run();
  EXPECT_THROW(sim.run(), util::CheckFailure);
}

TEST(Simulator, KOneDegenerates) {
  const auto strategy = make_strategy(Method::kHashing);
  SimulatorConfig cfg;
  cfg.k = 1;
  ShardingSimulator sim(tiny_history(), *strategy, cfg);
  const SimulationResult r = sim.run();
  EXPECT_DOUBLE_EQ(r.final_static_edge_cut, 0.0);
  EXPECT_DOUBLE_EQ(r.executed_cross_shard_fraction, 0.0);
  for (const WindowSample& w : r.windows) {
    EXPECT_DOUBLE_EQ(w.dynamic_edge_cut, 0.0);
    EXPECT_DOUBLE_EQ(w.dynamic_balance, 1.0);
  }
}

TEST(Simulator, GasLoadModelStillSatisfiesInvariants) {
  const auto strategy = make_strategy(Method::kRMetis, 5);
  SimulatorConfig cfg;
  cfg.k = 2;
  cfg.load_model = LoadModel::kGas;
  ShardingSimulator sim(tiny_history(), *strategy, cfg);
  const SimulationResult r = sim.run();
  EXPECT_FALSE(r.windows.empty());
  for (const WindowSample& w : r.windows) {
    EXPECT_GE(w.dynamic_balance, 1.0 - 1e-9);
    EXPECT_LE(w.dynamic_balance, 2.0 + 1e-9);
    EXPECT_GE(w.dynamic_edge_cut, 0.0);
    EXPECT_LE(w.dynamic_edge_cut, 1.0);
  }
  // Gas load inflates state units relative to call counting.
  EXPECT_GE(r.total_moved_state_units, r.total_moves);
}

// Parameterized invariant sweep: every method × k × seed must satisfy the
// simulator's structural contracts on an independent small history.
class SimulatorPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<Method, std::uint32_t, std::uint64_t>> {
 protected:
  static const workload::History& history_for(std::uint64_t seed) {
    static std::map<std::uint64_t, workload::History>* cache =
        new std::map<std::uint64_t, workload::History>();
    auto it = cache->find(seed);
    if (it == cache->end()) {
      workload::GeneratorConfig cfg;
      cfg.scale = 0.0004;
      cfg.seed = 1000 + seed;
      it = cache->emplace(
          seed, workload::EthereumHistoryGenerator(cfg).generate())
               .first;
    }
    return it->second;
  }
};

TEST_P(SimulatorPropertyTest, StructuralInvariants) {
  const auto [method, k, seed] = GetParam();
  const workload::History& history = history_for(seed);
  const auto strategy = make_strategy(method, seed);
  SimulatorConfig cfg;
  cfg.k = k;
  ShardingSimulator sim(history, *strategy, cfg);
  const SimulationResult r = sim.run();

  // Totals tie out against the input history.
  const workload::HistoryStats st = workload::stats_of(history);
  EXPECT_EQ(r.interactions, st.calls);
  EXPECT_EQ(r.vertices, st.accounts + st.contracts);

  // Windows: ordered, in-range metrics, interactions conserved.
  std::uint64_t window_calls = 0;
  util::Timestamp prev_start = 0;
  for (const WindowSample& w : r.windows) {
    EXPECT_GE(w.window_start, prev_start);
    prev_start = w.window_start;
    EXPECT_GE(w.dynamic_edge_cut, 0.0);
    EXPECT_LE(w.dynamic_edge_cut, 1.0);
    EXPECT_GE(w.dynamic_balance, 1.0 - 1e-9);
    EXPECT_LE(w.dynamic_balance, static_cast<double>(k) + 1e-9);
    EXPECT_GE(w.static_edge_cut, 0.0);
    EXPECT_LE(w.static_edge_cut, 1.0);
    window_calls += w.interactions;
  }
  EXPECT_EQ(window_calls, r.interactions);

  // Moves: consistent between events and totals, bounded per event.
  std::uint64_t move_sum = 0;
  for (const RepartitionEvent& e : r.repartitions) {
    EXPECT_LE(e.moves, r.vertices);
    EXPECT_GE(e.moved_state_units, e.moves);
    move_sum += e.moves;
  }
  EXPECT_EQ(move_sum, r.total_moves);
  if (method == Method::kHashing) {
    EXPECT_EQ(r.total_moves, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsShardsSeeds, SimulatorPropertyTest,
    ::testing::Combine(::testing::ValuesIn(kAllMethods),
                       ::testing::Values(2u, 3u, 8u),
                       ::testing::Values(0ULL, 1ULL)));

// ------------------------------------------------------ strategy contract

namespace {

/// Deliberately misbehaving strategies, to pin the simulator's checks.
class WrongSizeStrategy final : public ShardingStrategy {
 public:
  std::string name() const override { return "WrongSize"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId>,
                           const SimulatorEnv& env) override {
    return place_by_hash(v, env.k());
  }
  bool should_repartition(const WindowSnapshot&, const SimulatorEnv&) override {
    return true;  // fire on the first window
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override {
    return partition::Partition(3, env.k(), 0);  // wrong vertex count
  }
};

class WrongKStrategy final : public ShardingStrategy {
 public:
  std::string name() const override { return "WrongK"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId>,
                           const SimulatorEnv& env) override {
    return place_by_hash(v, env.k());
  }
  bool should_repartition(const WindowSnapshot&, const SimulatorEnv&) override {
    return true;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override {
    return partition::Partition(env.current_partition().size(),
                                env.k() + 1, 0);
  }
};

class OutOfRangePlacementStrategy final : public ShardingStrategy {
 public:
  std::string name() const override { return "BadPlace"; }
  partition::ShardId place(graph::Vertex, std::span<const partition::ShardId>,
                           const SimulatorEnv& env) override {
    return env.k();  // one past the end
  }
  bool should_repartition(const WindowSnapshot&, const SimulatorEnv&) override {
    return false;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override {
    return env.current_partition();
  }
};

/// Periodically "repartitions" by renaming every shard label (s+1) mod k.
/// The partition structure is identical, so label alignment must reduce
/// the charged moves to exactly zero.
class PermuteLabelsStrategy final : public ShardingStrategy {
 public:
  std::string name() const override { return "PermuteLabels"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId>,
                           const SimulatorEnv& env) override {
    return place_by_hash(v, env.k());
  }
  bool should_repartition(const WindowSnapshot& snapshot,
                          const SimulatorEnv&) override {
    return snapshot.since_last_repartition >= util::kRepartitionPeriod;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override {
    partition::Partition next = env.current_partition();
    for (graph::Vertex v = 0; v < next.size(); ++v)
      next.assign(v, (next.shard_of(v) + 1) % env.k());
    return next;
  }
};

/// Periodically re-hashes every vertex with a fresh salt — a genuine
/// structural reshuffle that no label renaming can undo.
class ReshuffleStrategy final : public ShardingStrategy {
 public:
  std::string name() const override { return "Reshuffle"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId>,
                           const SimulatorEnv& env) override {
    return place_by_hash(v, env.k());
  }
  bool should_repartition(const WindowSnapshot& snapshot,
                          const SimulatorEnv&) override {
    return snapshot.since_last_repartition >= util::kRepartitionPeriod;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override {
    ++salt_;
    partition::Partition next(env.current_partition().size(), env.k());
    for (graph::Vertex v = 0; v < next.size(); ++v)
      next.assign(v, place_by_hash(v, env.k(), salt_));
    return next;
  }

 private:
  std::uint64_t salt_ = 0;
};

}  // namespace

TEST(SimulatorContract, RejectsWrongSizedPartition) {
  WrongSizeStrategy bad;
  SimulatorConfig cfg;
  cfg.k = 2;
  ShardingSimulator sim(tiny_history(), bad, cfg);
  EXPECT_THROW(sim.run(), util::CheckFailure);
}

TEST(SimulatorContract, RejectsWrongK) {
  WrongKStrategy bad;
  SimulatorConfig cfg;
  cfg.k = 2;
  ShardingSimulator sim(tiny_history(), bad, cfg);
  EXPECT_THROW(sim.run(), util::CheckFailure);
}

TEST(SimulatorContract, RejectsOutOfRangePlacement) {
  OutOfRangePlacementStrategy bad;
  SimulatorConfig cfg;
  cfg.k = 2;
  ShardingSimulator sim(tiny_history(), bad, cfg);
  EXPECT_THROW(sim.run(), util::CheckFailure);
}

TEST(LabelAlignment, PureLabelPermutationChargesZeroMoves) {
  SimulatorConfig cfg;
  cfg.k = 4;

  PermuteLabelsStrategy strategy;
  RawMoveCounter counter(strategy);
  ShardingSimulator sim(tiny_history(), counter, cfg);
  const SimulationResult a = sim.run();
  ASSERT_GT(a.repartitions.size(), 0u);
  EXPECT_EQ(a.total_moves, 0u);
  EXPECT_EQ(a.total_moved_state_units, 0u);

  // Without alignment the same renaming would be charged for every vertex
  // that changed label — i.e. almost all of them, repeatedly.
  EXPECT_GT(counter.raw_moves(), 0u);
}

TEST(LabelAlignment, StructuralReshuffleStillCountsInFull) {
  SimulatorConfig cfg;
  cfg.k = 4;

  ReshuffleStrategy strategy;
  RawMoveCounter counter(strategy);
  ShardingSimulator sim(tiny_history(), counter, cfg);
  const SimulationResult a = sim.run();
  const std::uint64_t raw = counter.raw_moves();

  // A re-hash with a fresh salt scatters vertices regardless of labels:
  // alignment may rename at best one shard into place but must keep the
  // bulk of the movement on the books.
  ASSERT_GT(a.repartitions.size(), 0u);
  EXPECT_GT(a.total_moves, 0u);
  EXPECT_LE(a.total_moves, raw);
  EXPECT_GE(a.total_moves, raw / 4);
}

// --------------------------------------------------------------- result io

TEST(ResultIo, WindowsCsvShape) {
  const SimulationResult r = run_method(Method::kHashing, 2);
  std::ostringstream out;
  write_windows_csv(out, r);
  std::istringstream in(out.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "window_start,window_end,dynamic_edge_cut,dynamic_balance,"
            "static_edge_cut,static_balance,interactions");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, r.windows.size());
}

TEST(ResultIo, RepartitionsCsvShape) {
  const SimulationResult r = run_method(Method::kRMetis, 2);
  std::ostringstream out;
  write_repartitions_csv(out, r);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  std::size_t rows = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, r.repartitions.size());
  EXPECT_GT(rows, 0u);
}

TEST(ResultIo, SummaryCsvRoundTripsThroughReader) {
  const SimulationResult r = run_method(Method::kHashing, 4);
  std::ostringstream out;
  write_summary_csv(out, r);
  std::istringstream in(out.str());
  util::CsvReader reader(in);
  std::vector<std::string> header;
  std::vector<std::string> row;
  ASSERT_TRUE(reader.read_row(header));
  ASSERT_TRUE(reader.read_row(row));
  ASSERT_EQ(header.size(), row.size());
  EXPECT_EQ(row[0], "Hashing");
  EXPECT_EQ(row[1], "4");
  EXPECT_EQ(row[8], "0");  // hashing: zero moves
}

// -------------------------------------------------------------- experiment

TEST(Experiment, GridProducesOneRunPerCell) {
  ExperimentConfig cfg;
  cfg.methods = {Method::kHashing, Method::kRMetis};
  cfg.shard_counts = {2, 4};
  const auto runs = run_experiment(tiny_history(), cfg);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].method, Method::kHashing);
  EXPECT_EQ(runs[0].k, 2u);
  EXPECT_EQ(runs[3].method, Method::kRMetis);
  EXPECT_EQ(runs[3].k, 4u);
}

TEST(Experiment, SummariesMatchRawWindows) {
  ExperimentConfig cfg;
  cfg.methods = {Method::kHashing};
  cfg.shard_counts = {2};
  const auto runs = run_experiment(tiny_history(), cfg);
  ASSERT_EQ(runs.size(), 1u);
  const ExperimentRun& r = runs[0];
  std::vector<double> cuts;
  for (const WindowSample& w : r.result.windows)
    cuts.push_back(w.dynamic_edge_cut);
  const metrics::Summary expect = metrics::summarize(std::move(cuts));
  EXPECT_DOUBLE_EQ(r.dynamic_edge_cut.median, expect.median);
  EXPECT_DOUBLE_EQ(r.dynamic_edge_cut.mean, expect.mean);
  EXPECT_DOUBLE_EQ(
      r.normalized_balance_median,
      metrics::normalized_balance(r.dynamic_balance.median, 2));
}

TEST(Experiment, TableListsEveryMethod) {
  ExperimentConfig cfg;
  cfg.methods = {Method::kHashing, Method::kKl};
  cfg.shard_counts = {2};
  const auto runs = run_experiment(tiny_history(), cfg);
  const std::string table = comparison_table(runs);
  EXPECT_NE(table.find("Hashing"), std::string::npos);
  EXPECT_NE(table.find("KL"), std::string::npos);
  EXPECT_NE(table.find("speedup"), std::string::npos);
}

TEST(Experiment, ValidateAcceptsDefaultConfig) {
  EXPECT_TRUE(ExperimentConfig{}.validate().empty());
}

TEST(Experiment, ValidateNamesEveryProblem) {
  ExperimentConfig cfg;
  cfg.methods.clear();
  cfg.shard_counts = {0};
  cfg.threads = 100000;
  const std::vector<std::string> problems = cfg.validate();
  ASSERT_EQ(problems.size(), 3u);
  EXPECT_NE(problems[0].find("methods"), std::string::npos);
  EXPECT_NE(problems[1].find("k=0"), std::string::npos);
  EXPECT_NE(problems[2].find("threads"), std::string::npos);
}

TEST(Experiment, RunRejectsInvalidConfigUpFront) {
  ExperimentConfig cfg;
  cfg.shard_counts.clear();
  try {
    run_experiment(tiny_history(), cfg);
    FAIL() << "expected CheckFailure";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("shard_counts"),
              std::string::npos);
  }
}

TEST(Experiment, CellWallTimeIsAlwaysMeasured) {
  ExperimentConfig cfg;
  cfg.methods = {Method::kHashing};
  cfg.shard_counts = {2};
  const auto runs = run_experiment(tiny_history(), cfg);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_GT(runs[0].cell_wall_ms, 0.0);
  EXPECT_GE(runs[0].queue_wait_ms, 0.0);
  // Metrics snapshots ride along only when observability is on.
  EXPECT_TRUE(runs[0].metrics.empty());
}

TEST(Experiment, PerCellMetricsWhenObservabilityOn) {
  obs::set_enabled(true);
  ExperimentConfig cfg;
  cfg.methods = {Method::kRMetis};
  cfg.shard_counts = {2};
  const auto runs = run_experiment(tiny_history(), cfg);
  obs::set_enabled(false);
  ASSERT_EQ(runs.size(), 1u);
  const obs::MetricsSnapshot& m = runs[0].metrics;
  EXPECT_FALSE(m.empty());
  EXPECT_GT(m.counters.at("sim/windows"), 0u);
  EXPECT_GT(m.counters.at("mlkp/invocations"), 0u);
  EXPECT_EQ(m.timers.count("mlkp/coarsen_ms"), 1u);
  EXPECT_EQ(m.timers.count("experiment/cell_ms"), 1u);
}

TEST(Experiment, DeterministicAcrossRuns) {
  ExperimentConfig cfg;
  cfg.methods = {Method::kRMetis};
  cfg.shard_counts = {2};
  const auto a = run_experiment(tiny_history(), cfg);
  const auto b = run_experiment(tiny_history(), cfg);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].result.total_moves, b[0].result.total_moves);
  EXPECT_DOUBLE_EQ(a[0].dynamic_edge_cut.median,
                   b[0].dynamic_edge_cut.median);
}

// -------------------------------------------------------------------- DSM

TEST(Dsm, MigratesCrossShardGroupsTogether) {
  DsmStrategy dsm;
  SimulatorConfig cfg;
  cfg.k = 4;
  ShardingSimulator sim(tiny_history(), dsm, cfg);
  const SimulationResult r = sim.run();

  // Never repartitions, but moves plenty of state online.
  EXPECT_TRUE(r.repartitions.empty());
  EXPECT_GT(r.online_moves, 0u);
  EXPECT_EQ(r.online_moves, r.total_moves);
  EXPECT_EQ(r.online_moved_state_units, r.total_moved_state_units);
  EXPECT_GE(r.online_moved_state_units, r.online_moves);
}

TEST(Dsm, CutsExecutionCrossingsBelowHashing) {
  DsmStrategy dsm;
  SimulatorConfig cfg;
  cfg.k = 4;
  ShardingSimulator dsim(tiny_history(), dsm, cfg);
  const SimulationResult d = dsim.run();
  const SimulationResult h = run_method(Method::kHashing, 4);
  // Moving groups together means repeat interactions stop crossing.
  EXPECT_LT(d.executed_cross_shard_fraction,
            0.7 * h.executed_cross_shard_fraction);
}

TEST(Dsm, WindowInvariantsHold) {
  DsmStrategy dsm;
  SimulatorConfig cfg;
  cfg.k = 2;
  ShardingSimulator sim(tiny_history(), dsm, cfg);
  const SimulationResult r = sim.run();
  std::uint64_t calls = 0;
  for (const WindowSample& w : r.windows) {
    EXPECT_GE(w.static_edge_cut, 0.0);
    EXPECT_LE(w.static_edge_cut, 1.0);
    EXPECT_GE(w.dynamic_balance, 1.0 - 1e-9);
    calls += w.interactions;
  }
  EXPECT_EQ(calls, r.interactions);
}

TEST(Dsm, PaperMethodsNeverMigrateOnline) {
  for (Method m : kAllMethods) {
    const SimulationResult r = run_method(m, 2);
    EXPECT_EQ(r.online_moves, 0u) << method_name(m);
    EXPECT_EQ(r.online_moved_state_units, 0u) << method_name(m);
  }
}

// ------------------------------------------------------------- throughput

TEST(Throughput, PerfectShardingScalesLinearly) {
  // cut 0, balance 1 → speedup = k.
  EXPECT_DOUBLE_EQ(window_speedup(0.0, 1.0, 8), 8.0);
  EXPECT_DOUBLE_EQ(window_speedup(0.0, 1.0, 1), 1.0);
}

TEST(Throughput, HashLikeMetricsCapSpeedup) {
  // k=8, cut (k-1)/k, near-perfect balance, cross cost 3.
  const double s = window_speedup(0.875, 1.1, 8);
  EXPECT_NEAR(s, 8.0 / (1.1 * (1.0 + 2.0 * 0.875)), 1e-12);
  EXPECT_LT(s, 3.0);  // far from linear scaling
}

TEST(Throughput, ImbalanceCanMakeShardingALoss) {
  // The paper's pitfall: everything active on one shard (balance = k).
  EXPECT_LT(window_speedup(0.1, 8.0, 8), 1.0);
}

TEST(Throughput, MonotoneInCutAndBalance) {
  const double base = window_speedup(0.3, 1.5, 4);
  EXPECT_LT(window_speedup(0.6, 1.5, 4), base);
  EXPECT_LT(window_speedup(0.3, 2.5, 4), base);
  EXPECT_GT(window_speedup(0.1, 1.5, 4), base);
}

TEST(Throughput, CrossCostOneMakesCutFree) {
  const ThroughputModel free{.cross_cost = 1.0};
  EXPECT_DOUBLE_EQ(window_speedup(0.9, 1.0, 4, free), 4.0);
}

TEST(Throughput, RejectsBadInputs) {
  EXPECT_THROW(window_speedup(0.5, 1.0, 0), util::CheckFailure);
  EXPECT_THROW(window_speedup(1.5, 1.0, 2), util::CheckFailure);
  const ThroughputModel bad{.cross_cost = 0.5};
  EXPECT_THROW(window_speedup(0.5, 1.0, 2, bad), util::CheckFailure);
}

TEST(Throughput, SummaryWeighsWindowsByInteractions) {
  SimulationResult r;
  r.k = 2;
  // A huge perfect window and a tiny terrible one.
  WindowSample good;
  good.dynamic_edge_cut = 0.0;
  good.dynamic_balance = 1.0;
  good.interactions = 9900;
  WindowSample bad;
  bad.dynamic_edge_cut = 1.0;
  bad.dynamic_balance = 2.0;
  bad.interactions = 100;
  WindowSample empty;  // ignored entirely
  r.windows = {good, bad, empty};

  const ThroughputSummary s = summarize_throughput(r);
  EXPECT_EQ(s.windows, 2u);
  const double good_s = window_speedup(0.0, 1.0, 2);
  const double bad_s = window_speedup(1.0, 2.0, 2);
  EXPECT_NEAR(s.mean_speedup, (good_s * 9900 + bad_s * 100) / 10000.0,
              1e-12);
  EXPECT_DOUBLE_EQ(s.worst_speedup, bad_s);
  EXPECT_DOUBLE_EQ(s.best_speedup, good_s);
  EXPECT_DOUBLE_EQ(s.loss_fraction, 0.5);
}

TEST(Throughput, EmptyResultIsNeutral) {
  SimulationResult r;
  r.k = 4;
  const ThroughputSummary s = summarize_throughput(r);
  EXPECT_EQ(s.windows, 0u);
  EXPECT_DOUBLE_EQ(s.mean_speedup, 1.0);
  EXPECT_DOUBLE_EQ(s.loss_fraction, 0.0);
}

TEST(Simulator, CustomMetricWindowChangesSampleCount) {
  const auto s4 = make_strategy(Method::kHashing);
  SimulatorConfig cfg;
  cfg.k = 2;
  cfg.metric_window = 4 * util::kHour;
  ShardingSimulator sim4(tiny_history(), *s4, cfg);
  const SimulationResult four_hour = sim4.run();

  const auto s24 = make_strategy(Method::kHashing);
  cfg.metric_window = 24 * util::kHour;
  ShardingSimulator sim24(tiny_history(), *s24, cfg);
  const SimulationResult daily = sim24.run();

  EXPECT_GT(four_hour.windows.size(), daily.windows.size());
  // Interactions conserved regardless of sampling granularity.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (const WindowSample& w : four_hour.windows) a += w.interactions;
  for (const WindowSample& w : daily.windows) b += w.interactions;
  EXPECT_EQ(a, b);
}

TEST(Simulator, EmptyHistory) {
  const workload::History empty;
  const auto strategy = make_strategy(Method::kHashing);
  SimulatorConfig cfg;
  cfg.k = 2;
  ShardingSimulator sim(empty, *strategy, cfg);
  const SimulationResult r = sim.run();
  EXPECT_TRUE(r.windows.empty());
  EXPECT_EQ(r.vertices, 0u);
}

}  // namespace
}  // namespace ethshard::core
