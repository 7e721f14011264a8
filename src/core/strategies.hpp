// The paper's five partitioning methods (§II-C) as sharding strategies.
//
//   Hashing   — shard(v) = hash(id) mod k; never repartitions.
//   KL        — periodic balanced label propagation on the activity
//               window (distributed Kernighan–Lin with the probability-
//               matrix oracle).
//   METIS     — periodic multilevel partitioning of the full cumulative
//               graph (unit vertex weights, frequency edge weights).
//   R-METIS   — periodic multilevel partitioning of the *reduced* graph:
//               only vertices/interactions since the last repartition.
//               (Called P-METIS in the paper's figures.)
//   TR-METIS  — R-METIS triggered by thresholds on dynamic edge-cut and
//               dynamic balance instead of a fixed period.
#pragma once

#include <memory>

#include "core/strategy.hpp"
#include "partition/blp.hpp"
#include "partition/mlkp.hpp"

namespace ethshard::core {

/// The paper's baseline. Zero moves by construction.
class HashStrategy final : public ShardingStrategy {
 public:
  explicit HashStrategy(std::uint64_t salt = 0) : salt_(salt) {}

  std::string name() const override { return "Hashing"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const SimulatorEnv& env) override;
  bool should_repartition(const WindowSnapshot&, const SimulatorEnv&) override {
    return false;
  }
  util::Timestamp no_repartition_before(util::Timestamp) const override {
    return kNeverOnEmpty;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override;

 private:
  std::uint64_t salt_;
};

/// Distributed Kernighan–Lin (balanced label propagation). The system
/// bootstraps from hashing; every period the shards exchange gain-positive
/// vertices under the oracle's balance-preserving probability matrix.
class KlStrategy final : public ShardingStrategy {
 public:
  explicit KlStrategy(
      util::Timestamp period = util::kRepartitionPeriod,
      partition::BlpConfig blp = {}, std::uint64_t salt = 0)
      : period_(period), blp_(blp), salt_(salt) {}

  std::string name() const override { return "KL"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const SimulatorEnv& env) override;
  bool should_repartition(const WindowSnapshot& snapshot,
                          const SimulatorEnv& env) override;
  util::Timestamp no_repartition_before(
      util::Timestamp last_repartition) const override {
    return last_repartition + period_;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override;

 private:
  util::Timestamp period_;
  partition::BlpConfig blp_;
  std::uint64_t salt_;
  std::uint64_t invocation_ = 0;
};

/// Full-graph multilevel repartitioning every `period` — the paper's
/// METIS method, including its pitfall: nothing ties successive runs
/// together, so vertices slosh between shards wholesale.
class FullGraphMlkpStrategy final : public ShardingStrategy {
 public:
  explicit FullGraphMlkpStrategy(
      util::Timestamp period = util::kRepartitionPeriod,
      partition::MlkpConfig mlkp = {})
      : period_(period), mlkp_(mlkp) {}

  std::string name() const override { return "METIS"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const SimulatorEnv& env) override;
  bool should_repartition(const WindowSnapshot& snapshot,
                          const SimulatorEnv& env) override;
  util::Timestamp no_repartition_before(
      util::Timestamp last_repartition) const override {
    return last_repartition + period_;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override;

  const partition::MlkpConfig& mlkp_config() const { return mlkp_; }

 private:
  util::Timestamp period_;
  partition::MlkpConfig mlkp_;
  std::uint64_t invocation_ = 0;
};

/// Reduced-graph multilevel repartitioning: only the vertices active since
/// the last repartition are repartitioned; dormant vertices (e.g. the
/// attack's dummy accounts) stay put and stop distorting balance.
class WindowMlkpStrategy final : public ShardingStrategy {
 public:
  explicit WindowMlkpStrategy(
      util::Timestamp period = util::kRepartitionPeriod,
      partition::MlkpConfig mlkp = {})
      : period_(period), mlkp_(mlkp) {}

  std::string name() const override { return "R-METIS"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const SimulatorEnv& env) override;
  bool should_repartition(const WindowSnapshot& snapshot,
                          const SimulatorEnv& env) override;
  util::Timestamp no_repartition_before(
      util::Timestamp last_repartition) const override {
    return last_repartition + period_;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override;

  const partition::MlkpConfig& mlkp_config() const { return mlkp_; }

 private:
  util::Timestamp period_;
  partition::MlkpConfig mlkp_;
  std::uint64_t invocation_ = 0;
};

/// Trigger configuration for ThresholdMlkpStrategy (namespace-scope so it
/// can serve as a defaulted constructor argument).
struct TrMetisThresholds {
  /// No repartition while cut/balance stay under these floors.
  double cut_floor = 0.30;
  double balance_floor = 1.30;
  /// Degradation over the post-repartition baseline that triggers.
  double cut_margin = 0.12;
  double balance_margin = 0.40;
  /// Minimum spacing between repartitions.
  util::Timestamp min_gap = 2 * util::kDay;
  /// Windows with fewer interactions carry no signal (quiet hours).
  std::uint64_t min_interactions = 8;
  /// Smoothing factor for the exponentially weighted moving average of
  /// the window metrics (per busy window); 1 = no smoothing.
  double ewma_alpha = 0.25;
  /// Consecutive busy windows the smoothed metrics must stay above the
  /// trigger before a repartition fires (debounces 4-hour noise).
  int violations_required = 6;
};

/// Threshold-triggered R-METIS: repartitions only when the observed
/// dynamic edge-cut or dynamic balance degrades past its trigger level,
/// avoiding unnecessary repartitions and hence moves.
///
/// The trigger levels are *adaptive*: after each repartition, the first
/// busy window's metrics become the baseline, and a repartition fires
/// only when the current window exceeds baseline + margin (never below
/// the absolute floors — §III: "We adjust thresholds ... in such a way
/// that the performance does not diverge much from [R-METIS]").
class ThresholdMlkpStrategy final : public ShardingStrategy {
 public:
  using Thresholds = TrMetisThresholds;

  explicit ThresholdMlkpStrategy(Thresholds thresholds = {},
                                 partition::MlkpConfig mlkp = {})
      : thresholds_(thresholds), mlkp_(mlkp) {}

  std::string name() const override { return "TR-METIS"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const SimulatorEnv& env) override;
  bool should_repartition(const WindowSnapshot& snapshot,
                          const SimulatorEnv& env) override;
  util::Timestamp no_repartition_before(util::Timestamp) const override {
    // Windows below min_interactions return early without touching the
    // trigger state, so skipping empty ones is exact; with the threshold
    // at 0 an empty window feeds the EWMA and must be consulted.
    return thresholds_.min_interactions > 0 ? kNeverOnEmpty : kAlwaysConsult;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override;

  const Thresholds& thresholds() const { return thresholds_; }
  const partition::MlkpConfig& mlkp_config() const { return mlkp_; }

 private:
  Thresholds thresholds_;
  partition::MlkpConfig mlkp_;
  std::uint64_t invocation_ = 0;
  bool have_baseline_ = false;
  double baseline_cut_ = 0;
  double baseline_balance_ = 1;
  double ewma_cut_ = 0;
  double ewma_balance_ = 1;
  int violations_ = 0;
};

/// State-movement execution — the paper's §I class (b) for multi-shard
/// requests ("moving the necessary state to one shard that will execute
/// the request locally", citation [5]: Dynamic Scalable SMR). Whenever a
/// transaction spans shards, every participant migrates to the majority
/// shard, so repeated interactions become single-shard at the price of
/// continuous state movement (§IV's bandwidth/storage warning). Not one
/// of the paper's five evaluated methods; provided for the comparison in
/// bench/ablation_state_movement.
class DsmStrategy final : public ShardingStrategy {
 public:
  DsmStrategy() = default;

  std::string name() const override { return "DSM"; }
  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const SimulatorEnv& env) override;
  bool should_repartition(const WindowSnapshot&, const SimulatorEnv&) override {
    return false;
  }
  util::Timestamp no_repartition_before(util::Timestamp) const override {
    return kNeverOnEmpty;
  }
  partition::Partition compute_partition(const SimulatorEnv& env) override {
    return env.current_partition();
  }
  void on_transaction(std::span<const graph::Vertex> involved,
                      const SimulatorEnv& env,
                      MigrationSink& sink) override;
};

/// Identifier for make_strategy.
enum class Method {
  kHashing,
  kKl,
  kMetis,
  kRMetis,
  kTrMetis,
};

/// All five methods, in the paper's order.
inline constexpr Method kAllMethods[] = {Method::kHashing, Method::kKl,
                                         Method::kMetis, Method::kRMetis,
                                         Method::kTrMetis};

/// Factory with the paper's defaults (two-week period, 4-shard-tolerant
/// thresholds). `seed` perturbs any randomized component.
std::unique_ptr<ShardingStrategy> make_strategy(Method method,
                                                std::uint64_t seed = 1);

/// The method's figure label ("Hashing", "KL", "METIS", "R-METIS",
/// "TR-METIS").
std::string method_name(Method method);

}  // namespace ethshard::core
