#include "core/strategies.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/placement.hpp"
#include "core/strategy_registry.hpp"
#include "util/check.hpp"

namespace ethshard::core {

namespace {

/// Copies the shards of the window's active vertices out of the global
/// partition into a local one over the window graph's vertex ids.
partition::Partition local_partition(const WindowGraph& wg,
                                     const partition::Partition& global) {
  partition::Partition local(wg.to_global.size(), global.k());
  for (graph::Vertex lv = 0; lv < wg.to_global.size(); ++lv)
    local.assign(lv, global.shard_of(wg.to_global[lv]));
  return local;
}

/// Relabels `local` so its shards line up with where the same window
/// vertices currently live globally ("scratch-remap" repartitioning). A
/// from-scratch MLKP run names its shards arbitrarily; the simulator's
/// post-merge alignment cannot undo that scrambling because its overlap
/// count is dominated by the dormant vertices that never moved, so
/// without this step a mere renaming of an unchanged cut would count
/// every active vertex as moved. A follow-up migration-aware pass then
/// keeps displaced vertices in place when doing so is free — among the
/// partitioner's equally good outputs, pick the one nearest the current
/// assignment.
partition::Partition align_labels(const WindowGraph& wg,
                                  partition::Partition local,
                                  const partition::Partition& global,
                                  double imbalance) {
  const partition::Partition current = local_partition(wg, global);
  partition::align_partition_labels(current, &local);

  // Even with labels matched, ties remain: a boundary vertex whose move
  // gain is exactly zero lands wherever the partitioner's salted
  // tie-break dropped it, and every such vertex bills one migration at
  // merge time. Walk the window once in ascending index order (so the
  // result stays deterministic and thread-count independent) and send
  // each displaced vertex home to its current shard whenever that
  // neither worsens the window cut nor lifts the destination shard past
  // the imbalance cap.
  const graph::Graph& g = wg.undirected;
  std::vector<graph::Weight> weights = local.shard_weights(g);
  const double cap = (1.0 + imbalance) *
                     static_cast<double>(g.total_vertex_weight()) /
                     static_cast<double>(local.k());
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    const partition::ShardId home = current.shard_of(v);
    const partition::ShardId away = local.shard_of(v);
    if (home == away || home >= local.k()) continue;
    const graph::Weight wv = g.vertex_weight(v);
    if (static_cast<double>(weights[home] + wv) > cap) continue;
    std::int64_t gain = 0;
    for (const graph::Arc& a : g.neighbors(v)) {
      if (a.to == v) continue;
      const partition::ShardId s = local.shard_of(a.to);
      if (s == home)
        gain += static_cast<std::int64_t>(a.weight);
      else if (s == away)
        gain -= static_cast<std::int64_t>(a.weight);
    }
    if (gain < 0) continue;
    weights[away] -= wv;
    weights[home] += wv;
    local.assign(v, home);
  }
  return local;
}

/// Writes a local (window) assignment back over a copy of the global one.
partition::Partition merge_local(const WindowGraph& wg,
                                 const partition::Partition& local,
                                 const partition::Partition& global) {
  partition::Partition merged = global;
  for (graph::Vertex lv = 0; lv < wg.to_global.size(); ++lv)
    merged.assign(wg.to_global[lv], local.shard_of(lv));
  return merged;
}

/// Arrival rule of the METIS family and DSM: place_min_cut (§II-C) over
/// the current shard populations.
partition::ShardId place_near_peers(std::span<const partition::ShardId> peers,
                                    const SimulatorEnv& env) {
  return place_min_cut(peers, env.shard_vertex_counts(), env.k());
}

/// R-METIS / TR-METIS repartition: MLKP over the window graph (seeded
/// per invocation), labels aligned to the current assignment, merged
/// back over the global partition. An empty window keeps the current
/// partition and consumes no seed.
partition::Partition repartition_window(const SimulatorEnv& env,
                                        const partition::MlkpConfig& mlkp,
                                        std::uint64_t& invocation) {
  const WindowGraph wg = env.window_graph();
  if (wg.to_global.empty()) return env.current_partition();
  partition::MlkpConfig cfg = mlkp;
  cfg.seed = mlkp.seed + (++invocation);
  partition::MlkpPartitioner partitioner(cfg);
  const partition::Partition local =
      align_labels(wg, partitioner.partition(wg.undirected, env.k()),
                   env.current_partition(), mlkp.imbalance);
  return merge_local(wg, local, env.current_partition());
}

}  // namespace

// ---------------------------------------------------------------- Hashing

partition::ShardId HashStrategy::place(graph::Vertex v,
                                       std::span<const partition::ShardId>,
                                       const SimulatorEnv& env) {
  return place_by_hash(v, env.k(), salt_);
}

partition::Partition HashStrategy::compute_partition(
    const SimulatorEnv& env) {
  // Never called (should_repartition is constant false), but well-defined:
  // hashing's assignment is a pure function of the ids.
  partition::Partition p(env.current_partition().size(), env.k());
  for (graph::Vertex v = 0; v < p.size(); ++v)
    p.assign(v, place_by_hash(v, env.k(), salt_));
  return p;
}

// --------------------------------------------------------------------- KL

partition::ShardId KlStrategy::place(graph::Vertex v,
                                     std::span<const partition::ShardId>,
                                     const SimulatorEnv& env) {
  // The paper bootstraps KL from a hashed state; new arrivals follow the
  // same rule and later migrate via label propagation.
  return place_by_hash(v, env.k(), salt_);
}

bool KlStrategy::should_repartition(const WindowSnapshot& snapshot,
                                    const SimulatorEnv&) {
  return snapshot.since_last_repartition >= period_;
}

partition::Partition KlStrategy::compute_partition(const SimulatorEnv& env) {
  const WindowGraph wg = env.window_graph();
  if (wg.to_global.empty()) return env.current_partition();

  partition::Partition local = local_partition(wg, env.current_partition());
  partition::BlpConfig cfg = blp_;
  cfg.seed = blp_.seed + (++invocation_);
  partition::BalancedLabelPropagation blp(cfg);
  blp.refine(wg.undirected, local);
  return merge_local(wg, local, env.current_partition());
}

// ------------------------------------------------------------------ METIS

partition::ShardId FullGraphMlkpStrategy::place(
    graph::Vertex, std::span<const partition::ShardId> peers,
    const SimulatorEnv& env) {
  return place_near_peers(peers, env);
}

bool FullGraphMlkpStrategy::should_repartition(const WindowSnapshot& snapshot,
                                               const SimulatorEnv&) {
  return snapshot.since_last_repartition >= period_;
}

partition::Partition FullGraphMlkpStrategy::compute_partition(
    const SimulatorEnv& env) {
  const graph::Graph& g = env.cumulative_graph();
  if (g.num_vertices() == 0) return env.current_partition();
  partition::MlkpConfig cfg = mlkp_;
  cfg.seed = mlkp_.seed + (++invocation_);
  partition::MlkpPartitioner mlkp(cfg);
  return mlkp.partition(g, env.k());
}

// ---------------------------------------------------------------- R-METIS

partition::ShardId WindowMlkpStrategy::place(
    graph::Vertex, std::span<const partition::ShardId> peers,
    const SimulatorEnv& env) {
  return place_near_peers(peers, env);
}

bool WindowMlkpStrategy::should_repartition(const WindowSnapshot& snapshot,
                                            const SimulatorEnv&) {
  return snapshot.since_last_repartition >= period_;
}

partition::Partition WindowMlkpStrategy::compute_partition(
    const SimulatorEnv& env) {
  return repartition_window(env, mlkp_, invocation_);
}

// --------------------------------------------------------------- TR-METIS

partition::ShardId ThresholdMlkpStrategy::place(
    graph::Vertex, std::span<const partition::ShardId> peers,
    const SimulatorEnv& env) {
  return place_near_peers(peers, env);
}

bool ThresholdMlkpStrategy::should_repartition(const WindowSnapshot& snapshot,
                                               const SimulatorEnv&) {
  if (snapshot.interactions < thresholds_.min_interactions) return false;

  // The first busy window after a repartition defines what "good"
  // currently looks like; degradation is measured against it.
  if (!have_baseline_) {
    baseline_cut_ = snapshot.dynamic_edge_cut;
    baseline_balance_ = snapshot.dynamic_balance;
    ewma_cut_ = baseline_cut_;
    ewma_balance_ = baseline_balance_;
    violations_ = 0;
    have_baseline_ = true;
    return false;
  }

  const double a = thresholds_.ewma_alpha;
  ewma_cut_ = (1 - a) * ewma_cut_ + a * snapshot.dynamic_edge_cut;
  ewma_balance_ = (1 - a) * ewma_balance_ + a * snapshot.dynamic_balance;

  const double cut_trigger =
      std::max(thresholds_.cut_floor, baseline_cut_ + thresholds_.cut_margin);
  const double balance_trigger =
      std::max(thresholds_.balance_floor,
               baseline_balance_ + thresholds_.balance_margin);
  if (ewma_cut_ > cut_trigger || ewma_balance_ > balance_trigger)
    ++violations_;
  else
    violations_ = 0;

  if (snapshot.since_last_repartition < thresholds_.min_gap) return false;
  return violations_ >= thresholds_.violations_required;
}

partition::Partition ThresholdMlkpStrategy::compute_partition(
    const SimulatorEnv& env) {
  have_baseline_ = false;  // re-baseline after this repartition
  return repartition_window(env, mlkp_, invocation_);
}

// -------------------------------------------------------------------- DSM

partition::ShardId DsmStrategy::place(
    graph::Vertex, std::span<const partition::ShardId> peers,
    const SimulatorEnv& env) {
  return place_near_peers(peers, env);
}

void DsmStrategy::on_transaction(std::span<const graph::Vertex> involved,
                                 const SimulatorEnv& env,
                                 MigrationSink& sink) {
  if (involved.size() < 2) return;
  const partition::Partition& part = env.current_partition();

  // Majority shard among the participants; ties break toward the shard
  // with the smaller current population (balance pressure).
  std::vector<std::uint32_t> count(env.k(), 0);
  bool multi = false;
  const partition::ShardId first = part.shard_of(involved.front());
  for (graph::Vertex v : involved) {
    const partition::ShardId s = part.shard_of(v);
    ++count[s];
    if (s != first) multi = true;
  }
  if (!multi) return;  // already single-shard

  partition::ShardId target = 0;
  for (std::uint32_t s = 1; s < env.k(); ++s) {
    if (count[s] > count[target] ||
        (count[s] == count[target] &&
         env.shard_vertex_counts()[s] < env.shard_vertex_counts()[target]))
      target = s;
  }
  for (graph::Vertex v : involved)
    if (part.shard_of(v) != target) sink.migrate(v, target);
}

// ---------------------------------------------------------------- factory

std::unique_ptr<ShardingStrategy> make_strategy(Method method,
                                                std::uint64_t seed) {
  // Thin wrapper over the string registry: a bare name resolves to the
  // paper's defaults, which are exactly what this enum factory promised.
  return StrategyRegistry::global().make(method_name(method), seed);
}

std::string method_name(Method method) {
  switch (method) {
    case Method::kHashing:
      return "Hashing";
    case Method::kKl:
      return "KL";
    case Method::kMetis:
      return "METIS";
    case Method::kRMetis:
      return "R-METIS";
    case Method::kTrMetis:
      return "TR-METIS";
  }
  return "?";
}

}  // namespace ethshard::core
