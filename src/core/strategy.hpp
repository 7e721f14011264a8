// The sharding-strategy interface: how each of the paper's five methods
// plugs into the replay simulator.
#pragma once

#include <limits>
#include <span>
#include <string>

#include "core/env.hpp"
#include "partition/types.hpp"

namespace ethshard::core {

/// Per-metric-window digest handed to should_repartition so
/// threshold-triggered methods (TR-METIS) can react to observed dynamic
/// edge-cut and balance, and periodic methods can track elapsed time.
struct WindowSnapshot {
  util::Timestamp window_start = 0;
  util::Timestamp window_end = 0;
  double dynamic_edge_cut = 0;
  double dynamic_balance = 1;
  /// Interactions observed in the window (0 for a quiet window — its
  /// cut/balance carry no signal).
  std::uint64_t interactions = 0;
  /// Time elapsed since the last repartition (or simulation start).
  util::Timestamp since_last_repartition = 0;
};

/// Interface through which a strategy requests *online* migrations — the
/// paper's §I class (b) for multi-shard requests: "moving the necessary
/// state to one shard that will execute the request locally" (its
/// citation [5], Dynamic Scalable SMR). Moves take effect immediately and
/// are charged to the same moves/state accounting as repartition moves.
class MigrationSink {
 public:
  virtual ~MigrationSink() = default;

  /// Reassigns vertex v to shard s (no-op if already there).
  /// Preconditions: v known to the simulator; s < k.
  virtual void migrate(graph::Vertex v, partition::ShardId s) = 0;
};

class ShardingStrategy {
 public:
  virtual ~ShardingStrategy() = default;

  /// Label used in figures ("Hashing", "KL", "METIS", "R-METIS",
  /// "TR-METIS").
  virtual std::string name() const = 0;

  /// Shard for a vertex appearing for the first time. `peer_shards` holds
  /// the shards of the already-placed accounts involved in the same
  /// transaction (§II-C: pick the shard minimizing edge-cut, break ties
  /// toward balance).
  virtual partition::ShardId place(graph::Vertex v,
                                   std::span<const partition::ShardId> peers,
                                   const SimulatorEnv& env) = 0;

  /// Consulted once per metric window; returning true triggers
  /// compute_partition and a reassignment (with moves accounting).
  virtual bool should_repartition(const WindowSnapshot& snapshot,
                                  const SimulatorEnv& env) = 0;

  /// Earliest time at which this strategy could answer true to
  /// should_repartition for an *empty* window (zero interactions), given
  /// the last repartition happened at `last_repartition`. The simulator
  /// uses this to fast-forward long traffic gaps: empty windows ending
  /// strictly before the returned time are skipped without consulting the
  /// strategy at all (quiet windows produce no sample either way; see
  /// SimulatorConfig::consumers). Returning kAlwaysConsult (the
  /// conservative default) disables skipping; kNeverOnEmpty declares that
  /// quiet windows can never trigger a repartition (pure threshold
  /// strategies); periodic strategies return last_repartition + period.
  /// Implementations must be consistent with should_repartition on empty
  /// snapshots AND must not depend on being consulted for skipped windows
  /// (no per-window internal state for quiet windows).
  static constexpr util::Timestamp kAlwaysConsult = 0;
  static constexpr util::Timestamp kNeverOnEmpty =
      std::numeric_limits<util::Timestamp>::max();
  virtual util::Timestamp no_repartition_before(
      util::Timestamp last_repartition) const {
    (void)last_repartition;
    return kAlwaysConsult;
  }

  /// Nothing reads this; dropped with its read in perfbench/timed_layers.hpp.
  virtual bool supports_batched_replay() const { return false; }

  /// Computes the new assignment for every currently known vertex.
  /// Must return a complete partition of env.current_partition().size()
  /// vertices into env.k() shards.
  virtual partition::Partition compute_partition(const SimulatorEnv& env) = 0;

  /// Called after every executed transaction with the accounts it
  /// involved (each already placed). A state-movement strategy may
  /// migrate vertices through `sink`; the default does nothing.
  virtual void on_transaction(std::span<const graph::Vertex> involved,
                              const SimulatorEnv& env,
                              MigrationSink& sink) {
    (void)involved;
    (void)env;
    (void)sink;
  }
};

}  // namespace ethshard::core
