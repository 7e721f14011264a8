// The sharding what-if simulator — the paper's experiment engine.
//
// Replays a blockchain history call by call against a sharding strategy,
// maintaining: the growing assignment of accounts to shards (with the
// paper's online placement of newly appearing accounts), the cumulative
// and since-last-repartition interaction graphs, per-4-hour-window dynamic
// metrics, incrementally tracked static metrics, and the moves incurred by
// every repartition. This is what produces the data behind Figs. 3–5.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "core/telemetry.hpp"
#include "graph/builder.hpp"
#include "metrics/metrics.hpp"
#include "partition/types.hpp"
#include "workload/block_source.hpp"
#include "workload/generator.hpp"

namespace ethshard::core {

/// What one unit of shard load means (§IV lists computation, storage and
/// bandwidth as the resources a sharding scheme must balance).
enum class LoadModel {
  kCalls,  ///< every call weighs 1 (the paper's frequency weighting)
  kGas,    ///< calls weigh their gas cost in kilogas (computation load)
};

struct SimulatorConfig {
  std::uint32_t k = 2;
  /// Metric sampling window (paper: four hours).
  util::Timestamp metric_window = util::kMetricWindow;
  /// Unit of the dynamic-balance load (kCalls reproduces the paper).
  LoadModel load_model = LoadModel::kCalls;
  /// In-process consumers of the per-window records (JSONL sinks,
  /// invariant evaluation), called in order on the replay thread after
  /// every window flush. Not owned; each must outlive the simulator. With
  /// none attached, long runs of empty windows are skipped in one step
  /// when the strategy declares (no_repartition_before) that quiet
  /// windows cannot trigger it; the result is identical either way.
  std::vector<TelemetryConsumer*> consumers;
  /// Debug cross-check: at every window flush, recompute the static cut
  /// from scratch and compare with the incrementally maintained count
  /// (and, at repartitions, rebuild the cumulative snapshot and compare
  /// with the cache). Aborts on divergence. O(E) per window — for tests.
  bool verify_incremental = false;
  /// Nothing reads this; dropped with its read in perfbench/replay_bench.cpp.
  std::size_t replay_threads = 0;
  /// Nothing reads this; dropped with its read in perfbench/replay_bench.cpp.
  std::size_t queue_capacity = 0;
  /// Nothing reads this; dropped with its read in perfbench/replay_bench.cpp.
  std::size_t aggregation_shards = 0;
};

/// One metric sample (a data point in Fig. 3).
struct WindowSample {
  util::Timestamp window_start = 0;
  /// Exclusive end: window_start + metric_window, except for the run's
  /// final partial window, which is clamped to last block timestamp + 1.
  util::Timestamp window_end = 0;
  /// Weighted cross-shard fraction of the window's interactions.
  double dynamic_edge_cut = 0;
  /// Eq. 2 over the window's per-shard activity.
  double dynamic_balance = 1;
  /// Eq. 1 over the cumulative graph's distinct undirected edges, current
  /// assignment — equal to metrics::static_edge_cut on the symmetrized
  /// cumulative graph at this window boundary.
  double static_edge_cut = 0;
  /// Eq. 2 over vertex counts, current assignment.
  double static_balance = 1;
  /// Interactions (calls) observed in the window.
  std::uint64_t interactions = 0;
};

/// One repartitioning of the system (a dashed vertical line in Fig. 3b).
struct RepartitionEvent {
  util::Timestamp time = 0;
  /// Vertices whose shard changed — the paper's "moves" metric.
  std::uint64_t moves = 0;
  /// State dragged along with those vertices, in state units (1 per
  /// vertex + its accumulated activity as a storage-size proxy). §III:
  /// "If the vertex is a contract, that would result in moving the entire
  /// contract storage to another shard."
  std::uint64_t moved_state_units = 0;
  /// Wall-clock cost of computing the new partition, in milliseconds —
  /// the practical price of "just rerun METIS" that full-graph methods
  /// pay as the chain grows.
  double compute_ms = 0;
};

struct SimulationResult {
  std::string strategy_name;
  std::uint32_t k = 0;
  std::vector<WindowSample> windows;
  std::vector<RepartitionEvent> repartitions;
  /// Vertices moved by repartitionings plus online migrations.
  std::uint64_t total_moves = 0;
  std::uint64_t total_moved_state_units = 0;
  /// The online-migration share of the totals (state-movement strategies;
  /// zero for the paper's five methods).
  std::uint64_t online_moves = 0;
  std::uint64_t online_moved_state_units = 0;

  // Final-state aggregates.
  std::uint64_t vertices = 0;
  std::uint64_t distinct_edges = 0;
  std::uint64_t interactions = 0;
  double final_static_edge_cut = 0;
  double final_static_balance = 1;
  /// Cross-shard fraction of executed interactions between *distinct*
  /// accounts, measured at execution time (the history-wide dynamic
  /// edge-cut). Self-calls are excluded from the denominator — they can
  /// never cross shards (see metrics::WindowAccumulator).
  double executed_cross_shard_fraction = 0;
  /// Empty windows elided by the gap fast-forward (they produce no sample
  /// either way; see SimulatorConfig::consumers).
  std::uint64_t gap_windows_skipped = 0;
};

class ShardingSimulator {
 public:
  /// Primary form: replays whatever `source` streams. The simulator pulls
  /// blocks on demand and never materializes the chain, so memory stays
  /// bounded by one metric window regardless of history length. `source`
  /// and `strategy` must outlive the simulator; the source must be fresh
  /// (nothing pulled from it yet) and is exhausted by run().
  ShardingSimulator(workload::BlockSource& source,
                    ShardingStrategy& strategy, SimulatorConfig cfg);

  /// Back-compat adapter over a materialized history. The simulator
  /// *aliases* `history` — it stores a reference and replays the chain
  /// zero-copy — so `history` (and `strategy`) must outlive the
  /// simulator; the rvalue overload is deleted to keep a temporary
  /// History from silently dangling. Bit-identical to streaming the same
  /// blocks through the primary constructor.
  ShardingSimulator(const workload::History& history,
                    ShardingStrategy& strategy, SimulatorConfig cfg);
  ShardingSimulator(workload::History&&, ShardingStrategy&,
                    SimulatorConfig) = delete;

  /// Replays the whole history. Call once.
  SimulationResult run();

 private:
  class Env;
  class Sink;

  /// Lazy window-clock start + per-block window advance: the first
  /// block anchors window_start_ (a streaming source only reveals its
  /// first timestamp at the first pull); afterwards flushes every window
  /// completed before now_, including the gap fast-forward.
  void begin_step(util::Timestamp ts);
  void process_transaction(const eth::Transaction& tx);
  void apply_migration(graph::Vertex v, partition::ShardId s);
  void ensure_vertex(graph::Vertex v);
  void place_vertex(graph::Vertex v,
                    std::span<const partition::ShardId> peers);
  void flush_window(util::Timestamp window_end);
  /// Returns true when the strategy repartitioned (the event is then the
  /// back of result_.repartitions).
  bool maybe_repartition(const WindowSnapshot& snapshot);
  /// Updates cut_edges_ for vertex v moving shard `from` → `to` by
  /// scanning only v's cumulative undirected adjacency — O(deg v). Must
  /// run while part_ still holds every *other* vertex's effective shard
  /// (v's own entry is not read; the undirected adjacency has no loops).
  void apply_cut_delta(graph::Vertex v, partition::ShardId from,
                       partition::ShardId to);
  /// From-scratch O(E) count of cut edges — the verify_incremental
  /// reference for cut_edges_.
  std::uint64_t recompute_static_cut() const;
  /// Cached symmetrized snapshot of cumulative_, rebuilt only when edges
  /// or vertices were added since the last call.
  const graph::Graph& cumulative_snapshot() const;
  void verify_incremental_state();
  /// At a repartition, before the window restarts: checks the builder's
  /// window bookkeeping, that the window edge weight equals the non-self
  /// calls since the last repartition and that window_activity_ sums to
  /// the load since then, then moves both baselines to now.
  void verify_window_state();
  double current_static_balance() const;

  // History-adapter storage: the History constructor wraps the aliased
  // chain in an owned MaterializedSource and points source_ at it.
  // Declared before source_ so initialization order is safe.
  std::unique_ptr<workload::MaterializedSource> owned_source_;
  workload::BlockSource* source_;
  ShardingStrategy& strategy_;
  SimulatorConfig cfg_;

  partition::Partition part_;
  // The one interaction graph, with unit vertex weights. Its window
  // weights hold the pairs since the last repartition.
  graph::GraphBuilder cumulative_;
  std::vector<graph::Weight> activity_;  // cumulative per-vertex activity
  // Per-vertex activity since the last repartition: the window graph's
  // vertex weights, and its active set (non-zero entries).
  std::vector<graph::Weight> window_activity_;

  std::vector<std::uint64_t> shard_counts_;
  std::vector<graph::Weight> shard_loads_;

  // Incremental static-cut bookkeeping over distinct undirected non-loop
  // edges (a→b and b→a count once, as in the symmetrized graph). New
  // edges adjust the counts at insertion; migrations and repartitions
  // apply O(deg) deltas via apply_cut_delta, so cut_edges_ is exact at
  // all times (recompute_static_cut survives as the cross-check).
  std::uint64_t distinct_edges_ = 0;
  std::uint64_t cut_edges_ = 0;

  // Cached Env::cumulative_graph() snapshot. The stamps capture every
  // mutation cumulative_ can see (the simulator only ever grows it via
  // ensure_vertices/add_edge; its vertex weights stay at 1).
  mutable graph::Graph cum_snapshot_;
  mutable std::uint64_t cum_snapshot_vertices_ = ~std::uint64_t{0};
  mutable std::uint64_t cum_snapshot_edges_ = ~std::uint64_t{0};
  mutable graph::Weight cum_snapshot_weight_ = 0;

  // Scratch reused by every Env::window_graph() construction (active
  // vertex list + old→new id map, kept all-kInvalid between calls).
  mutable std::vector<graph::Vertex> window_active_;
  mutable std::vector<graph::Vertex> window_old_to_new_;

  // History-wide executed interaction accounting (pair = between
  // distinct accounts; the cross-shard denominator).
  std::uint64_t executed_total_ = 0;
  std::uint64_t executed_pair_ = 0;
  std::uint64_t executed_cross_ = 0;

  // verify_incremental only: executed_pair_ and the summed activity_ at
  // the last repartition, the baselines of verify_window_state.
  std::uint64_t window_pair_base_ = 0;
  graph::Weight window_load_base_ = 0;

  // Per-transaction involved-account dedup: epoch-stamped membership
  // check (O(1) per endpoint) replacing the old std::find scan, which
  // was quadratic in a transaction's distinct participants.
  std::vector<graph::Vertex> involved_scratch_;
  std::vector<std::uint64_t> involved_stamp_;
  std::uint64_t involved_epoch_ = 0;
  std::vector<partition::ShardId> peers_scratch_;

  metrics::WindowAccumulator window_metrics_;
  util::Timestamp now_ = 0;
  util::Timestamp window_start_ = 0;
  util::Timestamp last_repartition_ = 0;
  /// Whether the first block has anchored the window clock yet.
  bool started_ = false;
  /// Wall-clock start of the current window's replay (telemetry).
  std::chrono::steady_clock::time_point window_wall_start_{};

  SimulationResult result_;
  bool ran_ = false;
};

}  // namespace ethshard::core
