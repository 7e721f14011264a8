// Experiment grids: run many (method × shard-count) simulations over one
// history and summarize them comparably — the machinery behind the
// paper's Figs. 4/5 tables, reusable from benches, tests and the CLI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/strategies.hpp"
#include "core/throughput.hpp"
#include "metrics/summary.hpp"
#include "obs/registry.hpp"

namespace ethshard::core {

struct ExperimentConfig {
  std::vector<Method> methods{std::begin(kAllMethods),
                              std::end(kAllMethods)};
  std::vector<std::uint32_t> shard_counts{2, 4, 8};
  std::uint64_t seed = 7;
  LoadModel load_model = LoadModel::kCalls;
  /// Worker threads for the grid (0 = hardware concurrency).
  std::size_t threads = 0;

  /// Human-readable configuration problems, empty when the config is
  /// runnable. run_experiment calls this up front so a bad grid fails
  /// with an actionable message instead of deep inside a worker thread.
  std::vector<std::string> validate() const;
};

/// One grid cell: the raw simulation plus ready-to-print summaries.
struct ExperimentRun {
  Method method = Method::kHashing;
  std::uint32_t k = 2;
  SimulationResult result;
  metrics::Summary dynamic_edge_cut;
  metrics::Summary dynamic_balance;
  /// Fig. 5's normalization of the balance median.
  double normalized_balance_median = 0;
  ThroughputSummary throughput;
  /// Wall-clock cost of this cell (always measured).
  double cell_wall_ms = 0;
  /// Delay between grid start and this cell starting (queue wait).
  double queue_wait_ms = 0;
  /// This cell's observability snapshot (per-phase mlkp timings, window
  /// counters, ...). Empty unless obs::set_enabled(true) was called.
  obs::MetricsSnapshot metrics;
};

/// Runs the full grid (methods × shard_counts), in parallel when the
/// hardware allows. Deterministic for a fixed config. Each cell opens
/// its own stream from `sources` (BlockSourceFactory::open is required
/// to be thread-safe), so cells replay the history independently and no
/// cell ever needs it whole in memory.
std::vector<ExperimentRun> run_experiment(
    const workload::BlockSourceFactory& sources,
    const ExperimentConfig& config);

/// Materialized-history adapter: every cell streams `history` zero-copy
/// through a MaterializedSourceFactory. `history` must outlive the call
/// (it is aliased, not copied). Bit-identical to streaming the same
/// blocks through the factory form.
std::vector<ExperimentRun> run_experiment(const workload::History& history,
                                          const ExperimentConfig& config);

/// A temporary History would dangle behind the aliasing adapter above —
/// bind it to a name (or stream via a factory) instead.
std::vector<ExperimentRun> run_experiment(workload::History&& history,
                                          const ExperimentConfig& config) =
    delete;

/// Fixed-width comparison table (one row per run).
std::string comparison_table(const std::vector<ExperimentRun>& runs);

}  // namespace ethshard::core
