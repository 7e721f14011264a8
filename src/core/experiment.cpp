#include "core/experiment.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace ethshard::core {

std::vector<std::string> ExperimentConfig::validate() const {
  std::vector<std::string> problems;
  if (methods.empty())
    problems.push_back(
        "methods is empty — list at least one Method (e.g. kAllMethods)");
  if (shard_counts.empty())
    problems.push_back(
        "shard_counts is empty — list at least one shard count (k >= 1)");
  for (std::uint32_t k : shard_counts)
    if (k < 1) {
      problems.push_back("shard_counts contains k=0 — every k must be >= 1");
      break;
    }
  // A grid never needs more workers than cells; a four-digit thread count
  // is a unit mix-up (milliseconds? shard count?), not a real request.
  if (threads > 1024)
    problems.push_back(
        "threads = " + std::to_string(threads) +
        " is not plausible — use 0 for hardware concurrency");
  return problems;
}

std::vector<ExperimentRun> run_experiment(
    const workload::BlockSourceFactory& sources,
    const ExperimentConfig& config) {
  const std::vector<std::string> problems = config.validate();
  if (!problems.empty()) {
    std::ostringstream os;
    os << "invalid ExperimentConfig:";
    for (const std::string& p : problems) os << "\n  - " << p;
    ETHSHARD_CHECK_MSG(false, os.str());
  }

  struct Cell {
    Method method;
    std::uint32_t k;
  };
  std::vector<Cell> cells;
  for (Method m : config.methods)
    for (std::uint32_t k : config.shard_counts) cells.push_back({m, k});

  // Observability for the grid: each cell records into its own registry
  // (redirected for the worker thread's duration) so ExperimentRun can
  // carry a per-cell snapshot; totals also fold into the registry the
  // caller was writing to.
  obs::Registry& parent_registry = obs::current();
  const auto grid_start = std::chrono::steady_clock::now();

  auto runs = util::parallel_map(
      cells,
      [&](const Cell& cell) {
        const auto cell_start = std::chrono::steady_clock::now();
        const double queue_wait_ms =
            std::chrono::duration<double, std::milli>(cell_start -
                                                      grid_start)
                .count();

        obs::Registry cell_registry;
        ExperimentRun run;
        {
          const obs::ScopedRegistry scope(cell_registry);
          ETHSHARD_OBS_TIMER("experiment/cell_ms");
          ETHSHARD_OBS_RECORD_MS("experiment/queue_wait_ms", queue_wait_ms);

          const auto strategy = make_strategy(cell.method, config.seed);
          SimulatorConfig sim_cfg;
          sim_cfg.k = cell.k;
          sim_cfg.load_model = config.load_model;
          const std::unique_ptr<workload::BlockSource> source =
              sources.open();
          ShardingSimulator sim(*source, *strategy, sim_cfg);

          run.method = cell.method;
          run.k = cell.k;
          run.result = sim.run();

          std::vector<double> cuts;
          std::vector<double> balances;
          for (const WindowSample& w : run.result.windows) {
            cuts.push_back(w.dynamic_edge_cut);
            balances.push_back(w.dynamic_balance);
          }
          run.dynamic_edge_cut = metrics::summarize(std::move(cuts));
          run.dynamic_balance = metrics::summarize(std::move(balances));
          run.normalized_balance_median = metrics::normalized_balance(
              run.dynamic_balance.median, cell.k);
          run.throughput = summarize_throughput(run.result);
        }
        run.cell_wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - cell_start)
                .count();
        run.queue_wait_ms = queue_wait_ms;
        if (obs::enabled()) {
          run.metrics = cell_registry.snapshot();
          parent_registry.absorb(run.metrics);
        }
        return run;
      },
      config.threads);

  if (obs::enabled()) {
    const std::size_t workers =
        std::min(config.threads == 0 ? util::default_thread_count()
                                     : config.threads,
                 cells.size());
    const double grid_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - grid_start)
            .count();
    double busy_ms = 0;
    for (const ExperimentRun& r : runs) busy_ms += r.cell_wall_ms;
    const obs::ScopedRegistry scope(parent_registry);
    ETHSHARD_OBS_GAUGE("experiment/threads",
                       static_cast<double>(workers));
    ETHSHARD_OBS_GAUGE("experiment/grid_wall_ms", grid_wall_ms);
    ETHSHARD_OBS_GAUGE(
        "experiment/thread_utilization",
        grid_wall_ms <= 0
            ? 0.0
            : busy_ms / (grid_wall_ms * static_cast<double>(workers)));
  }
  return runs;
}

std::vector<ExperimentRun> run_experiment(const workload::History& history,
                                          const ExperimentConfig& config) {
  const workload::MaterializedSourceFactory sources(history.chain,
                                                    &history.accounts);
  return run_experiment(sources, config);
}

std::string comparison_table(const std::vector<ExperimentRun>& runs) {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-9s %3s %11s %11s %9s %10s %12s %8s %10s\n", "method",
                "k", "dynCut(med)", "dynBal(med)", "normBal", "speedup",
                "moves", "reparts", "cellMs");
  os << line;
  for (const ExperimentRun& r : runs) {
    std::snprintf(line, sizeof(line),
                  "%-9s %3u %11.4f %11.4f %9.4f %10.3f %12llu %8zu %10.1f\n",
                  method_name(r.method).c_str(), r.k,
                  r.dynamic_edge_cut.median, r.dynamic_balance.median,
                  r.normalized_balance_median,
                  r.throughput.mean_speedup,
                  static_cast<unsigned long long>(r.result.total_moves),
                  r.result.repartitions.size(), r.cell_wall_ms);
    os << line;
  }
  return os.str();
}

}  // namespace ethshard::core
