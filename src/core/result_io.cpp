#include "core/result_io.hpp"

#include <fstream>
#include <ostream>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace ethshard::core {

void write_windows_csv(std::ostream& out, const SimulationResult& result) {
  util::CsvWriter csv(out);
  csv.write_row({"window_start", "window_end", "dynamic_edge_cut",
                 "dynamic_balance", "static_edge_cut", "static_balance",
                 "interactions"});
  for (const WindowSample& w : result.windows) {
    csv.field(static_cast<std::int64_t>(w.window_start))
        .field(static_cast<std::int64_t>(w.window_end))
        .field(w.dynamic_edge_cut)
        .field(w.dynamic_balance)
        .field(w.static_edge_cut)
        .field(w.static_balance)
        .field(w.interactions);
    csv.end_row();
  }
}

void write_repartitions_csv(std::ostream& out,
                            const SimulationResult& result) {
  util::CsvWriter csv(out);
  csv.write_row({"time", "moves", "moved_state_units", "compute_ms"});
  for (const RepartitionEvent& e : result.repartitions) {
    csv.field(static_cast<std::int64_t>(e.time))
        .field(e.moves)
        .field(e.moved_state_units)
        .field(e.compute_ms);
    csv.end_row();
  }
}

void write_summary_csv(std::ostream& out, const SimulationResult& result) {
  util::CsvWriter csv(out);
  csv.write_row({"method", "k", "vertices", "distinct_edges",
                 "interactions", "final_static_edge_cut",
                 "final_static_balance", "executed_cross_shard_fraction",
                 "total_moves", "total_moved_state_units", "online_moves",
                 "repartitions"});
  csv.field(result.strategy_name)
      .field(static_cast<std::uint64_t>(result.k))
      .field(result.vertices)
      .field(result.distinct_edges)
      .field(result.interactions)
      .field(result.final_static_edge_cut)
      .field(result.final_static_balance)
      .field(result.executed_cross_shard_fraction)
      .field(result.total_moves)
      .field(result.total_moved_state_units)
      .field(result.online_moves)
      .field(static_cast<std::uint64_t>(result.repartitions.size()));
  csv.end_row();
}

namespace {
std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  ETHSHARD_INPUT_CHECK(out.good(), "cannot open " << path << " for writing");
  return out;
}
}  // namespace

void write_windows_csv_file(const std::string& path,
                            const SimulationResult& result) {
  auto out = open_or_throw(path);
  write_windows_csv(out, result);
}

void write_repartitions_csv_file(const std::string& path,
                                 const SimulationResult& result) {
  auto out = open_or_throw(path);
  write_repartitions_csv(out, result);
}

}  // namespace ethshard::core
