// Serialization of simulation results for external plotting.
//
// Every figure in the paper is a plot over these series; the CSVs written
// here load directly into pandas/gnuplot. Used by the CLI's
// `simulate --csv` and available to any embedding program.
#pragma once

#include <iosfwd>
#include <string>

#include "core/simulator.hpp"

namespace ethshard::core {

/// Per-window samples: window_start, window_end, dynamic_edge_cut,
/// dynamic_balance, static_edge_cut, static_balance, interactions.
void write_windows_csv(std::ostream& out, const SimulationResult& result);

/// Repartition events: time, moves, moved_state_units, compute_ms.
void write_repartitions_csv(std::ostream& out,
                            const SimulationResult& result);

/// One-row run summary (method, k, final metrics, move totals).
void write_summary_csv(std::ostream& out, const SimulationResult& result);

/// File conveniences; throw util::InputError if the file cannot open.
void write_windows_csv_file(const std::string& path,
                            const SimulationResult& result);
void write_repartitions_csv_file(const std::string& path,
                                 const SimulationResult& result);

}  // namespace ethshard::core
