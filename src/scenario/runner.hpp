// Executes scenarios: workload stream → simulator → streaming invariant
// evaluation → Report.
//
// For every scenario × strategy spec the runner opens a fresh
// BlockSource (GeneratedSourceFactory, wrapped in TrafficGapSourceFactory
// when the scenario splices a dormancy gap), builds the strategy from the
// registry, attaches the scenario's InvariantSet as the simulator's
// telemetry consumer, replays, and collects verdicts. Nothing is
// materialized: the invariants see each window as it flushes and the
// report keeps only per-run aggregates.
//
// Golden maintenance: update_golden re-runs the matrix with a
// TelemetrySink teed into each run and (over)writes
// <scenario dir>/<drift_golden>/<sanitized spec>.jsonl — the files the
// drift invariant later holds runs to. Runs under scale_mult != 1 skip
// the drift invariant (a different scale is a different stream, not a
// regression).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "scenario/report.hpp"
#include "scenario/scenario.hpp"

namespace ethshard::scenario {

struct RunnerOptions {
  /// Write drift goldens instead of checking them.
  bool update_golden = false;
  /// Multiplies every scenario's generator scale (CI small-scale knob).
  /// Values != 1 disable the drift invariant.
  double scale_mult = 1.0;
  /// Extra "key = value" settings applied to every scenario after its
  /// file parses — the CLI's --override flag. Same keys as the file
  /// grammar, so thresholds can be tightened from the command line.
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// Replays one scenario against one strategy spec. Throws
/// util::InputError on an unknown or malformed strategy spec or a
/// missing golden file; invariant *violations*
/// are reported, not thrown.
/// `options.overrides` are NOT applied here — run_scenario folds them
/// into the scenario before delegating.
StrategyRunReport run_strategy(const Scenario& scenario,
                               const std::string& spec,
                               const RunnerOptions& options = {});

/// Replays one scenario against every strategy it lists.
ScenarioReport run_scenario(const Scenario& scenario,
                            const RunnerOptions& options = {});

/// The full matrix.
Report run_matrix(const std::vector<Scenario>& scenarios,
                  const RunnerOptions& options = {});

/// The golden JSONL path for (scenario, spec): resolves drift_golden
/// relative to the scenario file's directory and flattens the spec into
/// a filename ("tr-metis:cut_floor=0.25" → "tr-metis_cut_floor_0.25").
std::string golden_path(const Scenario& scenario, const std::string& spec);

}  // namespace ethshard::scenario
