// Declarative stress scenarios — the paper's pitfalls as checked-in
// files.
//
// The paper's argument is that partitioning schemes which look fine on
// average workloads fall over under specific stress shapes: load spikes
// (the Sep/Oct-2016 DoS attack), hot-contract flash crowds (the 2017
// crowdsale frenzy), account churn, retry storms, long dormancy followed
// by reactivation. A Scenario names one such shape declaratively — a
// workload preset plus generator-knob overrides, the simulator settings
// to replay it under, the strategy specs to replay it against, and the
// machine-checked invariants the run must satisfy (src/scenario/
// invariants.hpp). scenarios/*.scn files in the repo root are the
// checked-in matrix; the runner (src/scenario/runner.hpp,
// tools/scenario_runner) turns them into a CI-parsable verdict.
//
// File grammar: one "key = value" per line, '#' starts a comment, blank
// lines ignored. Keys:
//
//   name, description        identity (name defaults to the file stem)
//   preset                   workload preset (paper, no-attack, ...)
//   scale, seed              generator volume fraction and seed
//   shards                   simulator shard count k
//   load_model               calls | gas
//   metric_window_hours      evaluation window width (default 4)
//   strategies               comma-separated registry specs; default =
//                            the paper's five families
//   strategy_seed            default_seed handed to the registry (7)
//   workload.<knob>          generator override, applied after the
//                            preset (workload/overrides.hpp keys)
//   gap_start                YYYY-MM-DD: splice a traffic gap in front
//   gap_days                 of every block at/after gap_start
//   invariant.balance_max          dynamic balance bound
//   invariant.balance_min_interactions  balance-bound traffic floor (50)
//   invariant.move_fraction_max    total moves / final vertices bound
//   invariant.repartition_ms_max   per-repartition wall-time bound
//   invariant.sanity               true (default) | false
//   invariant.drift_golden         golden-JSONL directory, relative to
//                                  the scenario file
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.hpp"
#include "util/sim_time.hpp"
#include "workload/presets.hpp"

namespace ethshard::scenario {

struct Scenario {
  std::string name;
  std::string description;
  /// Path the scenario was parsed from ("" for in-memory scenarios);
  /// drift_golden resolves relative to its directory.
  std::string file;

  workload::Preset preset = workload::Preset::kPaper;
  double scale = 0.001;
  std::uint64_t seed = 1234;
  /// Overrides applied to the preset's GeneratorConfig, in file order.
  std::vector<std::pair<std::string, std::string>> workload_overrides;

  std::uint32_t shards = 4;
  core::LoadModel load_model = core::LoadModel::kCalls;
  util::Timestamp metric_window = util::kMetricWindow;

  /// Strategy registry specs to replay against. Defaults to the paper's
  /// five method families.
  std::vector<std::string> strategies = {"hashing", "kl", "metis",
                                         "r-metis", "tr-metis"};
  std::uint64_t strategy_seed = 7;

  /// Dormancy splice: when gap_days > 0, every block at/after gap_start
  /// is shifted that far into the future (workload::TrafficGapSource).
  util::Timestamp gap_start = 0;
  double gap_days = 0;

  // Invariant thresholds; an absent optional disables that invariant.
  std::optional<double> balance_max;
  /// Windows below this call count are exempt from the balance bound
  /// (near-empty windows trivially saturate Eq. 2 at k).
  std::uint64_t balance_min_interactions = 50;
  std::optional<double> move_fraction_max;
  std::optional<double> repartition_ms_max;
  bool sanity = true;
  /// Golden directory (one <strategy>.jsonl per spec) for the drift
  /// invariant; empty disables it.
  std::string drift_golden;
};

/// Applies one "key = value" setting to `s`. The same entry point serves
/// the file parser and the runner's --override flag, so anything a file
/// can say, a command line can tighten. Throws util::InputError on an
/// unknown key or unparsable value, naming it.
void apply_scenario_setting(Scenario& s, const std::string& key,
                            const std::string& value);

/// Parses the file grammar above. `name_hint` seeds the scenario name
/// when the text has no "name =" line (the runner passes the file stem).
Scenario parse_scenario_text(const std::string& text,
                             const std::string& name_hint);

/// Reads and parses `path`; records it as Scenario::file. Throws
/// util::InputError when the file cannot be read.
Scenario load_scenario_file(const std::string& path);

/// The fully composed generator configuration: preset → scale/seed →
/// workload overrides, in that order.
workload::GeneratorConfig generator_config(const Scenario& s);

}  // namespace ethshard::scenario
