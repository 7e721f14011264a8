#include "scenario/runner.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/simulator.hpp"
#include "core/strategy_registry.hpp"
#include "core/telemetry.hpp"
#include "scenario/invariants.hpp"
#include "util/check.hpp"
#include "util/mem.hpp"
#include "workload/block_source.hpp"
#include "workload/generator.hpp"

namespace ethshard::scenario {

namespace {

/// Flattens a registry spec into a filename-safe token.
std::string sanitize_spec(const std::string& spec) {
  std::string out;
  out.reserve(spec.size());
  for (const char c : spec) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    out += keep ? c : '_';
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  ETHSHARD_INPUT_CHECK(in.good(), "cannot open golden file "
                                      << path
                                      << " (run scenario_runner "
                                         "--update-golden to regenerate)");
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Scenario with_overrides(const Scenario& scenario,
                        const RunnerOptions& options) {
  Scenario s = scenario;
  for (const auto& [key, value] : options.overrides)
    apply_scenario_setting(s, key, value);
  return s;
}

}  // namespace

std::string golden_path(const Scenario& scenario, const std::string& spec) {
  ETHSHARD_CHECK_MSG(!scenario.drift_golden.empty(),
                     "scenario '" << scenario.name
                                  << "' has no invariant.drift_golden");
  std::filesystem::path dir =
      scenario.file.empty()
          ? std::filesystem::path(".")
          : std::filesystem::path(scenario.file).parent_path();
  if (dir.empty()) dir = ".";
  return (dir / scenario.drift_golden / (sanitize_spec(spec) + ".jsonl"))
      .string();
}

StrategyRunReport run_strategy(const Scenario& scenario,
                               const std::string& spec,
                               const RunnerOptions& options) {
  // Build the workload stream exactly as the scenario describes it.
  workload::GeneratorConfig gcfg = generator_config(scenario);
  gcfg.scale *= options.scale_mult;
  std::unique_ptr<workload::BlockSourceFactory> factory =
      std::make_unique<workload::GeneratedSourceFactory>(gcfg);
  if (scenario.gap_days > 0) {
    ETHSHARD_INPUT_CHECK(scenario.gap_start > 0,
                         "scenario '" << scenario.name
                                      << "' sets gap_days without gap_start");
    factory = std::make_unique<workload::TrafficGapSourceFactory>(
        std::move(factory), scenario.gap_start,
        static_cast<util::Timestamp>(scenario.gap_days *
                                     static_cast<double>(util::kDay)));
  }

  core::StrategyBuild build =
      core::StrategyRegistry::global().make_build(spec, scenario.strategy_seed);

  // The scenario's invariants, evaluated streamingly off the telemetry
  // consumer hook. Drift only checks at the golden's own scale — a
  // scale-multiplied run is a different stream by construction.
  InvariantSet set;
  if (scenario.balance_max)
    set.add(make_balance_invariant(*scenario.balance_max,
                                   scenario.balance_min_interactions));
  if (scenario.move_fraction_max)
    set.add(make_churn_invariant(*scenario.move_fraction_max));
  if (scenario.repartition_ms_max)
    set.add(make_repartition_time_invariant(*scenario.repartition_ms_max));
  const bool check_drift = !scenario.drift_golden.empty() &&
                           !options.update_golden &&
                           options.scale_mult == 1.0;
  if (check_drift) {
    const std::string path = golden_path(scenario, spec);
    set.add(make_drift_invariant(read_file(path), path));
  }
  if (scenario.sanity) set.add(make_sanity_invariant());

  std::unique_ptr<core::TelemetrySink> sink;
  if (options.update_golden && !scenario.drift_golden.empty()) {
    const std::string path = golden_path(scenario, spec);
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    sink = core::TelemetrySink::open(path);
  }

  core::SimulatorConfig cfg;
  cfg.k = scenario.shards;
  cfg.metric_window = scenario.metric_window;
  cfg.load_model = scenario.load_model;
  if (sink) cfg.consumers.push_back(sink.get());
  cfg.consumers.push_back(&set);

  // Bracket the replay with a peak-RSS reset so the reported high-water
  // mark is attributable to this (scenario, strategy) cell alone.
  util::reset_peak_rss();
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<workload::BlockSource> source = factory->open();
  core::ShardingSimulator sim(*source, *build.strategy, cfg);
  const core::SimulationResult result = sim.run();
  set.on_run_end(result);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t peak_rss = util::peak_rss_bytes();

  StrategyRunReport run;
  run.strategy = spec;
  run.windows = set.windows_seen();
  run.interactions = result.interactions;
  run.total_moves = result.total_moves;
  run.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  run.peak_rss_mb = static_cast<double>(peak_rss) / (1024.0 * 1024.0);
  run.invariants = set.verdicts();
  return run;
}

ScenarioReport run_scenario(const Scenario& scenario,
                            const RunnerOptions& options) {
  const Scenario s = with_overrides(scenario, options);
  ScenarioReport report;
  report.name = s.name;
  report.file = s.file;
  report.description = s.description;
  for (const auto& spec : s.strategies)
    report.runs.push_back(run_strategy(s, spec, options));
  return report;
}

Report run_matrix(const std::vector<Scenario>& scenarios,
                  const RunnerOptions& options) {
  Report report;
  for (const auto& s : scenarios)
    report.scenarios.push_back(run_scenario(s, options));
  return report;
}

}  // namespace ethshard::scenario
