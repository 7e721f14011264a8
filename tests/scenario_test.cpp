// Scenario harness unit tests: the file grammar, the workload-override
// composition, and — most importantly — each invariant evaluator tripped
// by hand-written telemetry records, plus a golden pass case. The
// evaluators gate CI through the scenario matrix, so each failure mode
// is pinned here at the unit level first.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "scenario/invariants.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "util/check.hpp"
#include "util/sim_time.hpp"
#include "workload/overrides.hpp"

namespace ethshard::scenario {
namespace {

// --- scenario parsing --------------------------------------------------

TEST(ScenarioParse, DefaultsAndNameHint) {
  const Scenario s = parse_scenario_text("", "from_stem");
  EXPECT_EQ(s.name, "from_stem");
  EXPECT_EQ(s.preset, workload::Preset::kPaper);
  EXPECT_EQ(s.shards, 4u);
  EXPECT_EQ(s.strategies.size(), 5u);  // the paper's five families
  EXPECT_TRUE(s.sanity);
  EXPECT_FALSE(s.balance_max.has_value());
}

TEST(ScenarioParse, FullGrammar) {
  const std::string text = R"(
# comment line
name = storm            # trailing comment
description = a storm
preset = no-attack
scale = 0.004
seed = 99
shards = 8
load_model = gas
metric_window_hours = 12
strategies = hashing, metis
strategy_seed = 3
workload.attack_fraction = 0.5
gap_start = 2016-02-01
gap_days = 30
invariant.balance_max = 2.5
invariant.balance_min_interactions = 10
invariant.move_fraction_max = 1.25
invariant.repartition_ms_max = 500
invariant.sanity = false
invariant.drift_golden = golden/storm
)";
  const Scenario s = parse_scenario_text(text, "ignored");
  EXPECT_EQ(s.name, "storm");
  EXPECT_EQ(s.description, "a storm");
  EXPECT_EQ(s.preset, workload::Preset::kNoAttack);
  EXPECT_DOUBLE_EQ(s.scale, 0.004);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.shards, 8u);
  EXPECT_EQ(s.load_model, core::LoadModel::kGas);
  EXPECT_EQ(s.metric_window, 12 * util::kHour);
  ASSERT_EQ(s.strategies.size(), 2u);
  EXPECT_EQ(s.strategies[0], "hashing");
  EXPECT_EQ(s.strategies[1], "metis");
  EXPECT_EQ(s.strategy_seed, 3u);
  ASSERT_EQ(s.workload_overrides.size(), 1u);
  EXPECT_EQ(s.workload_overrides[0].first, "attack_fraction");
  EXPECT_EQ(s.gap_start, util::make_timestamp(2016, 2, 1));
  EXPECT_DOUBLE_EQ(s.gap_days, 30.0);
  ASSERT_TRUE(s.balance_max.has_value());
  EXPECT_DOUBLE_EQ(*s.balance_max, 2.5);
  EXPECT_EQ(s.balance_min_interactions, 10u);
  EXPECT_DOUBLE_EQ(*s.move_fraction_max, 1.25);
  EXPECT_DOUBLE_EQ(*s.repartition_ms_max, 500.0);
  EXPECT_FALSE(s.sanity);
  EXPECT_EQ(s.drift_golden, "golden/storm");
}

TEST(ScenarioParse, RejectsUnknownAndMalformed) {
  // Scenario text is user input: every rejection is an InputError.
  EXPECT_THROW(parse_scenario_text("bogus_key = 1", "x"), util::InputError);
  EXPECT_THROW(parse_scenario_text("scale", "x"), util::InputError);
  EXPECT_THROW(parse_scenario_text("scale = not_a_number", "x"),
               util::InputError);
  EXPECT_THROW(parse_scenario_text("shards = 1", "x"), util::InputError);
  EXPECT_THROW(parse_scenario_text("invariant.sanity = maybe", "x"),
               util::InputError);
  EXPECT_THROW(parse_scenario_text("gap_start = soon", "x"),
               util::InputError);
  // Workload overrides are validated at parse time, naming typos early.
  EXPECT_THROW(parse_scenario_text("workload.attack_fractoin = 0.5", "x"),
               util::InputError);
  EXPECT_THROW(parse_scenario_text("workload.p_new_sender = lots", "x"),
               util::InputError);
}

TEST(ScenarioParse, RejectsUnreadableFile) {
  EXPECT_THROW(load_scenario_file("/nonexistent-dir/x.scn"),
               util::InputError);
}

TEST(ScenarioParse, GeneratorConfigComposesPresetAndOverrides) {
  Scenario s = parse_scenario_text(
      "preset = no-attack\n"
      "scale = 0.004\n"
      "seed = 7\n"
      "workload.p_new_sender = 0.42\n",
      "combo");
  const workload::GeneratorConfig cfg = generator_config(s);
  EXPECT_DOUBLE_EQ(cfg.scale, 0.004);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_DOUBLE_EQ(cfg.attack_fraction, 0.0);  // from the preset
  EXPECT_DOUBLE_EQ(cfg.p_new_sender, 0.42);    // from the override
}

TEST(ScenarioParse, TimelineValidatedAfterWholeOverrideSequence) {
  // Legal end state reached through an illegal intermediate one: the
  // collapsed attack must be applied before the shortened end works.
  Scenario s = parse_scenario_text(
      "workload.model.attack_start = 2015-10-01\n"
      "workload.model.attack_end = 2015-10-01\n"
      "workload.model.end = 2016-01-31\n",
      "short");
  EXPECT_NO_THROW(generator_config(s));

  Scenario broken = parse_scenario_text(
      "workload.model.end = 2016-01-31\n",  // before the default attack
      "broken");
  EXPECT_THROW(generator_config(broken), util::InputError);
}

// --- invariant evaluators ----------------------------------------------

core::WindowTelemetry window(std::uint64_t start, std::uint64_t end,
                             std::uint64_t interactions) {
  core::WindowTelemetry w;
  w.window_start = start;
  w.window_end = end;
  w.interactions = interactions;
  w.recorded = interactions > 0;
  w.dynamic_balance = interactions > 0 ? 1.0 : 0.0;
  w.static_balance = 1.0;
  return w;
}

core::SimulationResult result_with(std::uint64_t interactions,
                                   std::uint64_t vertices,
                                   std::uint64_t total_moves) {
  core::SimulationResult r;
  r.interactions = interactions;
  r.vertices = vertices;
  r.total_moves = total_moves;
  return r;
}

TEST(BalanceInvariant, TripsOnBreachAboveFloor) {
  auto inv = make_balance_invariant(2.0, /*min_interactions=*/10);
  auto w = window(0, 100, 50);
  w.dynamic_balance = 1.5;
  inv->on_window(w);
  w = window(100, 200, 50);
  w.window_start = 100;
  w.dynamic_balance = 3.5;  // breach
  inv->on_window(w);
  const InvariantVerdict v = inv->verdict();
  EXPECT_EQ(v.kind, "balance");
  EXPECT_FALSE(v.pass);
  EXPECT_DOUBLE_EQ(v.observed, 3.5);
  EXPECT_EQ(v.window_start, 100);
  EXPECT_FALSE(v.detail.empty());
}

TEST(BalanceInvariant, FloorExemptsSparseWindows) {
  auto inv = make_balance_invariant(2.0, /*min_interactions=*/10);
  auto w = window(0, 100, 3);  // below the floor
  w.dynamic_balance = 4.0;     // would breach, but the window is noise
  inv->on_window(w);
  EXPECT_TRUE(inv->verdict().pass);
}

TEST(ChurnInvariant, TripsOnMoveBound) {
  auto inv = make_churn_invariant(2.0);
  inv->on_run_end(result_with(1000, 100, 350));  // 3.5 moves per vertex
  const InvariantVerdict v = inv->verdict();
  EXPECT_EQ(v.kind, "churn");
  EXPECT_FALSE(v.pass);
  EXPECT_DOUBLE_EQ(v.observed, 3.5);

  auto ok = make_churn_invariant(2.0);
  ok->on_run_end(result_with(1000, 100, 150));
  EXPECT_TRUE(ok->verdict().pass);
}

TEST(RepartitionTimeInvariant, TripsOnWallTimeBound) {
  auto inv = make_repartition_time_invariant(100.0);
  auto w = window(0, 100, 10);
  w.repartition = true;
  w.partitioner_ms = 250.0;  // breach
  w.moves = 1;
  w.moved_state_units = 1;
  inv->on_window(w);
  const InvariantVerdict v = inv->verdict();
  EXPECT_EQ(v.kind, "repartition_time");
  EXPECT_FALSE(v.pass);
  EXPECT_DOUBLE_EQ(v.observed, 250.0);

  // Non-repartition windows are never charged.
  auto ok = make_repartition_time_invariant(100.0);
  auto quiet = window(0, 100, 10);
  quiet.partitioner_ms = 0.0;
  ok->on_window(quiet);
  EXPECT_TRUE(ok->verdict().pass);
}

// A tiny golden stream in the sink's own serialization, so the drift
// test exercises the real parse→compare path end to end.
std::string golden_lines(const std::vector<core::WindowTelemetry>& ws) {
  std::ostringstream os;
  core::TelemetrySink sink(os);
  for (const auto& w : ws) sink.write_window(w);
  return os.str();
}

TEST(DriftInvariant, PassesOnIdenticalStream) {
  const std::vector<core::WindowTelemetry> ws = {window(0, 100, 10),
                                                 window(100, 200, 20)};
  auto inv = make_drift_invariant(golden_lines(ws), "test-golden");
  for (const auto& w : ws) inv->on_window(w);
  inv->on_run_end(result_with(30, 5, 0));
  const InvariantVerdict v = inv->verdict();
  EXPECT_EQ(v.kind, "drift");
  EXPECT_TRUE(v.pass) << v.detail;
}

TEST(DriftInvariant, IgnoresWallClockFields) {
  std::vector<core::WindowTelemetry> ws = {window(0, 100, 10)};
  auto inv = make_drift_invariant(golden_lines(ws), "test-golden");
  ws[0].window_wall_ms = 9999.0;  // measurement, not a result
  ws[0].rss_mb = 123.0;
  ws[0].peak_rss_mb = 456.0;
  inv->on_window(ws[0]);
  inv->on_run_end(result_with(10, 5, 0));
  EXPECT_TRUE(inv->verdict().pass) << inv->verdict().detail;
}

TEST(DriftInvariant, TripsOnMetricDivergence) {
  std::vector<core::WindowTelemetry> ws = {window(0, 100, 10)};
  auto inv = make_drift_invariant(golden_lines(ws), "test-golden");
  ws[0].dynamic_balance += 0.001;  // well past the 1e-6 tolerance
  inv->on_window(ws[0]);
  const InvariantVerdict v = inv->verdict();
  EXPECT_FALSE(v.pass);
  EXPECT_NE(v.detail.find("dynamic_balance"), std::string::npos) << v.detail;
}

TEST(DriftInvariant, TripsOnLengthMismatch) {
  const std::vector<core::WindowTelemetry> ws = {window(0, 100, 10),
                                                 window(100, 200, 20)};
  auto inv = make_drift_invariant(golden_lines(ws), "test-golden");
  inv->on_window(ws[0]);  // stream ends one window early
  inv->on_run_end(result_with(10, 5, 0));
  EXPECT_FALSE(inv->verdict().pass);
}

TEST(SanityInvariant, PassesOnWellFormedStream) {
  auto inv = make_sanity_invariant();
  inv->on_window(window(0, 100, 10));
  inv->on_window(window(100, 200, 20));
  inv->on_run_end(result_with(30, 5, 0));
  const InvariantVerdict v = inv->verdict();
  EXPECT_EQ(v.kind, "sanity");
  EXPECT_TRUE(v.pass) << v.detail;
}

TEST(SanityInvariant, TripsOnClockGoingBackwards) {
  auto inv = make_sanity_invariant();
  inv->on_window(window(100, 200, 10));
  inv->on_window(window(0, 100, 10));  // overlaps predecessor
  inv->on_run_end(result_with(20, 5, 0));
  EXPECT_FALSE(inv->verdict().pass);
}

TEST(SanityInvariant, TripsOnInteractionSumMismatch) {
  auto inv = make_sanity_invariant(/*expect_full_stream=*/true);
  inv->on_window(window(0, 100, 10));
  inv->on_run_end(result_with(99, 5, 0));  // run claims more than streamed
  const InvariantVerdict v = inv->verdict();
  EXPECT_FALSE(v.pass);
  EXPECT_NE(v.detail.find("interactions"), std::string::npos) << v.detail;
}

TEST(SanityInvariant, TripsOnMovesWithoutRepartition) {
  auto inv = make_sanity_invariant();
  auto w = window(0, 100, 10);
  w.moves = 5;  // but repartition == false
  w.moved_state_units = 5;
  inv->on_window(w);
  inv->on_run_end(result_with(10, 5, 5));
  EXPECT_FALSE(inv->verdict().pass);
}

TEST(InvariantSet, FansOutAndCollects) {
  InvariantSet set;
  set.add(make_balance_invariant(2.0, 1));
  set.add(make_sanity_invariant());
  auto w = window(0, 100, 10);
  w.dynamic_balance = 3.0;  // balance breach, sanity fine
  set.on_window(w);
  set.on_run_end(result_with(10, 5, 0));
  EXPECT_EQ(set.windows_seen(), 1u);
  const auto verdicts = set.verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_FALSE(verdicts[0].pass);
  EXPECT_TRUE(verdicts[1].pass);
}

// --- telemetry line round-trip -----------------------------------------

TEST(TelemetryLine, RoundTripsThroughSinkSerialization) {
  core::WindowTelemetry w = window(400, 800, 123);
  w.dynamic_edge_cut = 0.25;
  w.dynamic_balance = 1.75;
  w.repartition = true;
  w.partitioner_ms = 12.5;
  w.moves = 7;
  w.moved_state_units = 21;
  const std::string line = golden_lines({w});
  const core::WindowTelemetry back = parse_telemetry_line(line);
  EXPECT_EQ(back.window_start, w.window_start);
  EXPECT_EQ(back.window_end, w.window_end);
  EXPECT_EQ(back.interactions, w.interactions);
  EXPECT_EQ(back.recorded, w.recorded);
  EXPECT_NEAR(back.dynamic_edge_cut, w.dynamic_edge_cut, 1e-6);
  EXPECT_NEAR(back.dynamic_balance, w.dynamic_balance, 1e-6);
  EXPECT_EQ(back.repartition, w.repartition);
  EXPECT_NEAR(back.partitioner_ms, w.partitioner_ms, 1e-6);
  EXPECT_EQ(back.moves, w.moves);
  EXPECT_EQ(back.moved_state_units, w.moved_state_units);
  EXPECT_THROW(parse_telemetry_line("{\"v\": 1}"), util::CheckFailure);
}

// --- report schema ------------------------------------------------------

TEST(Report, JsonCarriesTotalsAndPassFlag) {
  Report report;
  ScenarioReport& sc = report.scenarios.emplace_back();
  sc.name = "s1";
  StrategyRunReport& run = sc.runs.emplace_back();
  run.strategy = "hashing";
  InvariantVerdict good;
  good.kind = "balance";
  good.pass = true;
  InvariantVerdict bad;
  bad.kind = "churn";
  bad.pass = false;
  bad.detail = "too many moves";
  run.invariants = {good, bad};
  run.wall_ms = 12.5;
  run.peak_rss_mb = 48.25;

  EXPECT_FALSE(report.pass());
  const std::string json = report_json(report);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"pass\": false"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"invariant_kinds\": [\"balance\", \"churn\"]"),
            std::string::npos);
  EXPECT_NE(json.find("too many moves"), std::string::npos);
  // Every run cell carries its cost: wall time and the RSS high-water
  // mark, so a regression is attributable without rerunning.
  EXPECT_NE(json.find("\"wall_ms\": 12.500000"), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_mb\": 48.250000"), std::string::npos);
}

// --- runner golden-path mapping ----------------------------------------

TEST(Runner, GoldenPathFlattensSpecAndResolvesRelative) {
  Scenario s;
  s.name = "g";
  s.file = "scenarios/g.scn";
  s.drift_golden = "golden/g";
  EXPECT_EQ(golden_path(s, "tr-metis:cut_floor=0.25"),
            "scenarios/golden/g/tr-metis_cut_floor_0.25.jsonl");
  s.file = "";
  EXPECT_EQ(golden_path(s, "kl"), "./golden/g/kl.jsonl");
  s.drift_golden = "";
  EXPECT_THROW(golden_path(s, "kl"), util::CheckFailure);
}

TEST(Runner, MissingGoldenIsInputError) {
  Scenario s;
  s.name = "g";
  s.file = "/nonexistent-dir/g.scn";
  s.drift_golden = "golden/g";
  EXPECT_THROW(run_strategy(s, "hashing", RunnerOptions{}), util::InputError);
}

}  // namespace
}  // namespace ethshard::scenario
