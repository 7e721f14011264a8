// Streaming per-window telemetry: schema, sequencing, and consistency
// with the end-of-run SimulationResult.
#include "core/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/simulator.hpp"
#include "core/strategies.hpp"
#include "util/check.hpp"
#include "workload/generator.hpp"

namespace ethshard::core {
namespace {

// Strict parser for the telemetry subset of JSON: one flat object per
// line, string keys, number/bool values. Returns key -> raw value text
// in document order; fails the test on any syntax error.
std::vector<std::pair<std::string, std::string>> parse_line(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  auto fail = [&](const char* what) {
    ADD_FAILURE() << what << " at offset " << i << " in: " << line;
  };
  auto skip_ws = [&] {
    while (i < line.size() && line[i] == ' ') ++i;
  };
  if (i >= line.size() || line[i] != '{') {
    fail("expected '{'");
    return out;
  }
  ++i;
  while (true) {
    skip_ws();
    if (i >= line.size() || line[i] != '"') {
      fail("expected key quote");
      return out;
    }
    const std::size_t key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) {
      fail("unterminated key");
      return out;
    }
    std::string key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    skip_ws();
    if (i >= line.size() || line[i] != ':') {
      fail("expected ':'");
      return out;
    }
    ++i;
    skip_ws();
    const std::size_t value_start = i;
    while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
    if (i >= line.size()) {
      fail("unterminated value");
      return out;
    }
    std::string value = line.substr(value_start, i - value_start);
    while (!value.empty() && value.back() == ' ') value.pop_back();
    if (value.empty()) {
      fail("empty value");
      return out;
    }
    out.emplace_back(std::move(key), std::move(value));
    if (line[i] == '}') break;
    ++i;  // consume ','
  }
  if (i + 1 != line.size()) fail("trailing content after '}'");
  return out;
}

std::map<std::string, std::string> as_map(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  return {kv.begin(), kv.end()};
}

workload::History small_history() {
  workload::GeneratorConfig cfg;
  cfg.scale = 0.0005;
  cfg.seed = 42;
  return workload::EthereumHistoryGenerator(cfg).generate();
}

struct TelemetryRun {
  SimulationResult result;
  std::vector<std::string> lines;
};

TelemetryRun run_with_telemetry(Method method) {
  const workload::History history = small_history();
  const auto strategy = make_strategy(method, /*seed=*/5);
  std::ostringstream out;
  TelemetrySink sink(out);
  SimulatorConfig cfg;
  cfg.k = 2;
  cfg.consumers = {&sink};
  ShardingSimulator sim(history, *strategy, cfg);
  TelemetryRun run;
  run.result = sim.run();
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) run.lines.push_back(line);
  EXPECT_EQ(run.lines.size(), sink.records_written());
  return run;
}

TEST(Telemetry, EveryLineParsesWithFixedKeyOrder) {
  const TelemetryRun run = run_with_telemetry(Method::kHashing);
  ASSERT_FALSE(run.lines.empty());
  const std::vector<std::string> want_keys = {
      "v",          "seq",
      "window_start", "window_end",
      "interactions", "recorded",
      "dynamic_edge_cut", "dynamic_balance",
      "static_edge_cut",  "static_balance",
      "window_wall_ms",   "repartition",
      "partitioner_ms",   "moves",
      "moved_state_units", "rss_mb",
      "peak_rss_mb"};
  for (std::size_t i = 0; i < run.lines.size(); ++i) {
    const auto kv = parse_line(run.lines[i]);
    ASSERT_EQ(kv.size(), want_keys.size()) << run.lines[i];
    for (std::size_t j = 0; j < want_keys.size(); ++j)
      EXPECT_EQ(kv[j].first, want_keys[j]) << run.lines[i];
    const auto m = as_map(kv);
    EXPECT_EQ(m.at("v"), "1");
    EXPECT_EQ(m.at("seq"), std::to_string(i));
  }
}

TEST(Telemetry, RecordedLinesMatchSimulationResult) {
  const TelemetryRun run = run_with_telemetry(Method::kHashing);
  const SimulationResult& r = run.result;
  std::size_t recorded = 0;
  for (const std::string& line : run.lines) {
    const auto m = as_map(parse_line(line));
    const std::uint64_t start = std::stoull(m.at("window_start"));
    const std::uint64_t end = std::stoull(m.at("window_end"));
    EXPECT_LT(start, end);
    EXPECT_GE(std::stod(m.at("window_wall_ms")), 0.0);
    if (m.at("recorded") != "true") {
      EXPECT_EQ(m.at("interactions"), "0");
      continue;
    }
    ASSERT_LT(recorded, r.windows.size());
    const WindowSample& w = r.windows[recorded];
    EXPECT_EQ(start, w.window_start);
    EXPECT_EQ(end, w.window_end);
    EXPECT_EQ(std::stoull(m.at("interactions")), w.interactions);
    EXPECT_NEAR(std::stod(m.at("dynamic_edge_cut")), w.dynamic_edge_cut,
                1e-5);
    EXPECT_NEAR(std::stod(m.at("dynamic_balance")), w.dynamic_balance,
                1e-5);
    EXPECT_NEAR(std::stod(m.at("static_edge_cut")), w.static_edge_cut,
                1e-5);
    EXPECT_NEAR(std::stod(m.at("static_balance")), w.static_balance,
                1e-5);
    ++recorded;
  }
  EXPECT_EQ(recorded, r.windows.size());
}

TEST(Telemetry, RepartitionRecordsCarryEventFields) {
  const TelemetryRun run = run_with_telemetry(Method::kRMetis);
  const SimulationResult& r = run.result;
  ASSERT_FALSE(r.repartitions.empty())
      << "R-METIS should repartition on this history";
  std::size_t events = 0;
  for (const std::string& line : run.lines) {
    const auto m = as_map(parse_line(line));
    if (m.at("repartition") != "true") {
      EXPECT_EQ(m.at("moves"), "0");
      EXPECT_EQ(m.at("moved_state_units"), "0");
      continue;
    }
    ASSERT_LT(events, r.repartitions.size());
    const RepartitionEvent& ev = r.repartitions[events];
    EXPECT_EQ(std::stoull(m.at("window_end")), ev.time);
    EXPECT_EQ(std::stoull(m.at("moves")), ev.moves);
    EXPECT_EQ(std::stoull(m.at("moved_state_units")),
              ev.moved_state_units);
    EXPECT_NEAR(std::stod(m.at("partitioner_ms")), ev.compute_ms, 1e-5);
    ++events;
  }
  EXPECT_EQ(events, r.repartitions.size());
}

// A strategy whose compute_partition stalls, to pin down where the
// repartition's wall-clock cost lands in the telemetry stream.
class SlowRepartitionStrategy final : public ShardingStrategy {
 public:
  explicit SlowRepartitionStrategy(std::chrono::milliseconds stall)
      : stall_(stall) {}

  std::string name() const override { return "slow"; }

  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId>,
                           const SimulatorEnv& env) override {
    return static_cast<partition::ShardId>(v % env.k());
  }

  bool should_repartition(const WindowSnapshot& snapshot,
                          const SimulatorEnv&) override {
    if (fired_ || snapshot.interactions == 0) return false;
    fired_ = true;
    return true;
  }

  partition::Partition compute_partition(const SimulatorEnv& env) override {
    std::this_thread::sleep_for(stall_);
    partition::Partition p(env.current_partition().size(), env.k());
    for (graph::Vertex v = 0; v < p.size(); ++v)
      p.assign(v, static_cast<partition::ShardId>(v % env.k()));
    return p;
  }

 private:
  std::chrono::milliseconds stall_;
  bool fired_ = false;
};

// Regression guard: the cost of computing a repartition must be reported
// as that window's partitioner_ms, never leak into any window_wall_ms
// (the old code restarted the window clock *before* repartitioning, so
// the stall was misattributed to the following window's replay cost).
TEST(Telemetry, RepartitionCostNotChargedToNextWindow) {
  const auto stall = std::chrono::milliseconds(400);
  const workload::History history = small_history();
  SlowRepartitionStrategy strategy(stall);
  std::ostringstream out;
  TelemetrySink sink(out);
  SimulatorConfig cfg;
  cfg.k = 2;
  cfg.consumers = {&sink};
  ShardingSimulator sim(history, strategy, cfg);
  const SimulationResult result = sim.run();
  ASSERT_EQ(result.repartitions.size(), 1u);
  EXPECT_GE(result.repartitions[0].compute_ms, 350.0);

  std::istringstream in(out.str());
  std::string line;
  bool saw_repartition = false;
  while (std::getline(in, line)) {
    const auto m = as_map(parse_line(line));
    if (m.at("repartition") == "true") {
      saw_repartition = true;
      EXPECT_GE(std::stod(m.at("partitioner_ms")), 350.0);
    }
    // No window's replay wall clock should come anywhere near the stall:
    // this small history replays in well under 100ms total.
    EXPECT_LT(std::stod(m.at("window_wall_ms")), 200.0) << line;
  }
  EXPECT_TRUE(saw_repartition);
}

// Counts the windows it sees and keeps their bounds.
class CountingConsumer final : public TelemetryConsumer {
 public:
  void on_window(const WindowTelemetry& w) override {
    bounds.emplace_back(w.window_start, w.window_end);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bounds;
};

// Every consumer in the list sees every window flush, in window order:
// a sink and an in-process consumer attached together agree record by
// record, and the windows tile the run without a gap.
TEST(Telemetry, SinkAndConsumerSeeEveryWindowInOrder) {
  const workload::History history = small_history();
  const auto strategy = make_strategy(Method::kRMetis, /*seed=*/5);
  std::ostringstream out;
  TelemetrySink sink(out);
  CountingConsumer counter;
  SimulatorConfig cfg;
  cfg.k = 2;
  cfg.consumers = {&sink, &counter};
  ShardingSimulator sim(history, *strategy, cfg);
  const SimulationResult result = sim.run();
  EXPECT_EQ(result.gap_windows_skipped, 0u);

  std::istringstream in(out.str());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sink_bounds;
  std::string line;
  while (std::getline(in, line)) {
    const auto m = as_map(parse_line(line));
    sink_bounds.emplace_back(std::stoull(m.at("window_start")),
                             std::stoull(m.at("window_end")));
  }
  ASSERT_GT(counter.bounds.size(), result.windows.size());
  EXPECT_EQ(sink.records_written(), counter.bounds.size());
  EXPECT_EQ(sink_bounds, counter.bounds);
  for (std::size_t i = 1; i < counter.bounds.size(); ++i)
    EXPECT_EQ(counter.bounds[i].first, counter.bounds[i - 1].second) << i;
}

TEST(Telemetry, OpenWritesFileAndRefusesBadPath) {
  const std::string path =
      testing::TempDir() + "/ethshard_telemetry_test.jsonl";
  {
    auto sink = TelemetrySink::open(path);
    WindowTelemetry w;
    w.window_start = 10;
    w.window_end = 20;
    w.interactions = 3;
    sink->write_window(w);
    EXPECT_EQ(sink->records_written(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto m = as_map(parse_line(line));
  EXPECT_EQ(m.at("window_start"), "10");
  EXPECT_EQ(m.at("window_end"), "20");
  EXPECT_EQ(m.at("interactions"), "3");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());

  EXPECT_THROW(TelemetrySink::open("/nonexistent-dir/x/y.jsonl"),
               util::InputError);
}

}  // namespace
}  // namespace ethshard::core
