#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace {

using namespace ethshard;

// Tests toggle the process-wide flags; restore them no matter how the
// test exits.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    obs::TraceBuffer::global().clear();
    obs::TraceBuffer::global().set_max_spans(
        obs::TraceBuffer::kDefaultMaxSpans);
  }
};

TEST_F(ObsTest, DisabledByDefault) {
  EXPECT_FALSE(obs::enabled());
  obs::Registry reg;
  const obs::ScopedRegistry scope(reg);
  ETHSHARD_OBS_COUNT("c", 1);
  ETHSHARD_OBS_GAUGE("g", 2.0);
  ETHSHARD_OBS_RECORD_MS("t", 3.0);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST_F(ObsTest, CountersGaugesTimers) {
  obs::Registry reg;
  reg.add_counter("calls", 2);
  reg.add_counter("calls", 3);
  reg.set_gauge("temp", 1.5);
  reg.set_gauge("temp", 2.5);  // gauges keep the last value
  reg.record_ms("step", 4.0);
  reg.record_ms("step", 2.0);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("calls"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("temp"), 2.5);
  const obs::TimerStat& t = snap.timers.at("step");
  EXPECT_EQ(t.count, 2u);
  EXPECT_DOUBLE_EQ(t.total_ms, 6.0);
  EXPECT_DOUBLE_EQ(t.mean_ms(), 3.0);
  EXPECT_DOUBLE_EQ(t.min_ms, 2.0);
  EXPECT_DOUBLE_EQ(t.max_ms, 4.0);
}

TEST_F(ObsTest, MergesAcrossThreads) {
  obs::Registry reg;
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i)
    workers.emplace_back([&reg] {
      for (int j = 0; j < 100; ++j) reg.add_counter("n", 1);
      reg.record_ms("work", 1.0);
    });
  for (std::thread& w : workers) w.join();

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("n"), 400u);
  EXPECT_EQ(snap.timers.at("work").count, 4u);
}

TEST_F(ObsTest, RegistryIdsAreNotReused) {
  // A thread's cached sink for a destroyed registry must never serve a
  // later registry that happens to live at the same address.
  obs::MetricsSnapshot first;
  {
    obs::Registry reg;
    reg.add_counter("a", 1);
    first = reg.snapshot();
  }
  obs::Registry reg2;
  reg2.add_counter("b", 7);
  const obs::MetricsSnapshot snap = reg2.snapshot();
  EXPECT_EQ(first.counters.at("a"), 1u);
  EXPECT_EQ(snap.counters.count("a"), 0u);
  EXPECT_EQ(snap.counters.at("b"), 7u);
}

TEST_F(ObsTest, ScopedRegistryRedirectsAndRestores) {
  obs::set_enabled(true);
  obs::Registry outer;
  obs::Registry inner;
  const obs::ScopedRegistry outer_scope(outer);
  {
    const obs::ScopedRegistry inner_scope(inner);
    ETHSHARD_OBS_COUNT("x", 1);
  }
  ETHSHARD_OBS_COUNT("y", 1);
  EXPECT_EQ(inner.snapshot().counters.at("x"), 1u);
  EXPECT_EQ(outer.snapshot().counters.count("x"), 0u);
  EXPECT_EQ(outer.snapshot().counters.at("y"), 1u);
}

TEST_F(ObsTest, AbsorbFoldsChildSnapshots) {
  obs::Registry parent;
  obs::Registry child;
  parent.add_counter("n", 1);
  child.add_counter("n", 2);
  child.record_ms("t", 5.0);
  parent.absorb(child.snapshot());
  const obs::MetricsSnapshot snap = parent.snapshot();
  EXPECT_EQ(snap.counters.at("n"), 3u);
  EXPECT_EQ(snap.timers.at("t").count, 1u);
}

TEST_F(ObsTest, ScopedTimerRecordsWhenEnabled) {
  obs::set_enabled(true);
  obs::Registry reg;
  const obs::ScopedRegistry scope(reg);
  {
    ETHSHARD_OBS_TIMER("timed");
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.timers.count("timed"), 1u);
  EXPECT_EQ(snap.timers.at("timed").count, 1u);
  EXPECT_GE(snap.timers.at("timed").total_ms, 0.0);
}

TEST_F(ObsTest, SpansNestIntoPaths) {
  obs::set_trace_enabled(true);
  {
    obs::ScopedSpan outer("outer");
    { obs::ScopedSpan inner("inner"); }
  }
  const std::vector<obs::SpanRecord> spans =
      obs::TraceBuffer::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first.
  EXPECT_EQ(spans[0].path, "outer/inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].path, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
}

TEST_F(ObsTest, SpansOffByDefault) {
  { obs::ScopedSpan s("nope"); }
  EXPECT_EQ(obs::TraceBuffer::global().size(), 0u);
}

TEST_F(ObsTest, MetricsJsonRoundTrips) {
  obs::Registry reg;
  reg.add_counter("a/b", 2);
  reg.set_gauge("g", 0.5);
  reg.record_ms("t", 1.25);
  std::ostringstream os;
  obs::write_metrics_json(os, reg.snapshot());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"a/b\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST_F(ObsTest, MetricsCsvHasOneRowPerEntry) {
  obs::Registry reg;
  reg.add_counter("c", 1);
  reg.set_gauge("g", 2.0);
  reg.record_ms("t", 3.0);
  std::ostringstream os;
  obs::write_metrics_csv(os, reg.snapshot());
  const std::string csv = os.str();
  int lines = 0;
  for (char ch : csv)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 4);  // header + 3 rows
  EXPECT_NE(csv.find("counter,c,"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,"), std::string::npos);
  EXPECT_NE(csv.find("timer,t,"), std::string::npos);
}

TEST_F(ObsTest, TraceJsonIsChromeShaped) {
  obs::set_trace_enabled(true);
  { obs::ScopedSpan s("phase"); }
  std::ostringstream os;
  obs::write_trace_json(os, obs::TraceBuffer::global().snapshot());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

// -------------------------------------------------------------- histogram

TEST_F(ObsTest, HistogramEmpty) {
  obs::Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST_F(ObsTest, HistogramSingleValue) {
  obs::Histogram h;
  h.record(5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  // Every quantile of a single sample is that sample (midpoints clamp).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST_F(ObsTest, HistogramQuantilesWithinRelativeError) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);    // exact: tracked min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0); // exact: tracked max
  // 8 sub-buckets per octave → ≈9% relative error; allow 12% slack.
  EXPECT_NEAR(h.quantile(0.5), 500.0, 60.0);
  EXPECT_NEAR(h.quantile(0.9), 900.0, 110.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 120.0);
}

TEST_F(ObsTest, HistogramNonPositiveValuesLandInUnderflowBucket) {
  obs::Histogram h;
  h.record(0.0);
  h.record(-3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  // The underflow bucket reports the tracked minimum.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), -3.0);
}

TEST_F(ObsTest, HistogramMergeMatchesCombinedRecording) {
  obs::Histogram a;
  obs::Histogram b;
  obs::Histogram combined;
  for (int i = 1; i <= 500; ++i) {
    a.record(static_cast<double>(i));
    combined.record(static_cast<double>(i));
  }
  for (int i = 501; i <= 1000; ++i) {
    b.record(static_cast<double>(i));
    combined.record(static_cast<double>(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q)) << "q=" << q;
}

TEST_F(ObsTest, HistogramMergeIntoEmptyCopies) {
  obs::Histogram a;
  obs::Histogram b;
  b.record(2.0);
  b.record(8.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
  a.merge(obs::Histogram());  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count(), 2u);
}

TEST_F(ObsTest, RegistryHistogramsMergeAcrossThreadShards) {
  obs::Registry reg;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&reg, t] {
      for (int i = 0; i < 250; ++i)
        reg.record_hist("depth", static_cast<double>(t * 250 + i + 1));
    });
  for (std::thread& w : workers) w.join();

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.count("depth"), 1u);
  const obs::Histogram& h = snap.histograms.at("depth");
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.quantile(0.5), 500.0, 60.0);
}

TEST_F(ObsTest, TimerQuantilesTrackRecordedDurations) {
  obs::Registry reg;
  for (int i = 1; i <= 100; ++i)
    reg.record_ms("step", static_cast<double>(i));
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::TimerStat& t = snap.timers.at("step");
  EXPECT_EQ(t.count, 100u);
  EXPECT_NEAR(t.quantile_ms(0.5), 50.0, 6.0);
  EXPECT_NEAR(t.quantile_ms(0.99), 99.0, 12.0);
  EXPECT_DOUBLE_EQ(t.quantile_ms(1.0), 100.0);
}

TEST_F(ObsTest, HistMacroRespectsMasterSwitch) {
  obs::Registry reg;
  const obs::ScopedRegistry scope(reg);
  ETHSHARD_OBS_HIST("h", 1.0);  // disabled: no-op
  EXPECT_TRUE(reg.snapshot().empty());
  obs::set_enabled(true);
  ETHSHARD_OBS_HIST("h", 4.0);
  ETHSHARD_OBS_HIST("h", 6.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.count("h"), 1u);
  EXPECT_EQ(snap.histograms.at("h").count(), 2u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("h").mean(), 5.0);
}

// ----------------------------------------------------------------- export

TEST_F(ObsTest, MetricsJsonIncludesTimerPercentilesAndHistograms) {
  obs::Registry reg;
  for (int i = 1; i <= 10; ++i) reg.record_ms("t", static_cast<double>(i));
  reg.record_hist("h", 7.0);
  std::ostringstream os;
  obs::write_metrics_json(os, reg.snapshot());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p90_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST_F(ObsTest, MetricsCsvIncludesHistogramRows) {
  obs::Registry reg;
  reg.add_counter("c", 1);
  reg.record_hist("h", 3.0);
  std::ostringstream os;
  obs::write_metrics_csv(os, reg.snapshot());
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("kind,name,count,value,min,max,p50,p90,p99\n", 0),
            0u);
  EXPECT_NE(csv.find("histogram,h,"), std::string::npos);
}

TEST_F(ObsTest, MetricsJsonKeysAreSorted) {
  // std::map-backed snapshots give deterministic, sorted exports — pinned
  // here so JSON diffs between runs stay stable.
  obs::Registry reg;
  reg.add_counter("zulu", 1);
  reg.add_counter("alpha", 1);
  reg.add_counter("mike", 1);
  std::ostringstream os;
  obs::write_metrics_json(os, reg.snapshot());
  const std::string json = os.str();
  const std::size_t a = json.find("\"alpha\"");
  const std::size_t m = json.find("\"mike\"");
  const std::size_t z = json.find("\"zulu\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

// -------------------------------------------------------- trace span cap

TEST_F(ObsTest, TraceBufferCapDropsAndCounts) {
  obs::set_trace_enabled(true);
  obs::TraceBuffer::global().set_max_spans(2);
  for (int i = 0; i < 5; ++i) {
    obs::ScopedSpan s("s");
  }
  EXPECT_EQ(obs::TraceBuffer::global().size(), 2u);
  EXPECT_EQ(obs::TraceBuffer::global().dropped(), 3u);
  obs::TraceBuffer::global().clear();
  EXPECT_EQ(obs::TraceBuffer::global().size(), 0u);
  EXPECT_EQ(obs::TraceBuffer::global().dropped(), 0u);
}

TEST_F(ObsTest, TraceBufferUnlimitedWhenCapIsZero) {
  obs::set_trace_enabled(true);
  obs::TraceBuffer::global().set_max_spans(0);
  for (int i = 0; i < 100; ++i) {
    obs::ScopedSpan s("s");
  }
  EXPECT_EQ(obs::TraceBuffer::global().size(), 100u);
  EXPECT_EQ(obs::TraceBuffer::global().dropped(), 0u);
}

// ------------------------------------------------- multithreaded tracing

TEST_F(ObsTest, WorkerThreadSpansKeepOrdinalsAndPaths) {
  obs::set_trace_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      // Two regions per thread: the ordinal must be identical for both.
      {
        obs::ScopedSpan outer("outer");
        obs::ScopedSpan inner("inner");
      }
      obs::ScopedSpan again("again");
    });
  for (std::thread& w : workers) w.join();

  const std::vector<obs::SpanRecord> spans =
      obs::TraceBuffer::global().snapshot();
  ASSERT_EQ(spans.size(), 3u * kThreads);

  std::set<std::uint32_t> ordinals;
  for (const obs::SpanRecord& s : spans) ordinals.insert(s.thread);
  EXPECT_EQ(ordinals.size(), static_cast<std::size_t>(kThreads));

  for (std::uint32_t tid : ordinals) {
    std::vector<std::string> paths;
    for (const obs::SpanRecord& s : spans)
      if (s.thread == tid) paths.push_back(s.path);
    // Completion order per thread: inner, outer, again.
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_EQ(paths[0], "outer/inner");
    EXPECT_EQ(paths[1], "outer");
    EXPECT_EQ(paths[2], "again");
  }
}

TEST_F(ObsTest, PoolWorkerSpansNestUnderTheirOwnThread) {
  obs::set_trace_enabled(true);
  // parallel_for workers are fresh threads; each task's spans must carry
  // that worker's ordinal and nest only within the worker's own stack.
  util::parallel_for(
      8,
      [](std::size_t) {
        obs::ScopedSpan task("task");
        obs::ScopedSpan step("step");
      },
      /*threads=*/4);

  const std::vector<obs::SpanRecord> spans =
      obs::TraceBuffer::global().snapshot();
  ASSERT_EQ(spans.size(), 16u);
  for (const obs::SpanRecord& s : spans) {
    if (s.path == "task") {
      EXPECT_EQ(s.depth, 0u);
    } else {
      EXPECT_EQ(s.path, "task/step");
      EXPECT_EQ(s.depth, 1u);
    }
  }
  // Depth-1 spans exist: nesting happened on the workers, not the main
  // thread (the main thread opened no span here).
  const auto nested = std::count_if(
      spans.begin(), spans.end(),
      [](const obs::SpanRecord& s) { return s.depth == 1; });
  EXPECT_EQ(nested, 8);
}

// -------------------------------------------- trace snapshot + exporter

TEST_F(ObsTest, ThreadLanesLandInSnapshotAndExportAsThreadNames) {
  obs::set_trace_enabled(true);
  obs::set_current_thread_lane("replay");
  std::thread producer([] {
    obs::set_current_thread_lane("block source");
    const obs::ScopedSpan span("pull");
  });
  producer.join();
  { const obs::ScopedSpan span("apply"); }

  const obs::TraceSnapshot trace =
      obs::TraceBuffer::global().trace_snapshot();
  ASSERT_EQ(trace.spans.size(), 2u);
  ASSERT_EQ(trace.lanes.size(), 2u);
  // The two spans carry distinct thread ordinals, and each ordinal maps
  // to the lane named on that thread.
  const obs::SpanRecord* pull = nullptr;
  const obs::SpanRecord* apply = nullptr;
  for (const obs::SpanRecord& s : trace.spans)
    (s.path == "pull" ? pull : apply) = &s;
  ASSERT_NE(pull, nullptr);
  ASSERT_NE(apply, nullptr);
  EXPECT_NE(pull->thread, apply->thread);
  EXPECT_EQ(trace.lanes.at(pull->thread), "block source");
  EXPECT_EQ(trace.lanes.at(apply->thread), "replay");

  std::ostringstream os;
  obs::write_trace_json(os, trace);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"block source\""), std::string::npos);
  EXPECT_NE(json.find("\"replay\""), std::string::npos);
}

TEST_F(ObsTest, TraceJsonEventsAreTimestampSorted) {
  obs::TraceSnapshot trace;
  trace.spans.push_back({"late", 30.0, 1.0, 0, 0});
  trace.spans.push_back({"early", 1.0, 1.0, 0, 0});
  trace.spans.push_back({"mid", 10.0, 1.0, 0, 0});
  std::ostringstream os;
  obs::write_trace_json(os, trace);
  const std::string json = os.str();
  const std::size_t early = json.find("\"early\"");
  const std::size_t mid = json.find("\"mid\"");
  const std::size_t late = json.find("\"late\"");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, mid);
  EXPECT_LT(mid, late);
}

TEST_F(ObsTest, TruncatedTraceExportsInstantMarker) {
  obs::set_trace_enabled(true);
  obs::TraceBuffer::global().set_max_spans(2);
  for (int i = 0; i < 5; ++i) {
    const obs::ScopedSpan span("s");
  }
  const obs::TraceSnapshot trace =
      obs::TraceBuffer::global().trace_snapshot();
  EXPECT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.dropped_spans, 3u);

  std::ostringstream os;
  obs::write_trace_json(os, trace);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"trace_truncated\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": 3"), std::string::npos);
}

TEST_F(ObsTest, UntruncatedTraceHasNoMarker) {
  obs::TraceSnapshot trace;
  trace.spans.push_back({"s", 0.0, 1.0, 0, 0});
  std::ostringstream os;
  obs::write_trace_json(os, trace);
  EXPECT_EQ(os.str().find("trace_truncated"), std::string::npos);
}

}  // namespace
