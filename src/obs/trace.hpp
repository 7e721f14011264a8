// Hierarchical trace spans for the simulation engine.
//
// A ScopedSpan marks one timed region; spans opened while another span is
// live on the same thread nest under it, and the recorded name is the
// '/'-joined path from the outermost span down ("simulate/mlkp/coarsen").
// Completed spans land in a process-wide TraceBuffer exportable as a
// Chrome trace-event JSON file (load at chrome://tracing or in Perfetto).
//
// Tracing has its own runtime switch (trace_enabled), independent of the
// metrics switch: metrics are cheap aggregates, traces grow with every
// span, so they stay off unless a sink was requested.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ethshard::obs {

/// Runtime master switch for span recording (default off).
bool trace_enabled();
void set_trace_enabled(bool on);

/// One completed span. Times are milliseconds since the process's trace
/// epoch (the first clock query made by this module).
struct SpanRecord {
  std::string path;
  double start_ms = 0;
  double duration_ms = 0;
  /// Small per-thread ordinal (0, 1, ...), stable within the process.
  std::uint32_t thread = 0;
  /// Nesting depth at record time (0 = outermost).
  std::uint32_t depth = 0;
};

/// Everything the buffer holds, copied atomically: spans, the
/// thread-ordinal -> lane-name map, and the drop count (nonzero means the
/// exported trace is a truncated prefix, not the full run).
struct TraceSnapshot {
  std::vector<SpanRecord> spans;
  std::map<std::uint32_t, std::string> lanes;
  std::uint64_t dropped_spans = 0;
};

/// Process-wide store of completed spans. Growth is bounded: once
/// max_spans() spans are buffered, further records are dropped and
/// counted (a multi-hour --trace-out run degrades to a truncated trace
/// instead of exhausting memory silently). The drop counter is surfaced
/// in metrics exports as the "trace/dropped_spans" counter.
class TraceBuffer {
 public:
  /// ~1M spans ≈ 100 MB of paths/records — ample for any figure run.
  static constexpr std::size_t kDefaultMaxSpans = 1 << 20;

  static TraceBuffer& global();

  void record(SpanRecord span);
  /// Names the timeline lane for a thread ordinal ("pool-worker-1").
  /// Last writer wins; unnamed lanes export as bare thread numbers.
  void set_thread_lane(std::uint32_t ordinal, std::string name);

  /// Copy of every span recorded so far, in completion order.
  std::vector<SpanRecord> snapshot() const;
  /// Spans + lane names + drop count in one consistent copy.
  TraceSnapshot trace_snapshot() const;
  /// Drops buffered spans/lanes and resets the drop counter.
  void clear();
  std::size_t size() const;

  /// Buffered-span cap; 0 means unlimited.
  void set_max_spans(std::size_t cap);
  std::size_t max_spans() const;
  /// Spans rejected because the buffer was full (since the last clear).
  std::uint64_t dropped() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::uint32_t, std::string> lanes_;
  std::size_t max_spans_ = kDefaultMaxSpans;
  std::uint64_t dropped_ = 0;
};

/// RAII span. `name` must outlive the span (string literals in practice).
/// Construction is a no-op when tracing is disabled; the enable check is
/// latched at construction so a span never records a half-timed interval.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  double start_ms_ = 0;
};

/// Milliseconds since the trace epoch (steady clock).
double trace_now_ms();

/// This thread's small stable ordinal — the "tid" every span it records
/// carries, and the key set_thread_lane names.
std::uint32_t current_thread_ordinal();

/// Names the calling thread's timeline lane in the global buffer. No-op
/// when tracing is disabled. `name` is copied.
void set_current_thread_lane(const char* name);

}  // namespace ethshard::obs
