// Streaming per-window telemetry for the simulator.
//
// The paper's whole evaluation is a per-window time series; the
// end-of-run SimulationResult only materializes it after the fact. A
// TelemetrySink makes the same series observable *while* a long replay
// runs: the simulator emits one JSON object per evaluation window
// (JSONL, flushed per line), so a multi-hour run can be tailed
// (`tail -f`) and post-processed (`jq`, pandas) without waiting for the
// run to finish — and a crashed run still leaves every completed window
// on disk.
//
// Schema (one line per window flush, keys in fixed order):
//   {"v": 1, "seq": N, "window_start": s, "window_end": s,
//    "interactions": N, "recorded": bool, "dynamic_edge_cut": f,
//    "dynamic_balance": f, "static_edge_cut": f, "static_balance": f,
//    "window_wall_ms": f, "repartition": bool, "partitioner_ms": f,
//    "moves": N, "moved_state_units": N, "rss_mb": f, "peak_rss_mb": f}
// "recorded" says whether the window had traffic — false marks a window
// that produced no WindowSample. "v" is the
// schema version; consumers should ignore unknown keys (rss_mb and
// peak_rss_mb were appended by the streaming BlockSource work — the
// resident set at flush time and the process high-water mark, both 0
// where /proc is unavailable).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

namespace ethshard::core {

/// One evaluation window's record, filled by the simulator.
struct WindowTelemetry {
  std::uint64_t window_start = 0;
  /// Exclusive end. window_end - window_start == metric_window for every
  /// window except the run's final partial one, whose end is clamped to
  /// one past the last block timestamp.
  std::uint64_t window_end = 0;
  std::uint64_t interactions = 0;
  /// False for a window with no traffic (it produced no WindowSample).
  bool recorded = true;
  double dynamic_edge_cut = 0;
  double dynamic_balance = 1;
  double static_edge_cut = 0;
  double static_balance = 1;
  /// Wall-clock time spent replaying this window's transactions (the
  /// span from the end of the previous flush — after any repartition it
  /// ran — to the start of this one). Repartition cost is never included
  /// here; it is reported separately as partitioner_ms on the window
  /// whose boundary triggered it.
  double window_wall_ms = 0;
  /// Whether the strategy repartitioned at this window boundary.
  bool repartition = false;
  /// Wall-clock cost of compute_partition when repartition fired.
  double partitioner_ms = 0;
  std::uint64_t moves = 0;
  std::uint64_t moved_state_units = 0;
  /// Resident set at flush time and the process peak so far, in MiB
  /// (util/mem.hpp; 0 when the platform offers no probe). The per-window
  /// resident series is what shows streaming replay holding a flat
  /// footprint where materialized replay's baseline grows with history.
  double rss_mb = 0;
  double peak_rss_mb = 0;
};

/// In-process consumer of the per-window telemetry stream. Where
/// TelemetrySink serializes records to JSONL for external tools, a
/// TelemetryConsumer sees the same WindowTelemetry structs live, in
/// window order, on the replay thread — the hook the scenario invariants
/// harness (src/scenario) evaluates against without ever materializing
/// the window history. Attach through SimulatorConfig::consumers; a run
/// with any consumer attached flushes every window, quiet ones included.
/// Implementations must not block: on_window sits on the replay path.
class TelemetryConsumer {
 public:
  virtual ~TelemetryConsumer() = default;
  virtual void on_window(const WindowTelemetry& w) = 0;
};

/// Append-only JSONL writer. Thread-safe (a mutex per write); each line
/// is flushed so external tails see windows as they complete. Doubles as
/// a TelemetryConsumer so sinks and in-process evaluators compose
/// through one interface.
class TelemetrySink : public TelemetryConsumer {
 public:
  /// Streams to `out`, which must outlive the sink.
  explicit TelemetrySink(std::ostream& out);
  /// Opens `path` for writing (truncates); throws util::InputError if
  /// the file cannot open.
  static std::unique_ptr<TelemetrySink> open(const std::string& path);

  /// Writes one JSONL record; assigns the next sequence number.
  void write_window(const WindowTelemetry& w);
  void on_window(const WindowTelemetry& w) override { write_window(w); }

  std::uint64_t records_written() const;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_;
  mutable std::mutex mu_;
  std::uint64_t seq_ = 0;
};

}  // namespace ethshard::core
