#include "core/telemetry.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "util/check.hpp"

namespace ethshard::core {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

TelemetrySink::TelemetrySink(std::ostream& out) : out_(&out) {}

std::unique_ptr<TelemetrySink> TelemetrySink::open(
    const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path);
  ETHSHARD_INPUT_CHECK(file->good(), "cannot open " << path);
  auto sink = std::make_unique<TelemetrySink>(*file);
  sink->owned_ = std::move(file);
  return sink;
}

void TelemetrySink::write_window(const WindowTelemetry& w) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostream& out = *out_;
  out << "{\"v\": 1"
      << ", \"seq\": " << seq_
      << ", \"window_start\": " << w.window_start
      << ", \"window_end\": " << w.window_end
      << ", \"interactions\": " << w.interactions
      << ", \"recorded\": " << (w.recorded ? "true" : "false")
      << ", \"dynamic_edge_cut\": " << fmt_double(w.dynamic_edge_cut)
      << ", \"dynamic_balance\": " << fmt_double(w.dynamic_balance)
      << ", \"static_edge_cut\": " << fmt_double(w.static_edge_cut)
      << ", \"static_balance\": " << fmt_double(w.static_balance)
      << ", \"window_wall_ms\": " << fmt_double(w.window_wall_ms)
      << ", \"repartition\": " << (w.repartition ? "true" : "false")
      << ", \"partitioner_ms\": " << fmt_double(w.partitioner_ms)
      << ", \"moves\": " << w.moves
      << ", \"moved_state_units\": " << w.moved_state_units
      << ", \"rss_mb\": " << fmt_double(w.rss_mb)
      << ", \"peak_rss_mb\": " << fmt_double(w.peak_rss_mb) << "}\n";
  out.flush();  // one window per multi-hour interval: tail-ability > IO
  ++seq_;
}

std::uint64_t TelemetrySink::records_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

}  // namespace ethshard::core
