// Serialization of observability data for external tooling.
//
// Metrics export as a single JSON object (or a flat CSV) that loads
// directly into pandas / jq; traces export in the Chrome trace-event
// format, viewable at chrome://tracing or in Perfetto.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ethshard::obs {

/// {"counters": {...}, "gauges": {...}, "timers": {name: {count,
/// total_ms, mean_ms, min_ms, max_ms, p50_ms, p90_ms, p99_ms}, ...},
/// "histograms": {name: {count, sum, mean, min, max, p50, p90, p99},
/// ...}}. Keys inside each section are emitted in sorted order (the
/// snapshot maps are ordered), so exports diff cleanly run to run.
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot);

/// Flat rows: kind,name,count,value_or_total,min,max,p50,p90,p99.
void write_metrics_csv(std::ostream& out, const MetricsSnapshot& snapshot);

/// Chrome trace-event JSON: {"traceEvents": [{"name", "ph": "X", "ts",
/// "dur", "pid", "tid"}, ...]} with microsecond timestamps.
void write_trace_json(std::ostream& out,
                      const std::vector<SpanRecord>& spans);

/// Full-fidelity Chrome trace: "M" thread_name metadata rows name the
/// lanes (pool workers), "X" duration events carry the spans, and a
/// global "i" instant marks truncation when spans were dropped. Events
/// are emitted one per line, sorted by timestamp (metadata first), so
/// downstream line scanners stay simple.
void write_trace_json(std::ostream& out, const TraceSnapshot& snapshot);

/// File conveniences; throw util::InputError if the file cannot open.
void write_metrics_json_file(const std::string& path,
                             const MetricsSnapshot& snapshot);
void write_metrics_csv_file(const std::string& path,
                            const MetricsSnapshot& snapshot);
void write_trace_json_file(const std::string& path,
                           const std::vector<SpanRecord>& spans);
void write_trace_json_file(const std::string& path,
                           const TraceSnapshot& snapshot);

}  // namespace ethshard::obs
