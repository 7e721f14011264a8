#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace ethshard::obs {

namespace {

/// Metric names are code-controlled, but escape defensively so the output
/// is always valid JSON.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

void write_metrics_json(std::ostream& out,
                        const MetricsSnapshot& snapshot) {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snapshot.counters) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << v;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snapshot.gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << json_double(v);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"timers\": {";
  first = true;
  for (const auto& [name, t] : snapshot.timers) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"count\": " << t.count
        << ", \"total_ms\": " << json_double(t.total_ms)
        << ", \"mean_ms\": " << json_double(t.mean_ms())
        << ", \"min_ms\": " << json_double(t.min_ms)
        << ", \"max_ms\": " << json_double(t.max_ms)
        << ", \"p50_ms\": " << json_double(t.quantile_ms(0.50))
        << ", \"p90_ms\": " << json_double(t.quantile_ms(0.90))
        << ", \"p99_ms\": " << json_double(t.quantile_ms(0.99)) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"count\": " << h.count()
        << ", \"sum\": " << json_double(h.sum())
        << ", \"mean\": " << json_double(h.mean())
        << ", \"min\": " << json_double(h.min())
        << ", \"max\": " << json_double(h.max())
        << ", \"p50\": " << json_double(h.quantile(0.50))
        << ", \"p90\": " << json_double(h.quantile(0.90))
        << ", \"p99\": " << json_double(h.quantile(0.99)) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void write_metrics_csv(std::ostream& out,
                       const MetricsSnapshot& snapshot) {
  util::CsvWriter csv(out);
  csv.write_row({"kind", "name", "count", "value", "min", "max", "p50",
                 "p90", "p99"});
  for (const auto& [name, v] : snapshot.counters) {
    csv.field("counter").field(name).field(v).field(std::uint64_t{0});
    csv.field(0.0).field(0.0).field(0.0).field(0.0).field(0.0);
    csv.end_row();
  }
  for (const auto& [name, v] : snapshot.gauges) {
    csv.field("gauge").field(name).field(std::uint64_t{0}).field(v);
    csv.field(0.0).field(0.0).field(0.0).field(0.0).field(0.0);
    csv.end_row();
  }
  for (const auto& [name, t] : snapshot.timers) {
    csv.field("timer").field(name).field(t.count).field(t.total_ms);
    csv.field(t.min_ms).field(t.max_ms);
    csv.field(t.quantile_ms(0.50)).field(t.quantile_ms(0.90));
    csv.field(t.quantile_ms(0.99));
    csv.end_row();
  }
  for (const auto& [name, h] : snapshot.histograms) {
    csv.field("histogram").field(name).field(h.count()).field(h.sum());
    csv.field(h.min()).field(h.max());
    csv.field(h.quantile(0.50)).field(h.quantile(0.90));
    csv.field(h.quantile(0.99));
    csv.end_row();
  }
}

void write_trace_json(std::ostream& out,
                      const std::vector<SpanRecord>& spans) {
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n") << "  {\"name\": \""
        << json_escape(s.path) << "\", \"ph\": \"X\", \"ts\": "
        << json_double(s.start_ms * 1000.0)
        << ", \"dur\": " << json_double(s.duration_ms * 1000.0)
        << ", \"pid\": 0, \"tid\": " << s.thread << "}";
    first = false;
  }
  out << (first ? "" : "\n") << "]}\n";
}

void write_trace_json(std::ostream& out, const TraceSnapshot& snapshot) {
  // Render every timed event up front, then emit in timestamp order:
  // Perfetto doesn't require sorted input, but sorted output makes the
  // file scannable by line-oriented tools (and testable for monotonic
  // timestamps).
  struct Rendered {
    double ts_ms;
    std::string json;
  };
  std::vector<Rendered> events;
  events.reserve(snapshot.spans.size() + 1);

  for (const SpanRecord& s : snapshot.spans) {
    std::string json = "  {\"name\": \"" + json_escape(s.path) +
                       "\", \"ph\": \"X\", \"ts\": " +
                       json_double(s.start_ms * 1000.0) +
                       ", \"dur\": " + json_double(s.duration_ms * 1000.0) +
                       ", \"pid\": 0, \"tid\": " + std::to_string(s.thread) +
                       "}";
    events.push_back({s.start_ms, std::move(json)});
  }
  if (snapshot.dropped_spans > 0) {
    // A global instant at the end of the timeline flags the truncation
    // right in the viewer, mirroring the trace/dropped_spans counter.
    double end_ms = 0;
    for (const SpanRecord& s : snapshot.spans)
      end_ms = std::max(end_ms, s.start_ms + s.duration_ms);
    std::string json =
        "  {\"name\": \"trace_truncated\", \"ph\": \"i\", \"ts\": " +
        json_double(end_ms * 1000.0) +
        ", \"s\": \"g\", \"pid\": 0, \"tid\": 0, "
        "\"args\": {\"dropped_spans\": " +
        std::to_string(snapshot.dropped_spans) + "}}";
    events.push_back({end_ms, std::move(json)});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Rendered& a, const Rendered& b) {
                     return a.ts_ms < b.ts_ms;
                   });

  out << "{\"traceEvents\": [";
  bool first = true;
  out << (first ? "\n" : ",\n")
      << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
         "\"args\": {\"name\": \"ethshard\"}}";
  first = false;
  for (const auto& [ordinal, lane] : snapshot.lanes) {
    out << ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"tid\": "
        << ordinal << ", \"args\": {\"name\": \"" << json_escape(lane)
        << "\"}}";
  }
  for (const Rendered& e : events) out << ",\n" << e.json;
  out << "\n]}\n";
}

void write_metrics_json_file(const std::string& path,
                             const MetricsSnapshot& snapshot) {
  std::ofstream out(path);
  ETHSHARD_INPUT_CHECK(out.good(), "cannot open " << path);
  write_metrics_json(out, snapshot);
}

void write_metrics_csv_file(const std::string& path,
                            const MetricsSnapshot& snapshot) {
  std::ofstream out(path);
  ETHSHARD_INPUT_CHECK(out.good(), "cannot open " << path);
  write_metrics_csv(out, snapshot);
}

void write_trace_json_file(const std::string& path,
                           const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  ETHSHARD_INPUT_CHECK(out.good(), "cannot open " << path);
  write_trace_json(out, spans);
}

void write_trace_json_file(const std::string& path,
                           const TraceSnapshot& snapshot) {
  std::ofstream out(path);
  ETHSHARD_INPUT_CHECK(out.good(), "cannot open " << path);
  write_trace_json(out, snapshot);
}

}  // namespace ethshard::obs
