#include "obs/trace.hpp"

#include <atomic>
#include <chrono>

#include "obs/registry.hpp"

namespace ethshard::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<std::uint32_t> g_next_thread_ordinal{0};

std::uint32_t thread_ordinal() {
  thread_local const std::uint32_t ordinal =
      g_next_thread_ordinal.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// Per-thread stack of open span names, for path construction.
std::vector<const char*>& span_stack() {
  thread_local std::vector<const char*> stack;
  return stack;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

bool trace_enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
  // Tracing names pool-worker lanes through the same parallel-runtime
  // hook table metrics use; keep its installation in sync.
  internal::refresh_parallel_hooks();
}

double trace_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

TraceBuffer& TraceBuffer::global() {
  // Leaked so spans may complete during static teardown.
  static TraceBuffer* instance = new TraceBuffer();
  return *instance;
}

void TraceBuffer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (max_spans_ != 0 && spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

void TraceBuffer::set_thread_lane(std::uint32_t ordinal, std::string name) {
  const std::lock_guard<std::mutex> lock(mu_);
  lanes_[ordinal] = std::move(name);
}

std::vector<SpanRecord> TraceBuffer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

TraceSnapshot TraceBuffer::trace_snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  TraceSnapshot snap;
  snap.spans = spans_;
  snap.lanes = lanes_;
  snap.dropped_spans = dropped_;
  return snap;
}

void TraceBuffer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  lanes_.clear();
  dropped_ = 0;
}

std::size_t TraceBuffer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void TraceBuffer::set_max_spans(std::size_t cap) {
  const std::lock_guard<std::mutex> lock(mu_);
  max_spans_ = cap;
}

std::size_t TraceBuffer::max_spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return max_spans_;
}

std::uint64_t TraceBuffer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint32_t current_thread_ordinal() { return thread_ordinal(); }

void set_current_thread_lane(const char* name) {
  if (!trace_enabled()) return;
  TraceBuffer::global().set_thread_lane(thread_ordinal(), name);
}

ScopedSpan::ScopedSpan(const char* name) : active_(trace_enabled()) {
  if (!active_) return;
  span_stack().push_back(name);
  start_ms_ = trace_now_ms();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const double end_ms = trace_now_ms();
  std::vector<const char*>& stack = span_stack();

  SpanRecord span;
  span.path.reserve(32);
  for (std::size_t i = 0; i < stack.size(); ++i) {
    if (i > 0) span.path += '/';
    span.path += stack[i];
  }
  span.start_ms = start_ms_;
  span.duration_ms = end_ms - start_ms_;
  span.thread = thread_ordinal();
  span.depth = static_cast<std::uint32_t>(stack.size() - 1);
  stack.pop_back();

  TraceBuffer::global().record(std::move(span));
}

}  // namespace ethshard::obs
