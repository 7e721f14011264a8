// Process resident-memory probes.
//
// The streaming BlockSource work makes memory a first-class measured
// quantity: per-window telemetry carries the resident set, the CLI can
// enforce a budget (--max-rss-mb), and the repository benchmark
// (perfbench/) records each replay's peak. These helpers read Linux
// /proc/self/status (VmRSS/VmHWM); on other platforms they degrade to
// 0 / best-effort getrusage, and callers treat 0 as "unavailable" rather
// than an error.
#pragma once

#include <cstdint>

namespace ethshard::util {

/// Current resident set size in bytes (VmRSS), 0 when unavailable.
std::uint64_t current_rss_bytes();

/// Peak resident set size in bytes (VmHWM — the high-water mark since
/// process start or the last reset_peak_rss()), 0 when unavailable.
std::uint64_t peak_rss_bytes();

/// Resets the kernel's peak-RSS high-water mark to the current resident
/// set (Linux: writes "5" to /proc/self/clear_refs), so successive
/// measurements bracket individual phases instead of reporting one
/// process-lifetime maximum. Returns false when unsupported.
bool reset_peak_rss();

}  // namespace ethshard::util
