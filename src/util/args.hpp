// Minimal command-line flag parsing for the CLI tool and benches.
//
// Supports "--name value" and "--name=value" long flags plus positional
// arguments, typed accessors with defaults, and unknown-flag detection.
// Deliberately tiny — no external dependency.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ethshard::util {

class ArgParser {
 public:
  /// Parses argv (excluding argv[0]). A "--name" with no value (last, or
  /// followed by another flag) is a boolean switch.
  ArgParser(int argc, const char* const* argv);

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const;

  /// Typed accessors; return `fallback` when the flag is absent. Throw
  /// InputError when present but unparsable.
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  std::uint64_t get_uint(const std::string& name,
                         std::uint64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// "--flag" with no value, "--flag true|false|1|0".
  bool get_bool(const std::string& name, bool fallback) const;

  /// Flags that were parsed but never queried — typo detection for mains
  /// that call this after reading everything they support.
  std::vector<std::string> unused() const;

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace ethshard::util
