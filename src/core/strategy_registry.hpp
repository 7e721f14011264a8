// String-addressable strategy construction: an open registry that
// resolves specs like
//
//   "r-metis"
//   "tr-metis:cut_floor=0.25,min_gap_days=2"
//   "kl:rounds=8,probabilistic=true,seed=42"
//
// to configured ShardingStrategy instances. New strategies plug in with
// StrategyRegistry::global().add(...) — no edit to the closed Method enum
// required. Names are case-insensitive; the paper's figure labels
// ("Hashing", "R-METIS", and the Fig. 4/5 alias "P-METIS") all resolve.
//
// Grammar:   spec     := name [":" param ("," param)*]
//            param    := key "=" value
// Unknown names, unknown keys, duplicate keys and unparsable values are
// rejected with a util::InputError naming the offending token.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/strategy.hpp"

namespace ethshard::core {

/// A parsed strategy spec: the (normalized, lowercase) strategy name and
/// its key=value parameters in spec order.
struct StrategySpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
};

/// Splits a spec string. Throws util::InputError on a malformed token
/// (missing '=', empty key, duplicate key), naming it.
StrategySpec parse_strategy_spec(std::string_view spec);

/// Typed, consumption-tracked access to a spec's parameters. Factories
/// read each key they support through one of the getters; finish() then
/// rejects any key that was never read — so a typo like "cut_flor" fails
/// with a message naming it rather than being silently ignored.
class SpecReader {
 public:
  /// `default_seed` seeds randomized strategy components unless the spec
  /// carries an explicit "seed" key.
  SpecReader(const StrategySpec& spec, std::uint64_t default_seed);

  const std::string& name() const { return spec_.name; }
  std::uint64_t seed() const { return seed_; }

  /// Getters return `fallback` when the key is absent and throw
  /// util::InputError (naming the key) when the value does not parse.
  std::string get_string(const std::string& key, const std::string& fallback);
  double get_double(const std::string& key, double fallback);
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback);
  int get_int(const std::string& key, int fallback);
  bool get_bool(const std::string& key, bool fallback);

  /// Throws util::InputError naming the first never-read key, if any.
  void finish() const;

 private:
  const std::string* raw(const std::string& key);

  const StrategySpec& spec_;
  std::uint64_t seed_;
  std::set<std::string> consumed_;
};

/// A configured strategy.
struct StrategyBuild {
  std::unique_ptr<ShardingStrategy> strategy;
  /// Nothing reads this; dropped with its read in perfbench/replay_bench.cpp.
  std::size_t replay_threads = 0;
  /// Nothing reads this; dropped with its read in perfbench/replay_bench.cpp.
  std::size_t queue_capacity = 0;
  /// Nothing reads this; dropped with its read in perfbench/replay_bench.cpp.
  std::size_t aggregation_shards = 0;
};

/// Open factory registry mapping names (plus aliases) to strategy
/// builders. global() comes pre-loaded with the paper's five methods and
/// DSM; user code may add its own before parsing CLI flags.
class StrategyRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<ShardingStrategy>(SpecReader&)>;

  /// Registers `factory` under `canonical` and each alias (all matched
  /// case-insensitively). Re-registering a taken name throws.
  void add(const std::string& canonical,
           const std::vector<std::string>& aliases, Factory factory);

  /// Builds a configured strategy from a spec string. Throws
  /// util::InputError on an unknown name (listing the known ones) or a
  /// malformed/unknown parameter (naming the key).
  std::unique_ptr<ShardingStrategy> make(std::string_view spec,
                                         std::uint64_t default_seed = 1) const;

  /// Like make(), additionally returning the simulator-level settings
  /// the spec carried (see StrategyBuild). make() delegates here and
  /// discards them, so both entry points accept the same spec grammar.
  /// Nothing reads default_threads; dropped with its argument in perfbench/.
  StrategyBuild make_build(std::string_view spec,
                           std::uint64_t default_seed = 1,
                           std::size_t default_threads = 1) const;

  bool contains(std::string_view name) const;

  /// Canonical names, sorted (aliases excluded).
  std::vector<std::string> names() const;

  /// Process-wide registry with the built-ins pre-registered.
  static StrategyRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;  // canonical + aliases
  std::vector<std::string> canonical_;
};

}  // namespace ethshard::core
