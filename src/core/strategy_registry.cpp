#include "core/strategy_registry.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

#include "core/strategies.hpp"
#include "util/check.hpp"
#include "util/sim_time.hpp"

namespace ethshard::core {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return std::string(s.substr(b, e - b + 1));
}

/// Shared by the periodic strategies: repartition period in (fractional)
/// days, defaulting to the paper's two weeks.
util::Timestamp read_period(SpecReader& r) {
  const double days = r.get_double(
      "period_days",
      static_cast<double>(util::kRepartitionPeriod) / util::kDay);
  ETHSHARD_INPUT_CHECK(days > 0, "strategy '" + r.name() +
                                     "': period_days must be > 0");
  return static_cast<util::Timestamp>(days * util::kDay);
}

partition::MlkpConfig read_mlkp(SpecReader& r) {
  partition::MlkpConfig cfg;
  cfg.seed = r.seed();
  cfg.imbalance = r.get_double("imbalance", cfg.imbalance);
  cfg.coarsen_to = r.get_uint("coarsen_to", cfg.coarsen_to);
  cfg.init_tries = r.get_int("init_tries", cfg.init_tries);
  cfg.refine_passes = r.get_int("refine_passes", cfg.refine_passes);
  cfg.refine = r.get_bool("refine", cfg.refine);
  const std::string matching = r.get_string(
      "matching",
      cfg.matching == partition::MatchingScheme::kHeavyEdge ? "heavy-edge"
                                                            : "random");
  if (matching == "heavy-edge") {
    cfg.matching = partition::MatchingScheme::kHeavyEdge;
  } else if (matching == "random") {
    cfg.matching = partition::MatchingScheme::kRandom;
  } else {
    ETHSHARD_INPUT_CHECK(false, "strategy '" + r.name() +
                                    "': matching must be 'heavy-edge' or "
                                    "'random', got '" +
                                    matching + "'");
  }
  return cfg;
}

void register_builtins(StrategyRegistry& reg) {
  reg.add("hashing", {}, [](SpecReader& r) -> std::unique_ptr<ShardingStrategy> {
    return std::make_unique<HashStrategy>(r.seed());
  });

  reg.add("kl", {}, [](SpecReader& r) -> std::unique_ptr<ShardingStrategy> {
    const util::Timestamp period = read_period(r);
    partition::BlpConfig blp;
    blp.seed = r.seed();
    blp.rounds = r.get_int("rounds", blp.rounds);
    blp.rebalance = r.get_double("rebalance", blp.rebalance);
    blp.probabilistic = r.get_bool("probabilistic", blp.probabilistic);
    return std::make_unique<KlStrategy>(period, blp, r.seed());
  });

  reg.add("metis", {}, [](SpecReader& r) -> std::unique_ptr<ShardingStrategy> {
    const util::Timestamp period = read_period(r);
    return std::make_unique<FullGraphMlkpStrategy>(period, read_mlkp(r));
  });

  // "P-METIS" is what the paper's figures call the reduced/windowed
  // variant; the strategy itself reports "R-METIS" either way.
  reg.add("r-metis", {"p-metis"},
          [](SpecReader& r) -> std::unique_ptr<ShardingStrategy> {
            const util::Timestamp period = read_period(r);
            return std::make_unique<WindowMlkpStrategy>(period, read_mlkp(r));
          });

  reg.add("tr-metis", {},
          [](SpecReader& r) -> std::unique_ptr<ShardingStrategy> {
            TrMetisThresholds t;
            t.cut_floor = r.get_double("cut_floor", t.cut_floor);
            t.balance_floor = r.get_double("balance_floor", t.balance_floor);
            t.cut_margin = r.get_double("cut_margin", t.cut_margin);
            t.balance_margin =
                r.get_double("balance_margin", t.balance_margin);
            const double gap_days = r.get_double(
                "min_gap_days",
                static_cast<double>(t.min_gap) / util::kDay);
            ETHSHARD_INPUT_CHECK(gap_days >= 0,
                                 "strategy 'tr-metis': min_gap_days must be "
                                 ">= 0");
            t.min_gap = static_cast<util::Timestamp>(gap_days * util::kDay);
            t.min_interactions =
                r.get_uint("min_interactions", t.min_interactions);
            t.ewma_alpha = r.get_double("ewma_alpha", t.ewma_alpha);
            t.violations_required =
                r.get_int("violations_required", t.violations_required);
            return std::make_unique<ThresholdMlkpStrategy>(t, read_mlkp(r));
          });

  reg.add("dsm", {}, [](SpecReader&) -> std::unique_ptr<ShardingStrategy> {
    return std::make_unique<DsmStrategy>();
  });
}

}  // namespace

StrategySpec parse_strategy_spec(std::string_view spec) {
  StrategySpec out;
  const auto colon = spec.find(':');
  out.name = lower(trim(spec.substr(0, colon)));
  ETHSHARD_INPUT_CHECK(!out.name.empty(),
                       "strategy spec '" + std::string(spec) +
                           "' has an empty name");
  if (colon == std::string_view::npos) return out;

  std::string params(spec.substr(colon + 1));
  std::istringstream is(params);
  std::string token;
  while (std::getline(is, token, ',')) {
    if (trim(token).empty()) continue;
    const auto eq = token.find('=');
    ETHSHARD_INPUT_CHECK(eq != std::string::npos,
                         "strategy spec parameter '" + trim(token) +
                             "' is not of the form key=value");
    const std::string key = lower(trim(token.substr(0, eq)));
    const std::string value = trim(token.substr(eq + 1));
    ETHSHARD_INPUT_CHECK(!key.empty(), "strategy spec parameter '" +
                                           trim(token) + "' has an empty key");
    for (const auto& [k, v] : out.params)
      ETHSHARD_INPUT_CHECK(k != key, "strategy spec repeats key '" + key + "'");
    out.params.emplace_back(key, value);
  }
  return out;
}

SpecReader::SpecReader(const StrategySpec& spec, std::uint64_t default_seed)
    : spec_(spec), seed_(default_seed) {
  seed_ = get_uint("seed", default_seed);
}

const std::string* SpecReader::raw(const std::string& key) {
  for (const auto& [k, v] : spec_.params)
    if (k == key) {
      consumed_.insert(key);
      return &v;
    }
  return nullptr;
}

std::string SpecReader::get_string(const std::string& key,
                                   const std::string& fallback) {
  const std::string* v = raw(key);
  return v ? lower(*v) : fallback;
}

double SpecReader::get_double(const std::string& key, double fallback) {
  const std::string* v = raw(key);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  ETHSHARD_INPUT_CHECK(end != v->c_str() && *end == '\0',
                       "strategy '" + spec_.name + "': key '" + key +
                           "' expects a number, got '" + *v + "'");
  return parsed;
}

std::uint64_t SpecReader::get_uint(const std::string& key,
                                   std::uint64_t fallback) {
  const std::string* v = raw(key);
  if (!v) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 10);
  ETHSHARD_INPUT_CHECK(end != v->c_str() && *end == '\0' &&
                           v->find('-') == std::string::npos,
                       "strategy '" + spec_.name + "': key '" + key +
                           "' expects a non-negative integer, got '" + *v +
                           "'");
  return parsed;
}

int SpecReader::get_int(const std::string& key, int fallback) {
  const std::string* v = raw(key);
  if (!v) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v->c_str(), &end, 10);
  ETHSHARD_INPUT_CHECK(end != v->c_str() && *end == '\0',
                       "strategy '" + spec_.name + "': key '" + key +
                           "' expects an integer, got '" + *v + "'");
  return static_cast<int>(parsed);
}

bool SpecReader::get_bool(const std::string& key, bool fallback) {
  const std::string* v = raw(key);
  if (!v) return fallback;
  const std::string s = lower(*v);
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  ETHSHARD_INPUT_CHECK(false, "strategy '" + spec_.name + "': key '" + key +
                                  "' expects a boolean, got '" + *v + "'");
  return fallback;
}

void SpecReader::finish() const {
  for (const auto& [k, v] : spec_.params)
    ETHSHARD_INPUT_CHECK(consumed_.count(k) != 0,
                         "unknown key '" + k + "' for strategy '" +
                             spec_.name + "'");
}

void StrategyRegistry::add(const std::string& canonical,
                           const std::vector<std::string>& aliases,
                           Factory factory) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys{lower(canonical)};
  for (const std::string& a : aliases) keys.push_back(lower(a));
  for (const std::string& key : keys)
    ETHSHARD_CHECK_MSG(factories_.count(key) == 0,
                       "strategy name '" + key + "' is already registered");
  for (const std::string& key : keys) factories_[key] = factory;
  canonical_.push_back(lower(canonical));
}

std::unique_ptr<ShardingStrategy> StrategyRegistry::make(
    std::string_view spec, std::uint64_t default_seed) const {
  return make_build(spec, default_seed).strategy;
}

StrategyBuild StrategyRegistry::make_build(
    std::string_view spec, std::uint64_t default_seed,
    std::size_t /*default_threads*/) const {
  const StrategySpec parsed = parse_strategy_spec(spec);
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = factories_.find(parsed.name);
    if (it == factories_.end()) {
      std::ostringstream os;
      os << "unknown strategy '" << parsed.name << "' — known strategies:";
      for (const std::string& n : canonical_) os << " " << n;
      throw util::InputError(os.str());
    }
    factory = it->second;
  }
  SpecReader reader(parsed, default_seed);
  StrategyBuild build;
  build.strategy = factory(reader);
  ETHSHARD_CHECK_MSG(build.strategy != nullptr, "strategy factory for '" +
                                                    parsed.name +
                                                    "' returned nothing");
  reader.finish();
  return build;
}

bool StrategyRegistry::contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(lower(trim(name))) != 0;
}

std::vector<std::string> StrategyRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out = canonical_;
  std::sort(out.begin(), out.end());
  return out;
}

StrategyRegistry& StrategyRegistry::global() {
  static StrategyRegistry* reg = [] {
    auto* r = new StrategyRegistry();  // leaked: outlives all callers
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

}  // namespace ethshard::core
