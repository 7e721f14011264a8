#include "workload/overrides.hpp"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>

#include "util/check.hpp"
#include "util/sim_time.hpp"

namespace ethshard::workload {

namespace {

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  ETHSHARD_INPUT_CHECK(end != value.c_str() && *end == '\0',
                       "workload override '" << key << "': bad number '"
                                             << value << "'");
  return v;
}

std::uint64_t parse_uint(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  ETHSHARD_INPUT_CHECK(end != value.c_str() && *end == '\0',
                       "workload override '" << key << "': bad integer '"
                                             << value << "'");
  return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  ETHSHARD_INPUT_CHECK(false, "workload override '"
                                  << key << "': bad boolean '" << value
                                  << "' (want true/false/1/0)");
  return false;
}

util::Timestamp parse_date(const std::string& key, const std::string& value) {
  int y = 0;
  int m = 0;
  int d = 0;
  ETHSHARD_INPUT_CHECK(
      std::sscanf(value.c_str(), "%d-%d-%d", &y, &m, &d) == 3,
      "workload override '" << key << "': bad date '" << value
                            << "' (want YYYY-MM-DD)");
  return util::make_timestamp(y, m, d);
}

using Setter = std::function<void(GeneratorConfig&, const std::string&,
                                  const std::string&)>;

// One table, shared by apply and the key listing. Duration knobs carry
// their unit in the key name so a scenario file reads unambiguously.
const std::map<std::string, Setter>& setters() {
  static const std::map<std::string, Setter> table = {
      {"scale",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.scale = parse_double(k, v);
       }},
      {"seed",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.seed = parse_uint(k, v);
       }},
      {"block_interval_hours",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.block_interval = static_cast<util::Timestamp>(
             parse_double(k, v) * static_cast<double>(util::kHour));
       }},
      {"p_new_sender",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_new_sender = parse_double(k, v);
       }},
      {"p_contract_call_early",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_contract_call_early = parse_double(k, v);
       }},
      {"p_contract_call_late",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_contract_call_late = parse_double(k, v);
       }},
      {"p_new_recipient",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_new_recipient = parse_double(k, v);
       }},
      {"p_contract_create",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_contract_create = parse_double(k, v);
       }},
      {"p_internal_continue",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_internal_continue = parse_double(k, v);
       }},
      {"uniform_mix",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.uniform_mix = parse_double(k, v);
       }},
      {"attack_fraction",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.attack_fraction = parse_double(k, v);
       }},
      {"attack_dummies_per_tx",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.attack_dummies_per_tx =
             static_cast<std::uint32_t>(parse_uint(k, v));
       }},
      {"attack_via_contract",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.attack_via_contract = parse_bool(k, v);
       }},
      {"p_archetype_token",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_archetype_token = parse_double(k, v);
       }},
      {"p_archetype_exchange",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_archetype_exchange = parse_double(k, v);
       }},
      {"p_archetype_ico",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_archetype_ico = parse_double(k, v);
       }},
      {"ico_lifetime_days",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.ico_lifetime = static_cast<util::Timestamp>(
             parse_double(k, v) * static_cast<double>(util::kDay));
       }},
      {"p_ico_call",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.p_ico_call = parse_double(k, v);
       }},
      {"exchange_initial_popularity",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.exchange_initial_popularity =
             static_cast<std::uint32_t>(parse_uint(k, v));
       }},
      {"genesis_accounts",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.genesis_accounts = parse_uint(k, v);
       }},
      {"use_mempool",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.use_mempool = parse_bool(k, v);
       }},
      {"block_gas_limit",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.block_gas_limit = parse_uint(k, v);
       }},
      {"model.genesis",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.model.genesis = parse_date(k, v);
       }},
      {"model.attack_start",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.model.attack_start = parse_date(k, v);
       }},
      {"model.attack_end",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.model.attack_end = parse_date(k, v);
       }},
      {"model.end",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.model.end = parse_date(k, v);
       }},
      {"model.base_interactions",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.model.base_interactions = parse_double(k, v);
       }},
      {"model.exp_rate",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.model.exp_rate = parse_double(k, v);
       }},
      {"model.attack_interactions",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.model.attack_interactions = parse_double(k, v);
       }},
      {"model.post_linear_per_day",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.model.post_linear_per_day = parse_double(k, v);
       }},
      {"model.end_target",
       [](GeneratorConfig& c, const std::string& k, const std::string& v) {
         c.model.end_target = parse_double(k, v);
       }},
  };
  return table;
}

}  // namespace

void apply_generator_override(GeneratorConfig& cfg, const std::string& key,
                              const std::string& value) {
  const auto it = setters().find(key);
  if (it == setters().end()) {
    std::string known;
    for (const std::string& k : generator_override_keys()) {
      if (!known.empty()) known += ", ";
      known += k;
    }
    ETHSHARD_INPUT_CHECK(false, "unknown workload override '"
                                    << key << "' (known: " << known << ")");
  }
  it->second(cfg, key, value);
}

void check_growth_timeline(const GeneratorConfig& cfg) {
  ETHSHARD_INPUT_CHECK(
      cfg.model.genesis < cfg.model.attack_start &&
          cfg.model.attack_start <= cfg.model.attack_end &&
          cfg.model.attack_end < cfg.model.end,
      "workload overrides broke the growth-model timeline (need genesis "
      "< attack_start <= attack_end < end)");
}

std::vector<std::string> generator_override_keys() {
  std::vector<std::string> keys;
  keys.reserve(setters().size());
  for (const auto& [k, v] : setters()) keys.push_back(k);
  return keys;
}

}  // namespace ethshard::workload
