#include "scenario/scenario.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "workload/overrides.hpp"

namespace ethshard::scenario {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  ETHSHARD_INPUT_CHECK(end != value.c_str() && *end == '\0',
                       "scenario key '" << key << "': bad number '" << value
                                        << "'");
  return v;
}

std::uint64_t parse_uint(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  ETHSHARD_INPUT_CHECK(end != value.c_str() && *end == '\0',
                       "scenario key '" << key << "': bad integer '" << value
                                        << "'");
  return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  ETHSHARD_INPUT_CHECK(false, "scenario key '" << key << "': bad boolean '"
                                               << value << "'");
  return false;
}

util::Timestamp parse_date(const std::string& key, const std::string& value) {
  int y = 0;
  int m = 0;
  int d = 0;
  ETHSHARD_INPUT_CHECK(
      std::sscanf(value.c_str(), "%d-%d-%d", &y, &m, &d) == 3,
      "scenario key '" << key << "': bad date '" << value
                       << "' (want YYYY-MM-DD)");
  return util::make_timestamp(y, m, d);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string token;
  while (std::getline(ss, token, ',')) {
    token = trim(token);
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

}  // namespace

void apply_scenario_setting(Scenario& s, const std::string& key,
                            const std::string& value) {
  if (key.rfind("workload.", 0) == 0) {
    const std::string knob = key.substr(9);
    // Validate eagerly so a typo fails at parse time, not mid-matrix; the
    // runner re-applies the list onto the real preset config in order.
    workload::GeneratorConfig probe;
    workload::apply_generator_override(probe, knob, value);
    s.workload_overrides.emplace_back(knob, value);
    return;
  }
  if (key == "name") {
    s.name = value;
  } else if (key == "description") {
    s.description = value;
  } else if (key == "preset") {
    s.preset = workload::preset_from_name(value);
  } else if (key == "scale") {
    s.scale = parse_double(key, value);
    ETHSHARD_INPUT_CHECK(s.scale > 0, "scenario scale must be positive");
  } else if (key == "seed") {
    s.seed = parse_uint(key, value);
  } else if (key == "shards") {
    s.shards = static_cast<std::uint32_t>(parse_uint(key, value));
    ETHSHARD_INPUT_CHECK(s.shards >= 2, "scenario shards must be >= 2");
  } else if (key == "load_model") {
    if (value == "calls") {
      s.load_model = core::LoadModel::kCalls;
    } else if (value == "gas") {
      s.load_model = core::LoadModel::kGas;
    } else {
      ETHSHARD_INPUT_CHECK(false, "scenario load_model '"
                                      << value << "' (want calls or gas)");
    }
  } else if (key == "metric_window_hours") {
    const double hours = parse_double(key, value);
    ETHSHARD_INPUT_CHECK(hours > 0, "metric_window_hours must be positive");
    s.metric_window = static_cast<util::Timestamp>(
        hours * static_cast<double>(util::kHour));
  } else if (key == "strategies") {
    s.strategies = split_list(value);
    ETHSHARD_INPUT_CHECK(!s.strategies.empty(),
                         "scenario strategies list is empty");
  } else if (key == "strategy_seed") {
    s.strategy_seed = parse_uint(key, value);
  } else if (key == "gap_start") {
    s.gap_start = parse_date(key, value);
  } else if (key == "gap_days") {
    s.gap_days = parse_double(key, value);
    ETHSHARD_INPUT_CHECK(s.gap_days >= 0, "gap_days must be >= 0");
  } else if (key == "invariant.balance_max") {
    s.balance_max = parse_double(key, value);
  } else if (key == "invariant.balance_min_interactions") {
    s.balance_min_interactions = parse_uint(key, value);
  } else if (key == "invariant.move_fraction_max") {
    s.move_fraction_max = parse_double(key, value);
  } else if (key == "invariant.repartition_ms_max") {
    s.repartition_ms_max = parse_double(key, value);
  } else if (key == "invariant.sanity") {
    s.sanity = parse_bool(key, value);
  } else if (key == "invariant.drift_golden") {
    s.drift_golden = value;
  } else {
    ETHSHARD_INPUT_CHECK(false, "unknown scenario key '" << key << "'");
  }
}

Scenario parse_scenario_text(const std::string& text,
                             const std::string& name_hint) {
  Scenario s;
  s.name = name_hint;
  std::stringstream ss(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(ss, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    ETHSHARD_INPUT_CHECK(eq != std::string::npos,
                         "scenario line " << lineno << " has no '=': \""
                                          << line << "\"");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    ETHSHARD_INPUT_CHECK(!key.empty(),
                         "scenario line " << lineno << " has an empty key");
    apply_scenario_setting(s, key, value);
  }
  ETHSHARD_INPUT_CHECK(!s.name.empty(), "scenario has no name");
  return s;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  ETHSHARD_INPUT_CHECK(in.good(), "cannot open scenario file " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  // File stem as the default name: "scenarios/dos_spike.scn" → "dos_spike".
  std::string stem = path;
  const std::size_t slash = stem.find_last_of("/\\");
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  Scenario s = parse_scenario_text(buf.str(), stem);
  s.file = path;
  return s;
}

workload::GeneratorConfig generator_config(const Scenario& s) {
  workload::GeneratorConfig cfg = workload::preset_config(
      s.preset, {.scale = s.scale, .seed = s.seed});
  for (const auto& [key, value] : s.workload_overrides)
    workload::apply_generator_override(cfg, key, value);
  workload::check_growth_timeline(cfg);
  return cfg;
}

}  // namespace ethshard::scenario
