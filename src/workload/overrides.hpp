// Named generator-knob overrides — the scenario→generator composition
// hook.
//
// Scenario files (src/scenario) describe stress shapes declaratively:
// they start from a preset and then tweak individual GeneratorConfig
// knobs by name ("workload.attack_fraction = 0.95"). This is the string
// → knob mapping behind that, kept in workload/ so anything else that
// wants text-addressable generator configuration (sweep scripts, future
// CLI flags) shares one table. Unknown keys and unparsable values throw
// util::InputError naming the offending token, mirroring the
// StrategyRegistry spec grammar's behaviour.
#pragma once

#include <string>
#include <vector>

#include "workload/generator.hpp"

namespace ethshard::workload {

/// Applies `key = value` to `cfg`. Keys name GeneratorConfig fields
/// ("attack_fraction", "p_new_sender", ...) or GrowthModel fields with a
/// "model." prefix ("model.attack_interactions"). Durations use unit
/// suffixes in the key ("block_interval_hours", "ico_lifetime_days");
/// time anchors ("model.genesis", "model.end", ...) take YYYY-MM-DD
/// dates. Booleans accept true/false/1/0. Throws util::InputError on
/// an unknown key or a value that does not parse, naming it.
void apply_generator_override(GeneratorConfig& cfg, const std::string& key,
                              const std::string& value);

/// Every key apply_generator_override accepts, sorted — for docs and
/// error messages.
std::vector<std::string> generator_override_keys();

/// Validates the growth-model timeline (genesis < attack_start <=
/// attack_end < end). Callers run this once after applying a whole
/// override sequence — not per key, since a legal sequence may pass
/// through an illegal intermediate state ("move attack_start and
/// attack_end both before the shortened end"). Throws util::InputError
/// when the ordering is broken.
void check_growth_timeline(const GeneratorConfig& cfg);

}  // namespace ethshard::workload
