#include "workload/presets.hpp"

#include "util/check.hpp"

namespace ethshard::workload {

std::string preset_name(Preset preset) {
  switch (preset) {
    case Preset::kPaper:
      return "paper";
    case Preset::kNoAttack:
      return "no-attack";
    case Preset::kIcoFrenzy:
      return "ico-frenzy";
    case Preset::kUniform:
      return "uniform";
    case Preset::kTransfersOnly:
      return "transfers-only";
  }
  return "?";
}

Preset preset_from_name(const std::string& name) {
  for (Preset p : kAllPresets)
    if (preset_name(p) == name) return p;
  ETHSHARD_INPUT_CHECK(false, "unknown preset '" << name << "'");
  return Preset::kPaper;
}

GeneratorConfig preset_config(Preset preset, PresetOptions options) {
  GeneratorConfig cfg;
  cfg.scale = options.scale;
  cfg.seed = options.seed;

  switch (preset) {
    case Preset::kPaper:
      break;

    case Preset::kNoAttack:
      // No spam transactions and no volume spike: the attack window
      // contributes nothing beyond organic growth.
      cfg.attack_fraction = 0.0;
      cfg.model.attack_interactions = 0.0;
      break;

    case Preset::kIcoFrenzy:
      cfg.p_archetype_ico = 0.20;
      cfg.p_ico_call = 0.55;
      cfg.ico_lifetime = 2 * util::kWeek;
      break;

    case Preset::kUniform:
      // Kill preferential attachment: every endpoint choice is uniform,
      // so no hubs form and hashing's edge-cut penalty shrinks.
      cfg.uniform_mix = 1.0;
      cfg.p_archetype_exchange = 0.0;
      break;

    case Preset::kTransfersOnly:
      // A Bitcoin-shaped ledger: no contracts at all (the attack spam
      // still happens, but as direct dust transfers).
      cfg.p_contract_call_early = 0.0;
      cfg.p_contract_call_late = 0.0;
      cfg.p_contract_create = 0.0;
      cfg.p_archetype_ico = 0.0;
      cfg.p_ico_call = 0.0;
      cfg.attack_via_contract = false;
      break;
  }
  return cfg;
}

}  // namespace ethshard::workload
