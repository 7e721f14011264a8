// Named workload scenarios.
//
// The paper's history is one trajectory; counterfactual variants isolate
// which phenomenon causes which result (e.g. run METIS on a no-attack
// chain and its dynamic-balance anomaly disappears — proving the dummy
// accounts cause it, as §III argues). Presets only adjust the generator
// configuration; everything stays deterministic under the same seed.
#pragma once

#include <string>
#include <vector>

#include "workload/generator.hpp"

namespace ethshard::workload {

enum class Preset {
  kPaper,       ///< the calibrated default (Fig. 1 shape, attack, ICOs)
  kNoAttack,    ///< the Sep/Oct-2016 dummy-account spam never happens
  kIcoFrenzy,   ///< triple crowdsale intensity in the super-linear phase
  kUniform,     ///< no preferential attachment hubs (uniform targets)
  kTransfersOnly,  ///< Bitcoin-like: no contracts, plain transfers only
};

/// All presets, for sweeps.
inline constexpr Preset kAllPresets[] = {
    Preset::kPaper, Preset::kNoAttack, Preset::kIcoFrenzy,
    Preset::kUniform, Preset::kTransfersOnly};

/// The preset's CLI/report name ("paper", "no-attack", ...).
std::string preset_name(Preset preset);

/// Parses a name produced by preset_name. Throws util::InputError on an
/// unknown name.
Preset preset_from_name(const std::string& name);

/// Knobs shared by every preset. Aggregate-initialize with designated
/// initializers — `preset_config(Preset::kPaper, {.scale = 0.01})` —
/// instead of remembering positional double/uint64 order.
struct PresetOptions {
  /// Fraction of the real chain's volume (GeneratorConfig::scale).
  double scale = 0.002;
  std::uint64_t seed = 1234;
};

/// Generator configuration for a preset with the given options.
GeneratorConfig preset_config(Preset preset, PresetOptions options = {});

}  // namespace ethshard::workload
