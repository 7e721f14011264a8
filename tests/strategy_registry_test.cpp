#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "core/strategies.hpp"
#include "core/strategy_registry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace ethshard;
using core::StrategyRegistry;

/// Runs `fn`, expecting an `Error` whose message mentions `needle`. Spec
/// mistakes are user input (InputError); registry misuse is a programming
/// error (CheckFailure).
template <typename Error = util::InputError, typename Fn>
void expect_failure_mentioning(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected an exception mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

// ------------------------------------------------------------- parsing

TEST(StrategySpec, BareNameLowercasesAndTrims) {
  const core::StrategySpec s = core::parse_strategy_spec("  R-METIS ");
  EXPECT_EQ(s.name, "r-metis");
  EXPECT_TRUE(s.params.empty());
}

TEST(StrategySpec, ParamsSplitOnCommas) {
  const core::StrategySpec s =
      core::parse_strategy_spec("tr-metis:cut_floor=0.25, min_gap_days=2");
  EXPECT_EQ(s.name, "tr-metis");
  ASSERT_EQ(s.params.size(), 2u);
  EXPECT_EQ(s.params[0].first, "cut_floor");
  EXPECT_EQ(s.params[0].second, "0.25");
  EXPECT_EQ(s.params[1].first, "min_gap_days");
  EXPECT_EQ(s.params[1].second, "2");
}

TEST(StrategySpec, RejectsMalformedTokens) {
  expect_failure_mentioning([] { core::parse_strategy_spec(""); },
                            "empty name");
  expect_failure_mentioning([] { core::parse_strategy_spec("kl:rounds"); },
                            "key=value");
  expect_failure_mentioning(
      [] { core::parse_strategy_spec("kl:=3"); }, "empty key");
  expect_failure_mentioning(
      [] { core::parse_strategy_spec("kl:rounds=1,rounds=2"); },
      "repeats key 'rounds'");
}

// ------------------------------------------------------------ resolving

TEST(StrategyRegistryTest, ResolvesEveryPaperLabel) {
  for (const char* label :
       {"Hashing", "KL", "METIS", "R-METIS", "TR-METIS", "P-METIS", "DSM"}) {
    const auto s = StrategyRegistry::global().make(label, 7);
    ASSERT_NE(s, nullptr) << label;
  }
}

TEST(StrategyRegistryTest, PMetisIsRMetis) {
  // The paper's figures call the reduced variant P-METIS; both labels
  // must build the same strategy.
  const auto p = StrategyRegistry::global().make("p-metis", 7);
  const auto r = StrategyRegistry::global().make("r-metis", 7);
  EXPECT_EQ(p->name(), "R-METIS");
  EXPECT_EQ(r->name(), "R-METIS");
}

TEST(StrategyRegistryTest, UnknownNameListsKnownOnes) {
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("metiss", 7); },
      "unknown strategy 'metiss'");
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("metiss", 7); }, "tr-metis");
}

TEST(StrategyRegistryTest, UnknownKeyIsNamed) {
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("tr-metis:cut_flor=0.2", 7); },
      "unknown key 'cut_flor' for strategy 'tr-metis'");
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("hashing:rounds=3", 7); },
      "unknown key 'rounds'");
  // make_build is just as strict: there are no simulator-level keys, so
  // replay-tuning names fail like any other undeclared key.
  expect_failure_mentioning(
      [] {
        StrategyRegistry::global().make_build("hashing:replay_threads=2", 7);
      },
      "unknown key 'replay_threads'");
  expect_failure_mentioning(
      [] {
        StrategyRegistry::global().make_build("kl:queue_capacity=16", 7);
      },
      "unknown key 'queue_capacity'");
  expect_failure_mentioning(
      [] {
        StrategyRegistry::global().make_build("r-metis:agg_shards=4", 7);
      },
      "unknown key 'agg_shards'");
  // The partitioner is serial; a thread count is no longer a key.
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("metis:threads=4", 7); },
      "unknown key 'threads'");
}

TEST(StrategyRegistryTest, BadValuesAreNamed) {
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("tr-metis:cut_floor=abc", 7); },
      "key 'cut_floor'");
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("kl:probabilistic=maybe", 7); },
      "key 'probabilistic'");
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("kl:rounds=x", 7); },
      "key 'rounds'");
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("metis:matching=fancy", 7); },
      "matching");
}

TEST(StrategyRegistryTest, TrMetisParamsReachThresholds) {
  const auto s = StrategyRegistry::global().make(
      "tr-metis:cut_floor=0.25,min_gap_days=3,violations_required=2", 7);
  const auto* tr = dynamic_cast<core::ThresholdMlkpStrategy*>(s.get());
  ASSERT_NE(tr, nullptr);
  EXPECT_DOUBLE_EQ(tr->thresholds().cut_floor, 0.25);
  EXPECT_EQ(tr->thresholds().min_gap, 3 * util::kDay);
  EXPECT_EQ(tr->thresholds().violations_required, 2);
}

TEST(StrategyRegistryTest, DefaultsMatchTheBareSpec) {
  const auto s = StrategyRegistry::global().make("tr-metis", 7);
  const auto* tr = dynamic_cast<core::ThresholdMlkpStrategy*>(s.get());
  ASSERT_NE(tr, nullptr);
  const core::TrMetisThresholds defaults;
  EXPECT_DOUBLE_EQ(tr->thresholds().cut_floor, defaults.cut_floor);
  EXPECT_EQ(tr->thresholds().min_gap, defaults.min_gap);
}

TEST(StrategyRegistryTest, SpecSeedOverridesDefaultSeed) {
  // "seed" is a spec key on every strategy; it wins over the default
  // passed to make().
  const auto a = StrategyRegistry::global().make("hashing:seed=1", 7);
  const auto b = StrategyRegistry::global().make("hashing", 1);
  // Same salt → same placement behaviour; cheapest observable check is
  // that both built fine and report the same name.
  EXPECT_EQ(a->name(), b->name());
}

TEST(StrategyRegistryTest, ContainsAndNames) {
  EXPECT_TRUE(StrategyRegistry::global().contains("r-metis"));
  EXPECT_TRUE(StrategyRegistry::global().contains("P-METIS"));
  EXPECT_FALSE(StrategyRegistry::global().contains("nope"));
  const std::vector<std::string> names = StrategyRegistry::global().names();
  // Canonical names only — the alias is reachable but not listed.
  EXPECT_EQ(std::count(names.begin(), names.end(), "p-metis"), 0);
  EXPECT_EQ(std::count(names.begin(), names.end(), "r-metis"), 1);
}

TEST(StrategyRegistryTest, EnumFactoryStillWorks) {
  for (core::Method m : core::kAllMethods) {
    const auto s = core::make_strategy(m, 7);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), core::method_name(m));
  }
}

TEST(StrategyRegistryTest, RejectsDuplicateRegistration) {
  StrategyRegistry reg;
  reg.add("mine", {"alias"}, [](core::SpecReader& r) {
    return std::make_unique<core::HashStrategy>(r.seed());
  });
  expect_failure_mentioning<util::CheckFailure>(
      [&] {
        reg.add("alias", {}, [](core::SpecReader& r) {
          return std::make_unique<core::HashStrategy>(r.seed());
        });
      },
      "already registered");
}

// ------------------------------------------------- randomized round-trips

/// Pulls the MlkpConfig out of whichever MLKP-backed strategy `s` is.
const partition::MlkpConfig& mlkp_config_of(core::ShardingStrategy& s) {
  if (auto* w = dynamic_cast<core::WindowMlkpStrategy*>(&s))
    return w->mlkp_config();
  if (auto* f = dynamic_cast<core::FullGraphMlkpStrategy*>(&s))
    return f->mlkp_config();
  auto* t = dynamic_cast<core::ThresholdMlkpStrategy*>(&s);
  EXPECT_NE(t, nullptr) << "not an MLKP-backed strategy: " << s.name();
  return t->mlkp_config();
}

TEST(StrategyRegistryTest, RandomizedMlkpSpecsRoundTrip) {
  // Every value written into a random spec must come back out of the
  // built strategy's config — the spec grammar round-trips.
  const char* kNames[] = {"metis", "r-metis", "p-metis", "tr-metis"};
  const char* kImbalances[] = {"0.01", "0.03", "0.05", "0.1", "0.25"};
  util::Rng rng(2026);
  for (int i = 0; i < 48; ++i) {
    const std::string name = kNames[rng.uniform(4)];
    const std::string imbalance = kImbalances[rng.uniform(5)];
    const std::uint64_t coarsen_to = 100 + rng.uniform(400);
    const int init_tries = static_cast<int>(1 + rng.uniform(6));
    const int refine_passes = static_cast<int>(1 + rng.uniform(8));
    const bool refine = rng.uniform(2) == 0;
    const bool heavy = rng.uniform(2) == 0;

    std::ostringstream spec;
    spec << name << ":imbalance=" << imbalance
         << ",coarsen_to=" << coarsen_to << ",init_tries=" << init_tries
         << ",refine_passes=" << refine_passes
         << ",refine=" << (refine ? "true" : "false")
         << ",matching=" << (heavy ? "heavy-edge" : "random");
    const auto s = StrategyRegistry::global().make(spec.str(), 7);
    ASSERT_NE(s, nullptr) << spec.str();

    const partition::MlkpConfig& cfg = mlkp_config_of(*s);
    EXPECT_DOUBLE_EQ(cfg.imbalance, std::strtod(imbalance.c_str(), nullptr))
        << spec.str();
    EXPECT_EQ(cfg.coarsen_to, coarsen_to) << spec.str();
    EXPECT_EQ(cfg.init_tries, init_tries) << spec.str();
    EXPECT_EQ(cfg.refine_passes, refine_passes) << spec.str();
    EXPECT_EQ(cfg.refine, refine) << spec.str();
    EXPECT_EQ(cfg.matching, heavy ? partition::MatchingScheme::kHeavyEdge
                                  : partition::MatchingScheme::kRandom)
        << spec.str();
    EXPECT_EQ(cfg.seed, 7u) << spec.str();
  }
}

TEST(StrategyRegistryTest, RandomizedTrMetisThresholdsRoundTrip) {
  util::Rng rng(4242);
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t min_interactions = rng.uniform(50);
    const int violations = static_cast<int>(1 + rng.uniform(10));
    const std::uint64_t gap_days = 1 + rng.uniform(13);
    std::ostringstream spec;
    spec << "tr-metis:min_interactions=" << min_interactions
         << ",violations_required=" << violations
         << ",min_gap_days=" << gap_days;
    const auto s = StrategyRegistry::global().make(spec.str(), 7);
    const auto* tr = dynamic_cast<core::ThresholdMlkpStrategy*>(s.get());
    ASSERT_NE(tr, nullptr) << spec.str();
    EXPECT_EQ(tr->thresholds().min_interactions, min_interactions);
    EXPECT_EQ(tr->thresholds().violations_required, violations);
    EXPECT_EQ(tr->thresholds().min_gap, gap_days * util::kDay);
  }
}

TEST(StrategyRegistryTest, MalformedSpecsNameTheOffendingToken) {
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("r-metis:coarsen_to", 7); },
      "'coarsen_to' is not of the form key=value");
  expect_failure_mentioning(
      [] {
        StrategyRegistry::global().make(
            "r-metis:coarsen_to=100,coarsen_to=200", 7);
      },
      "repeats key 'coarsen_to'");
  expect_failure_mentioning(
      [] { StrategyRegistry::global().make("r-metis:coarsen_to=-2", 7); },
      "non-negative integer");
}

TEST(StrategyRegistryTest, CustomStrategiesPlugIn) {
  StrategyRegistry reg;
  reg.add("custom-hash", {}, [](core::SpecReader& r) {
    return std::make_unique<core::HashStrategy>(
        r.get_uint("salt", r.seed()));
  });
  const auto s = reg.make("custom-hash:salt=9");
  EXPECT_EQ(s->name(), "Hashing");
  expect_failure_mentioning([&] { reg.make("custom-hash:pepper=1"); },
                            "unknown key 'pepper'");
}

}  // namespace
