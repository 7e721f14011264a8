// Synthetic Ethereum history generator.
//
// Stands in for the real trace the authors extracted from the chain
// (their published data set is not reachable offline; see DESIGN.md §2).
// It reproduces the structural properties the paper's conclusions rest on:
//
//  * cumulative volume follows Fig. 1 (exponential → attack spike →
//    super-linear), via GrowthModel;
//  * call targets follow preferential attachment, so the graph grows the
//    hubs that make hash partitioning cut ~50% of edges at k = 2;
//  * contracts trigger internal call cascades (a transaction makes
//    multiple edges, §II-B);
//  * the Sep/Oct-2016 attack mints large numbers of dummy accounts that
//    are never touched again — the cause of the METIS dynamic-balance
//    anomaly in §III.
//
// Everything is deterministic given the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "eth/address.hpp"
#include "eth/chain.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "workload/block_source.hpp"
#include "workload/growth_model.hpp"

namespace ethshard::workload {

struct GeneratorConfig {
  std::uint64_t seed = 42;
  /// Fraction of the real chain's volume to synthesize. 0.01 → ~6·10^5
  /// interactions (seconds to generate and replay); 1.0 → paper scale.
  double scale = 0.01;
  GrowthModel model;
  /// One block per interval (empty intervals produce no block).
  util::Timestamp block_interval = util::kHour;

  // --- behavioural mix -------------------------------------------------
  /// P(tx sender is a brand-new account).
  double p_new_sender = 0.10;
  /// P(top-level action activates a contract), interpolated over time —
  /// DApp traffic grows as the platform matures.
  double p_contract_call_early = 0.30;
  double p_contract_call_late = 0.55;
  /// P(plain transfer goes to a brand-new account).
  double p_new_recipient = 0.28;
  /// P(top-level action deploys a contract).
  double p_contract_create = 0.012;
  /// P(an internal call continues the cascade) — cascade length is
  /// geometric with mean p/(1-p).
  double p_internal_continue = 0.45;
  /// Fraction of endpoint choices made uniformly instead of by
  /// preferential attachment (keeps the tail alive).
  double uniform_mix = 0.2;

  // --- attack phase ----------------------------------------------------
  /// Fraction of attack-window transactions that are attack spam.
  double attack_fraction = 0.85;
  /// Dummy accounts each attack transaction touches.
  std::uint32_t attack_dummies_per_tx = 20;
  /// Route attack spam through an attack contract (the historical shape);
  /// false sends the dummy transfers straight from the attacker accounts
  /// (used by contract-free workload presets).
  bool attack_via_contract = true;

  // --- contract archetypes (the 2017 application mix) -------------------
  /// P(new contract is an ERC-20-style token).
  double p_archetype_token = 0.25;
  /// P(new contract is an exchange hub — long-lived, very hot).
  double p_archetype_exchange = 0.02;
  /// P(new contract is a crowdsale/ICO), only after the attack era.
  double p_archetype_ico = 0.08;
  /// How long an ICO stays hot after creation.
  util::Timestamp ico_lifetime = 3 * util::kWeek;
  /// P(a 2017 contract activation targets a live ICO instead of the
  /// popularity pool) — models the crowdsale frenzy of the super-linear
  /// phase (traffic hotspots that die abruptly, stressing repartitioners).
  double p_ico_call = 0.30;
  /// Extra popularity-pool entries an exchange receives at creation.
  std::uint32_t exchange_initial_popularity = 40;

  /// Accounts premined at genesis (scaled).
  std::uint64_t genesis_accounts = 400;

  // --- block assembly ----------------------------------------------------
  /// Route transactions through a fee-prioritized mempool and pack blocks
  /// under `block_gas_limit` (§II-A miner behaviour). The default stuffs
  /// each interval's transactions directly into one block, which is
  /// faster and irrelevant to the graph analysis; mempool mode exists for
  /// end-to-end substrate realism.
  bool use_mempool = false;
  std::uint64_t block_gas_limit = 8'000'000;
};

/// A generated chain plus the account/contract directory describing its
/// vertices. AccountIds are dense and double as graph vertex ids.
struct History {
  eth::Chain chain;
  eth::AccountRegistry accounts;
};

/// Aggregate counts for reporting (Fig. 1 uses the time-resolved variant
/// in the bench harness).
struct HistoryStats {
  std::uint64_t accounts = 0;   // externally owned
  std::uint64_t contracts = 0;
  std::uint64_t blocks = 0;
  std::uint64_t transactions = 0;
  std::uint64_t calls = 0;  // graph edges incl. multiplicity
};

HistoryStats stats_of(const History& h);

/// Streams the synthetic history block-by-block: the generator's interval
/// loop, made resumable. Emits exactly the block sequence
/// EthereumHistoryGenerator::generate() materializes for the same config
/// (generate() is in fact implemented by draining one of these), so
/// streamed and materialized replays are bit-identical by construction —
/// the StreamingDifferential suite holds them together. Memory stays at
/// one block in flight plus the account registry and attachment pools,
/// which is what unlocks scales whose full chain would not fit.
class GeneratedSource final : public BlockSource {
 public:
  explicit GeneratedSource(GeneratorConfig cfg = {});
  ~GeneratedSource() override;

  const SourceInfo& info() const override;
  bool next(eth::Block& out) override;

  /// The registry grows while streaming; it describes every vertex only
  /// once next() has returned false.
  const eth::AccountRegistry* directory() const override;

  /// Hash of the block the last successful next() returned (sealing
  /// computes it as the parent link of the following block).
  const eth::Hash256& last_hash() const;

  /// Moves the completed registry out (History assembly). Call only
  /// after end-of-stream; the source is dead afterwards.
  eth::AccountRegistry take_directory();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Re-opens a fresh deterministic GeneratedSource per open() — one
/// independent replay of the same synthetic history per experiment cell,
/// none of them ever whole in memory.
class GeneratedSourceFactory final : public BlockSourceFactory {
 public:
  explicit GeneratedSourceFactory(GeneratorConfig cfg) : cfg_(cfg) {}

  std::unique_ptr<BlockSource> open() const override {
    return std::make_unique<GeneratedSource>(cfg_);
  }

  const GeneratorConfig& config() const { return cfg_; }

 private:
  GeneratorConfig cfg_;
};

class EthereumHistoryGenerator {
 public:
  explicit EthereumHistoryGenerator(GeneratorConfig cfg = {});

  /// Generates the full history [model.genesis, model.end) by draining a
  /// GeneratedSource, so the result matches streaming replay exactly.
  History generate();

  const GeneratorConfig& config() const { return cfg_; }

 private:
  GeneratorConfig cfg_;
};

}  // namespace ethshard::workload
