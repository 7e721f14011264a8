#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "eth/mempool.hpp"
#include "util/check.hpp"

namespace ethshard::workload {

namespace {

using eth::AccountId;
using eth::AccountKind;
using eth::Call;
using eth::CallKind;
using eth::Transaction;

/// Mutable generator state threaded through transaction synthesis.
struct GenState {
  GeneratorConfig cfg;
  util::Rng rng;
  eth::AccountRegistry registry;

  // Preferential-attachment pools: an id appears once per interaction it
  // participated in, so uniform pool sampling is activity-proportional.
  // Dummy attack accounts are deliberately never pooled. The *_distinct
  // vectors hold each id once, for the uniform-mix draws that keep the
  // popularity tail alive.
  std::vector<AccountId> account_pool;   // externally owned accounts
  std::vector<AccountId> contract_pool;  // contracts
  std::vector<AccountId> accounts_distinct;
  std::vector<AccountId> contracts_distinct;

  // Attack infrastructure, lazily created at the first attack tx.
  std::vector<AccountId> attackers;
  AccountId attack_contract = 0;
  bool attack_ready = false;

  // Live crowdsales: (contract, hot-until). Expired entries are purged
  // lazily; dead ICOs are never called again (they were deliberately not
  // pooled), leaving stale partition assignments behind.
  std::vector<std::pair<AccountId, util::Timestamp>> live_icos;

  explicit GenState(const GeneratorConfig& c) : cfg(c), rng(c.seed) {}

  AccountId new_account(util::Timestamp t, bool pooled) {
    const AccountId id =
        registry.create(AccountKind::kExternallyOwned, t, 0);
    if (pooled) {
      account_pool.push_back(id);
      accounts_distinct.push_back(id);
    }
    return id;
  }

  /// Picks the archetype for a freshly deployed contract; ICOs only
  /// appear after the attack era (the 2017 crowdsale wave).
  eth::ContractArchetype pick_archetype(util::Timestamp t) {
    if (t >= cfg.model.attack_end && rng.bernoulli(cfg.p_archetype_ico))
      return eth::ContractArchetype::kIco;
    if (rng.bernoulli(cfg.p_archetype_exchange))
      return eth::ContractArchetype::kExchange;
    if (rng.bernoulli(cfg.p_archetype_token))
      return eth::ContractArchetype::kToken;
    return eth::ContractArchetype::kGeneric;
  }

  AccountId new_contract(util::Timestamp t) {
    const eth::ContractArchetype archetype = pick_archetype(t);
    const AccountId id = registry.create(AccountKind::kContract, t,
                                         8 + rng.uniform(256), archetype);
    contracts_distinct.push_back(id);
    switch (archetype) {
      case eth::ContractArchetype::kIco:
        // Hot via the live-ICO path only; when it expires it goes silent.
        live_icos.emplace_back(
            id, t + cfg.ico_lifetime / 2 +
                    static_cast<util::Timestamp>(
                        rng.uniform(static_cast<std::uint64_t>(
                            cfg.ico_lifetime))));
        break;
      case eth::ContractArchetype::kExchange:
        for (std::uint32_t i = 0; i < cfg.exchange_initial_popularity; ++i)
          contract_pool.push_back(id);
        break;
      default:
        contract_pool.push_back(id);
        break;
    }
    return id;
  }

  /// A live crowdsale to drive traffic at, or kInvalidAccount when none.
  static constexpr AccountId kNoAccount = ~AccountId{0};
  AccountId sample_live_ico(util::Timestamp t) {
    while (!live_icos.empty()) {
      const std::size_t i = rng.uniform(live_icos.size());
      if (live_icos[i].second >= t) return live_icos[i].first;
      live_icos[i] = live_icos.back();  // expired: drop and retry
      live_icos.pop_back();
    }
    return kNoAccount;
  }

  AccountId sample_account(util::Timestamp t) {
    if (account_pool.empty()) return new_account(t, /*pooled=*/true);
    if (rng.bernoulli(cfg.uniform_mix))
      return accounts_distinct[rng.uniform(accounts_distinct.size())];
    return account_pool[rng.uniform(account_pool.size())];
  }

  AccountId sample_contract() {
    ETHSHARD_CHECK(!contract_pool.empty());
    if (rng.bernoulli(cfg.uniform_mix))
      return contracts_distinct[rng.uniform(contracts_distinct.size())];
    return contract_pool[rng.uniform(contract_pool.size())];
  }

  void touch(AccountId id) {
    const auto& info = registry.info(id);
    if (info.kind == AccountKind::kContract) {
      // ICOs stay out of the popularity pool: their traffic comes from
      // the live-ICO path and must stop dead when the sale closes.
      // Exchanges accumulate popularity faster than linearly (network
      // effects), which is what makes them the graph's dominant hubs.
      switch (info.archetype) {
        case eth::ContractArchetype::kIco:
          break;
        case eth::ContractArchetype::kExchange:
          contract_pool.insert(contract_pool.end(), 4, id);
          break;
        default:
          contract_pool.push_back(id);
          break;
      }
      registry.add_storage(id, 1);
    } else {
      account_pool.push_back(id);
    }
  }
};

double contract_call_probability(const GenState& s, util::Timestamp t) {
  const auto& m = s.cfg.model;
  const double frac =
      static_cast<double>(t - m.genesis) /
      static_cast<double>(std::max<util::Timestamp>(1, m.end - m.genesis));
  return s.cfg.p_contract_call_early +
         (s.cfg.p_contract_call_late - s.cfg.p_contract_call_early) * frac;
}

/// Builds one attack transaction: an attacker drives the attack contract,
/// which touches `attack_dummies_per_tx` freshly minted dummy accounts.
Transaction make_attack_tx(GenState& s, util::Timestamp t) {
  if (!s.attack_ready) {
    for (int i = 0; i < 3; ++i)
      s.attackers.push_back(s.new_account(t, /*pooled=*/false));
    if (s.cfg.attack_via_contract)
      s.attack_contract = s.registry.create(AccountKind::kContract, t, 4);
    s.attack_ready = true;
  }
  Transaction tx;
  tx.sender = s.attackers[s.rng.uniform(s.attackers.size())];
  tx.gas_limit = 2'000'000;
  // The historical attack drove an attack contract; contract-free
  // workloads dust dummies straight from the attacker account.
  AccountId spender = tx.sender;
  if (s.cfg.attack_via_contract) {
    tx.calls.push_back(
        Call{tx.sender, s.attack_contract, CallKind::kContractCall, 0});
    spender = s.attack_contract;
  }
  for (std::uint32_t i = 0; i < s.cfg.attack_dummies_per_tx; ++i) {
    const AccountId dummy = s.new_account(t, /*pooled=*/false);
    tx.calls.push_back(Call{spender, dummy, CallKind::kTransfer, 1});
  }
  return tx;
}

/// Builds one organic transaction (transfer, contract call cascade, or
/// contract deployment).
Transaction make_organic_tx(GenState& s, util::Timestamp t) {
  Transaction tx;
  tx.sender = s.rng.bernoulli(s.cfg.p_new_sender)
                  ? s.new_account(t, /*pooled=*/true)
                  : s.sample_account(t);
  tx.gas_price = 1 + s.rng.uniform(50);

  const double p_cc = contract_call_probability(s, t);

  if (s.rng.bernoulli(s.cfg.p_contract_create)) {
    // Deploy a new contract.
    const AccountId c = s.new_contract(t);
    tx.calls.push_back(Call{tx.sender, c, CallKind::kContractCreate, 0});
  } else if (!s.contract_pool.empty() && s.rng.bernoulli(p_cc)) {
    // Contract activation. 2017 activations often chase a live crowdsale;
    // otherwise the popularity pool decides, and the callee's archetype
    // shapes the internal cascade.
    AccountId target = GenState::kNoAccount;
    if (t >= s.cfg.model.attack_end && s.rng.bernoulli(s.cfg.p_ico_call))
      target = s.sample_live_ico(t);
    if (target == GenState::kNoAccount) target = s.sample_contract();

    tx.calls.push_back(Call{tx.sender, target, CallKind::kContractCall,
                            s.rng.uniform(10)});
    s.touch(target);

    switch (s.registry.info(target).archetype) {
      case eth::ContractArchetype::kToken: {
        // ERC-20 transfer: the token pays out to one or two accounts.
        const int payouts = 1 + static_cast<int>(s.rng.uniform(2));
        for (int i = 0; i < payouts; ++i) {
          const AccountId a = s.rng.bernoulli(s.cfg.p_new_recipient)
                                  ? s.new_account(t, /*pooled=*/true)
                                  : s.sample_account(t);
          tx.calls.push_back(
              Call{target, a, CallKind::kTransfer, 1 + s.rng.uniform(50)});
          s.touch(a);
        }
        break;
      }
      case eth::ContractArchetype::kExchange: {
        // Matching engine: fan out to several (often fresh) traders and
        // occasionally settle through a token contract.
        const int fanout = 2 + static_cast<int>(s.rng.uniform(4));
        for (int i = 0; i < fanout; ++i) {
          if (s.rng.bernoulli(0.2)) {
            const AccountId c = s.sample_contract();
            tx.calls.push_back(
                Call{target, c, CallKind::kContractCall, 0});
            s.touch(c);
          } else {
            const AccountId a = s.rng.bernoulli(0.4)
                                    ? s.new_account(t, /*pooled=*/true)
                                    : s.sample_account(t);
            tx.calls.push_back(Call{target, a, CallKind::kTransfer,
                                    1 + s.rng.uniform(500)});
            s.touch(a);
          }
        }
        break;
      }
      case eth::ContractArchetype::kIco: {
        // Contribution: ether in; sometimes a token grant or a refund.
        if (s.rng.bernoulli(0.3)) {
          const AccountId c = s.sample_contract();
          tx.calls.push_back(Call{target, c, CallKind::kContractCall, 0});
          s.touch(c);
        } else if (s.rng.bernoulli(0.2)) {
          tx.calls.push_back(
              Call{target, tx.sender, CallKind::kTransfer, 1});
        }
        break;
      }
      case eth::ContractArchetype::kGeneric: {
        AccountId frame = target;
        int depth = 0;
        while (depth < 15 && s.rng.bernoulli(s.cfg.p_internal_continue)) {
          ++depth;
          const double r = s.rng.uniform01();
          if (r < 0.05) {
            // Factory pattern: the contract deploys another contract.
            const AccountId c = s.new_contract(t);
            tx.calls.push_back(
                Call{frame, c, CallKind::kContractCreate, 0});
          } else if (r < 0.40) {
            // Payout to an account.
            const AccountId a = s.rng.bernoulli(s.cfg.p_new_recipient)
                                    ? s.new_account(t, /*pooled=*/true)
                                    : s.sample_account(t);
            tx.calls.push_back(Call{frame, a, CallKind::kTransfer,
                                    1 + s.rng.uniform(100)});
            s.touch(a);
          } else {
            // Cross-contract call; descend into the callee.
            const AccountId c = s.sample_contract();
            tx.calls.push_back(Call{frame, c, CallKind::kContractCall, 0});
            s.touch(c);
            frame = c;
          }
        }
        break;
      }
    }
  } else {
    // Plain transfer.
    const AccountId to = s.rng.bernoulli(s.cfg.p_new_recipient)
                             ? s.new_account(t, /*pooled=*/true)
                             : s.sample_account(t);
    tx.calls.push_back(
        Call{tx.sender, to, CallKind::kTransfer, 1 + s.rng.uniform(1000)});
    s.touch(to);
  }
  s.touch(tx.sender);
  return tx;
}

}  // namespace

HistoryStats stats_of(const History& h) {
  HistoryStats st;
  st.contracts = h.accounts.contract_count();
  st.accounts = h.accounts.size() - st.contracts;
  st.blocks = h.chain.size();
  st.transactions = h.chain.transaction_count();
  for (const eth::Block& b : h.chain.blocks())
    for (const eth::Transaction& tx : b.transactions)
      st.calls += tx.calls.size();
  return st;
}

/// The generator's interval loop, unrolled into a resumable pull. State
/// that generate() used to keep in locals (loop clock, emitted tally,
/// mempool, nonce map, chain tail for parent links) lives here instead,
/// so next() can stop at every sealed block and pick up where it left
/// off. The transaction synthesis order — and with it every RNG draw —
/// is exactly that of the old loop.
struct GeneratedSource::Impl {
  GenState s;
  SourceInfo info;

  util::Timestamp t;        // interval-loop clock
  double emitted = 0;       // cumulative interactions (calls) so far
  std::uint64_t block_number = 0;
  eth::Hash256 last_hash{};  // parent link for the next sealed block

  eth::Mempool pool;
  std::unordered_map<AccountId, std::uint64_t> next_nonce;

  explicit Impl(const GeneratorConfig& cfg) : s(cfg), t(cfg.model.genesis) {
    ETHSHARD_CHECK(cfg.scale > 0.0);
    ETHSHARD_CHECK(cfg.block_interval > 0);
    ETHSHARD_CHECK(cfg.model.genesis < cfg.model.end);
    info.name = "generated";
    info.seed = cfg.seed;
    info.scale = cfg.scale;

    // Premine: founding accounts available from the start.
    const auto premine = std::max<std::uint64_t>(
        8, static_cast<std::uint64_t>(
               static_cast<double>(cfg.genesis_accounts) *
               std::min(1.0, cfg.scale * 100.0)));
    for (std::uint64_t i = 0; i < premine; ++i)
      s.new_account(cfg.model.genesis, /*pooled=*/true);
  }

  /// Stamps number/timestamp/parent link onto `out` and advances the
  /// chain tail. Never called with empty txs.
  void seal(eth::Block& out, util::Timestamp time,
            std::vector<Transaction> txs) {
    out = eth::Block{};
    out.number = block_number++;
    out.timestamp = time;
    out.parent_hash = last_hash;
    out.transactions = std::move(txs);
    last_hash = out.hash();
  }

  bool next(eth::Block& out) {
    const GeneratorConfig& cfg = s.cfg;
    const GrowthModel& model = cfg.model;

    while (t < model.end) {
      const util::Timestamp block_time =
          std::min<util::Timestamp>(t + cfg.block_interval, model.end);
      t += cfg.block_interval;

      const double target =
          cfg.scale * model.cumulative_interactions(block_time);
      if (target <= emitted && !(cfg.use_mempool && !pool.empty()))
        continue;

      const bool attacking = model.in_attack(block_time);
      std::vector<Transaction> created;
      while (emitted < target) {
        Transaction tx =
            (attacking && s.rng.bernoulli(cfg.attack_fraction))
                ? make_attack_tx(s, block_time)
                : make_organic_tx(s, block_time);
        emitted += static_cast<double>(tx.calls.size());
        created.push_back(std::move(tx));
      }

      if (!cfg.use_mempool) {
        if (created.empty()) continue;
        seal(out, block_time, std::move(created));
        return true;
      }

      // Miner mode: fresh transactions join the pool at their nonce
      // slot; the block is whatever the fee market fits under the gas
      // limit.
      for (Transaction& tx : created) {
        tx.nonce = next_nonce[tx.sender]++;
        pool.submit(std::move(tx));
      }
      std::vector<Transaction> packed = pool.pack_block(cfg.block_gas_limit);
      if (packed.empty()) continue;
      seal(out, block_time, std::move(packed));
      return true;
    }

    // Miner mode: drain the backlog so every created transaction lands.
    if (cfg.use_mempool && !pool.empty()) {
      std::vector<Transaction> txs = pool.pack_block(cfg.block_gas_limit);
      if (!txs.empty()) {  // nothing fits (gas limit below one tx)
        seal(out, model.end, std::move(txs));
        return true;
      }
    }
    return false;
  }
};

GeneratedSource::GeneratedSource(GeneratorConfig cfg)
    : impl_(std::make_unique<Impl>(cfg)) {}

GeneratedSource::~GeneratedSource() = default;

const SourceInfo& GeneratedSource::info() const { return impl_->info; }

bool GeneratedSource::next(eth::Block& out) { return impl_->next(out); }

const eth::Hash256& GeneratedSource::last_hash() const {
  return impl_->last_hash;
}

const eth::AccountRegistry* GeneratedSource::directory() const {
  return &impl_->s.registry;
}

eth::AccountRegistry GeneratedSource::take_directory() {
  return std::move(impl_->s.registry);
}

EthereumHistoryGenerator::EthereumHistoryGenerator(GeneratorConfig cfg)
    : cfg_(cfg) {
  ETHSHARD_CHECK(cfg_.scale > 0.0);
  ETHSHARD_CHECK(cfg_.block_interval > 0);
  ETHSHARD_CHECK(cfg_.model.genesis < cfg_.model.end);
}

History EthereumHistoryGenerator::generate() {
  GeneratedSource source(cfg_);
  History history;
  eth::Block block;
  while (source.next(block))
    history.chain.append(std::move(block), source.last_hash());
  history.accounts = source.take_directory();
  return history;
}

}  // namespace ethshard::workload
