// World-state database: balances, nonces and contract storage.
//
// Executes the chain's transactions against an account-state model, so
// that (a) the substrate actually runs the ledger it stores, and (b) the
// sharding analysis can price vertex migration with time-accurate state
// sizes (§III: moving a contract means moving its entire storage). The
// execution semantics are the subset of Ethereum's that our call traces
// express: value transfer, contract activation (which writes storage),
// and contract creation. Gas fees are charged per the GasSchedule and
// accumulate in a fee pot, so total value is conserved and checkable.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "eth/block.hpp"
#include "eth/gas.hpp"

namespace ethshard::eth {

class Chain;

/// Mutable state of one account.
struct AccountState {
  bool exists = false;
  bool is_contract = false;
  std::uint64_t balance_wei = 0;
  std::uint64_t nonce = 0;
  /// Contract storage (32-byte-slot model: slot index → value).
  std::unordered_map<std::uint64_t, std::uint64_t> storage;
};

/// Per-block execution summary.
struct BlockApplyResult {
  std::uint64_t transactions = 0;
  std::uint64_t calls = 0;
  std::uint64_t gas_used = 0;
  std::uint64_t fees_wei = 0;
  /// Transfers whose value exceeded the sender balance and were clamped
  /// (synthetic traces are not balance-aware; Ethereum would revert).
  std::uint64_t clamped_transfers = 0;
};

class StateDb {
 public:
  explicit StateDb(GasSchedule schedule = {}) : schedule_(schedule) {}

  /// Genesis/premine allocation. Creates the account if needed.
  void credit(AccountId id, std::uint64_t amount_wei);

  /// Applies one block's transactions in order. Blocks must be applied
  /// in chain order (enforced by block number).
  BlockApplyResult apply(const Block& block);

  /// Applies every block of a chain from the current height onward.
  BlockApplyResult apply_chain(const Chain& chain);

  bool exists(AccountId id) const;
  bool is_contract(AccountId id) const;
  std::uint64_t balance(AccountId id) const;
  std::uint64_t nonce(AccountId id) const;
  /// Storage slots currently held by the account (0 for non-contracts).
  std::uint64_t storage_slots(AccountId id) const;
  /// Storage slot value (0 when unset), Ethereum's zero-default semantics.
  std::uint64_t storage_at(AccountId id, std::uint64_t slot) const;

  std::uint64_t account_count() const { return accounts_.size(); }
  std::uint64_t next_block() const { return next_block_; }

  /// Wei credited via credit() since construction.
  std::uint64_t total_minted() const { return minted_; }
  /// Gas fees collected from senders (the miner pot).
  std::uint64_t total_fees() const { return fees_; }
  /// Conservation invariant: Σ balances + fees == minted. O(accounts).
  bool check_conservation() const;

  /// Bytes needed to relocate the account to another shard: a fixed
  /// account record plus 64 bytes (key+value) per storage slot — the
  /// migration cost model behind the paper's "moves" discussion.
  std::uint64_t migration_bytes(AccountId id) const;

 private:
  AccountState& touch(AccountId id);

  GasSchedule schedule_;
  std::unordered_map<AccountId, AccountState> accounts_;
  std::uint64_t next_block_ = 0;
  std::uint64_t minted_ = 0;
  std::uint64_t fees_ = 0;
};

}  // namespace ethshard::eth
