// Transaction pool and block packing.
//
// §II-A: "Miners include transactions in a block based on their estimates
// of the transaction cost and the amount the user is willing to pay for
// the transaction." The mempool holds pending transactions, keeps each
// sender's transactions nonce-ordered (a sender's nonce-n+1 transaction
// cannot execute before nonce n), and packs blocks greedily by fee rate
// (gas price) under a block gas limit — the standard miner policy.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "eth/gas.hpp"
#include "eth/transaction.hpp"

namespace ethshard::eth {

class Mempool {
 public:
  explicit Mempool(GasSchedule schedule = {}) : schedule_(schedule) {}

  /// Admits a pending transaction. Returns false (and drops it) when the
  /// trace is malformed or a transaction with the same (sender, nonce) is
  /// already pending at an equal-or-better gas price; a strictly better
  /// price replaces the old one (Ethereum's replacement rule).
  bool submit(Transaction tx);

  /// Pending transactions across all senders.
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Whether a (sender, nonce) pair is pending.
  bool contains(AccountId sender, std::uint64_t nonce) const;

  /// Greedily packs the highest-gas-price *eligible* transactions until
  /// the next candidate would exceed `gas_limit`. Eligible = the lowest
  /// pending nonce of its sender (nonce chains never reorder). Packed
  /// transactions leave the pool. Deterministic: ties break on sender id,
  /// then nonce.
  std::vector<Transaction> pack_block(std::uint64_t gas_limit);

 private:
  struct Pending {
    Transaction tx;
    std::uint64_t gas = 0;
  };

  GasSchedule schedule_;
  /// sender → (nonce → pending tx), nonce-sorted per sender.
  std::map<AccountId, std::map<std::uint64_t, Pending>> by_sender_;
  std::size_t count_ = 0;
};

}  // namespace ethshard::eth
