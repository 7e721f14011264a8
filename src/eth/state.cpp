#include "eth/state.hpp"

#include <algorithm>

#include "eth/chain.hpp"
#include "util/check.hpp"

namespace ethshard::eth {

namespace {
constexpr std::uint64_t kAccountRecordBytes = 96;  // id+balance+nonce+meta
constexpr std::uint64_t kStorageSlotBytes = 64;    // 32B key + 32B value
}  // namespace

AccountState& StateDb::touch(AccountId id) {
  AccountState& a = accounts_[id];
  a.exists = true;
  return a;
}

void StateDb::credit(AccountId id, std::uint64_t amount_wei) {
  touch(id).balance_wei += amount_wei;
  minted_ += amount_wei;
}

BlockApplyResult StateDb::apply(const Block& block) {
  ETHSHARD_CHECK_MSG(block.number == next_block_,
                     "blocks must be applied in order (expected "
                         << next_block_ << ", got " << block.number << ")");
  ++next_block_;

  BlockApplyResult result;
  for (const Transaction& tx : block.transactions) {
    ETHSHARD_CHECK_MSG(tx.well_formed(), "malformed transaction in block "
                                             << block.number);
    ++result.transactions;

    AccountState& sender = touch(tx.sender);
    ++sender.nonce;

    // Gas fee, charged up-front to the sender (clamped to its balance —
    // the synthetic workload is not fee-aware).
    const std::uint64_t gas = transaction_gas(
        tx, [this](AccountId id) { return exists(id); }, schedule_);
    const std::uint64_t fee =
        std::min(sender.balance_wei, gas * tx.gas_price);
    sender.balance_wei -= fee;
    fees_ += fee;
    result.gas_used += gas;
    result.fees_wei += fee;

    for (const Call& c : tx.calls) {
      ++result.calls;
      AccountState& from = touch(c.from);
      const std::uint64_t value = std::min(from.balance_wei, c.value_wei);
      if (value < c.value_wei) ++result.clamped_transfers;
      from.balance_wei -= value;

      AccountState& to = touch(c.to);
      to.balance_wei += value;
      switch (c.kind) {
        case CallKind::kTransfer:
          break;
        case CallKind::kContractCall: {
          // An activation writes one fresh storage slot (the model behind
          // the registry's add_storage growth).
          to.is_contract = true;
          const std::uint64_t slot = to.nonce++;
          to.storage[slot] = 1 + slot;
          break;
        }
        case CallKind::kContractCreate:
          to.is_contract = true;
          to.storage[0] = 1;  // init code seeds the first slot
          // Contracts start life at nonce 1 (EIP-161), which also keeps
          // activation writes clear of the seeded slot 0.
          to.nonce = std::max<std::uint64_t>(to.nonce, 1);
          break;
      }
    }
  }
  return result;
}

BlockApplyResult StateDb::apply_chain(const Chain& chain) {
  BlockApplyResult total;
  for (std::uint64_t b = next_block_; b < chain.size(); ++b) {
    const BlockApplyResult r = apply(chain.block(b));
    total.transactions += r.transactions;
    total.calls += r.calls;
    total.gas_used += r.gas_used;
    total.fees_wei += r.fees_wei;
    total.clamped_transfers += r.clamped_transfers;
  }
  return total;
}

bool StateDb::exists(AccountId id) const {
  const auto it = accounts_.find(id);
  return it != accounts_.end() && it->second.exists;
}

bool StateDb::is_contract(AccountId id) const {
  const auto it = accounts_.find(id);
  return it != accounts_.end() && it->second.is_contract;
}

std::uint64_t StateDb::balance(AccountId id) const {
  const auto it = accounts_.find(id);
  return it == accounts_.end() ? 0 : it->second.balance_wei;
}

std::uint64_t StateDb::nonce(AccountId id) const {
  const auto it = accounts_.find(id);
  return it == accounts_.end() ? 0 : it->second.nonce;
}

std::uint64_t StateDb::storage_slots(AccountId id) const {
  const auto it = accounts_.find(id);
  return it == accounts_.end() ? 0 : it->second.storage.size();
}

std::uint64_t StateDb::storage_at(AccountId id, std::uint64_t slot) const {
  const auto it = accounts_.find(id);
  if (it == accounts_.end()) return 0;
  const auto sit = it->second.storage.find(slot);
  return sit == it->second.storage.end() ? 0 : sit->second;
}

bool StateDb::check_conservation() const {
  std::uint64_t total = fees_;
  for (const auto& [id, a] : accounts_) total += a.balance_wei;
  return total == minted_;
}

std::uint64_t StateDb::migration_bytes(AccountId id) const {
  if (!exists(id)) return 0;
  return kAccountRecordBytes + kStorageSlotBytes * storage_slots(id);
}

}  // namespace ethshard::eth
