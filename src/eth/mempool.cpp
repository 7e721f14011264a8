#include "eth/mempool.hpp"

namespace ethshard::eth {

bool Mempool::submit(Transaction tx) {
  if (!tx.well_formed()) return false;
  auto& queue = by_sender_[tx.sender];
  const auto it = queue.find(tx.nonce);
  if (it != queue.end()) {
    if (tx.gas_price <= it->second.tx.gas_price) return false;
    Pending replacement;
    replacement.gas = transaction_gas(tx, schedule_);
    replacement.tx = std::move(tx);
    it->second = std::move(replacement);
    return true;
  }
  Pending p;
  p.gas = transaction_gas(tx, schedule_);
  p.tx = std::move(tx);
  queue.emplace(p.tx.nonce, std::move(p));
  ++count_;
  return true;
}

bool Mempool::contains(AccountId sender, std::uint64_t nonce) const {
  const auto it = by_sender_.find(sender);
  return it != by_sender_.end() && it->second.contains(nonce);
}

std::vector<Transaction> Mempool::pack_block(std::uint64_t gas_limit) {
  std::vector<Transaction> block;
  std::uint64_t gas_used = 0;

  while (true) {
    // The eligible candidate of each sender is its lowest pending nonce;
    // pick the one with the best gas price (ties: smaller sender id —
    // sender maps iterate in id order, so first-best wins).
    auto best_sender = by_sender_.end();
    for (auto it = by_sender_.begin(); it != by_sender_.end(); ++it) {
      if (it->second.empty()) continue;
      const Pending& head = it->second.begin()->second;
      if (gas_used + head.gas > gas_limit) continue;  // does not fit
      if (best_sender == by_sender_.end() ||
          head.tx.gas_price >
              best_sender->second.begin()->second.tx.gas_price)
        best_sender = it;
    }
    if (best_sender == by_sender_.end()) break;

    auto head = best_sender->second.begin();
    gas_used += head->second.gas;
    block.push_back(std::move(head->second.tx));
    best_sender->second.erase(head);
    --count_;
    if (best_sender->second.empty()) by_sender_.erase(best_sender);
  }
  return block;
}

}  // namespace ethshard::eth
