#include "eth/chain.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ethshard::eth {

void Chain::append(Block block, std::optional<Hash256> hash) {
  if (blocks_.empty()) {
    ETHSHARD_CHECK_MSG(block.number == 0, "genesis block must have number 0");
  } else {
    const Block& prev = blocks_.back();
    ETHSHARD_CHECK_MSG(block.number == prev.number + 1,
                       "non-consecutive block number " << block.number);
    ETHSHARD_CHECK_MSG(block.parent_hash == hashes_.back(),
                       "parent hash mismatch at block " << block.number);
    ETHSHARD_CHECK_MSG(block.timestamp >= prev.timestamp,
                       "timestamp regression at block " << block.number);
  }
  tx_count_ += block.transactions.size();
  hashes_.push_back(hash ? *hash : block.hash());
  blocks_.push_back(std::move(block));
}

const Hash256& Chain::block_hash(std::uint64_t number) const {
  ETHSHARD_CHECK(number < hashes_.size());
  return hashes_[number];
}

const Block& Chain::block(std::uint64_t number) const {
  ETHSHARD_CHECK(number < blocks_.size());
  return blocks_[number];
}

const Block& Chain::last() const {
  ETHSHARD_CHECK(!blocks_.empty());
  return blocks_.back();
}

bool Chain::validate() const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const Block& b = blocks_[i];
    if (b.number != i) return false;
    if (i > 0) {
      if (b.parent_hash != blocks_[i - 1].hash()) return false;
      if (b.timestamp < blocks_[i - 1].timestamp) return false;
    }
    if (!std::all_of(b.transactions.begin(), b.transactions.end(),
                     [](const Transaction& tx) { return tx.well_formed(); }))
      return false;
  }
  return true;
}

}  // namespace ethshard::eth
