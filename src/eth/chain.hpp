// The canonical chain: an append-only, hash-linked sequence of blocks.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "eth/block.hpp"

namespace ethshard::eth {

/// Append-only blockchain with structural validation on append.
///
/// Invariants maintained:
///  * block numbers are consecutive starting at 0 (genesis);
///  * every block's parent_hash equals the previous block's hash;
///  * timestamps are non-decreasing.
class Chain {
 public:
  /// Appends a block after validating linkage. Throws util::CheckFailure
  /// if the block does not extend the chain. A producer that already
  /// hashed the block (to link its successor) passes that `hash`, which
  /// must equal block.hash(), so the chain does not compute it again.
  void append(Block block, std::optional<Hash256> hash = std::nullopt);

  std::size_t size() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }

  /// Precondition: number < size().
  const Block& block(std::uint64_t number) const;
  const Block& last() const;

  const std::vector<Block>& blocks() const { return blocks_; }

  /// Re-validates the whole chain from genesis (hash links, numbering,
  /// timestamp monotonicity, transaction well-formedness). Returns true
  /// iff every invariant holds. O(total transactions).
  bool validate() const;

  /// Total transactions across all blocks.
  std::uint64_t transaction_count() const { return tx_count_; }

  /// Cached hash of block `number` (computed once at append time).
  /// Precondition: number < size().
  const Hash256& block_hash(std::uint64_t number) const;

 private:
  std::vector<Block> blocks_;
  std::vector<Hash256> hashes_;  // hashes_[i] == blocks_[i].hash(), cached
  std::uint64_t tx_count_ = 0;
};

}  // namespace ethshard::eth
