// Demonstrates the miner-side substrate (§II-A): users submit
// transactions with different gas prices, the mempool keeps per-sender
// nonce order, and a miner packs blocks greedily by fee under a block gas
// limit. The packed blocks are then executed against the StateDb, showing
// fees flowing from senders into the fee pot with value conserved.
//
//   $ ./mempool_packing
#include <cstdio>

#include "eth/chain.hpp"
#include "eth/mempool.hpp"
#include "eth/state.hpp"
#include "util/rng.hpp"

int main() {
  using namespace ethshard;
  using eth::AccountId;

  util::Rng rng(7);
  eth::Mempool pool;
  eth::StateDb state;

  // Ten users with funds; each queues a small burst of transfers at a
  // random fee level.
  constexpr AccountId kUsers = 10;
  for (AccountId u = 0; u < kUsers; ++u) state.credit(u, 50'000'000);

  std::uint64_t submitted = 0;
  for (AccountId u = 0; u < kUsers; ++u) {
    const std::uint64_t burst = 1 + rng.uniform(4);
    for (std::uint64_t n = 0; n < burst; ++n) {
      eth::Transaction tx;
      tx.sender = u;
      tx.nonce = n;
      tx.gas_price = 1 + rng.uniform(60);
      tx.calls.push_back(eth::Call{u, (u + 1 + rng.uniform(kUsers - 1)) % kUsers,
                                   eth::CallKind::kTransfer,
                                   100 + rng.uniform(900)});
      if (pool.submit(std::move(tx))) ++submitted;
    }
  }
  std::printf("mempool: %zu pending transactions (%llu submitted)\n\n",
              pool.size(), static_cast<unsigned long long>(submitted));

  // Mine blocks with a deliberately small gas limit so packing is visible.
  const std::uint64_t gas_limit = 140'000;  // ~4 plain transfers
  eth::Chain chain;
  util::Timestamp now = util::genesis_time();
  std::uint64_t block_number = 0;

  while (!pool.empty()) {
    eth::Block block;
    block.number = block_number;
    block.timestamp = now;
    if (!chain.empty())
      block.parent_hash = chain.block_hash(block_number - 1);
    block.transactions = pool.pack_block(gas_limit);
    if (block.transactions.empty()) break;  // nothing fits

    double mean_price = 0;
    for (const eth::Transaction& tx : block.transactions)
      mean_price += static_cast<double>(tx.gas_price);
    mean_price /= static_cast<double>(block.transactions.size());

    const eth::BlockApplyResult r = state.apply(block);
    std::printf("block %2llu: %zu txs, gas %7llu/%llu, mean gas price "
                "%5.1f, fees %llu wei\n",
                static_cast<unsigned long long>(block.number),
                block.transactions.size(),
                static_cast<unsigned long long>(r.gas_used),
                static_cast<unsigned long long>(gas_limit), mean_price,
                static_cast<unsigned long long>(r.fees_wei));

    chain.append(std::move(block));
    ++block_number;
    now += 15;  // one slot
  }

  std::printf("\nchain: %zu blocks, validates: %s\n", chain.size(),
              chain.validate() ? "yes" : "NO");
  std::printf("fee pot: %llu wei; value conserved: %s\n",
              static_cast<unsigned long long>(state.total_fees()),
              state.check_conservation() ? "yes" : "NO");
  std::printf("\nNote how early blocks carry the highest mean gas price —\n"
              "the miner policy the paper describes in §II-A.\n");
  return 0;
}
