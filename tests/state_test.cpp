// Tests for the execution substrate: gas accounting and the world-state
// database (including value conservation and the migration-cost model).
#include <gtest/gtest.h>

#include "eth/chain.hpp"
#include "eth/gas.hpp"
#include "eth/state.hpp"
#include "util/check.hpp"
#include "workload/generator.hpp"

namespace ethshard::eth {
namespace {

// ------------------------------------------------------------------- gas

Transaction transfer_tx(AccountId from, AccountId to, std::uint64_t value,
                        std::uint64_t gas_price = 1) {
  Transaction tx;
  tx.sender = from;
  tx.gas_price = gas_price;
  tx.calls.push_back(Call{from, to, CallKind::kTransfer, value});
  return tx;
}

TEST(Gas, PlainTransferCost) {
  const GasSchedule s;
  const Transaction tx = transfer_tx(1, 2, 100);
  // intrinsic + call + value surcharge + memory overhead
  EXPECT_EQ(transaction_gas(tx),
            s.g_transaction + s.g_call + s.g_callvalue +
                s.g_memory_per_call);
}

TEST(Gas, ZeroValueTransferSkipsSurcharge) {
  const GasSchedule s;
  const Transaction tx = transfer_tx(1, 2, 0);
  EXPECT_EQ(transaction_gas(tx),
            s.g_transaction + s.g_call + s.g_memory_per_call);
}

TEST(Gas, TransferToFreshAccountPaysNewAccount) {
  const GasSchedule s;
  const Transaction tx = transfer_tx(1, 2, 5);
  const std::uint64_t existing = transaction_gas(tx);
  const std::uint64_t fresh = transaction_gas(
      tx, [](AccountId id) { return id != 2; });
  EXPECT_EQ(fresh, existing + s.g_newaccount);
}

TEST(Gas, CreateCost) {
  const GasSchedule s;
  Transaction tx;
  tx.sender = 1;
  tx.calls.push_back(Call{1, 9, CallKind::kContractCreate, 0});
  EXPECT_EQ(transaction_gas(tx), s.g_transaction + s.g_create + s.g_sset +
                                     s.g_memory_per_call);
}

TEST(Gas, TraceCreatedAccountCountsAsExistingLater) {
  // Create contract 9, then transfer to it: the transfer must not pay
  // g_newaccount even if the pre-state lacks account 9.
  const GasSchedule s;
  Transaction tx;
  tx.sender = 1;
  tx.calls.push_back(Call{1, 9, CallKind::kContractCreate, 0});
  tx.calls.push_back(Call{1, 9, CallKind::kTransfer, 0});
  const std::uint64_t gas =
      transaction_gas(tx, [](AccountId) { return false; });
  EXPECT_EQ(gas, s.g_transaction + (s.g_create + s.g_sset) + s.g_call +
                     2 * s.g_memory_per_call);
}

TEST(Gas, FeeIsGasTimesPrice) {
  const Transaction tx = transfer_tx(1, 2, 100, /*gas_price=*/7);
  EXPECT_EQ(transaction_fee(tx), transaction_gas(tx) * 7);
}

TEST(Gas, CascadeCostsAccumulate) {
  Transaction tx;
  tx.sender = 1;
  tx.calls.push_back(Call{1, 5, CallKind::kContractCall, 0});
  const std::uint64_t one = transaction_gas(tx);
  tx.calls.push_back(Call{5, 6, CallKind::kContractCall, 0});
  EXPECT_GT(transaction_gas(tx), one);
}

// ----------------------------------------------------------------- state

Chain single_block_chain(std::vector<Transaction> txs) {
  Chain chain;
  Block b;
  b.number = 0;
  b.timestamp = 1000;
  b.transactions = std::move(txs);
  chain.append(std::move(b));
  return chain;
}

TEST(StateDb, TransferMovesValue) {
  StateDb db;
  db.credit(1, 1'000'000);
  const Chain chain = single_block_chain({transfer_tx(1, 2, 300, 0)});
  const BlockApplyResult r = db.apply_chain(chain);
  EXPECT_EQ(r.transactions, 1u);
  EXPECT_EQ(r.calls, 1u);
  EXPECT_EQ(db.balance(2), 300u);
  EXPECT_EQ(db.balance(1), 1'000'000u - 300);
  EXPECT_TRUE(db.check_conservation());
}

TEST(StateDb, FeesAreChargedAndConserved) {
  StateDb db;
  db.credit(1, 10'000'000);
  const Chain chain = single_block_chain({transfer_tx(1, 2, 100, 2)});
  const BlockApplyResult r = db.apply_chain(chain);
  EXPECT_GT(r.fees_wei, 0u);
  EXPECT_EQ(r.fees_wei, db.total_fees());
  EXPECT_EQ(db.balance(1), 10'000'000u - 100 - r.fees_wei);
  EXPECT_TRUE(db.check_conservation());
}

TEST(StateDb, InsufficientBalanceClamps) {
  StateDb db;  // account 1 has nothing
  const Chain chain = single_block_chain({transfer_tx(1, 2, 500, 0)});
  const BlockApplyResult r = db.apply_chain(chain);
  EXPECT_EQ(r.clamped_transfers, 1u);
  EXPECT_EQ(db.balance(2), 0u);
  EXPECT_TRUE(db.check_conservation());
}

TEST(StateDb, NonceIncrementsPerTransaction) {
  StateDb db;
  db.credit(1, 1000);
  const Chain chain = single_block_chain(
      {transfer_tx(1, 2, 1, 0), transfer_tx(1, 3, 1, 0)});
  db.apply_chain(chain);
  EXPECT_EQ(db.nonce(1), 2u);
}

TEST(StateDb, ContractCallsGrowStorage) {
  StateDb db;
  db.credit(1, 1000);
  Transaction tx;
  tx.sender = 1;
  tx.gas_price = 0;
  tx.calls.push_back(Call{1, 7, CallKind::kContractCreate, 0});
  tx.calls.push_back(Call{1, 7, CallKind::kContractCall, 0});
  tx.calls.push_back(Call{1, 7, CallKind::kContractCall, 0});
  db.apply_chain(single_block_chain({tx}));
  EXPECT_TRUE(db.is_contract(7));
  EXPECT_GE(db.storage_slots(7), 3u);  // create seed + 2 activations
}

TEST(StateDb, MigrationBytesScaleWithStorage) {
  StateDb db;
  db.credit(1, 1000);
  Transaction tx;
  tx.sender = 1;
  tx.gas_price = 0;
  tx.calls.push_back(Call{1, 7, CallKind::kContractCreate, 0});
  for (int i = 0; i < 10; ++i)
    tx.calls.push_back(Call{1, 7, CallKind::kContractCall, 0});
  db.apply_chain(single_block_chain({tx}));
  EXPECT_GT(db.migration_bytes(7), db.migration_bytes(1));
  EXPECT_EQ(db.migration_bytes(999), 0u);  // unknown account
}

TEST(StateDb, BlocksMustApplyInOrder) {
  StateDb db;
  Chain chain;
  Block b0;
  b0.number = 0;
  b0.timestamp = 1;
  chain.append(std::move(b0));
  Block b1;
  b1.number = 1;
  b1.timestamp = 2;
  b1.parent_hash = chain.block_hash(0);
  chain.append(std::move(b1));

  db.apply(chain.block(1 - 1));
  EXPECT_THROW(db.apply(chain.block(0)), util::CheckFailure);  // replay
  EXPECT_NO_THROW(db.apply(chain.block(1)));
}

TEST(StateDb, ExecutesGeneratedHistory) {
  workload::GeneratorConfig cfg;
  cfg.scale = 0.0005;
  cfg.seed = 3;
  const workload::History history =
      workload::EthereumHistoryGenerator(cfg).generate();

  StateDb db;
  // Premine every account generously so transfers rarely clamp.
  for (const AccountInfo& info : history.accounts.all())
    if (info.kind == AccountKind::kExternallyOwned)
      db.credit(info.id, 1'000'000'000ULL);

  const BlockApplyResult r = db.apply_chain(history.chain);
  EXPECT_EQ(r.transactions, history.chain.transaction_count());
  EXPECT_GT(r.gas_used, 21000 * r.transactions);
  EXPECT_TRUE(db.check_conservation());

  // Contracts touched by calls must have storage.
  std::uint64_t contracts_with_storage = 0;
  for (const AccountInfo& info : history.accounts.all())
    if (info.kind == AccountKind::kContract && db.storage_slots(info.id) > 0)
      ++contracts_with_storage;
  EXPECT_GT(contracts_with_storage, 0u);
}

}  // namespace
}  // namespace ethshard::eth
