// Unit tests for the blockchain substrate: Keccak-256 vectors, addresses,
// transactions, block hashing, chain linkage and validation, and the
// mempool's fee-priority block packing under a gas limit (§II-A).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "eth/address.hpp"
#include "eth/block.hpp"
#include "eth/chain.hpp"
#include "eth/keccak.hpp"
#include "eth/mempool.hpp"
#include "eth/transaction.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/block_source.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"
#include "workload/trace_io.hpp"

namespace ethshard::eth {
namespace {

// ---------------------------------------------------------------- keccak

TEST(Keccak, EmptyStringVector) {
  // Published Keccak-256 (pre-NIST padding) vector; this is the digest
  // Ethereum uses for the empty string.
  EXPECT_EQ(to_hex(keccak256("")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak, AbcVector) {
  EXPECT_EQ(to_hex(keccak256("abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak, LongMessageVector) {
  // "The quick brown fox jumps over the lazy dog"
  EXPECT_EQ(to_hex(keccak256("The quick brown fox jumps over the lazy dog")),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Keccak, MultiBlockMessage) {
  // Message longer than the 136-byte rate exercises multi-block absorb.
  const std::string msg(1000, 'a');
  const Hash256 one_shot = keccak256(msg);
  Keccak256 incremental;
  for (std::size_t i = 0; i < msg.size(); i += 7)
    incremental.update(msg.substr(i, 7));
  EXPECT_EQ(one_shot, incremental.finalize());
}

TEST(Keccak, RateBoundaryLengths) {
  // Lengths straddling the 136-byte rate: padding edge cases.
  for (std::size_t len : {135u, 136u, 137u, 271u, 272u, 273u}) {
    const std::string msg(len, 'x');
    Keccak256 a;
    a.update(msg);
    Keccak256 b;
    b.update(msg.substr(0, len / 2));
    b.update(msg.substr(len / 2));
    EXPECT_EQ(a.finalize(), b.finalize()) << "len=" << len;
  }
}

TEST(Keccak, DifferentInputsDifferentDigests) {
  EXPECT_NE(keccak256("a"), keccak256("b"));
  EXPECT_NE(keccak256(""), keccak256(std::string(1, '\0')));
}

TEST(Keccak, HexRoundTrip) {
  const Hash256 h = keccak256("roundtrip");
  EXPECT_EQ(hash_from_hex(to_hex(h)), h);
  EXPECT_EQ(hash_from_hex("0x" + to_hex(h)), h);
}

TEST(Keccak, HexRejectsMalformed) {
  EXPECT_THROW(hash_from_hex("abc"), util::CheckFailure);
  EXPECT_THROW(hash_from_hex(std::string(64, 'g')), util::CheckFailure);
}

TEST(Keccak, PrefixU64BigEndian) {
  Hash256 h{};
  h[0] = 0x01;
  h[7] = 0xFF;
  EXPECT_EQ(hash_prefix_u64(h), 0x01000000000000FFULL);
}

TEST(Keccak, FinalizeTwiceThrows) {
  Keccak256 h;
  h.update("x");
  h.finalize();
  EXPECT_THROW(h.finalize(), util::CheckFailure);
}

// Hash of the last block a source emits (the tip of its parent_hash chain).
Hash256 tip_hash(workload::BlockSource& source) {
  Block block;
  Hash256 tip{};
  while (source.next(block)) tip = block.hash();
  return tip;
}

// Digests recorded from the loop-based reference permutation with
// byte-buffered absorption; any change to the kernel must reproduce them
// exactly. Covers every padding position (lengths 0-400 cross the 136-byte
// rate twice), the u64-field hashers the workload layer runs per
// transaction and per block, address derivation, and the parent_hash chain
// of a generated history and of the same history re-read from a trace.
TEST(Keccak, DigestsArePinned) {
  std::string pattern;
  for (std::size_t i = 0; i < 400; ++i)
    pattern += static_cast<char>(i * 31 + 7);
  Keccak256 fold;
  for (std::size_t len = 0; len <= pattern.size(); ++len) {
    const Hash256 h = keccak256(std::string_view(pattern).substr(0, len));
    fold.update(h.data(), h.size());
  }
  EXPECT_EQ(to_hex(fold.finalize()),
            "4e497481efa448454b6cb8a3e1b1814ff539c0b0bbcefa2a1ca54a20aa789ec1");

  Transaction tx;
  tx.sender = 17;
  tx.nonce = 3;
  tx.gas_limit = 90000;
  tx.gas_price = 20'000'000'000;
  tx.calls.push_back(Call{17, 400, CallKind::kContractCall, 0});
  tx.calls.push_back(Call{400, 401, CallKind::kTransfer, 5});
  tx.calls.push_back(Call{401, 402, CallKind::kContractCreate, 0});
  EXPECT_EQ(to_hex(tx.hash()),
            "2d0e4a1391d46d1f725a6769bc6e51d26b9fbe9d5bb5564aeb6dce713df8b1d7");

  Block block;
  block.number = 4'000'000;
  block.timestamp = 1'500'000'000;
  block.parent_hash = keccak256("parent");
  block.transactions.push_back(tx);
  tx.nonce = 4;
  block.transactions.push_back(tx);
  EXPECT_EQ(to_hex(block.hash()),
            "a06ab937b3b523e1b3138d21428712ea4c99c5d8a30b173d6b4c5353155d1a15");

  EXPECT_EQ(Address::from_id(0).to_hex(),
            "0x9c4c817e4b167f1d1b83e5c6f0f10d89ba1e7bce");
  EXPECT_EQ(Address::from_id(1).to_hex(),
            "0xe84da73c298afacc0924e01105e2eb0f01a87fe2");
  EXPECT_EQ(Address::from_id(0xFFFFFFFFu).to_hex(),
            "0xca2ef9627a1b2890af26ef1fb09b8497886471b7");
  EXPECT_EQ(Address::from_id(~std::uint64_t{0}).to_hex(),
            "0xc315168cc0a11ee99e2a680e548ecf0a464e7daf");

  const workload::GeneratorConfig cfg = workload::preset_config(
      workload::Preset::kPaper, {.scale = 0.0002, .seed = 1234});
  workload::GeneratedSource generated(cfg);
  EXPECT_EQ(to_hex(tip_hash(generated)),
            "70f40eb307a10042e2276d42ab58d6bca8e2c7df27c416aefdf528a353f1fecc");

  std::stringstream trace;
  workload::write_trace(trace,
                        workload::EthereumHistoryGenerator(cfg).generate());
  workload::TraceSource reread(trace);
  EXPECT_EQ(to_hex(tip_hash(reread)),
            "a7c03124ac45e357a41eda75e23e573f743685eed821517c69942c70eb4bd6a8");
}

// Absorption splits input into 8-byte lanes; however a message is cut
// into update()/update_u64() calls, and at whatever lane offset the cuts
// fall, the digest must equal the one-shot hash.
TEST(Keccak, ChunkingNeverChangesTheDigest) {
  util::Rng rng(20261018);
  for (int trial = 0; trial < 200; ++trial) {
    std::string msg(rng.uniform(600), '\0');
    for (char& c : msg) c = static_cast<char>(rng.uniform(256));
    const Hash256 expected = keccak256(msg);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      Keccak256 h;
      std::size_t pos = std::min(offset, msg.size());
      h.update(std::string_view(msg).substr(0, pos));
      while (pos < msg.size()) {
        if (msg.size() - pos >= 8 && rng.bernoulli(0.5)) {
          std::uint64_t v = 0;
          for (std::size_t b = 0; b < 8; ++b)
            v |= std::uint64_t{static_cast<std::uint8_t>(msg[pos + b])}
                 << (8 * b);
          h.update_u64(v);
          pos += 8;
        } else {
          const std::size_t take = std::min<std::size_t>(
              rng.uniform(40), msg.size() - pos);
          h.update(std::string_view(msg).substr(pos, take));
          pos += take;
        }
      }
      EXPECT_EQ(h.finalize(), expected)
          << "trial " << trial << " len " << msg.size() << " offset "
          << offset;
    }
  }
}

// --------------------------------------------------------------- address

TEST(Address, DerivationIsDeterministic) {
  EXPECT_EQ(Address::from_id(42), Address::from_id(42));
  EXPECT_NE(Address::from_id(42), Address::from_id(43));
}

TEST(Address, HexRoundTrip) {
  const Address a = Address::from_id(7);
  EXPECT_EQ(Address::from_hex(a.to_hex()), a);
  EXPECT_EQ(a.to_hex().size(), 42u);
  EXPECT_EQ(a.to_hex().substr(0, 2), "0x");
}

TEST(Address, HexRejectsBadLength) {
  EXPECT_THROW(Address::from_hex("0x1234"), util::CheckFailure);
}

TEST(AccountRegistry, DenseIds) {
  AccountRegistry reg;
  EXPECT_EQ(reg.create(AccountKind::kExternallyOwned, 100), 0u);
  EXPECT_EQ(reg.create(AccountKind::kContract, 200, 16), 1u);
  EXPECT_EQ(reg.create(AccountKind::kExternallyOwned, 300), 2u);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.contract_count(), 1u);
  EXPECT_EQ(reg.info(1).kind, AccountKind::kContract);
  EXPECT_EQ(reg.info(1).created_at, 200);
  EXPECT_EQ(reg.info(1).storage_slots, 16u);
}

TEST(AccountRegistry, StorageGrowth) {
  AccountRegistry reg;
  const AccountId c = reg.create(AccountKind::kContract, 0, 4);
  reg.add_storage(c, 10);
  EXPECT_EQ(reg.info(c).storage_slots, 14u);
}

TEST(AccountRegistry, OutOfRangeThrows) {
  AccountRegistry reg;
  EXPECT_THROW(reg.info(0), util::CheckFailure);
}

// ----------------------------------------------------------- transaction

Transaction simple_transfer(AccountId from, AccountId to) {
  Transaction tx;
  tx.sender = from;
  tx.calls.push_back(Call{from, to, CallKind::kTransfer, 100});
  return tx;
}

TEST(Transaction, WellFormedTransfer) {
  EXPECT_TRUE(simple_transfer(1, 2).well_formed());
}

TEST(Transaction, EmptyTraceIsMalformed) {
  Transaction tx;
  tx.sender = 1;
  EXPECT_FALSE(tx.well_formed());
}

TEST(Transaction, FirstCallMustOriginateAtSender) {
  Transaction tx;
  tx.sender = 1;
  tx.calls.push_back(Call{2, 3, CallKind::kTransfer, 0});
  EXPECT_FALSE(tx.well_formed());
}

TEST(Transaction, InternalCallsMustChainFromTouchedAccounts) {
  Transaction tx;
  tx.sender = 1;
  tx.calls.push_back(Call{1, 2, CallKind::kContractCall, 0});
  tx.calls.push_back(Call{2, 3, CallKind::kTransfer, 5});   // ok: 2 touched
  tx.calls.push_back(Call{3, 4, CallKind::kContractCall, 0});  // ok: 3 touched
  EXPECT_TRUE(tx.well_formed());
  tx.calls.push_back(Call{9, 1, CallKind::kTransfer, 0});  // 9 never touched
  EXPECT_FALSE(tx.well_formed());
}

TEST(Transaction, HashCoversCallList) {
  Transaction a = simple_transfer(1, 2);
  Transaction b = simple_transfer(1, 2);
  EXPECT_EQ(a.hash(), b.hash());
  b.calls[0].value_wei = 101;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Transaction, HashCoversMetadata) {
  Transaction a = simple_transfer(1, 2);
  Transaction b = a;
  b.nonce = 7;
  EXPECT_NE(a.hash(), b.hash());
}

// ----------------------------------------------------------------- block

TEST(Block, HashDependsOnTransactions) {
  Block b1;
  b1.number = 1;
  b1.timestamp = 1000;
  b1.transactions.push_back(simple_transfer(1, 2));
  Block b2 = b1;
  EXPECT_EQ(b1.hash(), b2.hash());
  b2.transactions.push_back(simple_transfer(2, 3));
  EXPECT_NE(b1.hash(), b2.hash());
}

TEST(Block, HashDependsOnParent) {
  Block b1;
  b1.number = 1;
  Block b2 = b1;
  b2.parent_hash[0] = 0xFF;
  EXPECT_NE(b1.hash(), b2.hash());
}

// ----------------------------------------------------------------- chain

Chain make_chain(int blocks, int txs_per_block = 1) {
  Chain chain;
  for (int i = 0; i < blocks; ++i) {
    Block b;
    b.number = static_cast<std::uint64_t>(i);
    b.timestamp = 1000 * (i + 1);
    if (i > 0)
      b.parent_hash = chain.block_hash(static_cast<std::uint64_t>(i - 1));
    for (int t = 0; t < txs_per_block; ++t)
      b.transactions.push_back(simple_transfer(
          static_cast<AccountId>(i), static_cast<AccountId>(i + 1)));
    chain.append(std::move(b));
  }
  return chain;
}

TEST(Chain, AppendAndValidate) {
  const Chain chain = make_chain(5, 3);
  EXPECT_EQ(chain.size(), 5u);
  EXPECT_EQ(chain.transaction_count(), 15u);
  EXPECT_TRUE(chain.validate());
}

TEST(Chain, RejectsWrongGenesisNumber) {
  Chain chain;
  Block b;
  b.number = 1;
  EXPECT_THROW(chain.append(std::move(b)), util::CheckFailure);
}

TEST(Chain, RejectsNonConsecutiveNumber) {
  Chain chain = make_chain(2);
  Block b;
  b.number = 5;
  b.parent_hash = chain.block_hash(1);
  b.timestamp = 99999;
  EXPECT_THROW(chain.append(std::move(b)), util::CheckFailure);
}

TEST(Chain, RejectsBadParentHash) {
  Chain chain = make_chain(2);
  Block b;
  b.number = 2;
  b.parent_hash = Hash256{};  // wrong
  b.timestamp = 99999;
  EXPECT_THROW(chain.append(std::move(b)), util::CheckFailure);
}

TEST(Chain, RejectsTimestampRegression) {
  Chain chain = make_chain(2);
  Block b;
  b.number = 2;
  b.parent_hash = chain.block_hash(1);
  b.timestamp = 1;  // before block 1
  EXPECT_THROW(chain.append(std::move(b)), util::CheckFailure);
}

TEST(Chain, BlockHashCacheMatchesRecomputation) {
  const Chain chain = make_chain(4);
  for (std::uint64_t i = 0; i < chain.size(); ++i)
    EXPECT_EQ(chain.block_hash(i), chain.block(i).hash());

  // generate() hands append() the hash sealing already computed instead
  // of letting it hash each block again; the cache must still be exact.
  const workload::GeneratorConfig cfg = workload::preset_config(
      workload::Preset::kPaper, {.scale = 0.0002, .seed = 1234});
  const Chain generated =
      workload::EthereumHistoryGenerator(cfg).generate().chain;
  ASSERT_GT(generated.size(), 1u);
  for (std::uint64_t i = 0; i < generated.size(); ++i)
    EXPECT_EQ(generated.block_hash(i), generated.block(i).hash())
        << "block " << i;
}

TEST(Chain, ValidateDetectsMalformedTransaction) {
  Chain chain;
  Block b;
  b.number = 0;
  b.timestamp = 10;
  Transaction bad;
  bad.sender = 1;
  bad.calls.push_back(Call{2, 3, CallKind::kTransfer, 0});  // wrong origin
  b.transactions.push_back(bad);
  chain.append(std::move(b));
  EXPECT_FALSE(chain.validate());
}

TEST(Chain, EmptyChainQueries) {
  Chain chain;
  EXPECT_TRUE(chain.empty());
  EXPECT_TRUE(chain.validate());
  EXPECT_THROW(chain.last(), util::CheckFailure);
}

// --------------------------------------------------------------- mempool

Transaction make_tx(AccountId sender, std::uint64_t nonce,
                    std::uint64_t gas_price, AccountId to = 999) {
  Transaction tx;
  tx.sender = sender;
  tx.nonce = nonce;
  tx.gas_price = gas_price;
  tx.calls.push_back(Call{sender, to, CallKind::kTransfer, 1});
  return tx;
}

TEST(Mempool, SubmitAndSize) {
  Mempool pool;
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.submit(make_tx(1, 0, 5)));
  EXPECT_TRUE(pool.submit(make_tx(2, 0, 7)));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.contains(1, 0));
  EXPECT_FALSE(pool.contains(1, 1));
}

TEST(Mempool, RejectsMalformed) {
  Mempool pool;
  Transaction bad;
  bad.sender = 1;  // empty trace
  EXPECT_FALSE(pool.submit(std::move(bad)));
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, ReplacementRequiresBetterPrice) {
  Mempool pool;
  EXPECT_TRUE(pool.submit(make_tx(1, 0, 5)));
  EXPECT_FALSE(pool.submit(make_tx(1, 0, 5)));  // equal price
  EXPECT_FALSE(pool.submit(make_tx(1, 0, 4)));  // worse
  EXPECT_TRUE(pool.submit(make_tx(1, 0, 9)));   // better replaces
  EXPECT_EQ(pool.size(), 1u);
  const auto block = pool.pack_block(1'000'000);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].gas_price, 9u);
}

TEST(Mempool, PacksByGasPrice) {
  Mempool pool;
  pool.submit(make_tx(1, 0, 3));
  pool.submit(make_tx(2, 0, 9));
  pool.submit(make_tx(3, 0, 6));
  const auto block = pool.pack_block(10'000'000);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].gas_price, 9u);
  EXPECT_EQ(block[1].gas_price, 6u);
  EXPECT_EQ(block[2].gas_price, 3u);
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, NonceChainsNeverReorder) {
  Mempool pool;
  // Sender 1's nonce-1 tx pays more than its nonce-0 tx, but must still
  // come after it.
  pool.submit(make_tx(1, 0, 2));
  pool.submit(make_tx(1, 1, 50));
  pool.submit(make_tx(2, 0, 10));
  const auto block = pool.pack_block(10'000'000);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].sender, 2u);  // best eligible price
  EXPECT_EQ(block[1].sender, 1u);
  EXPECT_EQ(block[1].nonce, 0u);
  EXPECT_EQ(block[2].nonce, 1u);
}

TEST(Mempool, RespectsGasLimit) {
  Mempool pool;
  for (AccountId s = 1; s <= 10; ++s) pool.submit(make_tx(s, 0, s));
  const std::uint64_t one_tx_gas = transaction_gas(make_tx(1, 0, 1));
  const auto block = pool.pack_block(3 * one_tx_gas);
  EXPECT_EQ(block.size(), 3u);
  EXPECT_EQ(pool.size(), 7u);
  // Highest payers got in.
  EXPECT_EQ(block[0].gas_price, 10u);
  EXPECT_EQ(block[1].gas_price, 9u);
  EXPECT_EQ(block[2].gas_price, 8u);
}

TEST(Mempool, ZeroLimitPacksNothing) {
  Mempool pool;
  pool.submit(make_tx(1, 0, 5));
  EXPECT_TRUE(pool.pack_block(0).empty());
  EXPECT_EQ(pool.size(), 1u);
}

}  // namespace
}  // namespace ethshard::eth
