#include "workload/import.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <unordered_map>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace ethshard::workload {

namespace {

/// Column indices resolved from the header row.
struct Columns {
  std::size_t block_number = 0;
  std::size_t block_timestamp = 0;
  std::size_t transaction_hash = 0;
  std::size_t from_address = 0;
  std::size_t to_address = 0;
  std::size_t value = 0;
  std::size_t trace_type = 0;
};

std::size_t find_column(const std::vector<std::string>& header,
                        const std::string& name) {
  const auto it = std::find(header.begin(), header.end(), name);
  ETHSHARD_INPUT_CHECK(it != header.end(),
                     "traces CSV is missing column '" << name << "'");
  return static_cast<std::size_t>(it - header.begin());
}

constexpr std::size_t kNoColumn = ~std::size_t{0};

std::size_t find_column_optional(const std::vector<std::string>& header,
                                 const std::string& name) {
  const auto it = std::find(header.begin(), header.end(), name);
  return it == header.end() ? kNoColumn
                            : static_cast<std::size_t>(it - header.begin());
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

/// Unix seconds, or "YYYY-MM-DD HH:MM:SS[ UTC]".
bool parse_timestamp(const std::string& s, util::Timestamp& out) {
  std::uint64_t unix_secs = 0;
  if (parse_u64(s, unix_secs)) {
    out = static_cast<util::Timestamp>(unix_secs);
    return true;
  }
  int y = 0;
  int mo = 0;
  int d = 0;
  int h = 0;
  int mi = 0;
  int sec = 0;
  if (std::sscanf(s.c_str(), "%d-%d-%d %d:%d:%d", &y, &mo, &d, &h, &mi,
                  &sec) != 6)
    return false;
  if (mo < 1 || mo > 12 || d < 1 || d > 31) return false;
  out = util::make_timestamp(y, mo, d) + h * util::kHour +
        mi * util::kMinute + sec;
  return true;
}

/// Decimal wei, clamped to uint64 (real values can exceed 2^64).
std::uint64_t parse_value_clamped(const std::string& s) {
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return 0;
    if (v > (~std::uint64_t{0} - 9) / 10) return ~std::uint64_t{0};
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

bool is_hex_address(const std::string& s) {
  if (s.size() != 42 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X'))
    return false;
  return std::all_of(s.begin() + 2, s.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
           (c >= 'A' && c <= 'F');
  });
}

}  // namespace

ImportResult import_bigquery_traces(std::istream& in) {
  util::CsvReader reader(in);
  std::vector<std::string> row;
  ETHSHARD_INPUT_CHECK(reader.read_row(row), "empty traces CSV");

  Columns col;
  col.block_number = find_column(row, "block_number");
  col.block_timestamp = find_column(row, "block_timestamp");
  col.transaction_hash = find_column(row, "transaction_hash");
  col.from_address = find_column(row, "from_address");
  col.to_address = find_column(row, "to_address");
  col.value = find_column(row, "value");
  col.trace_type = find_column(row, "trace_type");
  // Optional: with the `input` column present, a "call" with empty
  // calldata is a plain ether transfer, not a contract activation.
  const std::size_t input_col = find_column_optional(row, "input");
  const std::size_t width = row.size();

  ImportResult result;
  ImportStats& stats = result.stats;

  std::unordered_map<std::string, eth::AccountId> ids;
  // Kind is finalized at the end: any address that was ever the target of
  // a create (or a call trace) is a contract.
  std::vector<bool> is_contract;
  std::vector<util::Timestamp> first_seen;

  eth::Block block;
  bool block_open = false;
  std::uint64_t source_block = 0;  // original chain number of `block`
  std::string open_tx_hash;

  // Blocks are renumbered densely from 0 (the source export usually
  // starts mid-chain).
  auto seal_block = [&] {
    if (!block_open || block.transactions.empty()) {
      block_open = false;
      return;
    }
    block.number = result.history.chain.size();
    if (!result.history.chain.empty())
      block.parent_hash =
          result.history.chain.block_hash(block.number - 1);
    result.history.chain.append(std::move(block));
    ++stats.blocks;
    block = eth::Block{};
    block_open = false;
  };

  auto account_of = [&](const std::string& hex,
                        util::Timestamp ts) -> eth::AccountId {
    const auto it = ids.find(hex);
    if (it != ids.end()) return it->second;
    const eth::AccountId id = ids.size();
    ids.emplace(hex, id);
    is_contract.push_back(false);
    first_seen.push_back(ts);
    return id;
  };

  while (reader.read_row(row)) {
    ++stats.rows;
    if (row.size() != width) {
      ++stats.skipped_rows;
      continue;
    }
    const std::string& type = row[col.trace_type];
    if (type == "reward") {  // miner rewards have no sender account
      ++stats.skipped_rows;
      continue;
    }

    std::uint64_t block_number = 0;
    util::Timestamp ts = 0;
    if (!parse_u64(row[col.block_number], block_number) ||
        !parse_timestamp(row[col.block_timestamp], ts) ||
        !is_hex_address(row[col.from_address]) ||
        !is_hex_address(row[col.to_address])) {
      ++stats.skipped_rows;
      continue;
    }

    if (!block_open || block_number != source_block) {
      ETHSHARD_INPUT_CHECK(!block_open || block_number > source_block,
                         "traces CSV is not sorted by block_number");
      seal_block();
      source_block = block_number;
      block.timestamp = ts;
      block_open = true;
      open_tx_hash.clear();
    }

    const eth::AccountId from = account_of(row[col.from_address], ts);
    const eth::AccountId to = account_of(row[col.to_address], ts);

    eth::CallKind kind = eth::CallKind::kTransfer;
    if (type == "create") {
      kind = eth::CallKind::kContractCreate;
      is_contract[to] = true;
    } else if (type == "call") {
      const bool plain_transfer =
          input_col != kNoColumn &&
          (row[input_col].empty() || row[input_col] == "0x");
      if (!plain_transfer) {
        kind = eth::CallKind::kContractCall;
        is_contract[to] = true;
      }
    }
    // "suicide" and anything else stays a plain transfer.

    const std::string& tx_hash = row[col.transaction_hash];
    if (block.transactions.empty() || tx_hash.empty() ||
        tx_hash != open_tx_hash) {
      eth::Transaction tx;
      tx.sender = from;
      block.transactions.push_back(std::move(tx));
      open_tx_hash = tx_hash;
      ++stats.transactions;
    }
    block.transactions.back().calls.push_back(
        eth::Call{from, to, kind, parse_value_clamped(row[col.value])});
    ++stats.imported_calls;
  }
  seal_block();

  // Registry ids must be dense and in id order; is_contract/first_seen
  // are already indexed by id. (A "call" trace's callee is treated as a
  // contract — in the real export plain transfers also appear as "call",
  // so kinds are an approximation the caller may refine.)
  for (eth::AccountId id = 0; id < is_contract.size(); ++id)
    result.history.accounts.create(
        is_contract[id] ? eth::AccountKind::kContract
                        : eth::AccountKind::kExternallyOwned,
        first_seen[id]);

  stats.accounts = ids.size();
  return result;
}

ImportResult import_bigquery_traces_file(const std::string& path) {
  std::ifstream in(path);
  ETHSHARD_INPUT_CHECK(in.good(), "cannot open " << path);
  return import_bigquery_traces(in);
}

}  // namespace ethshard::workload
