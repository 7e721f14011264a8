#include "workload/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <ostream>
#include <vector>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace ethshard::workload {

namespace {

char kind_code(eth::CallKind k) {
  switch (k) {
    case eth::CallKind::kTransfer:
      return 'T';
    case eth::CallKind::kContractCall:
      return 'C';
    case eth::CallKind::kContractCreate:
      return 'X';
  }
  return '?';
}

eth::CallKind kind_from_code(const std::string& s) {
  ETHSHARD_INPUT_CHECK(s.size() == 1, "bad call kind '" << s << "'");
  switch (s[0]) {
    case 'T':
      return eth::CallKind::kTransfer;
    case 'C':
      return eth::CallKind::kContractCall;
    case 'X':
      return eth::CallKind::kContractCreate;
    default:
      ETHSHARD_INPUT_CHECK(false, "bad call kind '" << s << "'");
  }
  return eth::CallKind::kTransfer;  // unreachable
}

std::uint64_t parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  ETHSHARD_INPUT_CHECK(ec == std::errc{} && ptr == s.data() + s.size(),
                       "bad integer field '" << s << "'");
  return v;
}

eth::AccountId parse_account_id(const std::string& s) {
  const std::uint64_t id = parse_u64(s);
  ETHSHARD_INPUT_CHECK(id < kTraceAccountIdLimit,
                       "account id out of range: " << s << " (limit "
                                                   << kTraceAccountIdLimit
                                                   << ")");
  return id;
}

util::Timestamp parse_timestamp(const std::string& s) {
  const std::uint64_t ts = parse_u64(s);
  ETHSHARD_INPUT_CHECK(
      ts <= static_cast<std::uint64_t>(
                std::numeric_limits<util::Timestamp>::max()),
      "timestamp out of range: " << s);
  return static_cast<util::Timestamp>(ts);
}

struct Row {
  std::uint64_t block;
  util::Timestamp timestamp;
  std::uint64_t tx_index;
  std::uint64_t call_index;
  eth::AccountId from;
  eth::AccountId to;
  eth::CallKind kind;
  std::uint64_t value;
};

}  // namespace

void write_trace(std::ostream& out, const History& history) {
  util::CsvWriter csv(out);
  csv.write_row({"block", "timestamp", "tx_index", "call_index", "from",
                 "to", "kind", "value"});
  for (const eth::Block& b : history.chain.blocks()) {
    for (std::size_t ti = 0; ti < b.transactions.size(); ++ti) {
      const eth::Transaction& tx = b.transactions[ti];
      for (std::size_t ci = 0; ci < tx.calls.size(); ++ci) {
        const eth::Call& c = tx.calls[ci];
        const char kind[2] = {kind_code(c.kind), '\0'};
        csv.field(b.number)
            .field(static_cast<std::int64_t>(b.timestamp))
            .field(static_cast<std::uint64_t>(ti))
            .field(static_cast<std::uint64_t>(ci))
            .field(c.from)
            .field(c.to)
            .field(std::string_view(kind, 1))
            .field(c.value_wei);
        csv.end_row();
      }
    }
  }
}

/// Streaming trace parser: CSV rows in, whole blocks out, registry
/// accumulated on the side. Holds one block plus a one-row lookahead
/// (the row that revealed the block boundary) — never the row set.
struct TraceSource::Impl {
  std::ifstream owned_file;  // backing storage for the path constructor
  util::CsvReader reader;
  SourceInfo source_info;

  std::vector<std::string> fields;
  Row pending{};          // lookahead row that opened the next block
  bool have_pending = false;

  std::uint64_t blocks_emitted = 0;
  util::Timestamp last_block_ts = 0;
  eth::Hash256 last_hash{};  // parent link for the next sealed block
  bool done = false;

  // Vertex universe, discovered row by row. Kinds are only final at
  // end-of-stream (a late X/C row can turn any id into a contract), so
  // the registry is built in finalize(). Unseen ids below max_id default
  // to externally-owned with the first row's timestamp — exactly
  // read_trace's vector initialization.
  std::vector<bool> is_contract;
  std::vector<bool> seen;
  std::vector<util::Timestamp> first_seen;
  util::Timestamp first_row_ts = 0;
  bool any_row = false;
  eth::AccountRegistry registry;

  explicit Impl(std::istream& in) : reader(in) { init(); }

  explicit Impl(const std::string& path)
      : owned_file(path), reader(owned_file) {
    ETHSHARD_INPUT_CHECK(owned_file.good(), "cannot open " << path);
    init();
  }

  void init() {
    source_info.name = "trace";
    // Header.
    ETHSHARD_INPUT_CHECK(reader.read_row(fields), "empty trace");
    ETHSHARD_INPUT_CHECK(fields.size() == 8 && fields[0] == "block",
                         "unrecognized trace header");
  }

  void note_row(const Row& r) {
    if (!any_row) {
      any_row = true;
      first_row_ts = r.timestamp;
    }
    const std::uint64_t max_id = std::max(r.from, r.to);
    if (max_id >= seen.size()) {
      is_contract.resize(max_id + 1, false);
      seen.resize(max_id + 1, false);
      first_seen.resize(max_id + 1, 0);
    }
    if (r.kind != eth::CallKind::kTransfer) is_contract[r.to] = true;
    for (const eth::AccountId id : {r.from, r.to}) {
      if (!seen[id]) {
        seen[id] = true;
        first_seen[id] = r.timestamp;
      }
    }
  }

  /// Next row from the lookahead slot or the file; false at EOF.
  bool fetch_row(Row& r) {
    if (have_pending) {
      r = pending;
      have_pending = false;
      return true;
    }
    if (!reader.read_row(fields)) return false;
    ETHSHARD_INPUT_CHECK(fields.size() == 8,
                         "trace row with " << fields.size() << " fields");
    r.block = parse_u64(fields[0]);
    r.timestamp = parse_timestamp(fields[1]);
    r.tx_index = parse_u64(fields[2]);
    r.call_index = parse_u64(fields[3]);
    r.from = parse_account_id(fields[4]);
    r.to = parse_account_id(fields[5]);
    r.kind = kind_from_code(fields[6]);
    r.value = parse_u64(fields[7]);
    note_row(r);
    return true;
  }

  /// Builds the registry once every row has been scanned.
  void finalize() {
    done = true;
    for (std::uint64_t id = 0; id < seen.size(); ++id) {
      registry.create(is_contract[id] ? eth::AccountKind::kContract
                                      : eth::AccountKind::kExternallyOwned,
                      seen[id] ? first_seen[id] : first_row_ts);
    }
  }

  bool next(eth::Block& out) {
    if (done) return false;

    eth::Block block;
    bool block_open = false;
    Row r;
    while (fetch_row(r)) {
      if (!block_open) {
        ETHSHARD_INPUT_CHECK(r.block == blocks_emitted,
                             "non-consecutive block numbers in trace");
        block.number = r.block;
        block.timestamp = r.timestamp;
        ETHSHARD_INPUT_CHECK(blocks_emitted == 0 ||
                                 block.timestamp >= last_block_ts,
                             "timestamp regression at block " << r.block);
        block_open = true;
      } else if (r.block != block.number) {
        ETHSHARD_INPUT_CHECK(r.block > block.number,
                             "trace rows out of block order");
        pending = r;  // first row of the next block
        have_pending = true;
        break;
      }
      ETHSHARD_INPUT_CHECK(r.timestamp == block.timestamp,
                           "inconsistent timestamp within block " << r.block);
      if (r.tx_index == block.transactions.size()) {
        eth::Transaction tx;
        tx.sender = r.from;
        block.transactions.push_back(std::move(tx));
      }
      ETHSHARD_INPUT_CHECK(r.tx_index + 1 == block.transactions.size(),
                           "trace rows out of transaction order");
      eth::Transaction& tx = block.transactions.back();
      ETHSHARD_INPUT_CHECK(r.call_index == tx.calls.size(),
                           "trace rows out of call order");
      tx.calls.push_back(eth::Call{r.from, r.to, r.kind, r.value});
    }

    if (!block_open) {
      finalize();
      return false;
    }
    block.parent_hash = last_hash;
    last_hash = block.hash();
    last_block_ts = block.timestamp;
    ++blocks_emitted;
    out = std::move(block);
    return true;
  }
};

TraceSource::TraceSource(std::istream& in)
    : impl_(std::make_unique<Impl>(in)) {}

TraceSource::TraceSource(const std::string& path)
    : impl_(std::make_unique<Impl>(path)) {}

TraceSource::~TraceSource() = default;

const SourceInfo& TraceSource::info() const { return impl_->source_info; }

bool TraceSource::next(eth::Block& out) { return impl_->next(out); }

const eth::Hash256& TraceSource::last_hash() const {
  return impl_->last_hash;
}

const eth::AccountRegistry* TraceSource::directory() const {
  return impl_->done ? &impl_->registry : nullptr;
}

eth::AccountRegistry TraceSource::take_directory() {
  return std::move(impl_->registry);
}

History read_trace(std::istream& in) {
  TraceSource source(in);
  History history;
  eth::Block block;
  while (source.next(block))
    history.chain.append(std::move(block), source.last_hash());
  history.accounts = source.take_directory();
  return history;
}

void write_trace_file(const std::string& path, const History& history) {
  std::ofstream out(path);
  ETHSHARD_INPUT_CHECK(out.good(), "cannot open " << path << " for writing");
  write_trace(out, history);
  ETHSHARD_INPUT_CHECK(out.good(), "write failure on " << path);
}

History read_trace_file(const std::string& path) {
  std::ifstream in(path);
  ETHSHARD_INPUT_CHECK(in.good(), "cannot open " << path);
  return read_trace(in);
}

}  // namespace ethshard::workload
