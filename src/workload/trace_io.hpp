// Trace serialization — the paper's "easily understandable format".
//
// The authors published their extracted Ethereum trace as plain data; this
// module writes and reads a compatible flat CSV so the real trace (or any
// other chain's) can be substituted for the synthetic history. One row per
// call:
//
//   block,timestamp,tx_index,call_index,from,to,kind,value
//
// with kind ∈ {T (ether transfer), C (contract call), X (contract
// creation)}. Account kinds are implied: any id that is ever the target of
// a C or X call is a contract, everything else is externally owned.
// Account ids must be below kTraceAccountIdLimit and timestamps at most
// INT64_MAX; the reader rejects anything larger by name.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "workload/block_source.hpp"
#include "workload/generator.hpp"

namespace ethshard::workload {

/// Exclusive upper bound on trace account ids (2^32): graph vertex ids
/// pack two to a 64-bit edge key (graph::GraphBuilder). A larger id fails
/// with "account id out of range".
inline constexpr std::uint64_t kTraceAccountIdLimit = std::uint64_t{1} << 32;

/// Writes the full history as CSV (with a header row).
void write_trace(std::ostream& out, const History& history);

/// Streams a trace file block-by-block: rows are parsed incrementally
/// (one-row lookahead to detect block boundaries), so only the block
/// being assembled is resident — a trace much larger than memory replays
/// fine. Emits exactly the blocks read_trace() would materialize
/// (read_trace is implemented by draining one of these). The account
/// registry is accumulated row-by-row (any C/X target is a contract,
/// first_seen at first appearance) and becomes available through
/// directory() once next() has returned false. Throws
/// util::InputError on malformed input, at the pull that hits it.
class TraceSource final : public BlockSource {
 public:
  /// Borrowed stream; must outlive the source.
  explicit TraceSource(std::istream& in);
  /// Opens (and owns) the file at `path`.
  explicit TraceSource(const std::string& path);
  ~TraceSource() override;

  const SourceInfo& info() const override;
  bool next(eth::Block& out) override;

  /// Null until end-of-stream — account kinds are only known once every
  /// row has been scanned.
  const eth::AccountRegistry* directory() const override;

  /// Hash of the block the last successful next() returned (computed as
  /// the parent link of the following block).
  const eth::Hash256& last_hash() const;

  /// Moves the completed registry out (History assembly). Call only
  /// after end-of-stream; the source is dead afterwards.
  eth::AccountRegistry take_directory();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Re-opens the trace file per open(): each experiment cell streams its
/// own pass over the file instead of sharing one materialized History.
class TraceSourceFactory final : public BlockSourceFactory {
 public:
  explicit TraceSourceFactory(std::string path) : path_(std::move(path)) {}

  std::unique_ptr<BlockSource> open() const override {
    return std::make_unique<TraceSource>(path_);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Parses a trace written by write_trace (or hand-assembled in the same
/// format). Reconstructs blocks (hash-linked), transactions and the
/// account registry. Throws util::InputError on malformed input.
History read_trace(std::istream& in);

/// File-path conveniences; throw util::InputError when the file cannot
/// be opened.
void write_trace_file(const std::string& path, const History& history);
History read_trace_file(const std::string& path);

}  // namespace ethshard::workload
