// Pull-based block streaming — the workload→simulator seam.
//
// The paper's history spans Jul 2015–Dec 2017 (millions of accounts);
// materializing it whole before replay caps the reachable `scale` by
// memory, not by compute. BlockSource inverts the dataflow: consumers
// *pull* blocks one at a time (the codes-workload `get_next()` idiom),
// so a workload needs to hold only the block currently in flight —
// whatever produces it (a running generator, a trace file, or an
// already-materialized History for exact back-compat).
//
// Contract (every implementation):
//  * blocks arrive in chain order — consecutive numbers from 0,
//    non-decreasing timestamps, parent_hash linking to the previous
//    emitted block;
//  * the stream is single-pass: next() after end-of-stream keeps
//    returning false; there is no rewind (re-open through a
//    BlockSourceFactory instead);
//  * determinism: two sources built from the same inputs (config/seed,
//    trace bytes, History) emit bit-identical block sequences — the
//    StreamingDifferential suite holds implementations to this;
//  * info() is the metadata prologue, valid before the first pull;
//    directory() is the account/contract registry, which a streaming
//    producer can only complete once the stream is exhausted.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "eth/address.hpp"
#include "eth/chain.hpp"

namespace ethshard::workload {

/// Metadata prologue available before streaming begins.
struct SourceInfo {
  /// Human-readable origin ("generated", "materialized", "trace").
  std::string name;
  std::uint64_t seed = 0;
  /// Generator scale; 0 when not applicable (traces).
  double scale = 0;
  /// Blocks the stream will emit, 0 when unknown up front (generated and
  /// trace sources discover their length by streaming).
  std::uint64_t block_count_hint = 0;
};

/// A single-pass, pull-based stream of blocks.
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  virtual const SourceInfo& info() const = 0;

  /// Fills `out` with the next block; returns false at end-of-stream
  /// (and keeps returning false thereafter, leaving `out` untouched).
  virtual bool next(eth::Block& out) = 0;

  /// Borrowed-view pull: returns the next block or nullptr at
  /// end-of-stream. The pointee stays valid only until the following
  /// next()/next_ref() call. The default buffers through next();
  /// MaterializedSource overrides it to hand out its backing storage, so
  /// replaying a held History stays copy-free.
  virtual const eth::Block* next_ref();

  /// Nothing reads this; dropped with its read in perfbench/timed_layers.hpp.
  virtual const eth::Chain* materialized_chain() const { return nullptr; }

  /// The account/contract directory describing the stream's vertices, or
  /// nullptr while it is not (yet) available. Materialized sources can
  /// serve it up front; generated and trace sources complete it only
  /// once the stream is exhausted (accounts appear as the history runs).
  virtual const eth::AccountRegistry* directory() const { return nullptr; }

 private:
  eth::Block ref_buffer_;  // backs the default next_ref()
};

/// Streams an in-memory chain — the exact-back-compat wrapper that makes
/// every History-taking call site a BlockSource call site. Zero-copy via
/// next_ref(); next() copies.
class MaterializedSource final : public BlockSource {
 public:
  /// `chain` (and `accounts`, when given) must outlive the source.
  explicit MaterializedSource(const eth::Chain& chain,
                              const eth::AccountRegistry* accounts = nullptr);

  const SourceInfo& info() const override { return info_; }
  bool next(eth::Block& out) override;
  const eth::Block* next_ref() override;
  const eth::AccountRegistry* directory() const override { return accounts_; }

 private:
  const eth::Chain* chain_;
  const eth::AccountRegistry* accounts_;
  SourceInfo info_;
  std::uint64_t pos_ = 0;
};

/// Re-openable stream: each open() returns a fresh source replaying the
/// same deterministic block sequence from the start. open() must be
/// thread-safe — the experiment grid opens one stream per cell, in
/// parallel, so each (method × k) cell replays the history independently
/// without ever holding it whole.
class BlockSourceFactory {
 public:
  virtual ~BlockSourceFactory() = default;
  virtual std::unique_ptr<BlockSource> open() const = 0;
};

/// Decorator splicing a quiet period into any stream: every block with
/// timestamp >= gap_start is shifted gap_length seconds into the future,
/// producing a dormancy stretch with no traffic at all, at scales where
/// the chain is never materialized. Block numbers and contents are
/// untouched; parent hashes are left as the inner source emitted them
/// (replay consumers read timestamps and transactions, not hash links,
/// so the shifted stream does not validate as a chain). Scenario files
/// use this for the long dormancy→reactivation stress shape.
class TrafficGapSource final : public BlockSource {
 public:
  /// Takes ownership of `inner`.
  TrafficGapSource(std::unique_ptr<BlockSource> inner,
                   util::Timestamp gap_start, util::Timestamp gap_length);

  const SourceInfo& info() const override { return inner_->info(); }
  bool next(eth::Block& out) override;
  const eth::Block* next_ref() override;
  const eth::AccountRegistry* directory() const override {
    return inner_->directory();
  }

 private:
  std::unique_ptr<BlockSource> inner_;
  util::Timestamp gap_start_;
  util::Timestamp gap_length_;
  eth::Block shift_buffer_;  // backs next_ref() for shifted blocks
};

/// Factory wrapper pairing TrafficGapSource with any inner factory.
class TrafficGapSourceFactory final : public BlockSourceFactory {
 public:
  /// Takes ownership of `inner`.
  TrafficGapSourceFactory(std::unique_ptr<BlockSourceFactory> inner,
                          util::Timestamp gap_start,
                          util::Timestamp gap_length)
      : inner_(std::move(inner)),
        gap_start_(gap_start),
        gap_length_(gap_length) {}

  std::unique_ptr<BlockSource> open() const override {
    return std::make_unique<TrafficGapSource>(inner_->open(), gap_start_,
                                              gap_length_);
  }

 private:
  std::unique_ptr<BlockSourceFactory> inner_;
  util::Timestamp gap_start_;
  util::Timestamp gap_length_;
};

/// Factory over a caller-owned chain (which must outlive the factory and
/// every source it opens).
class MaterializedSourceFactory final : public BlockSourceFactory {
 public:
  explicit MaterializedSourceFactory(
      const eth::Chain& chain,
      const eth::AccountRegistry* accounts = nullptr)
      : chain_(&chain), accounts_(accounts) {}

  std::unique_ptr<BlockSource> open() const override {
    return std::make_unique<MaterializedSource>(*chain_, accounts_);
  }

 private:
  const eth::Chain* chain_;
  const eth::AccountRegistry* accounts_;
};

}  // namespace ethshard::workload
