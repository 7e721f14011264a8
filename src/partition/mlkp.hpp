// Multilevel k-way partitioner (MLKP) — the library's METIS stand-in.
//
// Implements the Karypis–Kumar multilevel scheme the paper uses through
// METIS [11]: (1) coarsen with heavy-edge matching, (2) partition the
// coarsest graph by recursive bisection (greedy graph growing + FM),
// (3) uncoarsen, refining with greedy k-way boundary moves at each level.
// Like METIS, it minimizes edge-cut under a balance constraint and does
// NOT try to minimize vertex movement between successive invocations —
// the very pitfall the paper measures.
#pragma once

#include <cstdint>

#include "partition/coarsen.hpp"
#include "partition/fm.hpp"
#include "partition/kway_refine.hpp"
#include "partition/partitioner.hpp"
#include "util/rng.hpp"

namespace ethshard::partition {

struct MlkpConfig {
  /// Allowed relative shard overweight (METIS default ~3%).
  double imbalance = 0.03;
  /// Stop coarsening at this many vertices; 0 = auto (max(30·k, 120)).
  std::uint64_t coarsen_to = 0;
  /// Matching scheme during coarsening (heavy-edge, or random for the
  /// ablation benchmark).
  MatchingScheme matching = MatchingScheme::kHeavyEdge;
  /// Independent greedy-growing attempts per bisection.
  int init_tries = 4;
  /// FM / k-way refinement passes.
  int refine_passes = 8;
  /// Disable uncoarsening refinement entirely (ablation switch; the
  /// coarsest-level partition is only projected).
  bool refine = true;
  /// RNG seed; same seed + same graph → same partition.
  std::uint64_t seed = 1;
};

class MlkpPartitioner final : public Partitioner {
 public:
  explicit MlkpPartitioner(MlkpConfig cfg = {}) : cfg_(cfg) {}

  /// Accepts directed graphs (symmetrized internally) or undirected ones.
  Partition partition(const graph::Graph& g, std::uint32_t k) override;

  std::string name() const override { return "MLKP"; }

  const MlkpConfig& config() const { return cfg_; }

 private:
  MlkpConfig cfg_;
};

}  // namespace ethshard::partition
