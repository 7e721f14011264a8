// Greedy k-way boundary refinement.
//
// The uncoarsening-phase refinement of the multilevel scheme: boundary
// vertices greedily move to the neighbouring shard with the strongest
// connectivity when the move reduces the cut (or keeps it equal while
// improving balance) and respects the weight cap. This is the k-way
// analogue of FM used by kMETIS.
#pragma once

#include "graph/graph.hpp"
#include "partition/types.hpp"

namespace ethshard::partition {

struct KwayRefineConfig {
  /// Allowed relative overweight of a shard versus perfect balance.
  double imbalance = 0.03;
  /// Maximum passes over the boundary; stops early when a pass moves
  /// nothing.
  int max_passes = 8;
  /// Also accept zero-gain moves that strictly improve balance.
  bool balance_moves = true;
};

/// Refines a complete k-way partition in place; returns the resulting
/// edge-cut weight. Each pass first proposes a best move for every
/// boundary vertex against the pass-start state, then applies the
/// proposals in ascending vertex order with gains recomputed against the
/// live state. The result depends only on (g, p, cfg). Preconditions: g
/// undirected; p complete; p.size() == g.num_vertices().
graph::Weight kway_refine(const graph::Graph& g, Partition& p,
                          const KwayRefineConfig& cfg);

}  // namespace ethshard::partition
