// Multilevel coarsening via vertex matching and contraction.
//
// The first phase of the Karypis–Kumar multilevel scheme (the paper's
// METIS, citation [11]): repeatedly match pairs of adjacent vertices and
// contract them, producing a hierarchy of progressively smaller graphs
// that preserve the cut structure (contracted edge weights accumulate, so
// a cut in a coarse graph has exactly the same weight in the fine graph).
//
// Matching is a round-based handshake. Each round:
//
//   1. every unmatched vertex v picks its preferred unmatched neighbour
//      pref[v] from the round-start state — heaviest incident edge first,
//      ties broken by a salted symmetric edge hash and then by the smaller
//      vertex index (so both endpoints rank the shared edge identically);
//   2. each preferred vertex is claimed by its lowest-index proposer;
//   3. pairs form from mutually-claiming vertices, plus claim winners
//      whose target's own proposal failed (a second chance that keeps the
//      matching near-maximal without conflicts).
//
// Because preferences follow a shared total order on edges (weight desc,
// hash asc, index asc), the preference graph has no cycles longer than 2,
// so at least one pair forms whenever any proposal exists and the round
// loop terminates.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ethshard::partition {

/// How matching partners are chosen.
enum class MatchingScheme {
  kHeavyEdge,  ///< prefer the heaviest incident edge (METIS's HEM)
  kRandom,     ///< any unmatched neighbour (ablation baseline)
};

/// One level of the hierarchy: the contracted graph plus the projection
/// map from the finer level's vertices to this level's vertices.
struct CoarseLevel {
  graph::Graph graph;
  std::vector<graph::Vertex> fine_to_coarse;
};

/// Computes a matching of `g` (undirected, no self-loop partners):
/// match[v] == u and match[u] == v for a matched pair, match[v] == v for
/// a singleton. `salt` randomizes tie-breaks between equal-weight edges
/// (coarsen draws one per level). Deterministic for fixed (g, scheme,
/// salt).
std::vector<graph::Vertex> match_vertices(const graph::Graph& g,
                                          MatchingScheme scheme,
                                          std::uint64_t salt);

/// Contracts `g` along `match` (an involution with match[v] == v for
/// singletons, as match_vertices returns). Each pair or singleton becomes
/// one coarse vertex, numbered in order of its smaller endpoint; coarse
/// vertex weights are constituent sums; parallel coarse edges merge with
/// summed weights; intra-pair edges vanish.
CoarseLevel contract(const graph::Graph& g,
                     const std::vector<graph::Vertex>& match);

/// Builds the full hierarchy, stopping when the coarsest graph has at most
/// `target_vertices` vertices or a level shrinks the graph by less than
/// ~5% (matching has stalled, e.g. on a star graph). Draws exactly one
/// tie-break salt from `rng` per level attempt.
/// levels.front() is one step coarser than g; levels.back() is coarsest.
std::vector<CoarseLevel> coarsen(const graph::Graph& g,
                                 std::uint64_t target_vertices,
                                 MatchingScheme scheme, util::Rng& rng);

}  // namespace ethshard::partition
