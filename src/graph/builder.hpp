// Incremental construction of the blockchain graph.
//
// The simulator feeds every call of every transaction into a GraphBuilder;
// parallel edges accumulate weight (§II-B: "The weight in each edge denotes
// the number of times the interaction happened") and vertex weights
// accumulate activity. Snapshots are immutable CSR Graphs.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace ethshard::graph {

/// What a single add_edge call created (beyond accumulating weight).
/// Lets callers that track distinct-edge counts skip their own hash
/// lookups: `new_undirected_edge` is true exactly when the unordered pair
/// {u, v} had never interacted before (always false for self-loops, which
/// the undirected view drops).
struct EdgeInsert {
  bool new_directed_edge = false;
  bool new_undirected_edge = false;
};

/// Mutable weighted directed multigraph with O(1) amortized edge
/// accumulation. Vertex ids must stay below 2^32 (the edge key packs two
/// ids into 64 bits); the Ethereum graph through 2017 has ~5e7 vertices,
/// far below the limit.
///
/// Both directions of a pair share one hash entry keyed by the canonical
/// (min, max) orientation, so accumulating an edge costs a single probe
/// and snapshots need no per-edge probes at all: the build methods walk
/// the pair map once (the canonical key encodes both endpoints) and rely
/// on Graph::from_csr's arc sort for deterministic output. Each vertex's
/// distinct undirected neighbors are kept as a live list, which
/// `undirected_neighbors` exposes for O(deg) incremental metric
/// maintenance.
///
/// The same probe also maintains a *window*: the symmetrized weight each
/// non-loop pair gained since the last start_window(), kept in the pair's
/// own entry, plus a list of the pairs whose window weight is non-zero.
/// The window graph is therefore a time slice of this one graph (§II-C:
/// R-METIS partitions "the graph since the last (re)partitioning"), and
/// both starting a window and building its snapshot cost O(window pairs),
/// not O(all pairs).
class GraphBuilder {
 public:
  /// Adds a vertex with the given initial weight; returns its id.
  Vertex add_vertex(Weight weight = 1);

  /// Ensures vertices [0, count) exist, creating any missing ones with
  /// `default_weight`.
  void ensure_vertices(std::uint64_t count, Weight default_weight = 1);

  /// Accumulates weight onto the directed edge u→v (creating it at first
  /// use). Preconditions: both endpoints exist, weight > 0.
  EdgeInsert add_edge(Vertex u, Vertex v, Weight weight = 1);

  /// Accumulates vertex activity weight.
  void add_vertex_weight(Vertex v, Weight weight);

  std::uint64_t num_vertices() const { return vwgt_.size(); }
  /// Number of distinct directed edges (parallel edges collapsed).
  std::uint64_t num_edges() const { return num_dir_edges_; }
  /// Number of distinct undirected non-loop edges — the |E| of the
  /// symmetrized view (the static edge-cut denominator).
  std::uint64_t num_undirected_edges() const { return num_und_edges_; }
  /// Sum of all accumulated edge weights (= number of interactions).
  Weight total_edge_weight() const { return total_edge_weight_; }

  /// Accumulated weight of u→v; 0 if absent.
  Weight edge_weight(Vertex u, Vertex v) const;
  Weight vertex_weight(Vertex v) const { return vwgt_[v]; }

  /// Distinct non-loop neighbors of v in the symmetrized view, in
  /// insertion order. Valid until the next mutating call. (Weights live in
  /// the shared pair map; use edge_weight / the build methods.)
  std::span<const Vertex> undirected_neighbors(Vertex v) const;

  /// Immutable directed snapshot (CSR). O(n + m).
  Graph build_directed() const;

  /// Immutable symmetrized snapshot: arc weights u→v and v→u merge into
  /// one undirected edge; self-loops dropped. This is the form consumed
  /// by partitioners. O(n + m), no hash probes.
  Graph build_undirected() const;

  /// Symmetrized snapshot of the current window induced on `vertices`
  /// (old ids; duplicates are a precondition violation): edge weights are
  /// the pairs' window weights, window pairs with an endpoint outside the
  /// set are dropped, ids are renumbered to [0, vertices.size()) in the
  /// given order, and new vertex i weighs `vertex_weights[vertices[i]]`.
  /// `old_to_new` is caller-owned scratch so repeated calls do not
  /// reallocate; it must contain only Graph::kInvalid entries on entry
  /// (any size — it grows on demand) and is restored to that state before
  /// returning. O(vertices.size() + window pairs).
  Graph build_window_induced(std::span<const Vertex> vertices,
                             std::span<const Weight> vertex_weights,
                             std::vector<Vertex>& old_to_new) const;

  /// Starts a fresh window: zeroes the window weight of every pair
  /// touched since the previous call. Cumulative weights are untouched.
  void start_window();

  /// Debug cross-check of the window bookkeeping, O(pairs log pairs):
  /// throws CheckFailure unless a pair has a non-zero window weight
  /// exactly when it is on the touched-pair list. Returns the summed
  /// window weight (= non-loop interactions since start_window()).
  Weight verify_window() const;

  void clear();

 private:
  /// Both directions of the pair (min, max): fwd = min→max (and the full
  /// weight of a self-loop), rev = max→min.
  /// `window` is the symmetrized (fwd + rev) weight added since the last
  /// start_window(); always 0 for a self-loop.
  struct PairWeights {
    Weight fwd = 0;
    Weight rev = 0;
    Weight window = 0;
  };
  using PairSlot = std::pair<const std::uint64_t, PairWeights>;

  static std::uint64_t key(Vertex u, Vertex v);
  const PairWeights* find_pair(Vertex u, Vertex v) const;

  std::vector<Weight> vwgt_;
  std::vector<std::vector<Vertex>> und_;  // distinct undirected neighbors
  std::unordered_map<std::uint64_t, PairWeights> pair_weight_;
  // Entries whose window weight is non-zero. unordered_map keeps element
  // addresses stable across rehashes; clear() empties this list with it.
  std::vector<PairSlot*> window_pairs_;
  Weight total_edge_weight_ = 0;
  std::uint64_t num_dir_edges_ = 0;
  std::uint64_t num_und_edges_ = 0;
};

}  // namespace ethshard::graph
