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
/// on Graph::from_csr's arc sort for deterministic output.
///
/// Per-vertex adjacency is opt-in: a builder constructed with
/// `track_und_neighbors = true` (the default) additionally keeps each
/// vertex's distinct undirected neighbors as a live list, which
/// `undirected_neighbors` exposes for O(deg) incremental metric
/// maintenance. Builders that only ever need whole-graph snapshots (the
/// simulator's per-window activity graph) pass false and skip the two
/// random-access list appends per new pair on the ingest hot path.
class GraphBuilder {
 public:
  explicit GraphBuilder(bool track_und_neighbors = true)
      : track_und_(track_und_neighbors) {}

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
  /// insertion order. Valid until the next mutating call. Requires
  /// track_und_neighbors. (Weights live in the shared pair map; use
  /// edge_weight / the build methods.)
  std::span<const Vertex> undirected_neighbors(Vertex v) const;

  /// Immutable directed snapshot (CSR). O(n + m).
  Graph build_directed() const;

  /// Immutable symmetrized snapshot: arc weights u→v and v→u merge into
  /// one undirected edge; self-loops dropped. This is the form consumed
  /// by partitioners. O(n + m), no hash probes.
  Graph build_undirected() const;

  /// Symmetrized snapshot induced on `vertices` (old ids; duplicates are
  /// a precondition violation): arcs to vertices outside the set are
  /// dropped, ids are renumbered to [0, vertices.size()) in the given
  /// order, vertex weights are carried over. `old_to_new` is caller-owned
  /// scratch so repeated calls do not reallocate; it must contain only
  /// Graph::kInvalid entries on entry (any size — it grows on demand) and
  /// is restored to that state before returning.
  /// O(vertices.size() + distinct pairs in the builder).
  Graph build_undirected_induced(std::span<const Vertex> vertices,
                                 std::vector<Vertex>& old_to_new) const;

  /// Drops every edge and resets all vertex weights to `default_weight`,
  /// keeping the vertex count *and* per-vertex list capacity — the cheap
  /// way to start a fresh activity window without reallocating adjacency
  /// for every known vertex.
  void reset_edges(Weight default_vertex_weight = 0);

  void clear();

 private:
  /// Both directions of the pair (min, max): fwd = min→max (and the full
  /// weight of a self-loop), rev = max→min.
  struct PairWeights {
    Weight fwd = 0;
    Weight rev = 0;
  };

  static std::uint64_t key(Vertex u, Vertex v);
  const PairWeights* find_pair(Vertex u, Vertex v) const;

  bool track_und_;
  std::vector<Weight> vwgt_;
  std::vector<std::vector<Vertex>> und_;  // distinct undirected neighbors
  std::unordered_map<std::uint64_t, PairWeights> pair_weight_;
  Weight total_edge_weight_ = 0;
  std::uint64_t num_dir_edges_ = 0;
  std::uint64_t num_und_edges_ = 0;
};

}  // namespace ethshard::graph
