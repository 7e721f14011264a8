// Unit and property tests for the graph module: builder accumulation,
// CSR invariants, symmetrization, induced subgraphs, generators, DOT.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/dot.hpp"
#include "graph/serialize.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ethshard::graph {
namespace {

// --------------------------------------------------------------- builder

TEST(GraphBuilder, AccumulatesParallelEdges) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 2, 1);
  EXPECT_EQ(b.num_edges(), 2u);
  EXPECT_EQ(b.edge_weight(0, 1), 3u);
  EXPECT_EQ(b.edge_weight(1, 2), 1u);
  EXPECT_EQ(b.edge_weight(2, 1), 0u);
  EXPECT_EQ(b.total_edge_weight(), 4u);
}

TEST(GraphBuilder, DirectedSnapshot) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 3);
  const Graph g = b.build_directed();
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.total_edge_weight(), 5u);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].to, 1u);
  EXPECT_EQ(g.neighbors(0)[0].weight, 2u);
}

TEST(GraphBuilder, UndirectedMergesBothDirections) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 3);
  const Graph g = b.build_undirected();
  EXPECT_FALSE(g.directed());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.total_edge_weight(), 5u);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(GraphBuilder, UndirectedDropsSelfLoops) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 0, 5);
  b.add_edge(0, 1, 1);
  const Graph g = b.build_undirected();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.total_edge_weight(), 1u);
}

TEST(GraphBuilder, OneDirectionOnlyEdge) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(2, 0, 7);
  const Graph g = b.build_undirected();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.weighted_degree(0), 7u);
  EXPECT_EQ(g.weighted_degree(2), 7u);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(GraphBuilder, VertexWeights) {
  GraphBuilder b;
  const Vertex v = b.add_vertex(3);
  b.add_vertex_weight(v, 4);
  const Graph g = b.build_directed();
  EXPECT_EQ(g.vertex_weight(v), 7u);
  EXPECT_EQ(g.total_vertex_weight(), 7u);
}

TEST(GraphBuilder, EdgeToMissingVertexThrows) {
  GraphBuilder b;
  b.ensure_vertices(1);
  EXPECT_THROW(b.add_edge(0, 5), util::CheckFailure);
}

TEST(GraphBuilder, ClearResets) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1);
  b.clear();
  EXPECT_EQ(b.num_vertices(), 0u);
  EXPECT_EQ(b.num_edges(), 0u);
  EXPECT_EQ(b.total_edge_weight(), 0u);
}

TEST(GraphBuilder, EdgeInsertFlagsFirstUseOnly) {
  GraphBuilder b;
  b.ensure_vertices(3);
  const EdgeInsert first = b.add_edge(0, 1);
  EXPECT_TRUE(first.new_directed_edge);
  EXPECT_TRUE(first.new_undirected_edge);
  // The reverse direction is a new directed edge but the pair {0,1}
  // already interacted.
  const EdgeInsert reverse = b.add_edge(1, 0);
  EXPECT_TRUE(reverse.new_directed_edge);
  EXPECT_FALSE(reverse.new_undirected_edge);
  const EdgeInsert repeat = b.add_edge(0, 1, 4);
  EXPECT_FALSE(repeat.new_directed_edge);
  EXPECT_FALSE(repeat.new_undirected_edge);
  // Self-loops never create undirected edges.
  const EdgeInsert loop = b.add_edge(2, 2);
  EXPECT_TRUE(loop.new_directed_edge);
  EXPECT_FALSE(loop.new_undirected_edge);
  EXPECT_EQ(b.num_edges(), 3u);
  EXPECT_EQ(b.num_undirected_edges(), 1u);
}

TEST(GraphBuilder, UndirectedNeighborsDistinctInInsertionOrder) {
  GraphBuilder b;
  b.ensure_vertices(4);
  b.add_edge(1, 3);
  b.add_edge(0, 1);
  b.add_edge(3, 1, 2);  // same pair as the first edge — no new neighbor
  b.add_edge(1, 1);     // self-loop — never a neighbor
  b.add_edge(1, 2);
  const auto n1 = b.undirected_neighbors(1);
  ASSERT_EQ(n1.size(), 3u);
  EXPECT_EQ(n1[0], 3u);
  EXPECT_EQ(n1[1], 0u);
  EXPECT_EQ(n1[2], 2u);
  ASSERT_EQ(b.undirected_neighbors(3).size(), 1u);
  EXPECT_EQ(b.undirected_neighbors(3)[0], 1u);
  EXPECT_TRUE(b.undirected_neighbors(2).size() == 1);
}

TEST(GraphBuilder, WindowInducedMatchesFreshBuilder) {
  // Over several start_window() rounds, with self-loops and a pair touched
  // in every window, the window snapshot equals the induced snapshot of a
  // fresh builder fed only that round's edges, and the cumulative graph
  // still holds every round.
  util::Rng rng(7);
  constexpr Vertex kN = 30;
  GraphBuilder b;
  GraphBuilder all;
  b.ensure_vertices(kN, 1);
  all.ensure_vertices(kN, 1);
  std::vector<Vertex> keep;
  for (Vertex v = 0; v < kN; v += 2) keep.push_back(v);
  std::vector<Vertex> scratch;  // grown on demand
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (round > 0) b.start_window();
    GraphBuilder fresh;
    fresh.ensure_vertices(kN, 0);
    std::vector<Weight> activity(kN, 0);
    Weight pair_weight = 0;
    auto add = [&](Vertex u, Vertex v, Weight w) {
      b.add_edge(u, v, w);
      all.add_edge(u, v, w);
      fresh.add_edge(u, v, w);
      activity[u] += w;
      if (v != u) {
        activity[v] += w;
        pair_weight += w;
      }
    };
    add(4, 6, 2);  // the recurring pair, both directions
    add(6, 4, 1);
    add(8, 8, 3);  // a self-loop in every window
    for (int i = 0; i < 60; ++i) {
      const Vertex u = rng.uniform(kN);
      const Vertex v = rng.bernoulli(0.1) ? u : rng.uniform(kN);
      add(u, v, 1 + rng.uniform(5));
    }
    for (Vertex v = 0; v < kN; ++v) fresh.add_vertex_weight(v, activity[v]);

    EXPECT_EQ(b.build_window_induced(keep, activity, scratch),
              fresh.build_undirected().induced_subgraph(keep));
    // The scratch contract: restored to all-kInvalid for the next call.
    for (Vertex v : scratch) EXPECT_EQ(v, Graph::kInvalid);
    EXPECT_EQ(b.verify_window(), pair_weight);
  }
  EXPECT_EQ(b.build_undirected(), all.build_undirected());
  EXPECT_EQ(b.build_directed(), all.build_directed());
  b.start_window();
  EXPECT_EQ(b.verify_window(), 0u);
  EXPECT_EQ(b.build_window_induced(keep, std::vector<Weight>(kN, 1), scratch)
                .num_edges(),
            0u);
}

TEST(GraphBuilder, InducedRejectsDirtyScratch) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1);
  std::vector<Vertex> scratch(3, Graph::kInvalid);
  scratch[2] = 0;  // stale mapping from a buggy caller
  const std::vector<Vertex> keep = {1, 2};
  const std::vector<Weight> weights(3, 1);
  EXPECT_THROW(b.build_window_induced(keep, weights, scratch),
               util::CheckFailure);
}

// ------------------------------------------------------------------ CSR

TEST(Graph, FromAdjacencySortsNeighbors) {
  std::vector<std::vector<Arc>> adj(3);
  adj[0] = {Arc{2, 1}, Arc{1, 1}};
  const Graph g =
      Graph::from_adjacency(std::move(adj), {1, 1, 1}, /*directed=*/true);
  EXPECT_EQ(g.neighbors(0)[0].to, 1u);
  EXPECT_EQ(g.neighbors(0)[1].to, 2u);
}

TEST(Graph, FromCsrValidatesOffsets) {
  EXPECT_THROW(
      Graph::from_csr({0, 2}, {Arc{0, 1}}, {1}, true),
      util::CheckFailure);
}

TEST(Graph, FromCsrRejectsOutOfRangeTarget) {
  EXPECT_THROW(Graph::from_csr({0, 1}, {Arc{5, 1}}, {1}, true),
               util::CheckFailure);
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, ToUndirectedOnDirectedTriangle) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 2);
  b.add_edge(2, 0, 3);
  const Graph d = b.build_directed();
  const Graph u = d.to_undirected();
  EXPECT_EQ(u.num_edges(), 3u);
  EXPECT_EQ(u.total_edge_weight(), 6u);
  EXPECT_TRUE(u.check_symmetric());
  EXPECT_EQ(u.total_vertex_weight(), d.total_vertex_weight());
}

TEST(Graph, BuildUndirectedMatchesToUndirected) {
  util::Rng rng(5);
  GraphBuilder b;
  b.ensure_vertices(50);
  for (int i = 0; i < 400; ++i) {
    const Vertex u = rng.uniform(50);
    const Vertex v = rng.uniform(50);
    b.add_edge(u, v, 1 + rng.uniform(4));
  }
  const Graph a = b.build_undirected();
  const Graph c = b.build_directed().to_undirected();
  ASSERT_EQ(a.num_vertices(), c.num_vertices());
  ASSERT_EQ(a.num_edges(), c.num_edges());
  EXPECT_EQ(a.total_edge_weight(), c.total_edge_weight());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nc = c.neighbors(v);
    ASSERT_EQ(na.size(), nc.size()) << "vertex " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].to, nc[i].to);
      EXPECT_EQ(na[i].weight, nc[i].weight);
    }
  }
}

// ------------------------------------------------------------- subgraph

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  const Graph g = make_path(5);  // 0-1-2-3-4
  const std::vector<Vertex> keep = {1, 2, 3};
  std::vector<Vertex> map;
  const Graph sub = g.induced_subgraph(keep, &map);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);  // 1-2, 2-3 survive
  EXPECT_EQ(map[0], Graph::kInvalid);
  EXPECT_EQ(map[1], 0u);
  EXPECT_EQ(map[4], Graph::kInvalid);
  EXPECT_TRUE(sub.check_symmetric());
}

TEST(Graph, InducedSubgraphPreservesWeights) {
  GraphBuilder b;
  b.ensure_vertices(3, 1);
  b.add_vertex_weight(1, 9);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 7);
  const Graph g = b.build_undirected();
  const Graph sub = g.induced_subgraph(std::vector<Vertex>{0, 1});
  EXPECT_EQ(sub.vertex_weight(1), 10u);
  EXPECT_EQ(sub.total_edge_weight(), 5u);
}

TEST(Graph, InducedSubgraphRejectsDuplicates) {
  const Graph g = make_path(3);
  EXPECT_THROW(g.induced_subgraph(std::vector<Vertex>{0, 0}),
               util::CheckFailure);
}

TEST(Graph, InducedSubgraphEmptySelection) {
  const Graph g = make_path(3);
  const Graph sub = g.induced_subgraph(std::vector<Vertex>{});
  EXPECT_TRUE(sub.empty());
}

// ----------------------------------------------------------- generators

TEST(Generators, PathShape) {
  const Graph g = make_path(10);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(5), 2u);
}

TEST(Generators, CycleShape) {
  const Graph g = make_cycle(7);
  EXPECT_EQ(g.num_edges(), 7u);
  for (Vertex v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Generators, CompleteShape) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
}

TEST(Generators, GridShape) {
  const Graph g = make_grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(5), 4u);   // interior
}

TEST(Generators, ErdosRenyiDensity) {
  util::Rng rng(9);
  const Graph g = make_erdos_renyi(100, 0.1, rng);
  const double expected = 0.1 * 100 * 99 / 2;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              0.25 * expected);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(Generators, BarabasiAlbertHasHubs) {
  util::Rng rng(13);
  const Graph g = make_barabasi_albert(500, 2, rng);
  EXPECT_EQ(g.num_vertices(), 500u);
  std::uint64_t max_deg = 0;
  for (Vertex v = 0; v < 500; ++v) max_deg = std::max(max_deg, g.degree(v));
  // Preferential attachment produces hubs far above the mean degree (~4).
  EXPECT_GT(max_deg, 20u);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(Generators, PlantedPartitionCommunitySizes) {
  util::Rng rng(17);
  const Graph g = make_planted_partition(4, 25, 0.5, 0.01, rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(Generators, TwoCliquesBridgeCount) {
  const Graph g = make_two_cliques(20, 3);
  const std::uint64_t clique_edges = 2 * (10 * 9 / 2);
  EXPECT_EQ(g.num_edges(), clique_edges + 3);
}

TEST(Generators, TwoCliquesRejectsTooManyBridges) {
  EXPECT_THROW(make_two_cliques(10, 6), util::CheckFailure);
}

// ------------------------------------------------------------------ dot

TEST(Dot, DirectedOutput) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1, 3);
  const std::string dot = to_dot(b.build_directed());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"3\""), std::string::npos);
}

TEST(Dot, HidesUnitWeights) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1, 1);
  const std::string dot = to_dot(b.build_directed());
  // The weight-1 edge is emitted without a label attribute (node labels
  // still carry ids, so look at the edge statement specifically).
  EXPECT_NE(dot.find("v0 -> v1;"), std::string::npos);
  EXPECT_EQ(dot.find("v0 -> v1 [label"), std::string::npos);
}

TEST(Dot, ContractStyling) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1);
  DotOptions opts;
  opts.is_contract = [](Vertex v) { return v == 1; };
  const std::string dot = to_dot(b.build_directed(), opts);
  EXPECT_NE(dot.find("v1 [label=\"1\", style=dashed]"), std::string::npos);
}

TEST(Dot, UndirectedEmitsEachEdgeOnce) {
  const std::string dot = to_dot(make_path(3));
  EXPECT_NE(dot.find("v0 -- v1"), std::string::npos);
  EXPECT_NE(dot.find("v1 -- v2"), std::string::npos);
  EXPECT_EQ(dot.find("v1 -- v0"), std::string::npos);
}

// -------------------------------------------------------------- analysis

TEST(Analysis, SingleComponentPath) {
  const Components c = connected_components(make_path(6));
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.largest(), 6u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(c.component_of[v], 0u);
}

TEST(Analysis, DisjointCliquesAreSeparate) {
  GraphBuilder b;
  b.ensure_vertices(8);
  for (Vertex i = 0; i < 4; ++i)
    for (Vertex j = i + 1; j < 4; ++j) {
      b.add_edge(i, j);
      b.add_edge(4 + i, 4 + j);
    }
  const Components c = connected_components(b.build_undirected());
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.sizes[0], 4u);
  EXPECT_EQ(c.sizes[1], 4u);
  EXPECT_NE(c.component_of[0], c.component_of[5]);
}

TEST(Analysis, IsolatedVerticesAreSingletons) {
  GraphBuilder b;
  b.ensure_vertices(5);
  b.add_edge(0, 1);
  const Components c = connected_components(b.build_undirected());
  EXPECT_EQ(c.count(), 4u);  // {0,1} + three singletons
  EXPECT_EQ(c.largest(), 2u);
}

TEST(Analysis, WeakComponentsOnDirectedGraph) {
  // 0 → 1 ← 2: weakly one component even though no directed path 0→2.
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1);
  b.add_edge(2, 1);
  const Components c = connected_components(b.build_directed());
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.largest(), 3u);
}

TEST(Analysis, EmptyGraphComponents) {
  const Components c = connected_components(Graph{});
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.largest(), 0u);
}

TEST(Analysis, DegreeStatisticsOnStar) {
  GraphBuilder b;
  b.ensure_vertices(6);
  for (Vertex leaf = 1; leaf <= 4; ++leaf) b.add_edge(0, leaf);
  // vertex 5 isolated
  const DegreeStats s = degree_statistics(b.build_undirected());
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.max_degree_vertex, 0u);
  EXPECT_EQ(s.min_degree, 0u);
  EXPECT_EQ(s.isolated, 1u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 8.0 / 6.0);
  EXPECT_DOUBLE_EQ(s.median_degree, 1.0);
}

TEST(Analysis, DegreeStatisticsEmpty) {
  const DegreeStats s = degree_statistics(Graph{});
  EXPECT_EQ(s.max_degree, 0u);
  EXPECT_EQ(s.isolated, 0u);
}

TEST(Analysis, KCoreOfCliqueIsUniform) {
  const CoreDecomposition d = kcore_decomposition(make_complete(6));
  EXPECT_EQ(d.max_core, 5u);
  EXPECT_EQ(d.nucleus_size, 6u);
  for (std::uint64_t c : d.core_of) EXPECT_EQ(c, 5u);
}

TEST(Analysis, KCoreOfPathIsOne) {
  const CoreDecomposition d = kcore_decomposition(make_path(10));
  EXPECT_EQ(d.max_core, 1u);
  for (std::uint64_t c : d.core_of) EXPECT_EQ(c, 1u);
}

TEST(Analysis, KCoreSeparatesCliqueFromPendants) {
  // K5 with a pendant chain hanging off vertex 0.
  GraphBuilder b;
  b.ensure_vertices(8);
  for (Vertex i = 0; i < 5; ++i)
    for (Vertex j = i + 1; j < 5; ++j) b.add_edge(i, j);
  b.add_edge(0, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 7);
  const CoreDecomposition d = kcore_decomposition(b.build_undirected());
  EXPECT_EQ(d.max_core, 4u);
  EXPECT_EQ(d.nucleus_size, 5u);  // the clique
  EXPECT_EQ(d.core_of[5], 1u);
  EXPECT_EQ(d.core_of[7], 1u);
}

TEST(Analysis, KCoreStarIsOne) {
  GraphBuilder b;
  b.ensure_vertices(7);
  for (Vertex leaf = 1; leaf <= 6; ++leaf) b.add_edge(0, leaf);
  const CoreDecomposition d = kcore_decomposition(b.build_undirected());
  EXPECT_EQ(d.max_core, 1u);
  EXPECT_EQ(d.core_of[0], 1u);  // the hub peels with its leaves
}

TEST(Analysis, KCoreIsolatedVerticesAreZero) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1);
  const CoreDecomposition d = kcore_decomposition(b.build_undirected());
  EXPECT_EQ(d.core_of[2], 0u);
  EXPECT_EQ(d.core_of[0], 1u);
}

TEST(Analysis, KCoreMonotoneUnderDegree) {
  // Core number never exceeds degree.
  util::Rng rng(93);
  const Graph g = make_barabasi_albert(300, 3, rng);
  const CoreDecomposition d = kcore_decomposition(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_LE(d.core_of[v], g.degree(v));
  EXPECT_GE(d.max_core, 3u);  // BA(m=3) has a >=3-core
}

TEST(Analysis, TriangleCountKnownGraphs) {
  EXPECT_EQ(clustering(make_complete(4)).triangles, 4u);
  EXPECT_EQ(clustering(make_complete(5)).triangles, 10u);
  EXPECT_EQ(clustering(make_path(10)).triangles, 0u);
  EXPECT_EQ(clustering(make_cycle(5)).triangles, 0u);
  EXPECT_EQ(clustering(make_cycle(3)).triangles, 1u);
}

TEST(Analysis, ClusteringCoefficientBounds) {
  // Complete graph: every wedge closes → coefficient 1.
  EXPECT_DOUBLE_EQ(clustering(make_complete(6)).global_coefficient, 1.0);
  // Star: no triangles.
  GraphBuilder b;
  b.ensure_vertices(5);
  for (Vertex leaf = 1; leaf <= 4; ++leaf) b.add_edge(0, leaf);
  EXPECT_DOUBLE_EQ(clustering(b.build_undirected()).global_coefficient,
                   0.0);
}

TEST(Analysis, TwoCliquesTriangles) {
  // Two K10 cliques joined by one bridge: 2 * C(10,3) triangles.
  const Graph g = make_two_cliques(20, 1);
  EXPECT_EQ(clustering(g).triangles, 2u * 120u);
}

TEST(Analysis, ClusteringEmptyGraph) {
  const ClusteringStats s = clustering(Graph{});
  EXPECT_EQ(s.triangles, 0u);
  EXPECT_DOUBLE_EQ(s.global_coefficient, 0.0);
}

// -------------------------------------------------------------- serialize

bool graphs_identical(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges() || a.directed() != b.directed())
    return false;
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    if (a.vertex_weight(v) != b.vertex_weight(v)) return false;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (na.size() != nb.size()) return false;
    for (std::size_t i = 0; i < na.size(); ++i)
      if (!(na[i] == nb[i])) return false;
  }
  return true;
}

TEST(Serialize, RoundTripUndirected) {
  util::Rng rng(811);
  const Graph g = make_barabasi_albert(120, 3, rng);
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_graph(buffer, g);
  const Graph r = load_graph(buffer);
  EXPECT_TRUE(graphs_identical(g, r));
  EXPECT_TRUE(r.check_symmetric());
}

TEST(Serialize, RoundTripDirectedWithWeights) {
  GraphBuilder b;
  b.ensure_vertices(5, 3);
  b.add_edge(0, 1, 7);
  b.add_edge(1, 0, 2);
  b.add_edge(4, 2, 9);
  b.add_vertex_weight(3, 11);
  const Graph g = b.build_directed();
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_graph(buffer, g);
  EXPECT_TRUE(graphs_identical(g, load_graph(buffer)));
}

TEST(Serialize, RoundTripEmptyGraph) {
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_graph(buffer, Graph{});
  EXPECT_EQ(load_graph(buffer).num_vertices(), 0u);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  buffer << "NOPE and more bytes here to be safe";
  EXPECT_THROW(load_graph(buffer), util::CheckFailure);
}

TEST(Serialize, RejectsTruncation) {
  const Graph g = make_path(20);
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_graph(buffer, g);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::istringstream cut(bytes, std::ios::binary);
  EXPECT_THROW(load_graph(cut), util::CheckFailure);
}

TEST(Serialize, FileRoundTrip) {
  const Graph g = make_grid(6, 7);
  const std::string path = "/tmp/ethshard_graph_snapshot_test.bin";
  save_graph_file(path, g);
  EXPECT_TRUE(graphs_identical(g, load_graph_file(path)));
}

// --------------------------------------------------- randomized property

TEST(GraphProperty, UndirectedTotalsConsistent) {
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    GraphBuilder b;
    const std::uint64_t n = 10 + rng.uniform(40);
    b.ensure_vertices(n);
    const int m = static_cast<int>(rng.uniform(200));
    for (int i = 0; i < m; ++i)
      b.add_edge(rng.uniform(n), rng.uniform(n), 1 + rng.uniform(3));
    const Graph g = b.build_undirected();
    EXPECT_TRUE(g.check_symmetric());
    // Sum of weighted degrees equals twice the total edge weight.
    graph::Weight sum = 0;
    for (Vertex v = 0; v < n; ++v) sum += g.weighted_degree(v);
    EXPECT_EQ(sum, 2 * g.total_edge_weight());
  }
}

}  // namespace
}  // namespace ethshard::graph
