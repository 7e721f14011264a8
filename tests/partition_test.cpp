// Tests for the partition module: assignment type, hashing, FM bisection,
// coarsening, initial/recursive bisection, k-way refinement, the
// multilevel partitioner, Kernighan–Lin and balanced label propagation.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "partition/blp.hpp"
#include "partition/coarsen.hpp"
#include "partition/fm.hpp"
#include "partition/hash_partitioner.hpp"
#include "partition/initial_bisection.hpp"
#include "partition/kernighan_lin.hpp"
#include "partition/kway_refine.hpp"
#include "partition/metis_io.hpp"
#include "partition/mlkp.hpp"
#include "partition/quality.hpp"
#include "partition/recursive_bisection.hpp"
#include "partition/streaming.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace ethshard::partition {
namespace {

using graph::Graph;
using graph::Vertex;
using graph::Weight;

/// One coarsening level: a matching and its contraction.
CoarseLevel coarsen_one(const Graph& g, MatchingScheme scheme,
                        std::uint64_t salt) {
  return contract(g, match_vertices(g, scheme, salt));
}

Graph ba_graph() {
  util::Rng rng(5);
  return graph::make_barabasi_albert(1500, 3, rng);
}

Graph grid_graph() { return graph::make_grid(30, 30); }

/// Symmetrized interaction graph of a tiny generated history — the same
/// graph shape the simulator hands to METIS/R-METIS, scaled down.
Graph history_graph() {
  workload::GeneratorConfig cfg;
  cfg.scale = 0.0005;
  cfg.seed = 99;
  const workload::History history =
      workload::EthereumHistoryGenerator(cfg).generate();
  graph::GraphBuilder builder;
  for (const eth::Block& b : history.chain.blocks())
    for (const eth::Transaction& tx : b.transactions)
      for (const eth::Call& c : tx.calls) {
        builder.ensure_vertices(std::max(c.from, c.to) + 1, 1);
        builder.add_edge(c.from, c.to, 1);
      }
  return builder.build_undirected();
}

bool has_neighbor(const Graph& g, Vertex u, Vertex v) {
  for (const graph::Arc& a : g.neighbors(u))
    if (a.to == v) return true;
  return false;
}

// ----------------------------------------------------------------- types

TEST(Partition, ConstructionAndAssignment) {
  Partition p(5, 3);
  EXPECT_EQ(p.k(), 3u);
  EXPECT_EQ(p.size(), 5u);
  EXPECT_FALSE(p.is_complete());
  for (Vertex v = 0; v < 5; ++v) p.assign(v, static_cast<ShardId>(v % 3));
  EXPECT_TRUE(p.is_complete());
  EXPECT_EQ(p.shard_sizes(), (std::vector<std::uint64_t>{2, 2, 1}));
}

TEST(Partition, AppendGrows) {
  Partition p(0, 2);
  EXPECT_EQ(p.append(1), 0u);
  EXPECT_EQ(p.append(kUnassigned), 1u);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.shard_of(0), 1u);
}

TEST(Partition, RejectsOutOfRangeShard) {
  Partition p(2, 2);
  EXPECT_THROW(p.assign(0, 2), util::CheckFailure);
  EXPECT_THROW(p.assign(5, 0), util::CheckFailure);
}

TEST(Partition, ShardWeights) {
  graph::GraphBuilder b;
  b.add_vertex(10);
  b.add_vertex(20);
  b.add_vertex(30);
  const Graph g = b.build_directed();
  Partition p(3, 2);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 1);
  EXPECT_EQ(p.shard_weights(g), (std::vector<Weight>{10, 50}));
}

TEST(EdgeCut, CountsAndWeights) {
  graph::GraphBuilder b;
  b.ensure_vertices(4);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 3);
  b.add_edge(2, 3, 7);
  const Graph g = b.build_undirected();
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  p.assign(3, 1);
  EXPECT_EQ(edge_cut_count(g, p), 1u);   // only 1-2 crosses
  EXPECT_EQ(edge_cut_weight(g, p), 3u);
}

TEST(EdgeCut, UnassignedEndpointsIgnored) {
  const Graph g = graph::make_path(3);
  Partition p(3, 2);
  p.assign(0, 0);
  p.assign(2, 1);  // vertex 1 unassigned
  EXPECT_EQ(edge_cut_count(g, p), 0u);
}

TEST(Moves, CountsOnlyRealMoves) {
  Partition before(4, 2);
  Partition after(5, 2);  // one brand-new vertex
  before.assign(0, 0);
  before.assign(1, 1);
  before.assign(2, 0);  // 3 left unassigned
  after.assign(0, 1);   // moved
  after.assign(1, 1);   // stayed
  after.assign(2, 1);   // moved
  after.assign(3, 0);   // first assignment, not a move
  after.assign(4, 0);   // new vertex, not a move
  EXPECT_EQ(count_moves(before, after), 2u);
}

TEST(AlignLabels, UndoesPurePermutation) {
  Partition ref(9, 3);
  Partition perm(9, 3);
  for (Vertex v = 0; v < 9; ++v) {
    const auto s = static_cast<ShardId>(v % 3);
    ref.assign(v, s);
    perm.assign(v, (s + 1) % 3);  // rotated labels, same structure
  }
  EXPECT_EQ(count_moves(ref, perm), 9u);
  align_partition_labels(ref, &perm);
  EXPECT_EQ(count_moves(ref, perm), 0u);
  EXPECT_EQ(perm, ref);
}

TEST(AlignLabels, StructuralChangesStillCount) {
  Partition ref(4, 2);
  Partition next(4, 2);
  ref.assign(0, 0);
  ref.assign(1, 0);
  ref.assign(2, 1);
  ref.assign(3, 1);
  next.assign(0, 0);
  next.assign(1, 1);  // genuinely moved
  next.assign(2, 1);
  next.assign(3, 1);
  align_partition_labels(ref, &next);
  EXPECT_EQ(count_moves(ref, next), 1u);
}

TEST(AlignLabels, CutIsInvariant) {
  const Graph g = graph::make_grid(8, 8);
  HashPartitioner hp;
  const Partition ref = hp.partition(g, 4);
  Partition target = HashPartitioner(99).partition(g, 4);
  const Weight cut_before = edge_cut_weight(g, target);
  align_partition_labels(ref, &target);
  EXPECT_EQ(edge_cut_weight(g, target), cut_before);
}

TEST(AlignLabels, NeverIncreasesMoves) {
  util::Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.uniform(6));
    Partition ref(50, k);
    Partition target(50, k);
    for (Vertex v = 0; v < 50; ++v) {
      ref.assign(v, static_cast<ShardId>(rng.uniform(k)));
      target.assign(v, static_cast<ShardId>(rng.uniform(k)));
    }
    const std::uint64_t before = count_moves(ref, target);
    align_partition_labels(ref, &target);
    EXPECT_LE(count_moves(ref, target), before);
  }
}

TEST(AlignLabels, MismatchedKThrows) {
  Partition ref(2, 2, 0);
  Partition target(2, 3, 0);
  EXPECT_THROW(align_partition_labels(ref, &target), util::CheckFailure);
}

// --------------------------------------------------------------- hashing

TEST(HashPartitioner, CompleteAndDeterministic) {
  const Graph g = graph::make_path(100);
  HashPartitioner hp;
  const Partition a = hp.partition(g, 4);
  const Partition b = hp.partition(g, 4);
  EXPECT_TRUE(a.is_complete());
  EXPECT_EQ(a, b);
}

TEST(HashPartitioner, NearPerfectStaticBalance) {
  const Graph g = graph::make_path(10000);
  HashPartitioner hp;
  const Partition p = hp.partition(g, 8);
  const auto sizes = p.shard_sizes();
  for (std::uint64_t s : sizes) EXPECT_NEAR(s, 1250.0, 150.0);
}

TEST(HashPartitioner, SaltChangesAssignment) {
  const Graph g = graph::make_path(100);
  const Partition a = HashPartitioner(1).partition(g, 4);
  const Partition b = HashPartitioner(2).partition(g, 4);
  EXPECT_NE(a, b);
}

TEST(HashPartitioner, ShardOfMatchesPartition) {
  const Graph g = graph::make_path(50);
  HashPartitioner hp(7);
  const Partition p = hp.partition(g, 3);
  for (Vertex v = 0; v < 50; ++v)
    EXPECT_EQ(p.shard_of(v), hp.shard_of(v, 3));
}

TEST(HashPartitioner, HighEdgeCutOnStructuredGraph) {
  // On a path, hashing cuts roughly (k-1)/k of the edges.
  const Graph g = graph::make_path(20000);
  HashPartitioner hp;
  const Partition p = hp.partition(g, 8);
  const double cut = metrics::static_edge_cut(g, p);
  EXPECT_GT(cut, 0.8);
}

// -------------------------------------------------------------------- FM

TEST(Fm, ImprovesRandomBisectionOnTwoCliques) {
  const Graph g = graph::make_two_cliques(40, 2);
  util::Rng rng(3);
  Partition p = random_balanced_bisection(g, 0.5, rng);
  const Weight cut = fm_refine_bisection(g, p, 0.5, FmConfig{}, rng);
  // Optimal bisection cuts exactly the 2 bridges.
  EXPECT_EQ(cut, 2u);
  EXPECT_EQ(cut, edge_cut_weight(g, p));
  const auto sizes = p.shard_sizes();
  EXPECT_EQ(sizes[0], 20u);
  EXPECT_EQ(sizes[1], 20u);
}

TEST(Fm, RespectsBalanceCap) {
  const Graph g = graph::make_complete(30);  // any bisection cuts a lot
  util::Rng rng(5);
  Partition p = random_balanced_bisection(g, 0.5, rng);
  fm_refine_bisection(g, p, 0.5, FmConfig{.imbalance = 0.1}, rng);
  const auto sizes = p.shard_sizes();
  EXPECT_LE(std::max(sizes[0], sizes[1]), 17u);  // 15 * 1.1 rounded up
  EXPECT_GE(std::min(sizes[0], sizes[1]), 13u);
}

TEST(Fm, NeverWorsensCut) {
  util::Rng graph_rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::make_erdos_renyi(60, 0.1, graph_rng);
    util::Rng rng(100 + trial);
    Partition p = random_balanced_bisection(g, 0.5, rng);
    const Weight before = edge_cut_weight(g, p);
    const Weight after = fm_refine_bisection(g, p, 0.5, FmConfig{}, rng);
    EXPECT_LE(after, before);
  }
}

TEST(Fm, HandlesSingleDominantVertexWeight) {
  graph::GraphBuilder b;
  b.add_vertex(1000);  // dominant hub
  for (int i = 0; i < 9; ++i) b.add_vertex(1);
  for (Vertex v = 1; v < 10; ++v) b.add_edge(0, v, 1);
  const Graph g = b.build_undirected();
  util::Rng rng(13);
  Partition p = random_balanced_bisection(g, 0.5, rng);
  EXPECT_NO_THROW(fm_refine_bisection(g, p, 0.5, FmConfig{}, rng));
  EXPECT_TRUE(p.is_complete());
}

TEST(Fm, RejectsWrongK) {
  const Graph g = graph::make_path(4);
  Partition p(4, 3, 0);
  util::Rng rng(1);
  EXPECT_THROW(fm_refine_bisection(g, p, 0.5, FmConfig{}, rng),
               util::CheckFailure);
}

// ------------------------------------------------------------- coarsening

TEST(Coarsen, PreservesTotalVertexWeight) {
  util::Rng rng(17);
  const Graph g = graph::make_erdos_renyi(200, 0.05, rng);
  const CoarseLevel level =
      coarsen_one(g, MatchingScheme::kHeavyEdge, rng.next());
  EXPECT_EQ(level.graph.total_vertex_weight(), g.total_vertex_weight());
  EXPECT_LT(level.graph.num_vertices(), g.num_vertices());
  EXPECT_GE(level.graph.num_vertices(), g.num_vertices() / 2);
}

TEST(Coarsen, MapCoversAllVertices) {
  util::Rng rng(19);
  const Graph g = graph::make_grid(10, 10);
  const CoarseLevel level =
      coarsen_one(g, MatchingScheme::kHeavyEdge, rng.next());
  ASSERT_EQ(level.fine_to_coarse.size(), g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_LT(level.fine_to_coarse[v], level.graph.num_vertices());
}

TEST(Coarsen, CutWeightIsPreservedUnderProjection) {
  // Any partition of the coarse graph, projected to the fine graph, has
  // exactly the same cut weight — the core multilevel invariant.
  util::Rng rng(23);
  const Graph g = graph::make_erdos_renyi(150, 0.08, rng);
  const CoarseLevel level =
      coarsen_one(g, MatchingScheme::kHeavyEdge, rng.next());

  HashPartitioner hp;
  const Partition coarse = hp.partition(level.graph, 3);
  Partition fine(g.num_vertices(), 3);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    fine.assign(v, coarse.shard_of(level.fine_to_coarse[v]));
  EXPECT_EQ(edge_cut_weight(level.graph, coarse),
            edge_cut_weight(g, fine));
}

TEST(Coarsen, HierarchyReachesTarget) {
  util::Rng rng(29);
  const Graph g = graph::make_grid(40, 40);
  const auto levels = coarsen(g, 100, MatchingScheme::kHeavyEdge, rng);
  ASSERT_FALSE(levels.empty());
  EXPECT_LE(levels.back().graph.num_vertices(), 110u);  // near target
  for (std::size_t i = 1; i < levels.size(); ++i)
    EXPECT_LT(levels[i].graph.num_vertices(),
              levels[i - 1].graph.num_vertices());
}

TEST(Coarsen, StallsGracefullyOnStar) {
  // A star graph can halve at most once per round around the hub; the
  // shrink guard must terminate the loop rather than spin.
  graph::GraphBuilder b;
  b.ensure_vertices(101);
  for (Vertex v = 1; v <= 100; ++v) b.add_edge(0, v);
  const Graph g = b.build_undirected();
  util::Rng rng(31);
  const auto levels = coarsen(g, 2, MatchingScheme::kHeavyEdge, rng);
  EXPECT_LT(levels.size(), 60u);  // terminated
}

TEST(Coarsen, RandomMatchingAlsoShrinks) {
  util::Rng rng(37);
  const Graph g = graph::make_grid(20, 20);
  const CoarseLevel level = coarsen_one(g, MatchingScheme::kRandom, rng.next());
  EXPECT_LT(level.graph.num_vertices(), g.num_vertices());
}

TEST(Coarsen, HeavyEdgePrefersHeavyEdges) {
  // Two vertices joined by a huge edge must merge.
  graph::GraphBuilder b;
  b.ensure_vertices(4);
  b.add_edge(0, 1, 100);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 100);
  const Graph g = b.build_undirected();
  util::Rng rng(41);
  const CoarseLevel level =
      coarsen_one(g, MatchingScheme::kHeavyEdge, rng.next());
  EXPECT_EQ(level.graph.num_vertices(), 2u);
  EXPECT_EQ(level.fine_to_coarse[0], level.fine_to_coarse[1]);
  EXPECT_EQ(level.fine_to_coarse[2], level.fine_to_coarse[3]);
}

TEST(Coarsen, MatchingIsValidInvolutionOnEdges) {
  const Graph g = ba_graph();
  const std::vector<Vertex> match =
      match_vertices(g, MatchingScheme::kHeavyEdge, 0xfeedULL);
  ASSERT_EQ(match.size(), g.num_vertices());
  std::uint64_t pairs = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_LT(match[v], g.num_vertices());
    EXPECT_EQ(match[match[v]], v) << "match is not an involution at " << v;
    if (match[v] != v) {
      EXPECT_TRUE(has_neighbor(g, v, match[v]))
          << v << " matched to non-neighbor " << match[v];
      ++pairs;
    }
  }
  // A BA graph is connected, so the matching must pair most vertices.
  EXPECT_GT(pairs, g.num_vertices() / 2);
}

TEST(Coarsen, SaltChangesTieBreaks) {
  // On an unweighted grid every edge ties, so the salt alone decides the
  // matching; two salts agreeing everywhere would mean it is ignored.
  const Graph g = grid_graph();
  EXPECT_NE(match_vertices(g, MatchingScheme::kHeavyEdge, 1),
            match_vertices(g, MatchingScheme::kHeavyEdge, 2));
}

TEST(Coarsen, ContractPreservesWeightTotalsAndDropsInternalEdges) {
  const Graph g = ba_graph();
  const std::vector<Vertex> match =
      match_vertices(g, MatchingScheme::kHeavyEdge, 0xfeedULL);
  const CoarseLevel level = contract(g, match);

  ASSERT_EQ(level.fine_to_coarse.size(), g.num_vertices());
  // Matched pairs land on one coarse vertex; weights are constituent sums.
  std::uint64_t pairs = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(level.fine_to_coarse[v], level.fine_to_coarse[match[v]]);
    if (match[v] != v) ++pairs;
  }
  EXPECT_EQ(level.graph.num_vertices(), g.num_vertices() - pairs / 2);
  EXPECT_EQ(level.graph.total_vertex_weight(), g.total_vertex_weight());

  // Edge weight shrinks by exactly the weight of the intra-pair edges;
  // self-loops must not appear.
  Weight internal = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (const graph::Arc& a : g.neighbors(v))
      if (a.to == match[v] && v < a.to) internal += a.weight;
  EXPECT_EQ(level.graph.total_edge_weight(),
            g.total_edge_weight() - internal);
  for (Vertex c = 0; c < level.graph.num_vertices(); ++c)
    for (const graph::Arc& a : level.graph.neighbors(c))
      EXPECT_NE(a.to, c) << "self-loop on coarse vertex " << c;
  EXPECT_TRUE(level.graph.check_symmetric());
}

// -------------------------------------------------- initial + recursive

TEST(InitialBisection, AchievesTargetSplit) {
  const Graph g = graph::make_grid(10, 10);
  util::Rng rng(43);
  const Partition p = initial_bisection(g, 0.5, FmConfig{}, 4, rng);
  EXPECT_TRUE(p.is_complete());
  const auto sizes = p.shard_sizes();
  EXPECT_NEAR(static_cast<double>(sizes[0]), 50.0, 10.0);
}

TEST(InitialBisection, AsymmetricTarget) {
  const Graph g = graph::make_grid(10, 10);
  util::Rng rng(47);
  const Partition p = initial_bisection(g, 0.25, FmConfig{}, 4, rng);
  const auto sizes = p.shard_sizes();
  EXPECT_NEAR(static_cast<double>(sizes[0]), 25.0, 8.0);
}

TEST(InitialBisection, GridCutNearOptimal) {
  // A 10×10 grid's optimal bisection cuts 10 edges; greedy+FM should be
  // close.
  const Graph g = graph::make_grid(10, 10);
  util::Rng rng(53);
  Partition p = initial_bisection(g, 0.5, FmConfig{}, 8, rng);
  EXPECT_LE(edge_cut_weight(g, p), 16u);
}

TEST(InitialBisection, DisconnectedGraph) {
  // Two disjoint cliques: growing must restart across components.
  graph::GraphBuilder b;
  b.ensure_vertices(20);
  for (Vertex i = 0; i < 10; ++i)
    for (Vertex j = i + 1; j < 10; ++j) {
      b.add_edge(i, j);
      b.add_edge(10 + i, 10 + j);
    }
  const Graph g = b.build_undirected();
  util::Rng rng(59);
  const Partition p = initial_bisection(g, 0.5, FmConfig{}, 4, rng);
  EXPECT_TRUE(p.is_complete());
  EXPECT_EQ(edge_cut_weight(g, p), 0u);  // split along components
}

TEST(RecursiveBisection, ProducesAllShards) {
  const Graph g = graph::make_grid(12, 12);
  util::Rng rng(61);
  for (std::uint32_t k : {2u, 3u, 4u, 5u, 8u}) {
    const Partition p = recursive_bisection_ggg(g, k, FmConfig{}, 4, rng);
    EXPECT_TRUE(p.is_complete());
    const auto sizes = p.shard_sizes();
    ASSERT_EQ(sizes.size(), k);
    for (std::uint64_t s : sizes) EXPECT_GT(s, 0u) << "k=" << k;
  }
}

// ---------------------------------------------------------- kway refine

TEST(KwayRefine, ImprovesHashedPartition) {
  util::Rng grng(67);
  const Graph g = graph::make_planted_partition(4, 30, 0.4, 0.02, grng);
  HashPartitioner hp;
  Partition p = hp.partition(g, 4);
  const Weight before = edge_cut_weight(g, p);
  const Weight after = kway_refine(g, p, KwayRefineConfig{});
  EXPECT_LT(after, before);
  EXPECT_TRUE(p.is_complete());
}

TEST(KwayRefine, NeverEmptiesAShard) {
  const Graph g = graph::make_complete(12);
  Partition p(12, 3);
  for (Vertex v = 0; v < 12; ++v) p.assign(v, static_cast<ShardId>(v % 3));
  kway_refine(g, p, KwayRefineConfig{});
  for (std::uint64_t s : p.shard_sizes()) EXPECT_GE(s, 1u);
}

TEST(KwayRefine, RespectsWeightCap) {
  util::Rng grng(79);
  const Graph g = graph::make_erdos_renyi(120, 0.06, grng);
  HashPartitioner hp;
  Partition p = hp.partition(g, 4);
  kway_refine(g, p, KwayRefineConfig{.imbalance = 0.05});
  const auto weights = p.shard_weights(g);
  const double cap = 120.0 / 4 * 1.05 + 1;
  for (Weight w : weights) EXPECT_LE(static_cast<double>(w), cap);
}

// ------------------------------------------------------------------ MLKP

class MlkpParamTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(MlkpParamTest, ValidBalancedPartitions) {
  const auto [k, graph_kind] = GetParam();
  util::Rng grng(100 + graph_kind);
  Graph g;
  switch (graph_kind) {
    case 0:
      g = graph::make_grid(16, 16);
      break;
    case 1:
      g = graph::make_erdos_renyi(300, 0.03, grng);
      break;
    case 2:
      g = graph::make_barabasi_albert(300, 3, grng);
      break;
    case 3:
      g = graph::make_planted_partition(4, 64, 0.25, 0.01, grng);
      break;
    default:
      g = graph::make_cycle(257);
  }
  MlkpPartitioner mlkp;
  const Partition p = mlkp.partition(g, k);
  EXPECT_TRUE(p.is_complete());
  EXPECT_EQ(p.k(), k);
  EXPECT_EQ(p.size(), g.num_vertices());
  for (std::uint64_t s : p.shard_sizes()) EXPECT_GT(s, 0u);
  // Balance within a loose envelope of the configured 3% (coarse-level
  // granularity can overshoot slightly on small graphs).
  const double balance = metrics::static_balance(p);
  EXPECT_LT(balance, 1.35) << "k=" << k << " graph=" << graph_kind;
}

INSTANTIATE_TEST_SUITE_P(
    GraphFamiliesAndK, MlkpParamTest,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(0, 1, 2, 3, 4)));

TEST(Mlkp, RecoversPlantedCommunities) {
  util::Rng grng(107);
  const Graph g = graph::make_planted_partition(2, 80, 0.3, 0.005, grng);
  MlkpPartitioner mlkp;
  const Partition p = mlkp.partition(g, 2);
  // The planted cut is tiny; MLKP must find something close to it.
  const double cut = metrics::static_edge_cut(g, p);
  EXPECT_LT(cut, 0.08);
}

TEST(Mlkp, TwoCliquesOptimal) {
  const Graph g = graph::make_two_cliques(60, 2);
  MlkpPartitioner mlkp;
  const Partition p = mlkp.partition(g, 2);
  EXPECT_EQ(edge_cut_weight(g, p), 2u);
}

TEST(Mlkp, BeatsHashingOnStructuredGraphs) {
  util::Rng grng(109);
  const Graph g = graph::make_grid(30, 30);
  MlkpPartitioner mlkp;
  HashPartitioner hp;
  for (std::uint32_t k : {2u, 4u}) {
    const double mc = metrics::static_edge_cut(g, mlkp.partition(g, k));
    const double hc = metrics::static_edge_cut(g, hp.partition(g, k));
    EXPECT_LT(mc, hc / 4) << "k=" << k;
  }
}

TEST(Mlkp, DeterministicForFixedSeed) {
  util::Rng grng(113);
  const Graph g = graph::make_erdos_renyi(200, 0.04, grng);
  MlkpPartitioner a(MlkpConfig{.seed = 5});
  MlkpPartitioner b(MlkpConfig{.seed = 5});
  EXPECT_EQ(a.partition(g, 4), b.partition(g, 4));
}

/// FNV-1a over the assignment vector, rendered as decimal ids so the
/// digest does not depend on byte order.
std::uint64_t assignment_digest(const Partition& p) {
  std::string bytes;
  for (ShardId s : p.assignments()) bytes += std::to_string(s) + ',';
  return util::fnv1a64(bytes);
}

struct PinnedPartition {
  const char* graph;
  std::uint64_t seed;
  std::uint32_t k;
  std::uint64_t digest;
};

// Pinned outputs of MlkpPartitioner: any change to matching,
// contraction, initial bisection or refinement that alters a single
// assignment shows up here. Regenerate only for an intended change.
constexpr PinnedPartition kPinnedPartitions[] = {
    {"ba", 1, 2, 0x38fe229287c544ecULL},
    {"ba", 1, 4, 0x4cda9f5808416175ULL},
    {"ba", 1, 8, 0x7b35c4093ed97004ULL},
    {"ba", 7, 2, 0xc32e420f15c71a9cULL},
    {"ba", 7, 4, 0x5b45ccc5ec573be6ULL},
    {"ba", 7, 8, 0x45d33c28ac49eb53ULL},
    {"ba", 42, 2, 0x0752aa925dd9bebcULL},
    {"ba", 42, 4, 0x7c6afa071091725dULL},
    {"ba", 42, 8, 0x6d48b3c9c2f60490ULL},
    {"grid", 1, 2, 0xbbb012ce5ed4498dULL},
    {"grid", 1, 4, 0x820cc2c0047772aeULL},
    {"grid", 1, 8, 0xfa5bc353b30b9295ULL},
    {"grid", 7, 2, 0x4a57e1b78cacb945ULL},
    {"grid", 7, 4, 0xd59f0b3aa269e8ffULL},
    {"grid", 7, 8, 0x78219acb1d12e05dULL},
    {"grid", 42, 2, 0x5376febcd51b26f5ULL},
    {"grid", 42, 4, 0x5b68589e71c70e3dULL},
    {"grid", 42, 8, 0xae5083d1372d67d1ULL},
    {"history", 1, 2, 0x8fefda1abd913769ULL},
    {"history", 1, 4, 0x18dbcb3df68235eaULL},
    {"history", 1, 8, 0xa5c4f7cf4e9782a5ULL},
    {"history", 7, 2, 0x35cdb8802003a9f8ULL},
    {"history", 7, 4, 0x91eb71ca646e4722ULL},
    {"history", 7, 8, 0x7074336b8e3e53efULL},
    {"history", 42, 2, 0x24b6795975a7f1d1ULL},
    {"history", 42, 4, 0x9e5ae90a33258a70ULL},
    {"history", 42, 8, 0xa618a68fd0eaba59ULL},
};

TEST(Mlkp, PartitionDigestsArePinned) {
  const std::map<std::string, Graph> graphs = {
      {"ba", ba_graph()}, {"grid", grid_graph()}, {"history", history_graph()}};
  // Once with observability off and once with metrics and tracing on:
  // recording must never feed back into partitioning decisions.
  for (const bool observe : {false, true}) {
    obs::set_enabled(observe);
    obs::set_trace_enabled(observe);
    obs::Registry reg;
    const obs::ScopedRegistry scope(reg);
    for (const PinnedPartition& pin : kPinnedPartitions) {
      const Partition p = MlkpPartitioner(MlkpConfig{.seed = pin.seed})
                              .partition(graphs.at(pin.graph), pin.k);
      EXPECT_EQ(assignment_digest(p), pin.digest)
          << pin.graph << " seed=" << pin.seed << " k=" << pin.k
          << " observe=" << observe;
    }
    // The instrumentation really fired on the observed pass.
    if (observe) {
      EXPECT_GE(reg.snapshot().counters.at("pmatch/invocations"), 1u);
    }
  }
  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  obs::TraceBuffer::global().clear();
}

TEST(Mlkp, AcceptsDirectedInput) {
  graph::GraphBuilder b;
  b.ensure_vertices(10);
  for (Vertex v = 0; v + 1 < 10; ++v) b.add_edge(v, v + 1, 2);
  const Graph directed = b.build_directed();
  MlkpPartitioner mlkp;
  const Partition p = mlkp.partition(directed, 2);
  EXPECT_TRUE(p.is_complete());
}

TEST(Mlkp, DegenerateCases) {
  MlkpPartitioner mlkp;
  const Graph empty;
  EXPECT_EQ(mlkp.partition(empty, 4).size(), 0u);

  const Graph tiny = graph::make_path(3);
  const Partition p = mlkp.partition(tiny, 8);  // fewer vertices than shards
  EXPECT_TRUE(p.is_complete());

  const Graph g = graph::make_path(10);
  const Partition one = mlkp.partition(g, 1);
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(one.shard_of(v), 0u);
}

TEST(Mlkp, WeightedVerticesBalanceByWeight) {
  graph::GraphBuilder b;
  // 4 heavy vertices (weight 100) + 96 light (weight 1) in a cycle.
  for (int i = 0; i < 100; ++i) b.add_vertex(i < 4 ? 100 : 1);
  for (Vertex v = 0; v < 100; ++v) b.add_edge(v, (v + 1) % 100);
  const Graph g = b.build_undirected();
  MlkpPartitioner mlkp;
  const Partition p = mlkp.partition(g, 2);
  const auto w = p.shard_weights(g);
  const double total = static_cast<double>(w[0] + w[1]);
  EXPECT_LT(std::max(w[0], w[1]) / total, 0.62);
}

class MlkpImbalanceTest : public ::testing::TestWithParam<double> {};

TEST_P(MlkpImbalanceTest, RespectsConfiguredTolerance) {
  const double imbalance = GetParam();
  util::Rng grng(117);
  const Graph g = graph::make_erdos_renyi(400, 0.02, grng);
  MlkpPartitioner mlkp(MlkpConfig{.imbalance = imbalance, .seed = 3});
  const Partition p = mlkp.partition(g, 4);
  // Recursive bisection composes the tolerance once per level
  // (log2(4) = 2), plus slack for small-graph granularity.
  const double bound = (1.0 + imbalance) * (1.0 + imbalance) + 0.10;
  EXPECT_LT(metrics::static_balance(p), bound)
      << "imbalance=" << imbalance;
}

INSTANTIATE_TEST_SUITE_P(Tolerances, MlkpImbalanceTest,
                         ::testing::Values(0.01, 0.03, 0.10, 0.30));

TEST(Mlkp, LooserImbalanceNeverHurtsCut) {
  // More freedom can only help (statistically): compare tight vs loose
  // tolerance on a structured graph.
  util::Rng grng(119);
  const Graph g = graph::make_planted_partition(3, 70, 0.25, 0.02, grng);
  MlkpPartitioner tight(MlkpConfig{.imbalance = 0.005, .seed = 4});
  MlkpPartitioner loose(MlkpConfig{.imbalance = 0.25, .seed = 4});
  const Weight tight_cut = edge_cut_weight(g, tight.partition(g, 3));
  const Weight loose_cut = edge_cut_weight(g, loose.partition(g, 3));
  EXPECT_LE(loose_cut, tight_cut + tight_cut / 2 + 5);
}

TEST(Fm, ExactOnTinyWeightedInstance) {
  // 4 vertices: edges (0-1:10) (2-3:10) (1-2:1). Optimal bisection cuts
  // only the weight-1 edge.
  graph::GraphBuilder b;
  b.ensure_vertices(4);
  b.add_edge(0, 1, 10);
  b.add_edge(2, 3, 10);
  b.add_edge(1, 2, 1);
  const Graph g = b.build_undirected();
  util::Rng rng(7);
  // Start from the worst split {0,2} | {1,3}.
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 0);
  p.assign(3, 1);
  const Weight cut = fm_refine_bisection(g, p, 0.5, FmConfig{}, rng);
  EXPECT_EQ(cut, 1u);
  EXPECT_EQ(p.shard_of(0), p.shard_of(1));
  EXPECT_EQ(p.shard_of(2), p.shard_of(3));
}

TEST(Mlkp, RefinementAblationRefinesBetterOrEqual) {
  util::Rng grng(127);
  const Graph g = graph::make_planted_partition(2, 100, 0.2, 0.02, grng);
  MlkpPartitioner with(MlkpConfig{.refine = true, .seed = 9});
  MlkpPartitioner without(MlkpConfig{.refine = false, .seed = 9});
  const Weight wc = edge_cut_weight(g, with.partition(g, 2));
  const Weight nc = edge_cut_weight(g, without.partition(g, 2));
  EXPECT_LE(wc, nc);
}

// -------------------------------------------------------------------- KL

TEST(KernighanLin, CompleteValidPartition) {
  util::Rng grng(131);
  const Graph g = graph::make_erdos_renyi(150, 0.05, grng);
  KernighanLinPartitioner kl;
  for (std::uint32_t k : {2u, 4u, 8u}) {
    const Partition p = kl.partition(g, k);
    EXPECT_TRUE(p.is_complete());
    for (std::uint64_t s : p.shard_sizes()) EXPECT_GT(s, 0u);
  }
}

TEST(KernighanLin, FindsTwoCliqueCut) {
  const Graph g = graph::make_two_cliques(40, 1);
  KernighanLinPartitioner kl;
  EXPECT_EQ(edge_cut_weight(g, kl.partition(g, 2)), 1u);
}

TEST(KernighanLin, BetterThanHashWorseOrEqualToMlkpOnGrid) {
  const Graph g = graph::make_grid(20, 20);
  const double kl_cut = metrics::static_edge_cut(
      g, KernighanLinPartitioner().partition(g, 2));
  const double hash_cut =
      metrics::static_edge_cut(g, HashPartitioner().partition(g, 2));
  EXPECT_LT(kl_cut, hash_cut);
}

// ------------------------------------------------------------------- BLP

TEST(Blp, ReducesCutWithoutWreckingBalance) {
  util::Rng grng(137);
  const Graph g = graph::make_planted_partition(2, 100, 0.2, 0.02, grng);
  HashPartitioner hp;
  Partition p = hp.partition(g, 2);
  const double bal_before = metrics::dynamic_balance(g, p);
  BalancedLabelPropagation blp(BlpConfig{.rounds = 6});
  const BlpStats stats = blp.refine(g, p);
  EXPECT_LT(stats.cut_after, stats.cut_before);
  EXPECT_EQ(stats.cut_after, edge_cut_weight(g, p));
  const double bal_after = metrics::dynamic_balance(g, p);
  EXPECT_LT(bal_after, std::max(1.3, bal_before * 1.2));
}

TEST(Blp, MovesAreCounted) {
  util::Rng grng(139);
  const Graph g = graph::make_planted_partition(2, 60, 0.3, 0.02, grng);
  HashPartitioner hp;
  Partition p = hp.partition(g, 2);
  const Partition before = p;
  BalancedLabelPropagation blp;
  const BlpStats stats = blp.refine(g, p);
  // stats.moved counts physical movements across rounds (a vertex that
  // bounces counts each time), so it upper-bounds the net displacement.
  EXPECT_GE(stats.moved, count_moves(before, p));
  EXPECT_GT(stats.moved, 0u);
}

TEST(Blp, NoMovesOnPerfectPartition) {
  // Two cliques already split perfectly: every move has negative gain.
  const Graph g = graph::make_two_cliques(20, 1);
  Partition p(20, 2);
  for (Vertex v = 0; v < 20; ++v) p.assign(v, v < 10 ? 0 : 1);
  BalancedLabelPropagation blp;
  const BlpStats stats = blp.refine(g, p);
  EXPECT_EQ(stats.moved, 0u);
  EXPECT_EQ(stats.cut_after, stats.cut_before);
}

TEST(Blp, ProbabilisticVariantAlsoImproves) {
  util::Rng grng(149);
  const Graph g = graph::make_planted_partition(2, 100, 0.25, 0.02, grng);
  HashPartitioner hp;
  Partition p = hp.partition(g, 2);
  BalancedLabelPropagation blp(
      BlpConfig{.rounds = 8, .probabilistic = true, .seed = 3});
  const BlpStats stats = blp.refine(g, p);
  EXPECT_LT(stats.cut_after, stats.cut_before);
}

TEST(Blp, KWayImproves) {
  util::Rng grng(151);
  const Graph g = graph::make_planted_partition(4, 50, 0.3, 0.02, grng);
  HashPartitioner hp;
  Partition p = hp.partition(g, 4);
  BalancedLabelPropagation blp(BlpConfig{.rounds = 8});
  const BlpStats stats = blp.refine(g, p);
  EXPECT_LT(stats.cut_after, stats.cut_before);
}

TEST(Blp, ZeroRebalancePreservesShardWeights) {
  // With rebalance = 0 the oracle only authorizes pairwise-matched mass,
  // so per-shard weight can drift by at most a few candidates' worth.
  util::Rng grng(157);
  const Graph g = graph::make_planted_partition(2, 120, 0.2, 0.02, grng);
  HashPartitioner hp;
  Partition p = hp.partition(g, 2);
  const auto before = p.shard_weights(g);
  BalancedLabelPropagation blp(BlpConfig{.rounds = 6, .rebalance = 0.0});
  blp.refine(g, p);
  const auto after = p.shard_weights(g);
  const double total =
      static_cast<double>(g.total_vertex_weight());
  for (std::size_t s = 0; s < 2; ++s) {
    const double drift = std::abs(static_cast<double>(after[s]) -
                                  static_cast<double>(before[s]));
    EXPECT_LT(drift, 0.10 * total) << "shard " << s;
  }
}

TEST(Blp, ProbabilisticIsDeterministicForFixedSeed) {
  util::Rng grng(163);
  const Graph g = graph::make_planted_partition(2, 80, 0.2, 0.02, grng);
  HashPartitioner hp;
  Partition a = hp.partition(g, 2);
  Partition b = a;
  BalancedLabelPropagation blp_a(
      BlpConfig{.rounds = 4, .probabilistic = true, .seed = 9});
  BalancedLabelPropagation blp_b(
      BlpConfig{.rounds = 4, .probabilistic = true, .seed = 9});
  blp_a.refine(g, a);
  blp_b.refine(g, b);
  EXPECT_EQ(a, b);
}

TEST(KwayRefine, BalanceMovesFlagOffStillReducesCut) {
  util::Rng grng(167);
  const Graph g = graph::make_planted_partition(3, 50, 0.3, 0.02, grng);
  HashPartitioner hp;
  Partition p = hp.partition(g, 3);
  const Weight before = edge_cut_weight(g, p);
  const Weight after =
      kway_refine(g, p, KwayRefineConfig{.balance_moves = false});
  EXPECT_LT(after, before);
}

TEST(Blp, RequiresCompletePartition) {
  const Graph g = graph::make_path(4);
  Partition p(4, 2);  // unassigned
  BalancedLabelPropagation blp;
  EXPECT_THROW(blp.refine(g, p), util::CheckFailure);
}

// -------------------------------------------------------------- metis io

TEST(MetisIo, GraphRoundTripPreservesStructure) {
  util::Rng grng(501);
  graph::GraphBuilder b;
  b.ensure_vertices(30);
  for (int i = 0; i < 80; ++i) {
    const Vertex u = grng.uniform(30);
    const Vertex v = grng.uniform(30);
    if (u != v) b.add_edge(u, v, 1 + grng.uniform(5));
  }
  for (Vertex v = 0; v < 30; ++v) b.add_vertex_weight(v, grng.uniform(4));
  const Graph g = b.build_undirected();

  std::stringstream buffer;
  write_metis_graph(buffer, g);
  const Graph r = read_metis_graph(buffer);

  ASSERT_EQ(r.num_vertices(), g.num_vertices());
  ASSERT_EQ(r.num_edges(), g.num_edges());
  EXPECT_EQ(r.total_edge_weight(), g.total_edge_weight());
  EXPECT_EQ(r.total_vertex_weight(), g.total_vertex_weight());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.vertex_weight(v), g.vertex_weight(v));
    const auto ra = r.neighbors(v);
    const auto ga = g.neighbors(v);
    ASSERT_EQ(ra.size(), ga.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].to, ga[i].to);
      EXPECT_EQ(ra[i].weight, ga[i].weight);
    }
  }
}

TEST(MetisIo, ReadsUnweightedFormat) {
  // The METIS manual's tiny example style: 3-vertex triangle, fmt absent.
  std::istringstream in(
      "% a comment\n"
      "3 3\n"
      "2 3\n"
      "1 3\n"
      "1 2\n");
  const Graph g = read_metis_graph(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.vertex_weight(0), 1u);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(MetisIo, RejectsAsymmetricAdjacency) {
  std::istringstream in(
      "2 1\n"
      "2\n"
      "\n");
  EXPECT_THROW(read_metis_graph(in), util::InputError);
}

TEST(MetisIo, RejectsEdgeCountMismatch) {
  std::istringstream in(
      "3 5\n"
      "2\n"
      "1\n"
      "\n");
  EXPECT_THROW(read_metis_graph(in), util::InputError);
}

TEST(MetisIo, RejectsOutOfRangeNeighbor) {
  std::istringstream in(
      "2 1\n"
      "5\n"
      "1\n");
  EXPECT_THROW(read_metis_graph(in), util::InputError);
}

TEST(MetisIo, PartitionRoundTrip) {
  const Graph g = graph::make_grid(5, 5);
  const Partition p = MlkpPartitioner().partition(g, 3);
  std::stringstream buffer;
  write_metis_partition(buffer, p);
  const Partition r = read_metis_partition(buffer, g.num_vertices(), 3);
  EXPECT_EQ(r, p);
}

TEST(MetisIo, PartitionRejectsWrongLineCount) {
  std::istringstream in("0\n1\n");
  EXPECT_THROW(read_metis_partition(in, 3, 2), util::InputError);
}

TEST(MetisIo, PartitionRejectsOutOfRangeShard) {
  std::istringstream in("0\n7\n");
  EXPECT_THROW(read_metis_partition(in, 2, 2), util::InputError);
}

// --------------------------------------------------------------- quality

TEST(Quality, ReportOnKnownPartition) {
  // 0-1-2-3 path split as {0,1} | {2,3}: 1 cut edge, balanced.
  const Graph g = graph::make_path(4);
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  p.assign(3, 1);
  const QualityReport r = evaluate_partition(g, p);
  EXPECT_EQ(r.cut_edges, 1u);
  EXPECT_EQ(r.cut_weight, 1u);
  EXPECT_DOUBLE_EQ(r.edge_cut_fraction, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.balance, 1.0);
  EXPECT_EQ(r.boundary_vertices, 2u);       // vertices 1 and 2
  EXPECT_EQ(r.communication_volume, 2u);    // one remote shard each
  EXPECT_EQ(r.shard_sizes, (std::vector<std::uint64_t>{2, 2}));
}

TEST(Quality, CommunicationVolumeCountsDistinctShards) {
  // Star: center 0 with 6 leaves spread over 3 shards. The center sees 2
  // remote shards; each remote leaf sees 1.
  graph::GraphBuilder b;
  b.ensure_vertices(7);
  for (Vertex leaf = 1; leaf <= 6; ++leaf) b.add_edge(0, leaf);
  const Graph g = b.build_undirected();
  Partition p(7, 3);
  p.assign(0, 0);
  for (Vertex leaf = 1; leaf <= 3; ++leaf) p.assign(leaf, 1);
  for (Vertex leaf = 4; leaf <= 6; ++leaf) p.assign(leaf, 2);
  const QualityReport r = evaluate_partition(g, p);
  EXPECT_EQ(r.communication_volume, 2u + 6u);
  EXPECT_EQ(r.boundary_vertices, 7u);
  EXPECT_EQ(r.cut_edges, 6u);
}

TEST(Quality, MatchesMetricFunctions) {
  util::Rng grng(401);
  const Graph g = graph::make_erdos_renyi(80, 0.08, grng);
  const Partition p = HashPartitioner().partition(g, 4);
  const QualityReport r = evaluate_partition(g, p);
  EXPECT_DOUBLE_EQ(r.edge_cut_fraction, metrics::static_edge_cut(g, p));
  EXPECT_DOUBLE_EQ(r.weighted_cut_fraction,
                   metrics::dynamic_edge_cut(g, p));
  EXPECT_DOUBLE_EQ(r.balance, metrics::static_balance(p));
  EXPECT_DOUBLE_EQ(r.weighted_balance, metrics::dynamic_balance(g, p));
  EXPECT_EQ(r.cut_weight, edge_cut_weight(g, p));
  // Communication volume is bounded by cut arc endpoints and at least the
  // boundary (each boundary vertex talks to >= 1 remote shard).
  EXPECT_GE(r.communication_volume, r.boundary_vertices);
  EXPECT_LE(r.communication_volume, 2 * r.cut_edges);
}

TEST(Quality, ToStringMentionsKeyFields) {
  const Graph g = graph::make_path(4);
  Partition p(4, 2, 0);
  p.assign(2, 1);
  p.assign(3, 1);
  const std::string s = to_string(evaluate_partition(g, p));
  EXPECT_NE(s.find("edge-cut"), std::string::npos);
  EXPECT_NE(s.find("communication volume"), std::string::npos);
}

TEST(Quality, RequiresCompletePartition) {
  const Graph g = graph::make_path(3);
  Partition p(3, 2);  // unassigned
  EXPECT_THROW(evaluate_partition(g, p), util::CheckFailure);
}

// ------------------------------------------------------------- streaming

TEST(Streaming, LdgCompleteAndCapped) {
  util::Rng grng(211);
  const Graph g = graph::make_barabasi_albert(400, 2, grng);
  LdgPartitioner ldg;
  for (std::uint32_t k : {2u, 4u, 8u}) {
    const Partition p = ldg.partition(g, k);
    EXPECT_TRUE(p.is_complete());
    const double cap = 1.1 * 400.0 / k + 1;
    for (std::uint64_t s : p.shard_sizes())
      EXPECT_LE(static_cast<double>(s), cap) << "k=" << k;
  }
}

TEST(Streaming, FennelCompleteAndCapped) {
  util::Rng grng(223);
  const Graph g = graph::make_barabasi_albert(400, 2, grng);
  FennelPartitioner fennel;
  for (std::uint32_t k : {2u, 4u, 8u}) {
    const Partition p = fennel.partition(g, k);
    EXPECT_TRUE(p.is_complete());
    const double cap = 1.1 * 400.0 / k + 1;
    for (std::uint64_t s : p.shard_sizes())
      EXPECT_LE(static_cast<double>(s), cap) << "k=" << k;
  }
}

TEST(Streaming, BothBeatHashingOnStructuredGraphs) {
  const Graph g = graph::make_grid(25, 25);
  const double hash_cut =
      metrics::static_edge_cut(g, HashPartitioner().partition(g, 4));
  const double ldg_cut =
      metrics::static_edge_cut(g, LdgPartitioner().partition(g, 4));
  const double fennel_cut =
      metrics::static_edge_cut(g, FennelPartitioner().partition(g, 4));
  EXPECT_LT(ldg_cut, hash_cut);
  EXPECT_LT(fennel_cut, hash_cut);
}

TEST(Streaming, MlkpBeatsStreaming) {
  // Offline multilevel sees the whole graph and must beat one-pass
  // streaming on a community-structured instance.
  util::Rng grng(227);
  const Graph g = graph::make_planted_partition(4, 50, 0.3, 0.02, grng);
  const double mlkp_cut =
      metrics::static_edge_cut(g, MlkpPartitioner().partition(g, 4));
  const double fennel_cut =
      metrics::static_edge_cut(g, FennelPartitioner().partition(g, 4));
  EXPECT_LE(mlkp_cut, fennel_cut);
}

TEST(Streaming, DegenerateCases) {
  const Graph empty;
  EXPECT_EQ(LdgPartitioner().partition(empty, 4).size(), 0u);
  const Graph path = graph::make_path(5);
  const Partition one = FennelPartitioner().partition(path, 1);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(one.shard_of(v), 0u);
}

TEST(Streaming, AcceptsDirectedInput) {
  graph::GraphBuilder b;
  b.ensure_vertices(20);
  for (Vertex v = 0; v + 1 < 20; ++v) b.add_edge(v, v + 1);
  const Graph d = b.build_directed();
  EXPECT_TRUE(LdgPartitioner().partition(d, 2).is_complete());
  EXPECT_TRUE(FennelPartitioner().partition(d, 2).is_complete());
}

// ----------------------------------------------- cross-method properties

class PartitionerContractTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionerContractTest, AllPartitionersSatisfyContract) {
  util::Rng grng(160 + GetParam());
  const Graph g = graph::make_barabasi_albert(200, 2, grng);
  std::vector<std::unique_ptr<Partitioner>> methods;
  methods.push_back(std::make_unique<HashPartitioner>());
  methods.push_back(std::make_unique<KernighanLinPartitioner>());
  methods.push_back(std::make_unique<MlkpPartitioner>());
  for (auto& m : methods) {
    for (std::uint32_t k : {2u, 3u, 7u}) {
      const Partition p = m->partition(g, k);
      EXPECT_TRUE(p.is_complete()) << m->name() << " k=" << k;
      EXPECT_EQ(p.size(), g.num_vertices()) << m->name();
      EXPECT_EQ(p.k(), k) << m->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionerContractTest,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace ethshard::partition
