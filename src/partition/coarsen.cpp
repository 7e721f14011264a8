#include "partition/coarsen.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace ethshard::partition {

namespace {

constexpr graph::Vertex kNone = graph::Graph::kInvalid;

// More rounds sharpen the matching but each costs a full sweep; the
// stall check in coarsen() absorbs whatever residue is left.
constexpr int kMaxRounds = 8;

/// Symmetric per-edge score: both endpoints compute the same value for
/// the shared edge, which (with the index tie-break) rules out preference
/// cycles longer than 2.
std::uint64_t edge_hash(std::uint64_t salt, int round, graph::Vertex u,
                        graph::Vertex v) {
  const graph::Vertex lo = u < v ? u : v;
  const graph::Vertex hi = u < v ? v : u;
  std::uint64_t h = salt ^ util::mix64(static_cast<std::uint64_t>(round) + 1);
  h = util::hash_combine(h, lo);
  h = util::hash_combine(h, hi);
  // hash_combine's seed diffusion is too weak to push a low-bit salt
  // difference into the high bits that decide `<` comparisons; the
  // finalizer restores full avalanche so every salt reshuffles ties.
  return util::mix64(h);
}

}  // namespace

std::vector<graph::Vertex> match_vertices(const graph::Graph& g,
                                          MatchingScheme scheme,
                                          std::uint64_t salt) {
  ETHSHARD_CHECK(!g.directed());
  const std::uint64_t n = g.num_vertices();
  std::vector<graph::Vertex> match(n, kNone);
  if (n == 0) return match;

  std::vector<graph::Vertex> pref(n);
  std::vector<graph::Vertex> claim(n);
  std::uint64_t rounds = 0;
  std::uint64_t total_proposals = 0;
  std::uint64_t total_paired = 0;

  for (int round = 0; round < kMaxRounds; ++round) {
    // Preferences, a pure function of the round-start state.
    std::uint64_t proposals = 0;
    for (graph::Vertex v = 0; v < n; ++v) {
      pref[v] = kNone;
      claim[v] = kNone;
      if (match[v] != kNone) continue;
      graph::Vertex best = kNone;
      graph::Weight best_w = 0;
      std::uint64_t best_h = 0;
      for (const graph::Arc& a : g.neighbors(v)) {
        if (a.to == v || match[a.to] != kNone) continue;
        const graph::Weight w =
            scheme == MatchingScheme::kHeavyEdge ? a.weight : 1;
        const std::uint64_t h = edge_hash(salt, round, v, a.to);
        const bool better =
            best == kNone || w > best_w ||
            (w == best_w && (h < best_h || (h == best_h && a.to < best)));
        if (better) {
          best = a.to;
          best_w = w;
          best_h = h;
        }
      }
      pref[v] = best;
      if (best != kNone) ++proposals;
    }
    if (proposals == 0) break;
    ++rounds;
    total_proposals += proposals;

    // Claims: the lowest-index proposer wins each target.
    for (graph::Vertex v = 0; v < n; ++v)
      if (pref[v] != kNone) claim[pref[v]] = std::min(claim[pref[v]], v);

    // Pair formation. (v, u=pref[v]) pairs iff v won u's claim and either
    // the claims are mutual (the smaller index writes) or u's own proposal
    // lost (second chance; u pairs nowhere else, so each vertex is written
    // at most once).
    std::uint64_t paired = 0;
    for (graph::Vertex v = 0; v < n; ++v) {
      const graph::Vertex u = pref[v];
      if (u == kNone || claim[u] != v) continue;
      bool take = false;
      if (claim[v] == u) {
        take = v < u;  // mutual: one writer
      } else {
        const graph::Vertex w = pref[u];
        take = w == kNone || claim[w] != u;
      }
      if (take) {
        match[v] = u;
        match[u] = v;
        ++paired;
      }
    }
    total_paired += paired;
    if (paired == 0) break;
  }

  ETHSHARD_OBS_COUNT("pmatch/invocations", 1);
  ETHSHARD_OBS_COUNT("pmatch/rounds", rounds);
  ETHSHARD_OBS_COUNT("pmatch/proposals", total_proposals);
  ETHSHARD_OBS_COUNT("pmatch/paired", 2 * total_paired);  // vertices matched
  ETHSHARD_OBS_HIST("pmatch/vertices", n);

  // Leftovers coarsen as singletons.
  for (graph::Vertex v = 0; v < n; ++v)
    if (match[v] == kNone) match[v] = v;
  return match;
}

CoarseLevel contract(const graph::Graph& g,
                     const std::vector<graph::Vertex>& match) {
  ETHSHARD_CHECK(!g.directed());
  const std::uint64_t n = g.num_vertices();
  ETHSHARD_CHECK(match.size() == n);

  // The smaller endpoint of each pair owns the coarse id; ids are dense
  // in owner order. A non-owner's partner is smaller, so already numbered.
  std::vector<graph::Vertex> fine_to_coarse(n);
  std::vector<graph::Vertex> owners;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (v <= match[v]) {
      fine_to_coarse[v] = owners.size();
      owners.push_back(v);
    } else {
      fine_to_coarse[v] = fine_to_coarse[match[v]];
    }
  }
  const std::uint64_t cn = owners.size();

  std::vector<graph::Weight> cvwgt(cn);
  std::vector<std::uint64_t> xadj(cn + 1, 0);
  std::vector<graph::Arc> adj;
  adj.reserve(2 * g.num_edges());  // contraction never adds arcs
  std::vector<graph::Arc> scratch;
  for (std::uint64_t c = 0; c < cn; ++c) {
    const graph::Vertex v = owners[c];
    const graph::Vertex u = match[v];
    cvwgt[c] = g.vertex_weight(v) + (u != v ? g.vertex_weight(u) : 0);

    // Gather both constituents' arcs, then merge them per coarse target.
    scratch.clear();
    auto gather = [&](graph::Vertex x) {
      for (const graph::Arc& a : g.neighbors(x)) {
        const graph::Vertex cv = fine_to_coarse[a.to];
        if (cv == c) continue;  // intra-pair or self-loop: vanishes
        scratch.push_back(graph::Arc{cv, a.weight});
      }
    };
    gather(v);
    if (u != v) gather(u);
    std::sort(scratch.begin(), scratch.end(),
              [](const graph::Arc& a, const graph::Arc& b) {
                return a.to < b.to;
              });
    for (std::size_t i = 0; i < scratch.size();) {
      graph::Arc merged = scratch[i];
      for (++i; i < scratch.size() && scratch[i].to == merged.to; ++i)
        merged.weight += scratch[i].weight;
      adj.push_back(merged);
    }
    xadj[c + 1] = adj.size();
  }

  CoarseLevel level;
  level.graph = graph::Graph::from_csr(std::move(xadj), std::move(adj),
                                       std::move(cvwgt), /*directed=*/false);
  level.fine_to_coarse = std::move(fine_to_coarse);
  return level;
}

std::vector<CoarseLevel> coarsen(const graph::Graph& g,
                                 std::uint64_t target_vertices,
                                 MatchingScheme scheme, util::Rng& rng) {
  std::vector<CoarseLevel> levels;
  const graph::Graph* cur = &g;
  while (cur->num_vertices() > target_vertices) {
    ETHSHARD_OBS_SPAN("level");
    ETHSHARD_OBS_HIST("mlkp/level_vertices", cur->num_vertices());
    const std::uint64_t salt = rng.next();
    std::vector<graph::Vertex> match;
    {
      ETHSHARD_OBS_TIMER("mlkp/match_ms");
      ETHSHARD_OBS_SPAN("match");
      match = match_vertices(*cur, scheme, salt);
    }
    CoarseLevel next;
    {
      ETHSHARD_OBS_TIMER("mlkp/contract_ms");
      ETHSHARD_OBS_SPAN("contract");
      next = contract(*cur, match);
    }
    // Shrink factor of this level; a value near 1 means matching stalled.
    ETHSHARD_OBS_HIST("mlkp/level_shrink",
                      static_cast<double>(next.graph.num_vertices()) /
                          static_cast<double>(cur->num_vertices()));
    // Matching stalls (e.g. star graphs) → stop rather than loop forever.
    if (next.graph.num_vertices() >
        static_cast<std::uint64_t>(0.95 * static_cast<double>(
                                              cur->num_vertices())))
      break;
    levels.push_back(std::move(next));
    cur = &levels.back().graph;
  }
  ETHSHARD_OBS_COUNT("mlkp/coarsen_levels", levels.size());
  return levels;
}

}  // namespace ethshard::partition
