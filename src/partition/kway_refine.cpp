#include "partition/kway_refine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ethshard::partition {

graph::Weight kway_refine(const graph::Graph& g, Partition& p,
                          const KwayRefineConfig& cfg) {
  ETHSHARD_CHECK(!g.directed());
  ETHSHARD_CHECK(g.num_vertices() == p.size());
  const std::uint64_t n = g.num_vertices();
  const std::uint32_t k = p.k();
  if (n == 0 || k <= 1) return edge_cut_weight(g, p);

  ETHSHARD_OBS_TIMER("mlkp/kway_refine_ms");
  ETHSHARD_OBS_SPAN("kway_refine");
  ETHSHARD_OBS_HIST("kway/vertices", n);

  std::vector<graph::Weight> weight = p.shard_weights(g);
  std::vector<std::uint64_t> count = p.shard_sizes();

  graph::Weight max_vwgt = 0;
  for (graph::Vertex v = 0; v < n; ++v)
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  const std::uint64_t cap = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(g.total_vertex_weight()) /
                    static_cast<double>(k) * (1.0 + cfg.imbalance))),
      max_vwgt);

  // Connectivity of one vertex to each shard, reset lazily with a version
  // stamp to avoid an O(k) clear per vertex.
  std::vector<graph::Weight> conn(k, 0);
  std::vector<std::uint64_t> conn_stamp(k, 0);
  std::uint64_t stamp = 0;
  // Fills conn for v; returns whether v has a neighbour outside `cur`.
  auto tally = [&](graph::Vertex v, ShardId cur) {
    ++stamp;
    bool boundary = false;
    for (const graph::Arc& a : g.neighbors(v)) {
      const ShardId s = p.shard_of(a.to);
      if (conn_stamp[s] != stamp) {
        conn_stamp[s] = stamp;
        conn[s] = 0;
      }
      conn[s] += a.weight;
      if (s != cur) boundary = true;
    }
    return boundary;
  };
  auto conn_to = [&](ShardId s) {
    return conn_stamp[s] == stamp ? conn[s] : graph::Weight{0};
  };

  std::vector<std::pair<graph::Vertex, ShardId>> proposals;
  for (int pass = 0; pass < cfg.max_passes; ++pass) {
    // Proposal phase: against the pass-start assignment and shard state.
    proposals.clear();
    for (graph::Vertex v = 0; v < n; ++v) {
      const ShardId cur = p.shard_of(v);
      const graph::Weight wv = g.vertex_weight(v);
      if (count[cur] <= 1) continue;  // never empty a shard
      if (!tally(v, cur)) continue;

      const graph::Weight conn_cur = conn_to(cur);
      ShardId best = cur;
      std::int64_t best_gain = 0;
      std::uint64_t best_weight = weight[cur];
      for (const graph::Arc& a : g.neighbors(v)) {
        const ShardId t = p.shard_of(a.to);
        if (t == cur) continue;
        if (weight[t] + wv > cap) continue;
        const std::int64_t gain = static_cast<std::int64_t>(conn[t]) -
                                  static_cast<std::int64_t>(conn_cur);
        const bool better =
            gain > best_gain ||
            (cfg.balance_moves && gain == best_gain &&
             weight[t] + wv < best_weight && weight[t] + wv < weight[cur]);
        if (better) {
          best = t;
          best_gain = gain;
          best_weight = weight[t] + wv;
        }
      }
      if (best != cur) proposals.emplace_back(v, best);
    }

    // Apply phase: in ascending vertex order, revalidating each move
    // against the live state.
    std::uint64_t moved = 0;
    for (const auto& [v, t] : proposals) {
      const ShardId cur = p.shard_of(v);
      const graph::Weight wv = g.vertex_weight(v);
      if (count[cur] <= 1) continue;
      if (weight[t] + wv > cap) continue;

      tally(v, cur);
      const std::int64_t gain = static_cast<std::int64_t>(conn_to(t)) -
                                static_cast<std::int64_t>(conn_to(cur));
      const bool accept = gain > 0 || (cfg.balance_moves && gain == 0 &&
                                       weight[t] + wv < weight[cur]);
      if (!accept) continue;

      p.assign(v, t);
      weight[cur] -= wv;
      weight[t] += wv;
      --count[cur];
      ++count[t];
      ++moved;
    }
    ETHSHARD_OBS_COUNT("kway/passes", 1);
    ETHSHARD_OBS_COUNT("kway/proposed", proposals.size());
    ETHSHARD_OBS_COUNT("kway/applied", moved);
    if (moved == 0) break;
  }
  return edge_cut_weight(g, p);
}

}  // namespace ethshard::partition
