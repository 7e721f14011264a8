#include "partition/mlkp.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "partition/recursive_bisection.hpp"
#include "util/check.hpp"

namespace ethshard::partition {

Partition MlkpPartitioner::partition(const graph::Graph& input,
                                     std::uint32_t k) {
  ETHSHARD_CHECK(k >= 1);
  const graph::Graph undirected_storage =
      input.directed() ? input.to_undirected() : graph::Graph{};
  const graph::Graph& g = input.directed() ? undirected_storage : input;

  const std::uint64_t n = g.num_vertices();
  if (k == 1 || n == 0) return Partition(n, k, 0);
  if (n <= k) {
    // Degenerate: one vertex per shard, round-robin for the remainder.
    Partition p(n, k);
    for (graph::Vertex v = 0; v < n; ++v)
      p.assign(v, static_cast<ShardId>(v % k));
    return p;
  }

  ETHSHARD_OBS_SPAN("mlkp");
  ETHSHARD_OBS_COUNT("mlkp/invocations", 1);
  ETHSHARD_OBS_COUNT("mlkp/vertices", n);

  util::Rng rng(cfg_.seed);
  const std::uint64_t coarsen_to =
      cfg_.coarsen_to != 0
          ? cfg_.coarsen_to
          : std::max<std::uint64_t>(30ULL * k, 120ULL);

  std::vector<CoarseLevel> levels;
  {
    ETHSHARD_OBS_TIMER("mlkp/coarsen_ms");
    ETHSHARD_OBS_SPAN("coarsen");
    levels = coarsen(g, coarsen_to, cfg_.matching, rng);
  }

  const graph::Graph& coarsest = levels.empty() ? g : levels.back().graph;

  const FmConfig fm{cfg_.imbalance, cfg_.refine_passes};
  const KwayRefineConfig kcfg{cfg_.imbalance, cfg_.refine_passes,
                              /*balance_moves=*/true};
  Partition part;
  {
    ETHSHARD_OBS_TIMER("mlkp/initial_ms");
    ETHSHARD_OBS_SPAN("initial");
    part = recursive_bisection_ggg(coarsest, k, fm, cfg_.init_tries, rng);
    if (cfg_.refine && !levels.empty())
      kway_refine(coarsest, part, kcfg);
  }

  // Uncoarsen: project through the hierarchy, refining at each level.
  {
    ETHSHARD_OBS_TIMER("mlkp/refine_ms");
    ETHSHARD_OBS_SPAN("refine");
    for (std::size_t i = levels.size(); i-- > 0;) {
      const graph::Graph& finer = (i == 0) ? g : levels[i - 1].graph;
      const std::vector<graph::Vertex>& map = levels[i].fine_to_coarse;
      Partition fine_part(finer.num_vertices(), k);
      {
        ETHSHARD_OBS_TIMER("mlkp/project_ms");
        for (graph::Vertex v = 0; v < finer.num_vertices(); ++v)
          fine_part.assign(v, part.shard_of(map[v]));
      }
      part = std::move(fine_part);
      if (cfg_.refine) kway_refine(finer, part, kcfg);
    }

    if (levels.empty() && cfg_.refine) kway_refine(g, part, kcfg);
  }

  ETHSHARD_CHECK(part.is_complete());
  return part;
}

}  // namespace ethshard::partition
