#include "graph/builder.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ethshard::graph {

namespace {
constexpr std::uint64_t kIdLimit = std::uint64_t{1} << 32;
constexpr std::uint64_t kLoMask = 0xffffffffu;
}

std::uint64_t GraphBuilder::key(Vertex u, Vertex v) {
  return (u << 32) | v;
}

const GraphBuilder::PairWeights* GraphBuilder::find_pair(Vertex u,
                                                         Vertex v) const {
  const auto it = pair_weight_.find(key(std::min(u, v), std::max(u, v)));
  return it == pair_weight_.end() ? nullptr : &it->second;
}

Vertex GraphBuilder::add_vertex(Weight weight) {
  const Vertex id = vwgt_.size();
  ETHSHARD_CHECK_MSG(id < kIdLimit, "vertex id space exhausted");
  vwgt_.push_back(weight);
  und_.emplace_back();
  return id;
}

void GraphBuilder::ensure_vertices(std::uint64_t count, Weight default_weight) {
  while (vwgt_.size() < count) add_vertex(default_weight);
}

EdgeInsert GraphBuilder::add_edge(Vertex u, Vertex v, Weight weight) {
  ETHSHARD_CHECK(u < vwgt_.size() && v < vwgt_.size());
  ETHSHARD_CHECK(weight > 0);
  const Vertex lo = std::min(u, v);
  const Vertex hi = std::max(u, v);
  // The single hash probe serves the cumulative and the window weights.
  PairSlot& slot = *pair_weight_.try_emplace(key(lo, hi)).first;
  PairWeights& pw = slot.second;

  EdgeInsert ins;
  if (u != v) {
    if (pw.fwd == 0 && pw.rev == 0) {
      und_[u].push_back(v);
      und_[v].push_back(u);
      ++num_und_edges_;
      ins.new_undirected_edge = true;
    }
    if (pw.window == 0) window_pairs_.push_back(&slot);
    pw.window += weight;
  }
  Weight& dir = (u == lo) ? pw.fwd : pw.rev;
  if (dir == 0) {
    ++num_dir_edges_;
    ins.new_directed_edge = true;
  }
  dir += weight;
  total_edge_weight_ += weight;
  return ins;
}

void GraphBuilder::add_vertex_weight(Vertex v, Weight weight) {
  ETHSHARD_CHECK(v < vwgt_.size());
  vwgt_[v] += weight;
}

Weight GraphBuilder::edge_weight(Vertex u, Vertex v) const {
  const PairWeights* pw = find_pair(u, v);
  if (pw == nullptr) return 0;
  return (u <= v) ? pw->fwd : pw->rev;
}

std::span<const Vertex> GraphBuilder::undirected_neighbors(Vertex v) const {
  return {und_[v].data(), und_[v].size()};
}

Graph GraphBuilder::build_directed() const {
  const std::uint64_t n = vwgt_.size();
  std::vector<std::uint64_t> deg(n, 0);
  for (const auto& [packed, pw] : pair_weight_) {
    if (pw.fwd > 0) ++deg[packed >> 32];
    if (pw.rev > 0) ++deg[packed & kLoMask];
  }

  std::vector<std::uint64_t> xadj(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) xadj[v + 1] = xadj[v] + deg[v];

  std::vector<Arc> adj(xadj[n]);
  std::vector<std::uint64_t> fill(xadj.begin(), xadj.end() - 1);
  for (const auto& [packed, pw] : pair_weight_) {
    const Vertex lo = packed >> 32;
    const Vertex hi = packed & kLoMask;
    if (pw.fwd > 0) adj[fill[lo]++] = Arc{hi, pw.fwd};
    if (pw.rev > 0) adj[fill[hi]++] = Arc{lo, pw.rev};
  }
  // from_csr sorts each arc list, so the snapshot does not depend on the
  // pair map's iteration order.
  return Graph::from_csr(std::move(xadj), std::move(adj), vwgt_,
                         /*directed=*/true);
}

Graph GraphBuilder::build_undirected() const {
  const std::uint64_t n = vwgt_.size();
  std::vector<std::uint64_t> deg(n, 0);
  for (const auto& [packed, pw] : pair_weight_) {
    const Vertex lo = packed >> 32;
    const Vertex hi = packed & kLoMask;
    if (lo == hi) continue;  // self-loops dropped from the symmetrized view
    ++deg[lo];
    ++deg[hi];
  }

  std::vector<std::uint64_t> xadj(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) xadj[v + 1] = xadj[v] + deg[v];

  std::vector<Arc> adj(xadj[n]);
  std::vector<std::uint64_t> fill(xadj.begin(), xadj.end() - 1);
  for (const auto& [packed, pw] : pair_weight_) {
    const Vertex lo = packed >> 32;
    const Vertex hi = packed & kLoMask;
    if (lo == hi) continue;
    const Weight w = pw.fwd + pw.rev;
    adj[fill[lo]++] = Arc{hi, w};
    adj[fill[hi]++] = Arc{lo, w};
  }
  return Graph::from_csr(std::move(xadj), std::move(adj), vwgt_,
                         /*directed=*/false);
}

Graph GraphBuilder::build_window_induced(
    std::span<const Vertex> vertices, std::span<const Weight> vertex_weights,
    std::vector<Vertex>& old_to_new) const {
  if (old_to_new.size() < vwgt_.size())
    old_to_new.resize(vwgt_.size(), Graph::kInvalid);
  const std::uint64_t sub_n = vertices.size();
  std::vector<Weight> vw(sub_n);
  for (std::uint64_t i = 0; i < sub_n; ++i) {
    const Vertex v = vertices[i];
    ETHSHARD_CHECK(v < vwgt_.size() && v < vertex_weights.size());
    ETHSHARD_CHECK_MSG(old_to_new[v] == Graph::kInvalid,
                       "duplicate vertex or dirty scratch");
    old_to_new[v] = i;
    vw[i] = vertex_weights[v];
  }

  // Window pairs are never self-loops, and each appears once.
  std::vector<std::uint64_t> deg(sub_n, 0);
  for (const PairSlot* slot : window_pairs_) {
    const Vertex nl = old_to_new[slot->first >> 32];
    const Vertex nh = old_to_new[slot->first & kLoMask];
    if (nl == Graph::kInvalid || nh == Graph::kInvalid) continue;
    ++deg[nl];
    ++deg[nh];
  }

  std::vector<std::uint64_t> xadj(sub_n + 1, 0);
  for (std::uint64_t i = 0; i < sub_n; ++i) xadj[i + 1] = xadj[i] + deg[i];

  std::vector<Arc> adj(xadj[sub_n]);
  std::vector<std::uint64_t> fill(xadj.begin(), xadj.end() - 1);
  for (const PairSlot* slot : window_pairs_) {
    const Vertex nl = old_to_new[slot->first >> 32];
    const Vertex nh = old_to_new[slot->first & kLoMask];
    if (nl == Graph::kInvalid || nh == Graph::kInvalid) continue;
    const Weight w = slot->second.window;
    adj[fill[nl]++] = Arc{nh, w};
    adj[fill[nh]++] = Arc{nl, w};
  }

  for (Vertex v : vertices) old_to_new[v] = Graph::kInvalid;
  return Graph::from_csr(std::move(xadj), std::move(adj), std::move(vw),
                         /*directed=*/false);
}

void GraphBuilder::start_window() {
  for (PairSlot* slot : window_pairs_) slot->second.window = 0;
  window_pairs_.clear();
}

Weight GraphBuilder::verify_window() const {
  std::vector<const PairSlot*> listed(window_pairs_.begin(),
                                      window_pairs_.end());
  std::sort(listed.begin(), listed.end());
  ETHSHARD_CHECK_MSG(
      std::adjacent_find(listed.begin(), listed.end()) == listed.end(),
      "a window pair is listed twice");
  Weight total = 0;
  std::uint64_t nonzero = 0;
  for (const PairSlot& slot : pair_weight_) {
    if (slot.second.window == 0) continue;
    ++nonzero;
    total += slot.second.window;
    ETHSHARD_CHECK_MSG(
        std::binary_search(listed.begin(), listed.end(), &slot),
        "pair (" << (slot.first >> 32) << ", " << (slot.first & kLoMask)
                 << ") has window weight " << slot.second.window
                 << " but is not on the touched-pair list");
  }
  // Every non-zero pair is listed and the list has no duplicates, so
  // equal sizes leave no listed pair with a zero window weight.
  ETHSHARD_CHECK_MSG(nonzero == listed.size(),
                     listed.size() - nonzero
                         << " listed window pairs have zero window weight");
  return total;
}

void GraphBuilder::clear() {
  vwgt_.clear();
  und_.clear();
  window_pairs_.clear();
  pair_weight_.clear();
  total_edge_weight_ = 0;
  num_dir_edges_ = 0;
  num_und_edges_ = 0;
}

}  // namespace ethshard::graph
