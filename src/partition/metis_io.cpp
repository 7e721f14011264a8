#include "partition/metis_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace ethshard::partition {

namespace {

/// Next non-comment line; false at EOF. Empty lines are returned when
/// `allow_empty` (a vertex with no neighbours has an empty line in the
/// METIS format) and skipped otherwise.
bool next_line(std::istream& in, std::string& line,
               bool allow_empty = false) {
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t i = 0;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i < line.size() && line[i] == '%') continue;  // comment
    if (i == line.size() && !allow_empty) continue;   // blank
    return true;
  }
  return false;
}

std::vector<std::uint64_t> parse_numbers(const std::string& line) {
  std::vector<std::uint64_t> out;
  std::istringstream is(line);
  std::uint64_t v;
  while (is >> v) out.push_back(v);
  ETHSHARD_INPUT_CHECK(is.eof(), "metis: non-numeric token in '" << line
                                                               << "'");
  return out;
}

}  // namespace

void write_metis_graph(std::ostream& out, const graph::Graph& g) {
  ETHSHARD_CHECK(!g.directed());
  out << "% written by ethshard (fmt=11: vertex+edge weights)\n";
  out << g.num_vertices() << ' ' << g.num_edges() << " 11\n";
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    out << g.vertex_weight(v);
    for (const graph::Arc& a : g.neighbors(v))
      out << ' ' << (a.to + 1) << ' ' << a.weight;
    out << '\n';
  }
}

graph::Graph read_metis_graph(std::istream& in) {
  std::string line;
  ETHSHARD_INPUT_CHECK(next_line(in, line), "metis: empty graph file");
  const auto header = parse_numbers(line);
  ETHSHARD_INPUT_CHECK(header.size() >= 2 && header.size() <= 3,
                     "metis: bad header");
  const std::uint64_t n = header[0];
  const std::uint64_t m = header[1];
  const std::uint64_t fmt = header.size() == 3 ? header[2] : 0;
  ETHSHARD_INPUT_CHECK(fmt == 0 || fmt == 1 || fmt == 10 || fmt == 11,
                     "metis: unsupported fmt " << fmt);
  const bool has_vwgt = fmt >= 10;
  const bool has_ewgt = (fmt % 10) == 1;

  std::vector<std::vector<graph::Arc>> adjacency(n);
  std::vector<graph::Weight> vwgt(n, 1);

  for (std::uint64_t v = 0; v < n; ++v) {
    ETHSHARD_INPUT_CHECK(next_line(in, line, /*allow_empty=*/true),
                       "metis: truncated at vertex " << v + 1);
    const auto nums = parse_numbers(line);
    std::size_t i = 0;
    if (has_vwgt) {
      ETHSHARD_INPUT_CHECK(!nums.empty(), "metis: missing vertex weight");
      vwgt[v] = nums[i++];
    }
    while (i < nums.size()) {
      const std::uint64_t neighbor = nums[i++];
      ETHSHARD_INPUT_CHECK(neighbor >= 1 && neighbor <= n,
                         "metis: neighbor index out of range");
      graph::Weight w = 1;
      if (has_ewgt) {
        ETHSHARD_INPUT_CHECK(i < nums.size(),
                           "metis: dangling edge weight");
        w = nums[i++];
      }
      adjacency[v].push_back(graph::Arc{neighbor - 1, w});
    }
  }

  graph::Graph g = graph::Graph::from_adjacency(std::move(adjacency),
                                                std::move(vwgt),
                                                /*directed=*/false);
  ETHSHARD_INPUT_CHECK(g.num_edges() == m,
                     "metis: header claims " << m << " edges, file lists "
                                             << g.num_edges());
  ETHSHARD_INPUT_CHECK(g.check_symmetric(),
                     "metis: adjacency is not symmetric");
  return g;
}

Partition read_metis_partition(std::istream& in,
                               std::uint64_t num_vertices,
                               std::uint32_t k) {
  Partition p(num_vertices, k);
  std::string line;
  std::uint64_t v = 0;
  while (next_line(in, line)) {
    ETHSHARD_INPUT_CHECK(v < num_vertices, "metis: too many partition lines");
    const auto nums = parse_numbers(line);
    ETHSHARD_INPUT_CHECK(nums.size() == 1, "metis: bad partition line");
    ETHSHARD_INPUT_CHECK(nums[0] < k, "metis: shard id out of range");
    p.assign(v++, static_cast<ShardId>(nums[0]));
  }
  ETHSHARD_INPUT_CHECK(v == num_vertices,
                     "metis: expected " << num_vertices
                                        << " partition lines, got " << v);
  return p;
}

void write_metis_partition(std::ostream& out, const Partition& p) {
  for (graph::Vertex v = 0; v < p.size(); ++v) {
    ETHSHARD_CHECK_MSG(p.shard_of(v) != kUnassigned,
                       "metis: partition has unassigned vertices");
    out << p.shard_of(v) << '\n';
  }
}

}  // namespace ethshard::partition
