// METIS file-format interoperability.
//
// The paper partitions with the real METIS binary. This module writes our
// graphs in METIS's .graph format (so `gpmetis graph.metis k` can be run
// on them unmodified) and reads both .graph files and the .part.k output
// files METIS produces — letting anyone cross-check MlkpPartitioner
// against the original implementation on identical inputs.
//
// Format (METIS 5.x manual §4.5): first non-comment line "n m [fmt]",
// fmt ∈ {"0","1","10","11"} for (vertex weights?, edge weights?); then n
// lines, line i listing vertex i's [weight] and its "neighbor weight"
// pairs with 1-based neighbor indices. '%' starts a comment line.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "partition/types.hpp"

namespace ethshard::partition {

/// Writes an undirected graph in METIS .graph format, including vertex
/// and edge weights (fmt=11). Precondition: g undirected.
void write_metis_graph(std::ostream& out, const graph::Graph& g);

/// Parses a METIS .graph file (fmt 0/1/10/11; no multi-constraint
/// ncon). Validates symmetry of the listed adjacency. Throws
/// util::InputError on malformed input.
graph::Graph read_metis_graph(std::istream& in);

/// Reads a METIS partition file (one 0-based shard id per line, one line
/// per vertex). `k` = number of shards the file was produced for; ids
/// must lie in [0, k). Throws util::InputError on malformed input or a
/// vertex-count mismatch.
Partition read_metis_partition(std::istream& in, std::uint64_t num_vertices,
                               std::uint32_t k);

/// Writes a partition in METIS .part format.
void write_metis_partition(std::ostream& out, const Partition& p);

}  // namespace ethshard::partition
