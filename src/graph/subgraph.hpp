// Enclosing-subgraph sampling (paper §III-B, Definition 1) and the DSPD
// positional encoding (paper §III-C).
//
// For a target link (m, n), the h-hop enclosing subgraph is induced by all
// nodes within h hops of either anchor. For node-level tasks the second
// anchor equals the first (DSPD degenerates to D0 = D1, paper §IV-D).
// DSPD distances are shortest paths *within the extracted subgraph*, capped
// at `kDspdMax` (unreachable nodes get the cap).
#pragma once

#include "graph/edge_index.hpp"
#include "graph/hetero_graph.hpp"

#include <cstdint>
#include <vector>

namespace cgps {

// Distances are clamped to this value; it also doubles as the "unreachable"
// marker. Embedding tables size their vocab as kDspdMax + 1.
inline constexpr std::int32_t kDspdMax = 8;

struct Subgraph {
  // Local node id -> original graph node id. Anchors occupy slots 0 and 1
  // (slot 1 duplicates slot 0 conceptually for node tasks but is not stored
  // twice; `second_anchor` is local slot of n, equal to 0 for node tasks).
  std::vector<std::int32_t> orig_nodes;
  std::vector<std::int8_t> node_type;   // NodeType codes
  EdgeIndex edges;                  // directed (both directions present)
  std::vector<std::int8_t> edge_type;   // per directed edge
  std::vector<std::int32_t> dist0;      // DSPD d(i, m)
  std::vector<std::int32_t> dist1;      // DSPD d(i, n)
  std::int32_t second_anchor = 1;       // local index of anchor n

  std::int64_t num_nodes() const { return static_cast<std::int64_t>(orig_nodes.size()); }
  std::int64_t num_directed_edges() const {
    return static_cast<std::int64_t>(edge_type.size());
  }
};

struct SubgraphOptions {
  std::int32_t hops = 1;
  // Per-anchor BFS frontier cap: dense circuit graphs (power rails) can
  // otherwise blow a "1-hop" neighborhood to thousands of nodes. The cap
  // keeps subgraph sizes in the paper's regime (Table IV reports ~257-node
  // mean subgraphs). Neighbors are taken in adjacency order. -1 = no cap.
  std::int64_t max_nodes_per_anchor = 512;
};

// Extract the enclosing subgraph for link (m, n); pass n = -1 (or n == m)
// for a single-anchor node-task subgraph. An anchor out of range, or any
// other negative n, throws std::invalid_argument.
//
// Cost follows the subgraph, not the host graph. The BFS reads the
// adjacency of the nodes it expands, stopping at `max_nodes_per_anchor`.
// Inducing the edges then reads, per member v, min(deg v, summed degree of
// the members after v) entries: a supply rail with thousands of pins costs
// what its later members hold. The entries read by both phases are added
// to the `sampling.adjacency_visited` counter.
Subgraph extract_enclosing_subgraph(const HeteroGraph& graph, std::int32_t m, std::int32_t n,
                                    const SubgraphOptions& options = {});

}  // namespace cgps
