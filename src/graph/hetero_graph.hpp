// Heterogeneous circuit graph (paper §III-A, Fig. 1).
//
// Node types: net = 0, device = 1, pin = 2.
// Edge types: device-pin = 0, net-pin = 1. Types 2/3/4 (pin-net, pin-pin,
// net-net coupling) are *links* — prediction targets, never structural
// edges. Edges are undirected; adjacency is CSR over both directions.
// Parallel edges are allowed, self-loops are not.
#pragma once

#include <cstdint>
#include <vector>

namespace cgps {

enum class NodeType : std::int8_t { kNet = 0, kDevice = 1, kPin = 2 };

inline constexpr std::int8_t kEdgeDevicePin = 0;
inline constexpr std::int8_t kEdgeNetPin = 1;
inline constexpr std::int8_t kLinkPinNet = 2;
inline constexpr std::int8_t kLinkPinPin = 3;
inline constexpr std::int8_t kLinkNetNet = 4;
inline constexpr std::int32_t kNumEdgeTypes = 5;

class HeteroGraph {
 public:
  void reserve(std::int64_t nodes, std::int64_t edges);

  std::int32_t add_node(NodeType type);
  // Undirected edge between distinct nodes; returns its id, which counts up
  // from 0 in insertion order. Throws std::invalid_argument for a node out
  // of range or a self-loop (a == b).
  std::int64_t add_edge(std::int32_t a, std::int32_t b, std::int8_t type);

  // Build the CSR adjacency (call once after all edges are added). Every
  // node's list holds one entry per incident edge, in ascending edge id;
  // subgraph extraction relies on that order (graph/subgraph.cpp).
  void build_adjacency();
  bool adjacency_built() const { return !adj_ptr_.empty(); }

  std::int64_t num_nodes() const { return static_cast<std::int64_t>(node_type_.size()); }
  std::int64_t num_edges() const { return static_cast<std::int64_t>(edge_type_.size()); }

  NodeType node_type(std::int32_t v) const { return node_type_[static_cast<std::size_t>(v)]; }
  std::int8_t edge_type(std::int64_t e) const { return edge_type_[static_cast<std::size_t>(e)]; }
  std::int32_t edge_a(std::int64_t e) const { return edge_a_[static_cast<std::size_t>(e)]; }
  std::int32_t edge_b(std::int64_t e) const { return edge_b_[static_cast<std::size_t>(e)]; }

  // Neighbor iteration over the CSR structure.
  struct Neighbor {
    std::int32_t node;
    std::int64_t edge;
  };
  std::int64_t degree(std::int32_t v) const {
    return adj_ptr_[static_cast<std::size_t>(v) + 1] - adj_ptr_[static_cast<std::size_t>(v)];
  }
  Neighbor neighbor(std::int32_t v, std::int64_t k) const {
    const std::int64_t at = adj_ptr_[static_cast<std::size_t>(v)] + k;
    return {adj_node_[static_cast<std::size_t>(at)], adj_edge_[static_cast<std::size_t>(at)]};
  }

 private:
  std::vector<NodeType> node_type_;
  std::vector<std::int32_t> edge_a_, edge_b_;
  std::vector<std::int8_t> edge_type_;
  std::vector<std::int64_t> adj_ptr_;
  std::vector<std::int32_t> adj_node_;
  std::vector<std::int64_t> adj_edge_;
};

}  // namespace cgps
