#include "graph/hetero_graph.hpp"

#include <stdexcept>

namespace cgps {

void HeteroGraph::reserve(std::int64_t nodes, std::int64_t edges) {
  node_type_.reserve(static_cast<std::size_t>(nodes));
  edge_a_.reserve(static_cast<std::size_t>(edges));
  edge_b_.reserve(static_cast<std::size_t>(edges));
  edge_type_.reserve(static_cast<std::size_t>(edges));
}

std::int32_t HeteroGraph::add_node(NodeType type) {
  node_type_.push_back(type);
  return static_cast<std::int32_t>(node_type_.size() - 1);
}

std::int64_t HeteroGraph::add_edge(std::int32_t a, std::int32_t b, std::int8_t type) {
  if (a < 0 || b < 0 || a >= num_nodes() || b >= num_nodes())
    throw std::invalid_argument("HeteroGraph::add_edge: node out of range");
  if (a == b) throw std::invalid_argument("HeteroGraph::add_edge: self-loop");
  if (!adj_ptr_.empty())
    throw std::logic_error("HeteroGraph::add_edge: adjacency already built");
  edge_a_.push_back(a);
  edge_b_.push_back(b);
  edge_type_.push_back(type);
  return static_cast<std::int64_t>(edge_type_.size() - 1);
}

void HeteroGraph::build_adjacency() {
  const std::size_t n = node_type_.size();
  const std::size_t m = edge_type_.size();
  adj_ptr_.assign(n + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++adj_ptr_[static_cast<std::size_t>(edge_a_[e]) + 1];
    ++adj_ptr_[static_cast<std::size_t>(edge_b_[e]) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) adj_ptr_[v + 1] += adj_ptr_[v];
  adj_node_.resize(2 * m);
  adj_edge_.resize(2 * m);
  std::vector<std::int64_t> cursor(adj_ptr_.begin(), adj_ptr_.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    const auto a = static_cast<std::size_t>(edge_a_[e]);
    const auto b = static_cast<std::size_t>(edge_b_[e]);
    adj_node_[static_cast<std::size_t>(cursor[a])] = edge_b_[e];
    adj_edge_[static_cast<std::size_t>(cursor[a]++)] = static_cast<std::int64_t>(e);
    adj_node_[static_cast<std::size_t>(cursor[b])] = edge_a_[e];
    adj_edge_[static_cast<std::size_t>(cursor[b]++)] = static_cast<std::int64_t>(e);
  }
}

}  // namespace cgps
