// Disjoint-union batching of enclosing subgraphs, plus X_C normalization.
//
// A SubgraphBatch concatenates k subgraphs into one node table (PyG-style):
// edges are index-shifted, `graph_ptr` gives per-graph node ranges for the
// block-diagonal attention, `graph_of_node` is the segment vector for
// pooling, and all PE inputs the configured encoder needs are materialized.
#pragma once

#include "gps/config.hpp"
#include "graph/circuit_graph.hpp"
#include "graph/subgraph.hpp"
#include "tensor/tensor.hpp"

#include <array>
#include <vector>

namespace cgps {

// Min-max normalizer for the circuit-statistics matrix (paper §IV-C
// normalizes X_C to [0,1]). Fit on training data only.
class XcNormalizer {
 public:
  void fit(const std::vector<std::array<float, kXcDim>>& rows);
  // Incremental fit over a node subset of a graph.
  void fit_rows(const std::vector<std::array<float, kXcDim>>& all,
                const std::vector<std::int32_t>& nodes);
  std::array<float, kXcDim> apply(const std::array<float, kXcDim>& row) const;
  // Reinstate previously fitted bounds (model-bundle v2 round trip): after
  // restore the normalizer reports fitted() and applies exactly these bounds.
  void restore(const std::array<float, kXcDim>& min, const std::array<float, kXcDim>& max);
  bool fitted() const { return fitted_; }

  const std::array<float, kXcDim>& min() const { return min_; }
  const std::array<float, kXcDim>& max() const { return max_; }

 private:
  void fold(const std::array<float, kXcDim>& row);

  std::array<float, kXcDim> min_{};
  std::array<float, kXcDim> max_{};
  bool fitted_ = false;
};

struct SubgraphBatch {
  std::vector<std::int32_t> node_type;  // per node
  std::vector<std::int32_t> dist0;      // DSPD clamped
  std::vector<std::int32_t> dist1;
  EdgeIndex edges;
  std::vector<std::int32_t> edge_type;
  std::vector<std::int64_t> graph_ptr;      // size G+1
  std::vector<std::int32_t> graph_of_node;  // size N
  Tensor xc;                                // (N, kXcDim), normalized
  std::vector<std::int32_t> pin_role;       // raw role code per node (0 if not a pin)
  std::vector<std::int32_t> anchor_a;       // per-graph global row of anchor m
  std::vector<std::int32_t> anchor_b;       // per-graph global row of anchor n

  // Alternative-PE payloads (only filled when the config asks for them).
  std::vector<std::int32_t> drnl;  // per node
  std::vector<float> pe_dense;     // N x pe_dense_dim (RWSE / LapPE)
  std::int32_t pe_dense_dim = 0;

  std::int64_t num_nodes() const { return static_cast<std::int64_t>(node_type.size()); }
  std::int64_t num_graphs() const { return static_cast<std::int64_t>(graph_ptr.size()) - 1; }
};

struct BatchOptions {
  PeKind pe = PeKind::kDspd;
  int rwse_steps = 8;
  int lappe_k = 4;
};

// `xc_all` is CircuitGraph::xc of the source graph the subgraphs came from.
SubgraphBatch make_batch(const std::vector<const Subgraph*>& subgraphs,
                         const std::vector<std::array<float, kXcDim>>& xc_all,
                         const XcNormalizer& normalizer, const BatchOptions& options = {});

}  // namespace cgps
