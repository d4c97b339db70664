#include "gps/batch.hpp"

#include "graph/pe.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace cgps {

void XcNormalizer::fold(const std::array<float, kXcDim>& row) {
  if (!fitted_) {
    min_ = row;
    max_ = row;
    fitted_ = true;
    return;
  }
  for (std::size_t j = 0; j < kXcDim; ++j) {
    min_[j] = std::min(min_[j], row[j]);
    max_[j] = std::max(max_[j], row[j]);
  }
}

void XcNormalizer::fit(const std::vector<std::array<float, kXcDim>>& rows) {
  for (const auto& row : rows) fold(row);
}

void XcNormalizer::fit_rows(const std::vector<std::array<float, kXcDim>>& all,
                            const std::vector<std::int32_t>& nodes) {
  for (std::int32_t v : nodes) fold(all[static_cast<std::size_t>(v)]);
}

void XcNormalizer::restore(const std::array<float, kXcDim>& min,
                           const std::array<float, kXcDim>& max) {
  min_ = min;
  max_ = max;
  fitted_ = true;
}

std::array<float, kXcDim> XcNormalizer::apply(const std::array<float, kXcDim>& row) const {
  std::array<float, kXcDim> out{};
  for (std::size_t j = 0; j < kXcDim; ++j) {
    const float span = max_[j] - min_[j];
    out[j] = span > 0.0f ? std::clamp((row[j] - min_[j]) / span, 0.0f, 1.0f) : 0.0f;
  }
  return out;
}

SubgraphBatch make_batch(const std::vector<const Subgraph*>& subgraphs,
                         const std::vector<std::array<float, kXcDim>>& xc_all,
                         const XcNormalizer& normalizer, const BatchOptions& options) {
  const TraceSpan span("batch.assemble");
  if (subgraphs.empty()) throw std::invalid_argument("make_batch: empty batch");
  SubgraphBatch batch;
  const std::int64_t n_graphs = static_cast<std::int64_t>(subgraphs.size());

  // Prefix sums over subgraph sizes assign every graph a fixed slice of each
  // output vector, so per-graph fill (including the PE encoders, the dominant
  // cost for RWSE / LapPE) runs on the work pool with no write overlap and a
  // layout identical to the old append-only loop.
  std::vector<std::int64_t> node_off(static_cast<std::size_t>(n_graphs) + 1, 0);
  std::vector<std::int64_t> edge_off(static_cast<std::size_t>(n_graphs) + 1, 0);
  for (std::int64_t g = 0; g < n_graphs; ++g) {
    node_off[g + 1] = node_off[g] + subgraphs[g]->num_nodes();
    edge_off[g + 1] = edge_off[g] + subgraphs[g]->num_directed_edges();
  }
  const std::int64_t total_nodes = node_off[static_cast<std::size_t>(n_graphs)];
  const std::int64_t total_edges = edge_off[static_cast<std::size_t>(n_graphs)];

  batch.node_type.resize(static_cast<std::size_t>(total_nodes));
  batch.dist0.resize(static_cast<std::size_t>(total_nodes));
  batch.dist1.resize(static_cast<std::size_t>(total_nodes));
  batch.graph_of_node.resize(static_cast<std::size_t>(total_nodes));
  batch.pin_role.resize(static_cast<std::size_t>(total_nodes));
  batch.edges.src.resize(static_cast<std::size_t>(total_edges));
  batch.edges.dst.resize(static_cast<std::size_t>(total_edges));
  batch.edge_type.resize(static_cast<std::size_t>(total_edges));
  batch.graph_ptr.assign(node_off.begin(), node_off.end());
  batch.anchor_a.resize(static_cast<std::size_t>(n_graphs));
  batch.anchor_b.resize(static_cast<std::size_t>(n_graphs));

  std::vector<float> xc_flat(static_cast<std::size_t>(total_nodes * kXcDim));

  const bool want_drnl = options.pe == PeKind::kDrnl;
  const bool want_rwse = options.pe == PeKind::kRwse;
  const bool want_lappe = options.pe == PeKind::kLappe;
  batch.pe_dense_dim = want_rwse ? options.rwse_steps : (want_lappe ? options.lappe_k : 0);
  if (want_drnl) batch.drnl.resize(static_cast<std::size_t>(total_nodes));
  if (batch.pe_dense_dim > 0)
    batch.pe_dense.resize(static_cast<std::size_t>(total_nodes * batch.pe_dense_dim));

  par::parallel_for(0, n_graphs, 1, [&](std::int64_t g0, std::int64_t g1) {
    for (std::int64_t g = g0; g < g1; ++g) {
      const Subgraph* sg = subgraphs[static_cast<std::size_t>(g)];
      const auto n = static_cast<std::int32_t>(sg->num_nodes());
      const std::int64_t nb = node_off[static_cast<std::size_t>(g)];
      const std::int64_t eb = edge_off[static_cast<std::size_t>(g)];
      const auto offset = static_cast<std::int32_t>(nb);
      batch.anchor_a[static_cast<std::size_t>(g)] = offset;
      batch.anchor_b[static_cast<std::size_t>(g)] = offset + sg->second_anchor;
      for (std::int32_t i = 0; i < n; ++i) {
        const std::size_t out = static_cast<std::size_t>(nb + i);
        batch.node_type[out] = sg->node_type[static_cast<std::size_t>(i)];
        batch.dist0[out] = std::min(sg->dist0[static_cast<std::size_t>(i)], kDspdMax);
        batch.dist1[out] = std::min(sg->dist1[static_cast<std::size_t>(i)], kDspdMax);
        batch.graph_of_node[out] = static_cast<std::int32_t>(g);
        const auto& raw = xc_all[static_cast<std::size_t>(
            sg->orig_nodes[static_cast<std::size_t>(i)])];
        const bool is_pin = sg->node_type[static_cast<std::size_t>(i)] ==
                            static_cast<std::int8_t>(NodeType::kPin);
        batch.pin_role[out] = is_pin ? static_cast<std::int32_t>(raw[0]) : 0;
        const auto row = normalizer.apply(raw);
        std::copy(row.begin(), row.end(), xc_flat.begin() + (nb + i) * kXcDim);
      }
      for (std::size_t e = 0; e < sg->edges.size(); ++e) {
        const std::size_t out = static_cast<std::size_t>(eb) + e;
        batch.edges.src[out] = sg->edges.src[e] + offset;
        batch.edges.dst[out] = sg->edges.dst[e] + offset;
        batch.edge_type[out] = sg->edge_type[e];
      }
      if (want_drnl) {
        const auto labels = drnl_labels(*sg);
        std::copy(labels.begin(), labels.end(), batch.drnl.begin() + nb);
      }
      if (want_rwse) {
        const auto features = rwse(*sg, options.rwse_steps);
        std::copy(features.begin(), features.end(),
                  batch.pe_dense.begin() + nb * batch.pe_dense_dim);
      }
      if (want_lappe) {
        const auto features = lappe(*sg, options.lappe_k);
        std::copy(features.begin(), features.end(),
                  batch.pe_dense.begin() + nb * batch.pe_dense_dim);
      }
    }
  });
  batch.xc = Tensor::from_vector(std::move(xc_flat), total_nodes, kXcDim);
  // Assembly telemetry (atomic adds — make_batch also runs on pool workers
  // during parallel inference batching).
  metric_counter("batch.batches_built").add(1);
  metric_counter("batch.graphs").add(n_graphs);
  metric_counter("batch.nodes").add(total_nodes);
  metric_counter("batch.edges").add(total_edges);
  return batch;
}

}  // namespace cgps
