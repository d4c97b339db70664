#include "gps/model.hpp"

#include "graph/pe.hpp"
#include "tensor/ops.hpp"

#include <stdexcept>

namespace cgps {

const char* mpnn_kind_name(MpnnKind kind) {
  switch (kind) {
    case MpnnKind::kNone: return "None";
    case MpnnKind::kGatedGcn: return "GatedGCN";
    case MpnnKind::kGine: return "GINE";
  }
  return "?";
}

const char* attn_kind_name(AttnKind kind) {
  switch (kind) {
    case AttnKind::kNone: return "None";
    case AttnKind::kTransformer: return "Transformer";
    case AttnKind::kPerformer: return "Performer";
  }
  return "?";
}

const char* pe_kind_name(PeKind kind) {
  switch (kind) {
    case PeKind::kNone: return "w/o PE";
    case PeKind::kXc: return "X_C";
    case PeKind::kDrnl: return "DRNL";
    case PeKind::kRwse: return "RWSE";
    case PeKind::kLappe: return "LapPE";
    case PeKind::kDspd: return "DSPD";
  }
  return "?";
}

std::string GpsConfig::describe() const {
  return std::string(mpnn_kind_name(mpnn)) + "+" + attn_kind_name(attn) + "/" +
         pe_kind_name(pe) + " h" + std::to_string(hidden) + " L" + std::to_string(layers);
}

// ---------------------------------------------------------------- GpsLayer --

GpsLayer::GpsLayer(const GpsConfig& config, Rng& rng)
    : bn_fuse_(config.hidden),
      fuse_mlp_({config.hidden, 2 * config.hidden, config.hidden}, rng, config.dropout),
      dropout_(config.dropout) {
  if (config.mpnn == MpnnKind::kGatedGcn) {
    mpnn_ = std::make_unique<nn::GatedGcn>(config.hidden, rng);
    bn_mpnn_ = std::make_unique<nn::BatchNorm1d>(config.hidden);
    bn_edge_ = std::make_unique<nn::BatchNorm1d>(config.hidden);
    register_module("mpnn", *mpnn_);
    register_module("bn_mpnn", *bn_mpnn_);
    register_module("bn_edge", *bn_edge_);
  } else if (config.mpnn == MpnnKind::kGine) {
    gine_ = std::make_unique<nn::GineLayer>(config.hidden, rng);
    bn_mpnn_ = std::make_unique<nn::BatchNorm1d>(config.hidden);
    register_module("mpnn", *gine_);
    register_module("bn_mpnn", *bn_mpnn_);
  }
  if (config.attn == AttnKind::kTransformer) {
    attn_softmax_ = std::make_unique<nn::MultiheadSelfAttention>(config.hidden, config.heads, rng);
    register_module("attn", *attn_softmax_);
  } else if (config.attn == AttnKind::kPerformer) {
    attn_performer_ = std::make_unique<nn::PerformerAttention>(
        config.hidden, config.heads, config.performer_features, rng);
    register_module("attn", *attn_performer_);
  }
  if (attn_softmax_ || attn_performer_) {
    bn_attn_ = std::make_unique<nn::BatchNorm1d>(config.hidden);
    register_module("bn_attn", *bn_attn_);
  }
  register_module("bn_fuse", bn_fuse_);
  register_module("fuse_mlp", fuse_mlp_);
}

GpsLayer::State GpsLayer::forward(const State& in, const SubgraphBatch& batch, Rng& rng) {
  const bool train = training();
  Tensor sum;
  Tensor e_out = in.e;

  if (mpnn_) {
    auto [xm, em] = mpnn_->forward(in.x, in.e, batch.edges);
    if (train && dropout_ > 0) xm = ops::dropout(xm, dropout_, rng);
    Tensor hm = bn_mpnn_->forward(ops::add(in.x, xm));  // residual + BN
    if (em.rows() > 0) {
      e_out = bn_edge_->forward(ops::add(in.e, em));
    }
    sum = hm;
  } else if (gine_) {
    Tensor xm = gine_->forward(in.x, in.e, batch.edges, rng);
    if (train && dropout_ > 0) xm = ops::dropout(xm, dropout_, rng);
    sum = bn_mpnn_->forward(ops::add(in.x, xm));  // GINE leaves edges as-is
  }
  if (attn_softmax_ || attn_performer_) {
    Tensor xa = attn_softmax_ ? attn_softmax_->forward(in.x, batch.graph_ptr)
                              : attn_performer_->forward(in.x, batch.graph_ptr);
    if (train && dropout_ > 0) xa = ops::dropout(xa, dropout_, rng);
    Tensor ha = bn_attn_->forward(ops::add(in.x, xa));
    sum = sum.defined() ? ops::add(sum, ha) : ha;
  }
  if (!sum.defined()) sum = in.x;  // degenerate config (None+None)

  Tensor fused = fuse_mlp_.forward(sum, rng);
  if (train && dropout_ > 0) fused = ops::dropout(fused, dropout_, rng);
  Tensor x_out = bn_fuse_.forward(ops::add(sum, fused));
  return {x_out, e_out};
}

// --------------------------------------------------------------- CircuitGps --

namespace {

// Constructor-ordering helper: compute widths before member init.
std::int64_t pe_width(const GpsConfig& c) { return std::max<std::int64_t>(4, c.hidden / 4); }

}  // namespace

CircuitGps::CircuitGps(GpsConfig config)
    : config_(config),
      rng_(config.seed),
      pe_dim_(pe_width(config)),
      node_dim_(config.hidden - 2 * pe_width(config)),
      node_emb_(3, node_dim_, rng_),
      edge_emb_(kNumEdgeTypes, config.hidden, rng_),
      head_net_(kXcDim, config.hidden, rng_),
      head_device_(kXcDim, config.hidden, rng_),
      head_pin_(8, config.hidden, rng_),
      head_mlp_({config.anchor_readout ? 3 * config.hidden : config.hidden,
                 config.head_hidden, 1},
                rng_, config.dropout) {
  if (node_dim_ <= 0) throw std::invalid_argument("CircuitGps: hidden too small");
  register_module("node_emb", node_emb_);
  register_module("edge_emb", edge_emb_);

  switch (config_.pe) {
    case PeKind::kDspd:
      dspd_emb0_ = std::make_unique<nn::Embedding>(kDspdMax + 1, pe_dim_, rng_);
      dspd_emb1_ = std::make_unique<nn::Embedding>(kDspdMax + 1, pe_dim_, rng_);
      register_module("dspd_emb0", *dspd_emb0_);
      register_module("dspd_emb1", *dspd_emb1_);
      break;
    case PeKind::kDrnl:
      drnl_emb_ = std::make_unique<nn::Embedding>(drnl_max_label() + 1, 2 * pe_dim_, rng_);
      register_module("drnl_emb", *drnl_emb_);
      break;
    case PeKind::kXc:
      pe_linear_ = std::make_unique<nn::Linear>(kXcDim, 2 * pe_dim_, rng_);
      register_module("pe_linear", *pe_linear_);
      break;
    case PeKind::kRwse:
      pe_linear_ = std::make_unique<nn::Linear>(config_.rwse_steps, 2 * pe_dim_, rng_);
      register_module("pe_linear", *pe_linear_);
      break;
    case PeKind::kLappe:
      pe_linear_ = std::make_unique<nn::Linear>(config_.lappe_k, 2 * pe_dim_, rng_);
      register_module("pe_linear", *pe_linear_);
      break;
    case PeKind::kNone:
      break;
  }

  layers_.reserve(static_cast<std::size_t>(config_.layers));
  for (int l = 0; l < config_.layers; ++l) {
    layers_.push_back(std::make_unique<GpsLayer>(config_, rng_));
    register_module("gps" + std::to_string(l), *layers_.back());
  }

  register_module("head_net", head_net_);
  register_module("head_device", head_device_);
  register_module("head_pin", head_pin_);
  register_module("head_mlp", head_mlp_);
}

Tensor CircuitGps::encode_pe(const SubgraphBatch& batch) {
  switch (config_.pe) {
    case PeKind::kDspd: {
      Tensor d0 = dspd_emb0_->forward(batch.dist0);
      Tensor d1 = dspd_emb1_->forward(batch.dist1);
      const Tensor parts[] = {d0, d1};
      return ops::concat_cols(parts);
    }
    case PeKind::kDrnl:
      return drnl_emb_->forward(batch.drnl);
    case PeKind::kXc:
      return pe_linear_->forward(batch.xc);
    case PeKind::kRwse:
    case PeKind::kLappe: {
      if (batch.pe_dense_dim == 0)
        throw std::logic_error("CircuitGps: batch lacks dense PE features");
      Tensor features = Tensor::from_vector(
          std::vector<float>(batch.pe_dense), batch.num_nodes(), batch.pe_dense_dim);
      return pe_linear_->forward(features);
    }
    case PeKind::kNone:
      return Tensor::zeros(batch.num_nodes(), 2 * pe_dim_);
  }
  throw std::logic_error("CircuitGps: unknown PE kind");
}

Tensor CircuitGps::head_statistics(const SubgraphBatch& batch) {
  const std::int64_t n = batch.num_nodes();
  std::vector<std::int32_t> net_rows, device_rows, pin_rows, pin_roles;
  for (std::int64_t i = 0; i < n; ++i) {
    switch (batch.node_type[static_cast<std::size_t>(i)]) {
      case static_cast<std::int32_t>(NodeType::kNet):
        net_rows.push_back(static_cast<std::int32_t>(i));
        break;
      case static_cast<std::int32_t>(NodeType::kDevice):
        device_rows.push_back(static_cast<std::int32_t>(i));
        break;
      default:
        pin_rows.push_back(static_cast<std::int32_t>(i));
        pin_roles.push_back(batch.pin_role[static_cast<std::size_t>(i)]);
        break;
    }
  }
  // c starts from the first group's scatter, which starts at +0.0: adding it
  // onto zeros could only turn -0.0 into +0.0, and a scatter holds no -0.0.
  Tensor c;
  const auto add_group = [&](const Tensor& rows, const std::vector<std::int32_t>& at) {
    Tensor scattered = ops::scatter_add_rows(rows, at, n);
    c = c.defined() ? ops::add(c, scattered) : scattered;
  };
  if (!net_rows.empty())
    add_group(head_net_.forward(ops::gather_rows(batch.xc, net_rows)), net_rows);
  if (!device_rows.empty())
    add_group(head_device_.forward(ops::gather_rows(batch.xc, device_rows)), device_rows);
  if (!pin_rows.empty()) add_group(head_pin_.forward(pin_roles), pin_rows);
  return c.defined() ? c : Tensor::zeros(n, config_.hidden);
}

Tensor CircuitGps::forward(const SubgraphBatch& batch) {
  // Eq. 1: X^0 = D0 ⊕ D1 ⊕ Embed(X).
  Tensor node_e = node_emb_.forward(batch.node_type);
  Tensor pe = encode_pe(batch);
  const Tensor input_parts[] = {pe, node_e};
  Tensor x = ops::concat_cols(input_parts);
  Tensor e = edge_emb_.forward(batch.edge_type);

  GpsLayer::State state{x, e};
  for (const auto& layer : layers_) state = layer->forward(state, batch, rng_);

  // Eqs. 6-7.
  Tensor c = head_statistics(batch);
  Tensor enriched = ops::add(state.x, c);
  Tensor pooled = ops::segment_mean(enriched, batch.graph_of_node, batch.num_graphs());
  if (config_.anchor_readout) {
    // Extension: concat the two anchors' final embeddings (order-sensitive
    // information Eq. 7's pooling averages away).
    const Tensor parts[] = {pooled, ops::gather_rows(enriched, batch.anchor_a),
                            ops::gather_rows(enriched, batch.anchor_b)};
    pooled = ops::concat_cols(parts);
  }
  return head_mlp_.forward(pooled, rng_);
}

void CircuitGps::reset_head(std::uint64_t seed) {
  GpsConfig fresh_config = config_;
  fresh_config.seed = seed;
  const CircuitGps fresh(fresh_config);
  const auto source = fresh.named_parameters();
  auto target = named_parameters();
  for (std::size_t i = 0; i < source.size(); ++i) {
    if (target[i].first.rfind("head_", 0) != 0) continue;
    std::copy(source[i].second.data().begin(), source[i].second.data().end(),
              target[i].second.data().begin());
  }
}

void CircuitGps::freeze_backbone() {
  for (auto& [name, tensor] : named_parameters()) {
    const bool is_head = name.rfind("head_", 0) == 0;
    tensor.set_requires_grad(is_head);
  }
}

std::vector<Tensor> CircuitGps::trainable_parameters() const {
  std::vector<Tensor> out;
  for (const Tensor& p : parameters())
    if (p.requires_grad()) out.push_back(p);
  return out;
}

}  // namespace cgps
