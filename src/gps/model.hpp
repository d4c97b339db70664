// CircuitGPS: the paper's hybrid graph Transformer (§III-C/D/E).
//
// Input encoding (Eq. 1):  X^0 = D_0 ⊕ D_1 ⊕ Embed(X)
// GPS layer (Eqs. 2-5):    parallel MPNN_e (GatedGCN) + GlobalAttn, fused by
//                          a 2-layer MLP, with residual + BatchNorm after
//                          every functional block. Edge features feed only
//                          the MPNN.
// Task head (Eqs. 6-7):    type-conditional projection of circuit
//                          statistics X_C into C, then
//                          X_H = Pool(X^L + C) -> MLP -> output.
//
// The same module serves link prediction (1 logit), edge regression and
// node regression (1 normalized capacitance); only the loss differs.
#pragma once

#include "gps/batch.hpp"
#include "gps/config.hpp"
#include "nn/attention.hpp"
#include "nn/gated_gcn.hpp"
#include "nn/gine.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

#include <memory>
#include <vector>

namespace cgps {

// One parallel MPNN+Attention block.
class GpsLayer final : public nn::Module {
 public:
  GpsLayer(const GpsConfig& config, Rng& rng);

  struct State {
    Tensor x;
    Tensor e;
  };
  State forward(const State& in, const SubgraphBatch& batch, Rng& rng);

  // Plan-recorder access (src/exec/gps_program.cpp): the Performer holds
  // per-head state (frozen features) not reachable through
  // named_parameters().
  const nn::PerformerAttention* performer() const { return attn_performer_.get(); }

 private:
  std::unique_ptr<nn::GatedGcn> mpnn_;
  std::unique_ptr<nn::GineLayer> gine_;
  std::unique_ptr<nn::MultiheadSelfAttention> attn_softmax_;
  std::unique_ptr<nn::PerformerAttention> attn_performer_;
  std::unique_ptr<nn::BatchNorm1d> bn_mpnn_;
  std::unique_ptr<nn::BatchNorm1d> bn_edge_;
  std::unique_ptr<nn::BatchNorm1d> bn_attn_;
  nn::BatchNorm1d bn_fuse_;
  nn::Mlp fuse_mlp_;
  float dropout_;
};

class CircuitGps final : public nn::Module {
 public:
  explicit CircuitGps(GpsConfig config);

  // Per-graph raw outputs, shape (num_graphs, 1). Link prediction reads
  // them as logits; regression heads as normalized capacitance.
  Tensor forward(const SubgraphBatch& batch);

  const GpsConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

  // Plan-recorder access (src/exec/gps_program.cpp).
  const GpsLayer& layer(int l) const { return *layers_[static_cast<std::size_t>(l)]; }

  // Head-only fine-tuning support (paper §III-E, strategy 1): freeze the
  // encoders and GPS layers, keep the task head trainable.
  void freeze_backbone();
  // Re-initialize the task-specific head (paper §III-D: the head is
  // task-specific, so switching from link logits to capacitance regression
  // starts it fresh while the pre-trained backbone is kept).
  void reset_head(std::uint64_t seed);
  // Trainable parameters only (respects freezing).
  std::vector<Tensor> trainable_parameters() const;

 private:
  Tensor encode_pe(const SubgraphBatch& batch);  // (N, 2*pe_dim)
  Tensor head_statistics(const SubgraphBatch& batch);  // C of Eq. 6, (N, hidden)

  GpsConfig config_;
  Rng rng_;
  std::int64_t pe_dim_ = 0;    // per-anchor PE width
  std::int64_t node_dim_ = 0;  // node-type embedding width

  nn::Embedding node_emb_;
  nn::Embedding edge_emb_;
  std::unique_ptr<nn::Embedding> dspd_emb0_;
  std::unique_ptr<nn::Embedding> dspd_emb1_;
  std::unique_ptr<nn::Embedding> drnl_emb_;
  std::unique_ptr<nn::Linear> pe_linear_;  // X_C / RWSE / LapPE projections
  std::vector<std::unique_ptr<GpsLayer>> layers_;

  nn::Linear head_net_;       // Eq. 6, x_i = 0
  nn::Linear head_device_;    // Eq. 6, x_i = 1
  nn::Embedding head_pin_;    // Eq. 6, x_i = 2
  nn::Mlp head_mlp_;
};

}  // namespace cgps
