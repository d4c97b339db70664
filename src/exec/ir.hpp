// Plan IR for the compiled executor (DESIGN.md §10).
//
// A Program is a flat, topologically ordered list of NodeDefs recorded once
// per (model config, training flag, loss kind) by gps_program.cpp. Row counts
// are *symbolic* (RowsSym) so one program serves every batch; they resolve to
// concrete sizes at bind time. Node ids double as value ids, and the inputs
// vector of each node lists its operands in the exact order the eager op
// passes parents to Tensor::make — the backward schedule is derived by
// replaying the eager tape DFS over this graph (plan.cpp), which is what
// makes scalar planned execution bit-identical to eager. An inference
// program (Program::inference) has no backward, so it may run a linear
// ahead of the gather that feeds it instead (gps_program.cpp).
#pragma once

#include "tensor/tensor.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace cgps::exec {

enum class Op : std::uint8_t {
  // Sources (no forward work except kZeros/kInput pointer binding).
  kParam,
  kInput,
  kZeros,
  // Structure.
  kGather,
  kScatterAdd,
  kSegmentMean,
  kConcat,
  // Linear algebra / broadcasting.
  kMatmul,
  kAddRowvec,
  // Elementwise.
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMulColvec,  // out[i,j] = x[i,j] * col[i]  (col is (rows,1))
  kScale,
  kAddScalar,
  kRelu,
  kSigmoid,
  kSquare,
  // Stateful layers.
  kDropout,
  kBatchNorm,
  // Reductions / losses.
  kSumAll,
  kBce,
  kMse,
  // Mega ops: one node per attention module; the executor replays the exact
  // eager per-block program inside a single forward/backward step (the
  // softmax+scale fusion of DESIGN.md §10 lives here).
  kMultihead,
  kPerformer,
  // Fused step kinds, produced only by the fusion pass (plan.cpp); they
  // never appear as node ops.
  kLinear,      // matmul + bias
  kLinearRelu,  // matmul + bias + relu
  kGateChain,   // sigmoid(e_hat) * msg, both values materialized
};

// Symbolic row counts, resolved per batch at bind time.
enum class RowsSym : std::uint8_t {
  kFixed,   // parameters and other static shapes
  kN,       // batch nodes
  kE,       // batch edges
  kG,       // graphs in the batch
  kNet,     // head-statistics group sizes (bind-computed partition)
  kDevice,
  kPin,
  kOne,
};

// Bind-time data sources: index arrays and external float matrices taken
// from the SubgraphBatch (or, for kTarget/kWeight, from the runner).
enum class SrcKind : std::uint8_t {
  kNone,
  // int32 index arrays.
  kNodeType,
  kDist0,
  kDist1,
  kDrnl,
  kEdgeType,
  kEdgeSrc,
  kEdgeDst,
  kGraphOfNode,
  kPinRoles,
  kNetRows,
  kDeviceRows,
  kPinRows,
  kAnchorA,
  kAnchorB,
  // float matrices.
  kXc,
  kPeDense,
  kTarget,
  kWeight,
};

struct NodeDef {
  Op op = Op::kZeros;
  // Operand value ids in eager parent order (kBatchNorm: {x, gamma, beta};
  // mega: {x, weights...} — weight leaves never fire closures, so only the
  // x-first position matters for the tape DFS).
  std::vector<int> inputs;
  RowsSym rows = RowsSym::kN;
  std::int64_t fixed_rows = 0;  // when rows == kFixed
  std::int64_t cols = 0;
  bool requires_grad = false;

  float scalar = 0.0f;      // kScale factor / kAddScalar addend
  int inv_numel_node = -1;  // kScale: resolve scalar = 1/numel(this node) at bind
                            // (mean_all = scale(sum_all(x), 1/numel(x)))

  SrcKind src = SrcKind::kNone;   // kInput source; kGather/kScatterAdd/kSegmentMean index
  RowsSym idx_rows = RowsSym::kN; // element count of the index array

  bool training = false;          // kBatchNorm statistics / (unused otherwise)
  float p = 0.0f;                 // kDropout probability
  float momentum = 0.1f;          // kBatchNorm
  float eps = 1e-5f;

  Tensor param;  // kParam: the model tensor (shared autograd node)
  std::vector<float>* running_mean = nullptr;  // kBatchNorm buffers
  std::vector<float>* running_var = nullptr;

  // Mega attention payload: per-head projection weights in q,k,v order
  // (mh_w[3h], mh_w[3h+1], mh_w[3h+2]) plus the out-projection handled as
  // ordinary kMatmul/kAddRowvec nodes downstream.
  std::vector<Tensor> mh_w;
  std::vector<Tensor> mh_omega;  // kPerformer frozen features, per head
  std::int64_t heads = 0;
  std::int64_t head_dim = 0;
  std::int64_t features = 0;  // kPerformer m
};

// What loss the program ends in. kNone = inference program (no backward).
enum class LossKind : std::uint8_t { kNone, kBce, kMse, kWeightedMse };

struct Program {
  std::vector<NodeDef> nodes;
  int output = -1;  // head output node, (G, 1)
  int loss = -1;    // loss root node (scalar), -1 when LossKind::kNone
  bool training = false;
  LossKind loss_kind = LossKind::kNone;

  // No loss and eval mode, as every PlanRunner::predict records: there is no
  // backward, and no step has a side effect (no dropout draw, no BatchNorm
  // statistics update). Only these programs take the inference rewrites of
  // DESIGN.md §10.
  bool inference() const { return loss_kind == LossKind::kNone && !training; }
};

}  // namespace cgps::exec
