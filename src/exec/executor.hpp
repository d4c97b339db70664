// Plan executor: binds a compiled Plan to one SubgraphBatch (resolving
// symbolic shapes, carving the arena, precomputing index groupings) and then
// runs the forward/backward schedules with zero allocation on the hot path
// (DESIGN.md §10).
//
// Equivalence contract: with the scalar backend, run_fwd/run_bwd produce
// values and gradients bitwise identical to eager CircuitGps::forward +
// Tensor::backward at any thread count. Every kernel call below replays the
// exact arithmetic (and per-buffer accumulation order) of the eager op
// closures; gradients of parameters accumulate into the model tensors so the
// optimizer is untouched.
#pragma once

#include "exec/arena.hpp"
#include "exec/backend.hpp"
#include "exec/plan.hpp"
#include "gps/batch.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"

#include <cstdint>
#include <vector>

namespace cgps::exec {

class Executor {
 public:
  explicit Executor(Plan plan);

  // Resolve shapes and index arrays for one batch, carve the arena, and point
  // every step at its buffers. `target` (G floats) feeds the loss program;
  // `weight` is the kWeightedMse per-row weight (both may be null for
  // inference programs). Pointers must stay valid through run_fwd/run_bwd.
  void bind(const SubgraphBatch& batch, const float* target, const float* weight);

  // Execute the forward schedule. `rng` is the model's RNG: dropout steps
  // consume it in the exact eager emission order.
  void run_fwd(Rng& rng);
  // Execute the backward schedule (loss programs only). Parameter gradients
  // accumulate into the model tensors; call Optimizer::zero_grad as usual.
  void run_bwd();

  const Plan& plan() const { return plan_; }
  const float* value(int id) const { return val_[static_cast<std::size_t>(id)]; }
  std::int64_t node_rows(int id) const { return rows_[static_cast<std::size_t>(id)]; }
  std::int64_t arena_bytes() const { return arena_.bound_bytes(); }

 private:
  // Byte layout (in floats, relative to the node's aux block) of one mega
  // attention node: saved-for-backward tensors plus the scratch slots shared
  // across heads and blocks. Sized per bind. The Performer forward writes
  // only saves (qkv_fwd and performer_attend_fwd); its scratch slots,
  // ndh_a, ml_a and l_ones included, serve bwd_performer. The packed q/k/v
  // weights are not here: they are their own arena slot (wpack_), live for
  // the forward step only.
  struct MegaLayout {
    // Saves, per head (x heads).
    std::int64_t q = 0, k = 0, v = 0;                      // N*dh each
    std::int64_t attn = 0;                                 // multihead: sum_len2
    std::int64_t e_q = 0, e_k = 0, phi_q = 0, phi_k = 0;   // performer: N*m
    std::int64_t numer = 0, denom = 0;                     // performer: N*dh / N
    std::int64_t kv = 0, z = 0;                            // performer: B*m*dh / B*m
    // Scratch slots, single instance.
    std::int64_t ndh_a = 0;                          // head_out (multihead fwd) / dhead (bwd)
    std::int64_t ndh_q = 0, ndh_k = 0, ndh_v = 0;    // dq/dk/dv accumulators
    std::int64_t ndh_m = 0;                          // performer dq_mm/dk_mm
    std::int64_t ll_a = 0, ll_b = 0;                 // multihead maxlen^2
    std::int64_t dhl_a = 0, dhl_b = 0;               // multihead dh*maxlen
    std::int64_t lm_a = 0, lm_b = 0;                 // performer maxlen*m
    std::int64_t ldh_a = 0, ldh_b = 0;               // performer maxlen*dh
    std::int64_t ml_a = 0, ml_b = 0;                 // performer m*maxlen (bwd)
    std::int64_t mdh = 0;                            // performer m*dh
    std::int64_t l_a = 0, l_b = 0, l_ones = 0;       // performer maxlen (bwd)
    std::int64_t m_a = 0;                            // performer m
    std::int64_t total = 0;
  };

  std::int64_t resolve_rows(RowsSym sym, std::int64_t fixed) const;
  const std::int32_t* index_array(SrcKind src) const;
  const float* input_matrix(SrcKind src) const;
  std::int64_t aux_floats(int id);
  void exec_fwd_step(const Step& step, Rng& rng);
  void exec_bwd_step(const Step& step);
  bool is_mega(int id) const;
  void project_qkv(int id, float qk_scale);
  void fwd_multihead(int id);
  void bwd_multihead(int id);
  void fwd_performer(int id);
  void bwd_performer(int id);
  void fwd_batchnorm(int id);
  void bwd_batchnorm(int id);
  void bwd_linear(const Step& step, const float* dyb);
  bool input_rg(int id, std::size_t slot) const;
  std::int64_t numel(int id) const {
    return rows_[static_cast<std::size_t>(id)] *
           plan_.prog.nodes[static_cast<std::size_t>(id)].cols;
  }

  Plan plan_;
  Arena arena_;
  const KernelBackend* backend_ = nullptr;

  // Resolved per bind.
  std::int64_t n_ = 0, e_ = 0, g_ = 0;
  const SubgraphBatch* batch_ = nullptr;
  const float* target_ = nullptr;
  const float* weight_ = nullptr;
  std::vector<std::int32_t> net_rows_, device_rows_, pin_rows_, pin_roles_;
  std::vector<std::int64_t> s2_off_;  // multihead per-block len^2 prefix sums
  std::int64_t max_len_ = 0, sum_len2_ = 0;

  std::vector<std::int64_t> rows_;
  std::vector<float*> val_;
  std::vector<float*> grad_;
  std::vector<float*> aux_;
  std::vector<float> fwd_scalar_;  // kScale factor with inv_numel resolved
  std::vector<kern::RowGroups> groups_storage_;
  std::vector<const kern::RowGroups*> groups_;
  std::vector<std::vector<float>> inv_counts_;  // kSegmentMean per-node
  std::vector<MegaLayout> mega_;
  std::vector<float*> wpack_;  // mega node: packed q/k/v weights (forward step only)
  std::vector<int> param_ids_;
  std::vector<ArenaRequest> requests_;   // reused across binds
  std::vector<float> fused_scratch_;    // kLinearRelu backward dyb (grow-only)
};

}  // namespace cgps::exec
