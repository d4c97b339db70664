#include "exec/executor.hpp"

#include "graph/hetero_graph.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace cgps::exec {

namespace {

// Round sub-buffer offsets inside an aux block to cache-line granularity.
constexpr std::int64_t kAlign = 16;
std::int64_t align_up(std::int64_t v) { return (v + kAlign - 1) & ~(kAlign - 1); }

}  // namespace

Executor::Executor(Plan plan) : plan_(std::move(plan)) {
  const std::size_t n = plan_.prog.nodes.size();
  rows_.assign(n, 0);
  val_.assign(n, nullptr);
  grad_.assign(n, nullptr);
  aux_.assign(n, nullptr);
  fwd_scalar_.assign(n, 0.0f);
  groups_storage_.resize(n);
  groups_.assign(n, nullptr);
  inv_counts_.resize(n);
  mega_.resize(n);
  wpack_.assign(n, nullptr);
  for (std::size_t id = 0; id < n; ++id)
    if (plan_.prog.nodes[id].op == Op::kParam) param_ids_.push_back(static_cast<int>(id));
}

std::int64_t Executor::resolve_rows(RowsSym sym, std::int64_t fixed) const {
  switch (sym) {
    case RowsSym::kFixed: return fixed;
    case RowsSym::kN: return n_;
    case RowsSym::kE: return e_;
    case RowsSym::kG: return g_;
    case RowsSym::kNet: return static_cast<std::int64_t>(net_rows_.size());
    case RowsSym::kDevice: return static_cast<std::int64_t>(device_rows_.size());
    case RowsSym::kPin: return static_cast<std::int64_t>(pin_rows_.size());
    case RowsSym::kOne: return 1;
  }
  return 0;
}

const std::int32_t* Executor::index_array(SrcKind src) const {
  switch (src) {
    case SrcKind::kNodeType: return batch_->node_type.data();
    case SrcKind::kDist0: return batch_->dist0.data();
    case SrcKind::kDist1: return batch_->dist1.data();
    case SrcKind::kDrnl: return batch_->drnl.data();
    case SrcKind::kEdgeType: return batch_->edge_type.data();
    case SrcKind::kEdgeSrc: return batch_->edges.src.data();
    case SrcKind::kEdgeDst: return batch_->edges.dst.data();
    case SrcKind::kGraphOfNode: return batch_->graph_of_node.data();
    case SrcKind::kPinRoles: return pin_roles_.data();
    case SrcKind::kNetRows: return net_rows_.data();
    case SrcKind::kDeviceRows: return device_rows_.data();
    case SrcKind::kPinRows: return pin_rows_.data();
    case SrcKind::kAnchorA: return batch_->anchor_a.data();
    case SrcKind::kAnchorB: return batch_->anchor_b.data();
    default: break;
  }
  throw std::logic_error("exec: source is not an index array");
}

const float* Executor::input_matrix(SrcKind src) const {
  switch (src) {
    case SrcKind::kXc: return batch_->xc.data().data();
    case SrcKind::kPeDense: return batch_->pe_dense.data();
    case SrcKind::kTarget: return target_;
    case SrcKind::kWeight: return weight_;
    default: break;
  }
  throw std::logic_error("exec: source is not a float matrix");
}

bool Executor::input_rg(int id, std::size_t slot) const {
  const NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
  return plan_.prog.nodes[static_cast<std::size_t>(d.inputs[slot])].requires_grad;
}

std::int64_t Executor::aux_floats(int id) {
  const NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
  const std::int64_t m = rows_[static_cast<std::size_t>(id)];
  const std::int64_t c = d.cols;
  switch (d.op) {
    case Op::kDropout:
      return m * c;
    case Op::kBatchNorm:
      // [mean c][var c][invstd c][xhat m*c]
      return align_up(c) * 3 + m * c;
    case Op::kMultihead:
    case Op::kPerformer: {
      MegaLayout& L = mega_[static_cast<std::size_t>(id)];
      L = MegaLayout{};
      const std::int64_t N = n_, dh = d.head_dim, H = d.heads, fm = d.features;
      const std::int64_t B = g_, Lmax = max_len_;
      std::int64_t off = 0;
      const auto take = [&off](std::int64_t floats) {
        const std::int64_t at = off;
        off += align_up(floats);
        return at;
      };
      L.q = take(H * N * dh);
      L.k = take(H * N * dh);
      L.v = take(H * N * dh);
      L.ndh_a = take(N * dh);
      L.ndh_q = take(N * dh);
      L.ndh_k = take(N * dh);
      L.ndh_v = take(N * dh);
      if (d.op == Op::kMultihead) {
        L.attn = take(H * sum_len2_);
        L.ll_a = take(Lmax * Lmax);
        L.ll_b = take(Lmax * Lmax);
        L.dhl_a = take(dh * Lmax);
        L.dhl_b = take(dh * Lmax);
      } else {
        L.e_q = take(H * N * fm);
        L.e_k = take(H * N * fm);
        L.phi_q = take(H * N * fm);
        L.phi_k = take(H * N * fm);
        L.numer = take(H * N * dh);
        L.denom = take(H * N);
        L.kv = take(H * B * fm * dh);
        L.z = take(H * B * fm);
        L.ndh_m = take(N * dh);
        L.lm_a = take(Lmax * fm);
        L.lm_b = take(Lmax * fm);
        L.ldh_a = take(Lmax * dh);
        L.ldh_b = take(Lmax * dh);
        L.ml_a = take(fm * Lmax);
        L.ml_b = take(fm * Lmax);
        L.mdh = take(fm * dh);
        L.l_a = take(Lmax);
        L.l_b = take(Lmax);
        L.l_ones = take(Lmax);
        L.m_a = take(fm);
      }
      L.total = off;
      return off;
    }
    default:
      return 0;
  }
}

void Executor::bind(const SubgraphBatch& batch, const float* target, const float* weight) {
  batch_ = &batch;
  target_ = target;
  weight_ = weight;
  backend_ = &select_backend();
  n_ = batch.num_nodes();
  e_ = static_cast<std::int64_t>(batch.edges.size());
  g_ = batch.num_graphs();

  // Head-statistics partition: the exact serial scan of
  // CircuitGps::head_statistics.
  net_rows_.clear();
  device_rows_.clear();
  pin_rows_.clear();
  pin_roles_.clear();
  for (std::int64_t i = 0; i < n_; ++i) {
    switch (batch.node_type[static_cast<std::size_t>(i)]) {
      case static_cast<std::int32_t>(NodeType::kNet):
        net_rows_.push_back(static_cast<std::int32_t>(i));
        break;
      case static_cast<std::int32_t>(NodeType::kDevice):
        device_rows_.push_back(static_cast<std::int32_t>(i));
        break;
      default:
        pin_rows_.push_back(static_cast<std::int32_t>(i));
        pin_roles_.push_back(batch.pin_role[static_cast<std::size_t>(i)]);
        break;
    }
  }

  // Attention block geometry (shared by every mega node in the program).
  max_len_ = 0;
  sum_len2_ = 0;
  s2_off_.assign(static_cast<std::size_t>(g_), 0);
  for (std::int64_t g = 0; g < g_; ++g) {
    const std::int64_t len = batch.graph_ptr[static_cast<std::size_t>(g) + 1] -
                             batch.graph_ptr[static_cast<std::size_t>(g)];
    s2_off_[static_cast<std::size_t>(g)] = sum_len2_;
    sum_len2_ += len * len;
    max_len_ = std::max(max_len_, len);
  }

  const std::size_t n = plan_.prog.nodes.size();
  // Pass 1: resolve rows, scalars, index groupings, and parameter pointers.
  for (std::size_t id = 0; id < n; ++id) {
    NodeDef& d = plan_.prog.nodes[id];
    rows_[id] = resolve_rows(d.rows, d.fixed_rows);
    if (d.op == Op::kInput && d.src == SrcKind::kPeDense &&
        batch.pe_dense_dim != static_cast<std::int32_t>(d.cols))
      throw std::logic_error("exec: batch dense-PE width does not match the program");
    if (d.op == Op::kScale)
      fwd_scalar_[id] = d.inv_numel_node >= 0
                            ? 1.0f / static_cast<float>(numel(d.inv_numel_node))
                            : d.scalar;
    groups_[id] = nullptr;
    const bool is_indexed = d.op == Op::kGather || d.op == Op::kScatterAdd ||
                            d.op == Op::kSegmentMean;
    if (is_indexed) {
      const std::int64_t count = resolve_rows(d.idx_rows, 0);
      const std::int64_t work = count * d.cols;
      std::int64_t group_over = 0;
      bool needed = false;
      if (d.op == Op::kGather) {
        // Grouping is a backward-only concern for gathers.
        group_over = rows_[static_cast<std::size_t>(d.inputs[0])];
        needed = plan_.node_bwd_step[id] >= 0 && input_rg(static_cast<int>(id), 0);
      } else {
        group_over = rows_[id];
        needed = true;
      }
      if (needed && work > kern::kScatterSerialCutoff) {
        groups_storage_[id] = kern::group_rows(index_array(d.src), count, group_over);
        groups_[id] = &groups_storage_[id];
      }
      if (d.op == Op::kSegmentMean) {
        inv_counts_[id].assign(static_cast<std::size_t>(rows_[id]), 0.0f);
        kern::segment_inv_count(index_array(d.src), count, rows_[id], inv_counts_[id].data());
      }
    }
    if (d.op == Op::kParam) {
      val_[id] = const_cast<float*>(d.param.data().data());
      grad_[id] = d.requires_grad ? d.param.grad().data() : nullptr;
    } else if (d.op == Op::kInput) {
      val_[id] = const_cast<float*>(input_matrix(d.src));
    }
    // Mega projection weights accumulate straight into the model tensors.
    for (Tensor& w : d.mh_w)
      if (w.requires_grad()) (void)w.grad();
  }

  // Pass 2: arena requests in a fixed traversal order (val, grad, aux per
  // node), then one carve and the matching pointer walk.
  requests_.clear();
  for (std::size_t id = 0; id < n; ++id) {
    const Life& v = plan_.val[id];
    if (v.def >= 0) requests_.push_back({numel(static_cast<int>(id)), v.def, v.last});
    const Life& g = plan_.grad[id];
    if (g.def >= 0) requests_.push_back({numel(static_cast<int>(id)), g.def, g.last});
    const Life& a = plan_.aux[id];
    if (a.def >= 0) requests_.push_back({aux_floats(static_cast<int>(id)), a.def, a.last});
    // The packed q/k/v weights live for their own forward step only.
    if (a.def >= 0 && is_mega(static_cast<int>(id))) {
      const NodeDef& d = plan_.prog.nodes[id];
      requests_.push_back({d.cols * 3 * d.heads * d.head_dim, a.def, a.def});
    }
  }
  const std::vector<std::int64_t> offsets = arena_.bind(requests_);
  float* base = arena_.base();
  std::size_t r = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (plan_.val[id].def >= 0) val_[id] = base + offsets[r++];
    if (plan_.grad[id].def >= 0) grad_[id] = base + offsets[r++];
    if (plan_.aux[id].def >= 0) aux_[id] = base + offsets[r++];
    if (plan_.aux[id].def >= 0 && is_mega(static_cast<int>(id))) wpack_[id] = base + offsets[r++];
  }

  // kLinearRelu backward scratch (grow-only; shared across steps).
  std::int64_t scratch = 0;
  for (const Step& st : plan_.bwd)
    if (st.op == Op::kLinearRelu) scratch = std::max(scratch, numel(st.n0));
  if (static_cast<std::int64_t>(fused_scratch_.size()) < scratch)
    fused_scratch_.resize(static_cast<std::size_t>(scratch));

  metric_gauge("exec.arena_bytes").set(static_cast<double>(arena_.bound_bytes()));
}

void Executor::run_fwd(Rng& rng) {
  for (const Step& st : plan_.fwd) exec_fwd_step(st, rng);
}

void Executor::run_bwd() {
  // Parameter grad spans can be reallocated by ensure_grad between binds;
  // re-fetch so a stale pointer never leaks into a kernel.
  for (int id : param_ids_) {
    NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
    if (d.requires_grad) grad_[static_cast<std::size_t>(id)] = d.param.grad().data();
  }
  const int loss = plan_.prog.loss;
  for (std::size_t s = 0; s < plan_.bwd.size(); ++s) {
    for (int id : plan_.zero_grads[s]) {
      float* g = grad_[static_cast<std::size_t>(id)];
      std::fill(g, g + numel(id), 0.0f);
    }
    if (s == 0 && loss >= 0) grad_[static_cast<std::size_t>(loss)][0] = 1.0f;
    exec_bwd_step(plan_.bwd[s]);
  }
}

// ------------------------------------------------------------------ forward --

void Executor::exec_fwd_step(const Step& st, Rng& rng) {
  const auto& nodes = plan_.prog.nodes;
  const int id = st.n0;
  const NodeDef& d = nodes[static_cast<std::size_t>(id)];
  float* out = val_[static_cast<std::size_t>(id)];
  switch (st.op) {
    case Op::kZeros:
      std::fill(out, out + numel(id), 0.0f);
      break;
    case Op::kGather: {
      const std::int64_t count = resolve_rows(d.idx_rows, 0);
      kern::gather_fwd(val_[static_cast<std::size_t>(d.inputs[0])], index_array(d.src), count,
                       d.cols, out);
      break;
    }
    case Op::kScatterAdd: {
      const std::int64_t count = resolve_rows(d.idx_rows, 0);
      kern::scatter_add_fwd(val_[static_cast<std::size_t>(d.inputs[0])], index_array(d.src),
                            count, d.cols, rows_[static_cast<std::size_t>(id)], out,
                            groups_[static_cast<std::size_t>(id)]);
      break;
    }
    case Op::kSegmentMean: {
      const std::int64_t count = resolve_rows(d.idx_rows, 0);
      kern::segment_mean_fwd(val_[static_cast<std::size_t>(d.inputs[0])], index_array(d.src),
                             count, d.cols, rows_[static_cast<std::size_t>(id)],
                             inv_counts_[static_cast<std::size_t>(id)].data(), out,
                             groups_[static_cast<std::size_t>(id)]);
      break;
    }
    case Op::kConcat: {
      std::int64_t offset = 0;
      for (int in : d.inputs) {
        const std::int64_t c = nodes[static_cast<std::size_t>(in)].cols;
        kern::concat_cols_fwd_part(val_[static_cast<std::size_t>(in)], out,
                                   rows_[static_cast<std::size_t>(id)], c, d.cols, offset);
        offset += c;
      }
      break;
    }
    case Op::kMatmul: {
      const int a = d.inputs[0], b = d.inputs[1];
      backend_->matmul_fwd(val_[static_cast<std::size_t>(a)], val_[static_cast<std::size_t>(b)],
                           out, rows_[static_cast<std::size_t>(a)],
                           nodes[static_cast<std::size_t>(a)].cols,
                           nodes[static_cast<std::size_t>(b)].cols);
      break;
    }
    case Op::kAddRowvec:
      kern::add_rowvec_fwd(val_[static_cast<std::size_t>(d.inputs[0])],
                           val_[static_cast<std::size_t>(d.inputs[1])], out,
                           rows_[static_cast<std::size_t>(id)], d.cols);
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv: {
      const float* a = val_[static_cast<std::size_t>(d.inputs[0])];
      const float* b = val_[static_cast<std::size_t>(d.inputs[1])];
      const Op op = st.op;
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        switch (op) {
          case Op::kAdd:
            for (std::int64_t i = lo; i < hi; ++i) out[i] = kern::add1(a[i], b[i]);
            break;
          case Op::kSub:
            for (std::int64_t i = lo; i < hi; ++i) out[i] = kern::sub1(a[i], b[i]);
            break;
          case Op::kMul:
            for (std::int64_t i = lo; i < hi; ++i) out[i] = kern::mul1(a[i], b[i]);
            break;
          default:
            for (std::int64_t i = lo; i < hi; ++i) out[i] = kern::div1(a[i], b[i]);
            break;
        }
      });
      break;
    }
    case Op::kMulColvec: {
      // Eager ops::mul_colvec forward: row partition, serial j loop.
      const float* x = val_[static_cast<std::size_t>(d.inputs[0])];
      const float* col = val_[static_cast<std::size_t>(d.inputs[1])];
      const std::int64_t c = d.cols;
      par::parallel_for(0, rows_[static_cast<std::size_t>(id)], par::grain_for(c),
                        [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i)
          for (std::int64_t j = 0; j < c; ++j) out[i * c + j] = x[i * c + j] * col[i];
      });
      break;
    }
    case Op::kScale: {
      const float* x = val_[static_cast<std::size_t>(d.inputs[0])];
      const float s = fwd_scalar_[static_cast<std::size_t>(id)];
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) out[i] = x[i] * s;
      });
      break;
    }
    case Op::kAddScalar: {
      const float* x = val_[static_cast<std::size_t>(d.inputs[0])];
      const float s = d.scalar;
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) out[i] = x[i] + s;
      });
      break;
    }
    case Op::kRelu: {
      const float* x = val_[static_cast<std::size_t>(d.inputs[0])];
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) out[i] = kern::relu1(x[i]);
      });
      break;
    }
    case Op::kSigmoid: {
      const float* x = val_[static_cast<std::size_t>(d.inputs[0])];
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) out[i] = kern::sigmoid1(x[i]);
      });
      break;
    }
    case Op::kSquare: {
      const float* x = val_[static_cast<std::size_t>(d.inputs[0])];
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) out[i] = x[i] * x[i];
      });
      break;
    }
    case Op::kDropout: {
      float* mask = aux_[static_cast<std::size_t>(id)];
      kern::dropout_mask(rng, d.p, mask, numel(id));
      kern::dropout_fwd(val_[static_cast<std::size_t>(d.inputs[0])], mask, out, numel(id));
      break;
    }
    case Op::kBatchNorm:
      fwd_batchnorm(id);
      break;
    case Op::kSumAll:
      out[0] = kern::sum_all_fwd(val_[static_cast<std::size_t>(d.inputs[0])],
                                 numel(d.inputs[0]));
      break;
    case Op::kBce:
      out[0] = kern::bce_fwd(val_[static_cast<std::size_t>(d.inputs[0])],
                             val_[static_cast<std::size_t>(d.inputs[1])], numel(d.inputs[0]));
      break;
    case Op::kMse:
      out[0] = kern::mse_fwd(val_[static_cast<std::size_t>(d.inputs[0])],
                             val_[static_cast<std::size_t>(d.inputs[1])], numel(d.inputs[0]));
      break;
    case Op::kMultihead:
      fwd_multihead(id);
      break;
    case Op::kPerformer:
      fwd_performer(id);
      break;
    case Op::kLinear:
    case Op::kLinearRelu: {
      const int mm = st.op == Op::kLinear ? st.n1 : st.n2;
      const int arv = st.op == Op::kLinear ? st.n0 : st.n1;
      const NodeDef& dm = nodes[static_cast<std::size_t>(mm)];
      const int x = dm.inputs[0], w = dm.inputs[1];
      const int bias = nodes[static_cast<std::size_t>(arv)].inputs[1];
      const std::int64_t m = rows_[static_cast<std::size_t>(x)];
      const std::int64_t k = nodes[static_cast<std::size_t>(x)].cols;
      const std::int64_t c = nodes[static_cast<std::size_t>(w)].cols;
      if (st.op == Op::kLinear)
        backend_->linear_fwd(val_[static_cast<std::size_t>(x)],
                             val_[static_cast<std::size_t>(w)],
                             val_[static_cast<std::size_t>(bias)], out, m, k, c);
      else
        backend_->linear_relu_fwd(val_[static_cast<std::size_t>(x)],
                                  val_[static_cast<std::size_t>(w)],
                                  val_[static_cast<std::size_t>(bias)], out, m, k, c);
      break;
    }
    case Op::kGateChain: {
      // n0 = mul (msg), n1 = sigmoid (eta); e_hat is the sigmoid operand.
      const int eta = st.n1;
      const int e_hat = nodes[static_cast<std::size_t>(eta)].inputs[0];
      const int lm = d.inputs[1];
      backend_->gate_chain_fwd(val_[static_cast<std::size_t>(e_hat)],
                               val_[static_cast<std::size_t>(lm)],
                               val_[static_cast<std::size_t>(eta)], out, numel(id));
      break;
    }
    default:
      throw std::logic_error("exec: unexpected forward step op");
  }
}

void Executor::fwd_batchnorm(int id) {
  const NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
  const std::int64_t m = rows_[static_cast<std::size_t>(id)];
  const std::int64_t c = d.cols;
  // Mirrors the eager `em.rows() > 0` guard: a 0-row BN is a full no-op,
  // including the running-stat update.
  if (m == 0) return;
  float* base = aux_[static_cast<std::size_t>(id)];
  float* mean = base;
  float* var = base + align_up(c);
  float* invstd = base + 2 * align_up(c);
  float* xhat = base + 3 * align_up(c);
  const float* x = val_[static_cast<std::size_t>(d.inputs[0])];
  if (d.training)
    kern::bn_stats_train(x, m, c, mean, var, invstd, d.running_mean->data(),
                         d.running_var->data(), d.momentum, d.eps);
  else
    kern::bn_stats_eval(d.running_mean->data(), d.running_var->data(), c, d.eps, mean, invstd);
  kern::bn_xhat(x, mean, invstd, xhat, m, c);
  kern::bn_fwd_out(val_[static_cast<std::size_t>(d.inputs[1])],
                   val_[static_cast<std::size_t>(d.inputs[2])], xhat,
                   val_[static_cast<std::size_t>(id)], m, c);
}

bool Executor::is_mega(int id) const {
  const Op op = plan_.prog.nodes[static_cast<std::size_t>(id)].op;
  return op == Op::kMultihead || op == Op::kPerformer;
}

void Executor::project_qkv(int id, float qk_scale) {
  const NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
  const MegaLayout& L = mega_[static_cast<std::size_t>(id)];
  const std::int64_t dh = d.head_dim, dim = d.cols, blocks = 3 * d.heads, n = blocks * dh;
  // Refresh the packed [Wq0|Wk0|Wv0|Wq1|...] every forward: training moves
  // the weights between steps.
  float* w = wpack_[static_cast<std::size_t>(id)];
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* wb = d.mh_w[static_cast<std::size_t>(b)].data().data();
    for (std::int64_t p = 0; p < dim; ++p) std::copy_n(wb + p * dh, dh, w + p * n + b * dh);
  }
  float* base = aux_[static_cast<std::size_t>(id)];
  backend_->qkv_fwd(val_[static_cast<std::size_t>(d.inputs[0])], w, base + L.q, base + L.k,
                    base + L.v, n_, dim, d.heads, dh, qk_scale);
}

void Executor::fwd_multihead(int id) {
  const NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
  const MegaLayout& L = mega_[static_cast<std::size_t>(id)];
  const std::int64_t N = n_, dh = d.head_dim, H = d.heads, dim = d.cols;
  float* out = val_[static_cast<std::size_t>(id)];
  float* base = aux_[static_cast<std::size_t>(id)];
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(dh));
  project_qkv(id, 1.0f);
  for (std::int64_t h = 0; h < H; ++h) {
    const float* q = base + L.q + h * N * dh;
    const float* k = base + L.k + h * N * dh;
    const float* v = base + L.v + h * N * dh;
    float* head_out = base + L.ndh_a;
    for (std::int64_t g = 0; g < g_; ++g) {
      const std::int64_t s = batch_->graph_ptr[static_cast<std::size_t>(g)];
      const std::int64_t len = batch_->graph_ptr[static_cast<std::size_t>(g) + 1] - s;
      if (len == 0) continue;
      float* kgT = base + L.dhl_a;
      kern::transpose_fwd(k + s * dh, kgT, len, dh);
      float* scores = base + L.ll_a;
      backend_->matmul_fwd(q + s * dh, kgT, scores, len, dh, len);
      par::parallel_for(0, len * len, par::grain_for(1),
                        [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) scores[i] *= inv_sqrt_d;
      });
      float* attn = base + L.attn + h * sum_len2_ + s2_off_[static_cast<std::size_t>(g)];
      kern::softmax_fwd(scores, attn, len, len);
      backend_->matmul_fwd(attn, v + s * dh, head_out + s * dh, len, len, dh);
    }
    kern::concat_cols_fwd_part(head_out, out, N, dh, dim, h * dh);
  }
}

void Executor::fwd_performer(int id) {
  const NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
  const MegaLayout& L = mega_[static_cast<std::size_t>(id)];
  const std::int64_t N = n_, dh = d.head_dim, H = d.heads, dim = d.cols, fm = d.features;
  float* out = val_[static_cast<std::size_t>(id)];
  float* base = aux_[static_cast<std::size_t>(id)];
  const float inv_sqrt_m = 1.0f / std::sqrt(static_cast<float>(fm));
  project_qkv(id, 1.0f / std::pow(static_cast<float>(dh), 0.25f));
  for (std::int64_t h = 0; h < H; ++h) {
    // favor+(u): e = exp(u omega - ||u||^2/2), phi = e / sqrt(m); both saved
    // (exp backward reads its output, the matmul backwards read phi). Every
    // step is row-wise, so one pass over all N rows of the head gives each
    // graph's rows the bits a per-graph pass would; u omega lands in e.
    const float* omega = d.mh_omega[static_cast<std::size_t>(h)].data().data();
    const auto favor = [&](std::int64_t u_save, std::int64_t e_save, std::int64_t phi_save) {
      const float* u = base + u_save + h * N * dh;
      float* e = base + e_save + h * N * fm;
      backend_->matmul_fwd(u, omega, e, N, dh, fm);
      backend_->favor_fwd(e, u, e, base + phi_save + h * N * fm, N, dh, fm, inv_sqrt_m);
    };
    favor(L.q, L.e_q, L.phi_q);
    favor(L.k, L.e_k, L.phi_k);
    // One call walks every graph: kv, z, numer and denom land in their saves,
    // the head output in its dh-wide column block of the layer output.
    backend_->performer_attend_fwd(base + L.phi_q + h * N * fm, base + L.phi_k + h * N * fm,
                                   base + L.v + h * N * dh, batch_->graph_ptr.data(), g_, dh, fm,
                                   base + L.kv + h * g_ * fm * dh, base + L.z + h * g_ * fm,
                                   base + L.numer + h * N * dh, base + L.denom + h * N,
                                   out + h * dh, dim);
  }
}

// ----------------------------------------------------------------- backward --

void Executor::exec_bwd_step(const Step& st) {
  const auto& nodes = plan_.prog.nodes;
  const int id = st.n0;
  const NodeDef& d = nodes[static_cast<std::size_t>(id)];
  const float* dy = grad_[static_cast<std::size_t>(id)];
  switch (st.op) {
    case Op::kGather: {
      if (!input_rg(id, 0)) break;
      const std::int64_t count = resolve_rows(d.idx_rows, 0);
      kern::gather_bwd(dy, index_array(d.src), count, d.cols,
                       rows_[static_cast<std::size_t>(d.inputs[0])],
                       grad_[static_cast<std::size_t>(d.inputs[0])],
                       groups_[static_cast<std::size_t>(id)]);
      break;
    }
    case Op::kScatterAdd: {
      if (!input_rg(id, 0)) break;
      const std::int64_t count = resolve_rows(d.idx_rows, 0);
      kern::scatter_add_bwd(dy, index_array(d.src), count, d.cols,
                            grad_[static_cast<std::size_t>(d.inputs[0])]);
      break;
    }
    case Op::kSegmentMean: {
      if (!input_rg(id, 0)) break;
      const std::int64_t count = resolve_rows(d.idx_rows, 0);
      kern::segment_mean_bwd(dy, index_array(d.src), count, d.cols,
                             inv_counts_[static_cast<std::size_t>(id)].data(),
                             grad_[static_cast<std::size_t>(d.inputs[0])]);
      break;
    }
    case Op::kConcat: {
      std::int64_t offset = 0;
      for (int in : d.inputs) {
        const std::int64_t c = nodes[static_cast<std::size_t>(in)].cols;
        if (nodes[static_cast<std::size_t>(in)].requires_grad)
          kern::concat_cols_bwd_part(dy, grad_[static_cast<std::size_t>(in)],
                                     rows_[static_cast<std::size_t>(id)], c, d.cols, offset);
        offset += c;
      }
      break;
    }
    case Op::kMatmul: {
      const int a = d.inputs[0], b = d.inputs[1];
      const std::int64_t rows = rows_[static_cast<std::size_t>(a)];
      const std::int64_t inner = nodes[static_cast<std::size_t>(a)].cols;
      const std::int64_t cols = nodes[static_cast<std::size_t>(b)].cols;
      if (nodes[static_cast<std::size_t>(a)].requires_grad)
        backend_->matmul_da(dy, val_[static_cast<std::size_t>(b)],
                            grad_[static_cast<std::size_t>(a)], rows, inner, cols);
      if (nodes[static_cast<std::size_t>(b)].requires_grad)
        backend_->matmul_db(dy, val_[static_cast<std::size_t>(a)],
                            grad_[static_cast<std::size_t>(b)], rows, inner, cols);
      break;
    }
    case Op::kAddRowvec: {
      if (input_rg(id, 0))
        kern::add_rowvec_bwd_dx(dy, grad_[static_cast<std::size_t>(d.inputs[0])], numel(id));
      if (input_rg(id, 1))
        kern::add_rowvec_bwd_db(dy, grad_[static_cast<std::size_t>(d.inputs[1])],
                                rows_[static_cast<std::size_t>(id)], d.cols);
      break;
    }
    case Op::kAdd:
    case Op::kSub: {
      float* ga = input_rg(id, 0) ? grad_[static_cast<std::size_t>(d.inputs[0])] : nullptr;
      float* gb = input_rg(id, 1) ? grad_[static_cast<std::size_t>(d.inputs[1])] : nullptr;
      const bool sub = st.op == Op::kSub;
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          if (ga != nullptr) ga[i] += dy[i];
          if (gb != nullptr) gb[i] += sub ? -dy[i] : dy[i];
        }
      });
      break;
    }
    case Op::kMul:
    case Op::kDiv: {
      const float* a = val_[static_cast<std::size_t>(d.inputs[0])];
      const float* b = val_[static_cast<std::size_t>(d.inputs[1])];
      float* ga = input_rg(id, 0) ? grad_[static_cast<std::size_t>(d.inputs[0])] : nullptr;
      float* gb = input_rg(id, 1) ? grad_[static_cast<std::size_t>(d.inputs[1])] : nullptr;
      const bool mul = st.op == Op::kMul;
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          float da = 0.0f;
          float db = 0.0f;
          if (mul)
            kern::mul1_bwd(a[i], b[i], dy[i], da, db);
          else
            kern::div1_bwd(a[i], b[i], dy[i], da, db);
          if (ga != nullptr) ga[i] += da;
          if (gb != nullptr) gb[i] += db;
        }
      });
      break;
    }
    case Op::kMulColvec: {
      // Eager mul_colvec closure: both grads are row-indexed, one row
      // partition covers them; dx = dy * col[i], dcol += dy * x.
      const float* a = val_[static_cast<std::size_t>(d.inputs[0])];
      const float* col = val_[static_cast<std::size_t>(d.inputs[1])];
      float* ga = input_rg(id, 0) ? grad_[static_cast<std::size_t>(d.inputs[0])] : nullptr;
      float* gcol = input_rg(id, 1) ? grad_[static_cast<std::size_t>(d.inputs[1])] : nullptr;
      const std::int64_t c = d.cols;
      par::parallel_for(0, rows_[static_cast<std::size_t>(id)], par::grain_for(c),
                        [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const float cv = col[i];
          for (std::int64_t j = 0; j < c; ++j) {
            const float g = dy[i * c + j];
            if (ga != nullptr) ga[i * c + j] += g * cv;
            if (gcol != nullptr) gcol[i] += g * a[i * c + j];
          }
        }
      });
      break;
    }
    case Op::kScale: {
      if (!input_rg(id, 0)) break;
      float* gx = grad_[static_cast<std::size_t>(d.inputs[0])];
      const float s = fwd_scalar_[static_cast<std::size_t>(id)];
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) gx[i] += dy[i] * s;
      });
      break;
    }
    case Op::kAddScalar: {
      if (!input_rg(id, 0)) break;
      float* gx = grad_[static_cast<std::size_t>(d.inputs[0])];
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) gx[i] += dy[i];
      });
      break;
    }
    case Op::kRelu: {
      if (!input_rg(id, 0)) break;
      const float* x = val_[static_cast<std::size_t>(d.inputs[0])];
      float* gx = grad_[static_cast<std::size_t>(d.inputs[0])];
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) gx[i] += x[i] > 0.0f ? dy[i] : 0.0f;
      });
      break;
    }
    case Op::kSigmoid: {
      if (!input_rg(id, 0)) break;
      const float* y = val_[static_cast<std::size_t>(id)];
      float* gx = grad_[static_cast<std::size_t>(d.inputs[0])];
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) gx[i] += dy[i] * y[i] * (1.0f - y[i]);
      });
      break;
    }
    case Op::kSquare: {
      if (!input_rg(id, 0)) break;
      const float* x = val_[static_cast<std::size_t>(d.inputs[0])];
      float* gx = grad_[static_cast<std::size_t>(d.inputs[0])];
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) gx[i] += dy[i] * 2.0f * x[i];
      });
      break;
    }
    case Op::kDropout:
      if (input_rg(id, 0))
        kern::dropout_bwd(dy, aux_[static_cast<std::size_t>(id)],
                          grad_[static_cast<std::size_t>(d.inputs[0])], numel(id));
      break;
    case Op::kBatchNorm:
      bwd_batchnorm(id);
      break;
    case Op::kSumAll:
      if (input_rg(id, 0))
        kern::sum_all_bwd(dy[0], grad_[static_cast<std::size_t>(d.inputs[0])],
                          numel(d.inputs[0]));
      break;
    case Op::kBce:
      if (input_rg(id, 0))
        kern::bce_bwd(val_[static_cast<std::size_t>(d.inputs[0])],
                      val_[static_cast<std::size_t>(d.inputs[1])], dy[0], numel(d.inputs[0]),
                      grad_[static_cast<std::size_t>(d.inputs[0])]);
      break;
    case Op::kMse:
      if (input_rg(id, 0))
        kern::mse_bwd(val_[static_cast<std::size_t>(d.inputs[0])],
                      val_[static_cast<std::size_t>(d.inputs[1])], dy[0], numel(d.inputs[0]),
                      grad_[static_cast<std::size_t>(d.inputs[0])]);
      break;
    case Op::kMultihead:
      bwd_multihead(id);
      break;
    case Op::kPerformer:
      bwd_performer(id);
      break;
    case Op::kLinear:
      bwd_linear(st, dy);
      break;
    case Op::kLinearRelu: {
      // Mask with the fused output: relu(v) > 0 <=> v > 0, so this is bitwise
      // the eager input-side mask even though the pre-activation was elided.
      const float* out = val_[static_cast<std::size_t>(id)];
      float* dyb = fused_scratch_.data();
      par::parallel_for(0, numel(id), par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) dyb[i] = out[i] > 0.0f ? dy[i] : 0.0f;
      });
      bwd_linear(st, dyb);
      break;
    }
    default:
      throw std::logic_error("exec: unexpected backward step op");
  }
}

void Executor::bwd_linear(const Step& st, const float* dyb) {
  const auto& nodes = plan_.prog.nodes;
  const int arv = st.op == Op::kLinear ? st.n0 : st.n1;
  const int mm = st.op == Op::kLinear ? st.n1 : st.n2;
  const NodeDef& dm = nodes[static_cast<std::size_t>(mm)];
  const int x = dm.inputs[0], w = dm.inputs[1];
  const int bias = nodes[static_cast<std::size_t>(arv)].inputs[1];
  const std::int64_t m = rows_[static_cast<std::size_t>(x)];
  const std::int64_t k = nodes[static_cast<std::size_t>(x)].cols;
  const std::int64_t c = nodes[static_cast<std::size_t>(w)].cols;
  // Eager firing order: add_rowvec closure (db), then matmul closure (da,
  // db). All three targets are distinct buffers.
  if (nodes[static_cast<std::size_t>(bias)].requires_grad)
    kern::add_rowvec_bwd_db(dyb, grad_[static_cast<std::size_t>(bias)], m, c);
  if (nodes[static_cast<std::size_t>(x)].requires_grad)
    backend_->matmul_da(dyb, val_[static_cast<std::size_t>(w)],
                        grad_[static_cast<std::size_t>(x)], m, k, c);
  if (nodes[static_cast<std::size_t>(w)].requires_grad)
    backend_->matmul_db(dyb, val_[static_cast<std::size_t>(x)],
                        grad_[static_cast<std::size_t>(w)], m, k, c);
}

void Executor::bwd_batchnorm(int id) {
  const NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
  const std::int64_t m = rows_[static_cast<std::size_t>(id)];
  const std::int64_t c = d.cols;
  if (m == 0) return;  // forward was a no-op, so is backward
  float* base = aux_[static_cast<std::size_t>(id)];
  const float* invstd = base + 2 * align_up(c);
  const float* xhat = base + 3 * align_up(c);
  const float* dy = grad_[static_cast<std::size_t>(id)];
  kern::bn_bwd_params(dy, xhat, m, c,
                      input_rg(id, 1) ? grad_[static_cast<std::size_t>(d.inputs[1])] : nullptr,
                      input_rg(id, 2) ? grad_[static_cast<std::size_t>(d.inputs[2])] : nullptr);
  if (!input_rg(id, 0)) return;
  float* dx = grad_[static_cast<std::size_t>(d.inputs[0])];
  const float* gamma = val_[static_cast<std::size_t>(d.inputs[1])];
  if (!d.training)
    kern::bn_bwd_dx_eval(dy, gamma, invstd, dx, m, c);
  else
    kern::bn_bwd_dx_train(dy, gamma, invstd, xhat, dx, m, c);
}

void Executor::bwd_multihead(int id) {
  const NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
  const MegaLayout& L = mega_[static_cast<std::size_t>(id)];
  const std::int64_t N = n_, dh = d.head_dim, H = d.heads, dim = d.cols;
  const int xn = d.inputs[0];
  const float* x = val_[static_cast<std::size_t>(xn)];
  const bool x_rg = plan_.prog.nodes[static_cast<std::size_t>(xn)].requires_grad;
  float* dx = x_rg ? grad_[static_cast<std::size_t>(xn)] : nullptr;
  const float* dmerged = grad_[static_cast<std::size_t>(id)];
  float* base = aux_[static_cast<std::size_t>(id)];
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(dh));
  // First non-empty block: the eager tape fires each head's q/k/v projection
  // closures inside that block's reverse segment.
  std::int64_t g0 = -1;
  for (std::int64_t g = 0; g < g_ && g0 < 0; ++g)
    if (batch_->graph_ptr[static_cast<std::size_t>(g) + 1] >
        batch_->graph_ptr[static_cast<std::size_t>(g)])
      g0 = g;

  // Heads fire in descending order (reverse of forward emission).
  for (std::int64_t h = H - 1; h >= 0; --h) {
    NodeDef& dn = plan_.prog.nodes[static_cast<std::size_t>(id)];
    Tensor& wq = dn.mh_w[static_cast<std::size_t>(3 * h)];
    Tensor& wk = dn.mh_w[static_cast<std::size_t>(3 * h + 1)];
    Tensor& wv = dn.mh_w[static_cast<std::size_t>(3 * h + 2)];
    const float* q = base + L.q + h * N * dh;
    const float* k = base + L.k + h * N * dh;
    const float* v = base + L.v + h * N * dh;
    // dhead: contiguous per-head slice of the merged gradient. heads == 1 has
    // no concat node in the eager graph, so alias instead of copying.
    float* dhead = base + L.ndh_a;
    if (H == 1) {
      dhead = const_cast<float*>(dmerged);
    } else {
      std::fill(dhead, dhead + N * dh, 0.0f);
      kern::concat_cols_bwd_part(dmerged, dhead, N, dh, dim, h * dh);
    }
    float* dq = base + L.ndh_q;
    float* dk = base + L.ndh_k;
    float* dv = base + L.ndh_v;
    std::fill(dq, dq + N * dh, 0.0f);
    std::fill(dk, dk + N * dh, 0.0f);
    std::fill(dv, dv + N * dh, 0.0f);
    bool fired = false;
    const auto fire_v = [&] {
      if (x_rg) backend_->matmul_da(dv, wv.data().data(), dx, N, dim, dh);
      if (wv.requires_grad()) backend_->matmul_db(dv, x, wv.grad().data(), N, dim, dh);
    };
    const auto fire_kq = [&] {
      if (x_rg) backend_->matmul_da(dk, wk.data().data(), dx, N, dim, dh);
      if (wk.requires_grad()) backend_->matmul_db(dk, x, wk.grad().data(), N, dim, dh);
      if (x_rg) backend_->matmul_da(dq, wq.data().data(), dx, N, dim, dh);
      if (wq.requires_grad()) backend_->matmul_db(dq, x, wq.grad().data(), N, dim, dh);
      fired = true;
    };
    for (std::int64_t g = g_ - 1; g >= 0; --g) {
      const std::int64_t s = batch_->graph_ptr[static_cast<std::size_t>(g)];
      const std::int64_t len = batch_->graph_ptr[static_cast<std::size_t>(g) + 1] - s;
      if (len == 0) continue;
      const float* dblock = dhead + s * dh;
      const float* attn = base + L.attn + h * sum_len2_ + s2_off_[static_cast<std::size_t>(g)];
      // block = matmul(attn, vg)
      float* dattn = base + L.ll_a;
      std::fill(dattn, dattn + len * len, 0.0f);
      backend_->matmul_da(dblock, v + s * dh, dattn, len, len, dh);
      backend_->matmul_db(dblock, attn, dv + s * dh, len, len, dh);
      if (g == g0) fire_v();
      // attn = softmax(scaled); scaled = mm * inv_sqrt_d
      float* dscaled = base + L.ll_b;
      std::fill(dscaled, dscaled + len * len, 0.0f);
      kern::softmax_bwd(attn, dattn, dscaled, len, len);
      par::parallel_for(0, len * len, par::grain_for(1),
                        [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) dscaled[i] *= inv_sqrt_d;
      });
      // mm = matmul(qg, kgT); kgT is a bitwise value copy, so recompute it.
      float* kgT = base + L.dhl_a;
      kern::transpose_fwd(k + s * dh, kgT, len, dh);
      backend_->matmul_da(dscaled, kgT, dq + s * dh, len, dh, len);
      float* dkgT = base + L.dhl_b;
      std::fill(dkgT, dkgT + dh * len, 0.0f);
      backend_->matmul_db(dscaled, q + s * dh, dkgT, len, dh, len);
      kern::transpose_bwd(dkgT, dk + s * dh, len, dh);
      if (g == g0) fire_kq();
    }
    if (!fired) {
      fire_v();
      fire_kq();
    }
  }
}

void Executor::bwd_performer(int id) {
  NodeDef& d = plan_.prog.nodes[static_cast<std::size_t>(id)];
  const MegaLayout& L = mega_[static_cast<std::size_t>(id)];
  const std::int64_t N = n_, dh = d.head_dim, H = d.heads, dim = d.cols, fm = d.features;
  const int xn = d.inputs[0];
  const float* x = val_[static_cast<std::size_t>(xn)];
  const bool x_rg = plan_.prog.nodes[static_cast<std::size_t>(xn)].requires_grad;
  float* dx = x_rg ? grad_[static_cast<std::size_t>(xn)] : nullptr;
  const float* dmerged = grad_[static_cast<std::size_t>(id)];
  float* base = aux_[static_cast<std::size_t>(id)];
  const float s_qk = 1.0f / std::pow(static_cast<float>(dh), 0.25f);
  const float inv_sqrt_m = 1.0f / std::sqrt(static_cast<float>(fm));
  std::int64_t g0 = -1;
  for (std::int64_t g = 0; g < g_ && g0 < 0; ++g)
    if (batch_->graph_ptr[static_cast<std::size_t>(g) + 1] >
        batch_->graph_ptr[static_cast<std::size_t>(g)])
      g0 = g;

  // Backward of phi = exp(u omega - ||u||^2/2)/sqrt(m) for one block, given
  // dphi accumulated in `dphi` (len x m, morphed in place) and du aliased
  // into the full per-head accumulator at `du`. Mirrors the eager closure
  // chain [phi(scale), e(exp), shifted(sub_colvec), sumsq(scale),
  // rs(row_sum), sq(square), proj(matmul)] in exact order.
  const auto favor_bwd = [&](float* dphi, const float* u, const float* e_save,
                             const float* omega, std::int64_t len, float* du) {
    par::parallel_for(0, len * fm, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) dphi[i] *= inv_sqrt_m;  // phi = e / sqrt(m)
    });
    par::parallel_for(0, len * fm, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) dphi[i] *= e_save[i];  // e = exp(shifted)
    });
    // shifted = sub_colvec(proj, sumsq): dproj is dphi unchanged, the column
    // side accumulates -dy serially per row (the eager loop order).
    float* dsumsq = base + L.l_a;
    std::fill(dsumsq, dsumsq + len, 0.0f);
    par::parallel_for(0, len, par::grain_for(fm), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i)
        for (std::int64_t j = 0; j < fm; ++j) dsumsq[i] += -dphi[i * fm + j];
    });
    par::parallel_for(0, len, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) dsumsq[i] *= 0.5f;  // sumsq = rs * 0.5
    });
    float* dsq = base + L.ldh_a;
    std::fill(dsq, dsq + len * dh, 0.0f);
    kern::row_sum_bwd(dsumsq, dsq, len, dh);
    // sq = square(u) fires before the proj matmul in the eager tape.
    par::parallel_for(0, len * dh, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) du[i] += dsq[i] * 2.0f * u[i];
    });
    backend_->matmul_da(dphi, omega, du, len, dh, fm);  // proj = matmul(u, omega)
  };

  for (std::int64_t h = H - 1; h >= 0; --h) {
    Tensor& wq = d.mh_w[static_cast<std::size_t>(3 * h)];
    Tensor& wk = d.mh_w[static_cast<std::size_t>(3 * h + 1)];
    Tensor& wv = d.mh_w[static_cast<std::size_t>(3 * h + 2)];
    const float* omega = d.mh_omega[static_cast<std::size_t>(h)].data().data();
    const float* q = base + L.q + h * N * dh;
    const float* k = base + L.k + h * N * dh;
    const float* v = base + L.v + h * N * dh;
    float* dhead = base + L.ndh_a;
    if (H == 1) {
      dhead = const_cast<float*>(dmerged);
    } else {
      std::fill(dhead, dhead + N * dh, 0.0f);
      kern::concat_cols_bwd_part(dmerged, dhead, N, dh, dim, h * dh);
    }
    float* dq = base + L.ndh_q;
    float* dk = base + L.ndh_k;
    float* dv = base + L.ndh_v;
    std::fill(dq, dq + N * dh, 0.0f);
    std::fill(dk, dk + N * dh, 0.0f);
    std::fill(dv, dv + N * dh, 0.0f);
    bool fired = false;
    const auto fire_v = [&] {
      if (x_rg) backend_->matmul_da(dv, wv.data().data(), dx, N, dim, dh);
      if (wv.requires_grad()) backend_->matmul_db(dv, x, wv.grad().data(), N, dim, dh);
    };
    // q and k go through the 1/dh^0.25 scale before their matmul closures.
    const auto fire_scaled = [&](const float* dacc, Tensor& w) {
      float* dmm = base + L.ndh_m;
      par::parallel_for(0, N * dh, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) dmm[i] = dacc[i] * s_qk;
      });
      if (x_rg) backend_->matmul_da(dmm, w.data().data(), dx, N, dim, dh);
      if (w.requires_grad()) backend_->matmul_db(dmm, x, w.grad().data(), N, dim, dh);
    };
    for (std::int64_t g = g_ - 1; g >= 0; --g) {
      const std::int64_t s = batch_->graph_ptr[static_cast<std::size_t>(g)];
      const std::int64_t len = batch_->graph_ptr[static_cast<std::size_t>(g) + 1] - s;
      if (len == 0) continue;
      const float* dblock = dhead + s * dh;
      const float* numer = base + L.numer + h * N * dh + s * dh;
      const float* denom = base + L.denom + h * N + s;
      const float* phi_q = base + L.phi_q + h * N * fm + s * fm;
      const float* phi_k = base + L.phi_k + h * N * fm + s * fm;
      const float* kv = base + L.kv + (h * g_ + g) * fm * dh;
      const float* z = base + L.z + (h * g_ + g) * fm;
      // block = div_colvec(numer, denom)
      float* dnumer = base + L.ldh_b;
      float* ddenom = base + L.l_b;
      std::fill(dnumer, dnumer + len * dh, 0.0f);
      std::fill(ddenom, ddenom + len, 0.0f);
      par::parallel_for(0, len, par::grain_for(dh), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const float cv = denom[i];
          for (std::int64_t j = 0; j < dh; ++j) {
            float da = 0.0f;
            float dc = 0.0f;
            kern::div_colvec1_bwd(numer[i * dh + j], cv, dblock[i * dh + j], da, dc);
            dnumer[i * dh + j] += da;
            ddenom[i] += dc;
          }
        }
      });
      // denom = add_scalar(mm_d, 1e-6): pure passthrough, alias the buffer.
      const float* dmmd = ddenom;
      // mm_d = matmul(phi_q, z)
      float* dphi_q = base + L.lm_a;
      std::fill(dphi_q, dphi_q + len * fm, 0.0f);
      backend_->matmul_da(dmmd, z, dphi_q, len, fm, 1);
      float* dz = base + L.m_a;
      std::fill(dz, dz + fm, 0.0f);
      backend_->matmul_db(dmmd, phi_q, dz, len, fm, 1);
      // z = matmul(phi_k_t, ones)
      float* ones = base + L.l_ones;
      std::fill(ones, ones + len, 1.0f);
      float* dphikt = base + L.ml_b;
      std::fill(dphikt, dphikt + fm * len, 0.0f);
      backend_->matmul_da(dz, ones, dphikt, fm, len, 1);
      // numer = matmul(phi_q, kv)
      backend_->matmul_da(dnumer, kv, dphi_q, len, fm, dh);
      float* dkv = base + L.mdh;
      std::fill(dkv, dkv + fm * dh, 0.0f);
      backend_->matmul_db(dnumer, phi_q, dkv, len, fm, dh);
      // kv = matmul(phi_k_t, vg); phi_k_t is a bitwise value copy — recompute.
      float* phikt = base + L.ml_a;
      kern::transpose_fwd(phi_k, phikt, len, fm);
      backend_->matmul_da(dkv, v + s * dh, dphikt, fm, len, dh);
      backend_->matmul_db(dkv, phikt, dv + s * dh, fm, len, dh);
      if (g == g0) fire_v();
      // phi_k_t = transpose(phi_k)
      float* dphi = base + L.lm_b;
      std::fill(dphi, dphi + len * fm, 0.0f);
      kern::transpose_bwd(dphikt, dphi, len, fm);
      favor_bwd(dphi, k + s * dh, base + L.e_k + h * N * fm + s * fm, omega, len, dk + s * dh);
      if (g == g0) {
        fire_scaled(dk, wk);
      }
      favor_bwd(dphi_q, q + s * dh, base + L.e_q + h * N * fm + s * fm, omega, len,
                dq + s * dh);
      if (g == g0) {
        fire_scaled(dq, wq);
        fired = true;
      }
    }
    if (!fired) {
      fire_v();
      fire_scaled(dk, wk);
      fire_scaled(dq, wq);
    }
  }
}

}  // namespace cgps::exec
