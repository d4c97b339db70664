// Pluggable kernel backend for the planned executor (DESIGN.md §10).
//
// The executor routes its compute-bound inner loops — the matmul family and
// the fused kernels — through this interface; everything memory-bound stays
// on the shared kern:: reference loops. Contract every implementation must
// honour:
//   * Output-disjoint parallel partitioning identical to kern:: (chunks are
//     a pure function of problem size), so results are deterministic at any
//     thread count.
//   * The scalar backend is the bit-exact reference: its results are
//     bitwise identical to the eager ops at every thread count.
//   * SIMD backends may re-associate within one output element (FMA, vector
//     lanes) — planned-vs-eager then agrees to ~1e-5 relative — but must
//     keep the same serial accumulation *order across elements*.
//   * The AVX2 forward matmuls (matmul_fwd, linear_fwd, linear_relu_fwd)
//     hold each output element to one sequence: +0.0, then fma(a[i,p],
//     b[p,j], acc) for p ascending, skipping a[i,p] == 0, then + bias[j],
//     then max(., 0). Their register blocking (R rows x V ymm accumulators
//     kept across the whole k loop, scalar fma columns for n % 8) never
//     changes that sequence, so their results are bitwise independent of
//     the blocking (tests/test_backend_fuzz.cpp checks a reference).
//   * The AVX2 matmul_db holds each dB element to: its current value, then
//     fma(a[i,p], dc[i,j], acc) for i ascending, skipping a[i,p] == 0. Its
//     blocking is the forward's turned around (R dB rows x V ymm columns
//     loaded once, kept across the whole i loop, stored once).
//   * The AVX2 matmul_da holds each dA element to: eight lanes from +0.0,
//     lane l taking fma(dc[i,j], b[p,j], lane) over j = 8c + l, chunks
//     ascending; the lanes summed ((v0+v4)+(v2+v6))+((v1+v5)+(v3+v7)); an
//     explicit fma chain over the cols % 8 tail, j ascending; one add into
//     dA. Eight p run together and one transpose-add reduces them, which
//     never changes that sequence (the same test checks a reference).
//   * favor_fwd is the exact scalar sequence in both backends: half_i =
//     0.5 * (sum of u[i,j]^2, each square rounded, j ascending from +0.0),
//     then e = exp(proj - half_i), phi = e * scale. The AVX2 exp is exp8, a
//     lane-for-lane port of glibc's expf (the table-driven double-precision
//     algorithm of glibc >= 2.27, in the FMA build its ifunc picks on AVX2
//     CPUs); an 8-lane group holding |x| >= 88, inf or NaN is recomputed
//     with std::exp. gate_chain_fwd shares one exp8(-|v|) between
//     kern::sigmoid1's two branches. With glibc >= 2.27 on an FMA CPU both
//     kernels therefore match scalar bit for bit on every non-NaN output
//     (a NaN may differ in sign); test_backend_fuzz checks every float with
//     |x| < 88 in its disabled exhaustive case.
//   * qkv_fwd is one attention layer's q/k/v projection against the packed
//     weights [Wq0|Wk0|Wv0|Wq1|...]. Each element keeps the matmul_fwd
//     sequence of its backend, then q and k take one multiply by qk_scale
//     (AVX2: +0.0, fma over p ascending skipping x == 0, then the multiply;
//     scalar: eager's multiply-then-add chain, then the multiply). That is
//     bitwise the per-head matmul_fwd calls and scale passes it replaces.
//   * performer_attend_fwd keeps, per graph and per element, the sequence of
//     the per-graph matmul_fwd calls it replaces: kv[m,j] and z[m] over the
//     graph's rows ascending, skipping phi_k == 0; numer[i,j] and denom[i]
//     over m ascending, skipping phi_q == 0; then + 1e-6f, then one
//     division. It reads phi_k in place (no transposed copy, no ones
//     vector). Work is split over graphs, and every output belongs to one
//     graph, so results do not depend on the thread count.
//   * No allocation anywhere in a kernel body: every buffer, including
//     scratch, is carved from the plan arena by the caller
//     (tools/cgps_lint enforces this for src/exec/backend_*.cpp).
#pragma once

#include <cstdint>

namespace cgps::exec {

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;
  // Stable identifier used in bench metric keys ("exec.<name>.*") and logs.
  virtual const char* name() const = 0;

  // C(m,n) = A(m,k) B(k,n); zeroes the output itself.
  virtual void matmul_fwd(const float* a, const float* b, float* o, std::int64_t m,
                          std::int64_t k, std::int64_t n) const = 0;
  // dA(rows,inner) += dC(rows,cols) B(inner,cols)^T.
  virtual void matmul_da(const float* dc, const float* b, float* da, std::int64_t rows,
                         std::int64_t inner, std::int64_t cols) const = 0;
  // dB(inner,cols) += A(rows,inner)^T dC(rows,cols).
  virtual void matmul_db(const float* dc, const float* a, float* db, std::int64_t rows,
                         std::int64_t inner, std::int64_t cols) const = 0;

  // Fused linear: O = X W + bias, one pass over the output rows.
  virtual void linear_fwd(const float* x, const float* w, const float* bias, float* o,
                          std::int64_t m, std::int64_t k, std::int64_t n) const = 0;
  // Fused linear + ReLU: O = max(X W + bias, 0).
  virtual void linear_relu_fwd(const float* x, const float* w, const float* bias, float* o,
                               std::int64_t m, std::int64_t k, std::int64_t n) const = 0;
  // Fused GatedGCN gate chain: eta = sigmoid(e_hat), msg = eta * lm, one pass.
  // Both outputs are materialized (eta feeds the denominator scatter).
  virtual void gate_chain_fwd(const float* e_hat, const float* lm, float* eta, float* msg,
                              std::int64_t count) const = 0;
  // FAVOR+ features of `rows` rows: half_i = 0.5 * sum_j u[i,j]^2 over u's
  // dh columns, e = exp(proj - half_i) and phi = e * scale over the fm
  // feature columns. Both outputs are materialized (the exp backward reads
  // e, the matmul backwards read phi). `proj` may alias `e`.
  virtual void favor_fwd(const float* proj, const float* u, float* e, float* phi,
                         std::int64_t rows, std::int64_t dh, std::int64_t fm,
                         float scale) const = 0;
  // Packed q/k/v projection of one attention layer: P = X(m,dim) Wp with
  // Wp = [Wq0|Wk0|Wv0|Wq1|...] (dim x 3*heads*dh). Column block 3h+r of P is
  // head h's q (r = 0), k (1) or v (2), stored as an m x dh matrix at
  // q/k/v + h*m*dh; q and k are multiplied by qk_scale at the store.
  virtual void qkv_fwd(const float* x, const float* wpack, float* q, float* k, float* v,
                       std::int64_t m, std::int64_t dim, std::int64_t heads, std::int64_t dh,
                       float qk_scale) const = 0;
  // Performer attend of one head over the graph segments [graph_ptr[g],
  // graph_ptr[g+1]) of its rows (phi_q/phi_k: rows x fm, v: rows x dh).
  // Per non-empty graph g: kv_g = phi_k_g^T v_g (fm x dh, at kv + g*fm*dh)
  // and z_g = phi_k_g^T 1 (fm, at z + g*fm). Per row i of g: numer[i] =
  // phi_q[i] kv_g (dh), denom[i] = phi_q[i] z_g + 1e-6, and out[i*out_stride
  // + j] = numer[i,j] / denom[i]. Empty graphs are skipped.
  virtual void performer_attend_fwd(const float* phi_q, const float* phi_k, const float* v,
                                    const std::int64_t* graph_ptr, std::int64_t graphs,
                                    std::int64_t dh, std::int64_t fm, float* kv, float* z,
                                    float* numer, float* denom, float* out,
                                    std::int64_t out_stride) const = 0;
};

// Graphs per chunk of performer_attend_fwd: about 2^14 multiply-adds of the
// mean graph's kv and numerator work. A pure function of the sizes.
std::int64_t attend_grain(const std::int64_t* graph_ptr, std::int64_t graphs, std::int64_t dh,
                          std::int64_t fm);

// The bit-exact reference backend (always available).
const KernelBackend& scalar_backend();

// The AVX2/FMA backend, or nullptr when the build or the CPU lacks support.
const KernelBackend* avx2_backend();

// Resolve the backend for this run: CIRCUITGPS_BACKEND=scalar|avx2|auto.
// `auto` picks AVX2 when available; a forced `avx2` on an unsupported
// CPU/build warns once and falls back to scalar.
const KernelBackend& select_backend();

}  // namespace cgps::exec
