// Raw-pointer compute kernels shared by the eager autograd ops
// (tensor/ops.cpp) and the planned executor backends (src/exec/).
//
// Every function here is the *single* implementation of its loop: the eager
// op delegates to it over the tensor's buffers, the planned executor calls
// it over arena buffers. Bit-identical planned-vs-eager execution
// (tests/test_exec_equivalence.cpp) therefore holds by construction — there
// is no second transcription of the arithmetic to drift.
//
// Parallelization follows the ops.cpp contract (see the comment there and
// util/parallel.hpp): disjoint output elements per chunk, serial
// accumulation order per element, chunk boundaries a pure function of
// (begin, end, grain). Results are bit-identical at every thread count.
#pragma once

#include "util/parallel.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace cgps::kern {

// ------------------------------------------------------------ scalar math --

// Per-element forward/backward functions of the elementwise ops. The eager
// ops in ops.cpp and the planned elementwise steps both pass these to the
// loops under "elementwise" below, so the per-element arithmetic cannot
// diverge. They are function objects, not functions, so a loop that takes
// one as an argument inlines it. A backward takes only what it reads.

// Numerically stable logistic, the exact expression of ops::sigmoid and the
// BCE backward.
inline constexpr auto sigmoid1 = [](float v) {
  return v >= 0.0f ? 1.0f / (1.0f + std::exp(-v)) : std::exp(v) / (1.0f + std::exp(v));
};
inline constexpr auto sigmoid1_bwd = [](float y, float dy) { return dy * y * (1.0f - y); };

inline constexpr auto relu1 = [](float v) { return v > 0.0f ? v : 0.0f; };
inline constexpr auto relu1_bwd = [](float x, float dy) { return x > 0.0f ? dy : 0.0f; };

inline constexpr auto square1 = [](float v) { return v * v; };
inline constexpr auto square1_bwd = [](float x, float dy) { return dy * 2.0f * x; };

inline constexpr auto add1 = [](float x, float y) { return x + y; };
inline constexpr auto add1_bwd = [](float dy, float& da, float& db) {
  da = dy;
  db = dy;
};
inline constexpr auto sub1 = [](float x, float y) { return x - y; };
inline constexpr auto sub1_bwd = [](float dy, float& da, float& db) {
  da = dy;
  db = -dy;
};
inline constexpr auto mul1 = [](float x, float y) { return x * y; };
inline constexpr auto mul1_bwd = [](float x, float y, float dy, float& da, float& db) {
  da = dy * y;
  db = dy * x;
};
inline constexpr auto div1 = [](float x, float y) { return x / y; };
inline constexpr auto div1_bwd = [](float x, float y, float dy, float& da, float& db) {
  da = dy / y;
  db = -dy * x / (y * y);
};

// ------------------------------------------------------------ elementwise --

// The loops of the elementwise ops, each run by the eager op and by the
// planned step alike. A forward maps the operands through a per-element
// function. A backward adds into each input grad that is non-null; it takes
// an element function over the index, bound to just the buffers its op's
// backward reads, because the plan keeps no other value of that op live
// (exec/plan.cpp, bwd_value_reads). The flat loops split the index range,
// the colvec loops split rows, which own both grads.

template <typename F>
inline void unary_fwd(const float* x, float* out, std::int64_t count, F f) {
  par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) out[i] = f(x[i]);
  });
}

// gx[i] += dx(i).
template <typename Dx>
inline void unary_bwd(float* gx, std::int64_t count, Dx dx) {
  if (gx == nullptr) return;
  par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) gx[i] += dx(i);
  });
}

template <typename F>
inline void binary_fwd(const float* a, const float* b, float* out, std::int64_t count, F f) {
  par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i]);
  });
}

// d(i, da, db) sets element i's two grads.
template <typename D>
inline void binary_bwd(float* ga, float* gb, std::int64_t count, D d) {
  par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      float da = 0.0f, db = 0.0f;
      d(i, da, db);
      if (ga != nullptr) ga[i] += da;
      if (gb != nullptr) gb[i] += db;
    }
  });
}

// out[i, j] = f(x[i, j], col[i]) over m rows of c.
template <typename F>
inline void colvec_fwd(const float* x, const float* col, float* out, std::int64_t m,
                       std::int64_t c, F f) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t j = 0; j < c; ++j) out[i * c + j] = f(x[i * c + j], col[i]);
  });
}

// d(i, k, dx, dc) sets the grads of element k = i * c + j; gcol[i] sums its
// row's dc in ascending j.
template <typename D>
inline void colvec_bwd(float* gx, float* gcol, std::int64_t m, std::int64_t c, D d) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t k = i * c; k < (i + 1) * c; ++k) {
        float dx = 0.0f, dc = 0.0f;
        d(i, k, dx, dc);
        if (gx != nullptr) gx[k] += dx;
        if (gcol != nullptr) gcol[i] += dc;
      }
  });
}

// -------------------------------------------------------------- row groups --

// Stable CSR grouping of row indices: for each output row r,
// pos[ptr[r])..pos[ptr[r+1]) lists the source rows i with idx[i] == r in
// ascending order (a stable counting sort).
struct RowGroups {
  std::vector<std::int64_t> ptr;
  std::vector<std::int32_t> pos;
};

inline RowGroups group_rows(const std::int32_t* idx, std::int64_t count, std::int64_t n_rows) {
  RowGroups g;
  g.ptr.assign(static_cast<std::size_t>(n_rows) + 1, 0);
  for (std::int64_t i = 0; i < count; ++i) ++g.ptr[static_cast<std::size_t>(idx[i]) + 1];
  for (std::int64_t r = 0; r < n_rows; ++r) g.ptr[r + 1] += g.ptr[r];
  g.pos.resize(static_cast<std::size_t>(count));
  std::vector<std::int64_t> cursor(g.ptr.begin(), g.ptr.end() - 1);
  for (std::int64_t i = 0; i < count; ++i)
    g.pos[static_cast<std::size_t>(cursor[static_cast<std::size_t>(idx[i])]++)] =
        static_cast<std::int32_t>(i);
  return g;
}

// Indexed row accumulation dst[idx[i], :] += w_i * src[i, :] is a data race
// under row-of-src partitioning; below this many scalar ops we also skip the
// grouping pass and use the direct serial loop (bit-identical either way).
constexpr std::int64_t kScatterSerialCutoff = 1 << 13;

// ----------------------------------------------------------------- matmul --

// C = A(m,k) B(k,n). Zeroes the output rows itself (the accumulation starts
// from zero), so callers may pass dirty buffers. ikj loop order with
// zero-skip on A, threads own output rows.
inline void matmul_fwd(const float* av, const float* bv, float* ov, std::int64_t m,
                       std::int64_t k, std::int64_t n) {
  par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* oi = ov + i * n;
      std::fill(oi, oi + n, 0.0f);
      const float* ai = av + i * k;
      for (std::int64_t p = 0; p < k; ++p) {
        const float aip = ai[p];
        if (aip == 0.0f) continue;
        const float* bp = bv + p * n;
        for (std::int64_t j = 0; j < n; ++j) oi[j] += aip * bp[j];
      }
    }
  });
}

// dA[i, p] += sum_j dC[i, j] * B[p, j]: each thread owns dA rows. Four B rows
// are blocked per pass so the dC row is loaded once per four dot products and
// the FMA chains are independent; each dot still runs j-ascending over one
// contiguous B row, so the per-element accumulation order matches the naive
// loop.
inline void matmul_da(const float* dc, const float* bv, float* da, std::int64_t rows,
                      std::int64_t inner, std::int64_t cols) {
  par::parallel_for(0, rows, par::grain_for(inner * cols), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* dci = dc + i * cols;
      float* dai = da + i * inner;
      std::int64_t p = 0;
      for (; p + 4 <= inner; p += 4) {
        const float* b0 = bv + p * cols;
        const float* b1 = b0 + cols;
        const float* b2 = b1 + cols;
        const float* b3 = b2 + cols;
        float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
        for (std::int64_t j = 0; j < cols; ++j) {
          const float d = dci[j];
          acc0 += d * b0[j];
          acc1 += d * b1[j];
          acc2 += d * b2[j];
          acc3 += d * b3[j];
        }
        dai[p] += acc0;
        dai[p + 1] += acc1;
        dai[p + 2] += acc2;
        dai[p + 3] += acc3;
      }
      for (; p < inner; ++p) {
        const float* bp = bv + p * cols;
        float acc = 0.0f;
        for (std::int64_t j = 0; j < cols; ++j) acc += dci[j] * bp[j];
        dai[p] += acc;
      }
    }
  });
}

// dB[p, j] += sum_i A[i, p] * dC[i, j]: each thread owns dB rows [p0, p1);
// per (p, j) the sum still runs i-ascending, matching the serial axpy order.
inline void matmul_db(const float* dc, const float* av, float* db, std::int64_t rows,
                      std::int64_t inner, std::int64_t cols) {
  par::parallel_for(0, inner, par::grain_for(rows * cols), [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t i = 0; i < rows; ++i) {
      const float* dci = dc + i * cols;
      const float* ai = av + i * inner;
      for (std::int64_t p = p0; p < p1; ++p) {
        const float aip = ai[p];
        if (aip == 0.0f) continue;
        float* dbp = db + p * cols;
        for (std::int64_t j = 0; j < cols; ++j) dbp[j] += aip * dci[j];
      }
    }
  });
}

// -------------------------------------------------------------- transpose --

inline void transpose_fwd(const float* xv, float* ov, std::int64_t m, std::int64_t n) {
  par::parallel_for(0, n, par::grain_for(m), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t j = j0; j < j1; ++j)
      for (std::int64_t i = 0; i < m; ++i) ov[j * m + i] = xv[i * n + j];
  });
}

// dX(rows, cols) += transpose of dY(cols, rows).
inline void transpose_bwd(const float* dy, float* dx, std::int64_t rows, std::int64_t cols) {
  par::parallel_for(0, rows, par::grain_for(cols), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t j = 0; j < cols; ++j) dx[i * cols + j] += dy[j * rows + i];
  });
}

// -------------------------------------------------------------- broadcast --

inline void add_rowvec_fwd(const float* xv, const float* rv, float* ov, std::int64_t m,
                           std::int64_t c) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t j = 0; j < c; ++j) ov[i * c + j] = xv[i * c + j] + rv[j];
  });
}

inline void add_rowvec_bwd_dx(const float* dy, float* dx, std::int64_t count) {
  par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) dx[i] += dy[i];
  });
}

// Column-parallel: each chunk owns grad columns, scanning rows in ascending
// order exactly like the serial accumulation.
inline void add_rowvec_bwd_db(const float* dy, float* db, std::int64_t m, std::int64_t c) {
  par::parallel_for(0, c, par::grain_for(m), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = j0; j < j1; ++j) db[j] += dy[i * c + j];
  });
}

// ------------------------------------------------------------------ shape --

// One part of a column concatenation; serial like the eager op.
inline void concat_cols_fwd_part(const float* part, float* ov, std::int64_t m, std::int64_t c,
                                 std::int64_t total, std::int64_t offset) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < c; ++j) ov[i * total + offset + j] = part[i * c + j];
}

inline void concat_cols_bwd_part(const float* dy, float* dpart, std::int64_t m, std::int64_t c,
                                 std::int64_t total, std::int64_t offset) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < c; ++j) dpart[i * c + j] += dy[i * total + offset + j];
}

// ---------------------------------------------------------------- indexed --

inline void gather_fwd(const float* xv, const std::int32_t* idx, std::int64_t count,
                       std::int64_t c, float* ov) {
  par::parallel_for(0, count, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* src = xv + static_cast<std::int64_t>(idx[i]) * c;
      std::copy(src, src + c, ov + i * c);
    }
  });
}

// dX[idx[i], :] += dY[i, :]. Serial below the cutoff or at pool width 1;
// otherwise grouped by target row here, so each thread owns disjoint grad
// rows with sources ascending (bit-identical to serial).
inline void gather_bwd(const float* dy, const std::int32_t* idx, std::int64_t count,
                       std::int64_t c, std::int64_t x_rows, float* dx) {
  if (count * c <= kScatterSerialCutoff || par::max_threads() == 1) {
    for (std::int64_t i = 0; i < count; ++i) {
      float* g = dx + static_cast<std::int64_t>(idx[i]) * c;
      const float* d = dy + i * c;
      for (std::int64_t j = 0; j < c; ++j) g[j] += d[j];
    }
    return;
  }
  const RowGroups groups = group_rows(idx, count, x_rows);
  par::parallel_for(0, x_rows, par::grain_for(c), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float* g = dx + r * c;
      for (std::int64_t s = groups.ptr[r]; s < groups.ptr[r + 1]; ++s) {
        const float* d = dy + static_cast<std::int64_t>(groups.pos[s]) * c;
        for (std::int64_t j = 0; j < c; ++j) g[j] += d[j];
      }
    }
  });
}

// out[idx[i], :] += x[i, :] into a zeroed output (zeroing done here), grouped
// like gather_bwd.
inline void scatter_add_fwd(const float* xv, const std::int32_t* idx, std::int64_t count,
                            std::int64_t c, std::int64_t out_rows, float* ov) {
  std::fill(ov, ov + out_rows * c, 0.0f);
  if (count * c <= kScatterSerialCutoff || par::max_threads() == 1) {
    for (std::int64_t i = 0; i < count; ++i) {
      float* dst = ov + static_cast<std::int64_t>(idx[i]) * c;
      const float* src = xv + i * c;
      for (std::int64_t j = 0; j < c; ++j) dst[j] += src[j];
    }
    return;
  }
  const RowGroups groups = group_rows(idx, count, out_rows);
  par::parallel_for(0, out_rows, par::grain_for(c), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float* dst = ov + r * c;
      for (std::int64_t s = groups.ptr[r]; s < groups.ptr[r + 1]; ++s) {
        const float* src = xv + static_cast<std::int64_t>(groups.pos[s]) * c;
        for (std::int64_t j = 0; j < c; ++j) dst[j] += src[j];
      }
    }
  });
}

// dX[i, :] += dY[idx[i], :] — each source row's grad is written exactly once.
inline void scatter_add_bwd(const float* dy, const std::int32_t* idx, std::int64_t count,
                            std::int64_t c, float* dx) {
  par::parallel_for(0, count, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* d = dy + static_cast<std::int64_t>(idx[i]) * c;
      float* g = dx + i * c;
      for (std::int64_t j = 0; j < c; ++j) g[j] += d[j];
    }
  });
}

// Per-segment 1/|segment| weights (0 for empty segments), the exact eager
// accumulation (count in float, then invert).
inline void segment_inv_count(const std::int32_t* seg, std::int64_t count, std::int64_t n_segments,
                              float* inv_count) {
  std::fill(inv_count, inv_count + n_segments, 0.0f);
  for (std::int64_t i = 0; i < count; ++i) inv_count[seg[i]] += 1.0f;
  for (std::int64_t s = 0; s < n_segments; ++s)
    inv_count[s] = inv_count[s] > 0.0f ? 1.0f / inv_count[s] : 0.0f;
}

// out[seg[i], :] += inv_count[seg[i]] * x[i, :] into a zeroed output, grouped
// like gather_bwd.
inline void segment_mean_fwd(const float* xv, const std::int32_t* seg, std::int64_t count,
                             std::int64_t c, std::int64_t n_segments, const float* inv_count,
                             float* ov) {
  std::fill(ov, ov + n_segments * c, 0.0f);
  if (count * c <= kScatterSerialCutoff || par::max_threads() == 1) {
    for (std::int64_t i = 0; i < count; ++i) {
      const float w = inv_count[seg[i]];
      float* dst = ov + static_cast<std::int64_t>(seg[i]) * c;
      const float* src = xv + i * c;
      for (std::int64_t j = 0; j < c; ++j) dst[j] += w * src[j];
    }
    return;
  }
  const RowGroups groups = group_rows(seg, count, n_segments);
  par::parallel_for(0, n_segments, par::grain_for(c), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float w = inv_count[r];
      float* dst = ov + r * c;
      for (std::int64_t s = groups.ptr[r]; s < groups.ptr[r + 1]; ++s) {
        const float* src = xv + static_cast<std::int64_t>(groups.pos[s]) * c;
        for (std::int64_t j = 0; j < c; ++j) dst[j] += w * src[j];
      }
    }
  });
}

inline void segment_mean_bwd(const float* dy, const std::int32_t* seg, std::int64_t count,
                             std::int64_t c, const float* inv_count, float* dx) {
  par::parallel_for(0, count, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float w = inv_count[seg[i]];
      const float* d = dy + static_cast<std::int64_t>(seg[i]) * c;
      float* g = dx + i * c;
      for (std::int64_t j = 0; j < c; ++j) g[j] += w * d[j];
    }
  });
}

// ------------------------------------------------------------- reductions --

// Forward reduction stays serial: a single left-to-right sum is the cheapest
// way to keep the scalar bit-identical at every thread count.
inline float sum_all_fwd(const float* xv, std::int64_t count) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < count; ++i) acc += xv[i];
  return acc;
}

inline void sum_all_bwd(float dy, float* dx, std::int64_t count) {
  par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) dx[i] += dy;
  });
}

inline void row_sum_fwd(const float* xv, float* ov, std::int64_t m, std::int64_t c) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float acc = 0.0f;
      for (std::int64_t j = 0; j < c; ++j) acc += xv[i * c + j];
      ov[i] = acc;
    }
  });
}

inline void row_sum_bwd(const float* dy, float* dx, std::int64_t m, std::int64_t c) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float d = dy[i];
      float* g = dx + i * c;
      for (std::int64_t j = 0; j < c; ++j) g[j] += d;
    }
  });
}

// ---------------------------------------------------------------- softmax --

inline void softmax_fwd(const float* xv, float* ov, std::int64_t m, std::int64_t c) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* row = xv + i * c;
      float mx = row[0];
      for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      float sum = 0.0f;
      float* o = ov + i * c;
      for (std::int64_t j = 0; j < c; ++j) {
        o[j] = std::exp(row[j] - mx);
        sum += o[j];
      }
      const float inv = 1.0f / sum;
      for (std::int64_t j = 0; j < c; ++j) o[j] *= inv;
    }
  });
}

// dX += S * (dY - <dY, S>) per row, S the softmax output.
inline void softmax_bwd(const float* sv, const float* dyv, float* dx, std::int64_t m,
                        std::int64_t c) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* s = sv + i * c;
      const float* dy = dyv + i * c;
      float dot = 0.0f;
      for (std::int64_t j = 0; j < c; ++j) dot += dy[j] * s[j];
      float* g = dx + i * c;
      for (std::int64_t j = 0; j < c; ++j) g[j] += s[j] * (dy[j] - dot);
    }
  });
}

// ---------------------------------------------------------- regularization --

// Serial mask fill: the Rng stream must be consumed in element order. Each
// element is rng.bernoulli(p) ? 0 : 1 / (1 - p), one draw each.
inline void dropout_mask(Rng& rng, float p, float* mask, std::int64_t count) {
  rng.fill_bernoulli_mask(p, 1.0f / (1.0f - p), mask, count);
}

inline void dropout_fwd(const float* xv, const float* mask, float* ov, std::int64_t count) {
  par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ov[i] = xv[i] * mask[i];
  });
}

inline void dropout_bwd(const float* dy, const float* mask, float* dx, std::int64_t count) {
  par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) dx[i] += dy[i] * mask[i];
  });
}

// -------------------------------------------------------------- batchnorm --

// Training statistics: per-column mean/var (chunks own disjoint columns and
// scan rows in ascending order, matching the serial accumulation per
// column), then the serial invstd + running-stat update.
inline void bn_stats_train(const float* xv, std::int64_t m, std::int64_t c, float* mean,
                           float* var, float* invstd, float* running_mean, float* running_var,
                           float momentum, float eps) {
  const float inv_m = 1.0f / static_cast<float>(m);
  par::parallel_for(0, c, par::grain_for(2 * m), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t j = j0; j < j1; ++j) {
      mean[j] = 0.0f;
      var[j] = 0.0f;
    }
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = j0; j < j1; ++j) mean[j] += xv[i * c + j];
    for (std::int64_t j = j0; j < j1; ++j) mean[j] *= inv_m;
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = j0; j < j1; ++j) {
        const float d = xv[i * c + j] - mean[j];
        var[j] += d * d;
      }
  });
  for (std::int64_t j = 0; j < c; ++j) {
    var[j] *= inv_m;
    invstd[j] = 1.0f / std::sqrt(var[j] + eps);
    running_mean[j] = (1.0f - momentum) * running_mean[j] + momentum * mean[j];
    running_var[j] = (1.0f - momentum) * running_var[j] + momentum * var[j];
  }
}

inline void bn_stats_eval(const float* running_mean, const float* running_var, std::int64_t c,
                          float eps, float* mean, float* invstd) {
  for (std::int64_t j = 0; j < c; ++j) {
    mean[j] = running_mean[j];
    invstd[j] = 1.0f / std::sqrt(running_var[j] + eps);
  }
}

inline void bn_xhat(const float* xv, const float* mean, const float* invstd, float* xhat,
                    std::int64_t m, std::int64_t c) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t j = 0; j < c; ++j)
        xhat[i * c + j] = (xv[i * c + j] - mean[j]) * invstd[j];
  });
}

inline void bn_fwd_out(const float* gv, const float* bv, const float* xhat, float* ov,
                       std::int64_t m, std::int64_t c) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t j = 0; j < c; ++j) ov[i * c + j] = gv[j] * xhat[i * c + j] + bv[j];
  });
}

// bn_xhat then bn_fwd_out in one pass with no xhat store, for a BatchNorm
// whose xhat no backward reads: each element takes the same four roundings,
// (x - mean), * invstd, gamma *, + beta, so the output bits are theirs.
inline void bn_fwd_one_pass(const float* xv, const float* mean, const float* invstd,
                            const float* gv, const float* bv, float* ov, std::int64_t m,
                            std::int64_t c) {
  par::parallel_for(0, m, par::grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t j = 0; j < c; ++j)
        ov[i * c + j] = gv[j] * ((xv[i * c + j] - mean[j]) * invstd[j]) + bv[j];
  });
}

// The BatchNorm backward's column sums walk rows: inside each column chunk,
// blocks of at most kBnColumnBlock columns keep one accumulator per column
// across the rows, so each column still sums over i ascending.
constexpr std::int64_t kBnColumnBlock = 16;

// dgamma / dbeta: column-parallel, i-ascending per column. Either target may
// be null (not requiring grad); both sums are still formed, matching eager.
inline void bn_bwd_params(const float* dy, const float* xhat, std::int64_t rows,
                          std::int64_t cols, float* dgamma, float* dbeta) {
  par::parallel_for(0, cols, par::grain_for(2 * rows), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t jb = j0; jb < j1; jb += kBnColumnBlock) {
      const std::int64_t w = std::min(kBnColumnBlock, j1 - jb);
      float dg[kBnColumnBlock] = {};
      float db[kBnColumnBlock] = {};
      for (std::int64_t i = 0; i < rows; ++i) {
        const float* d = dy + i * cols + jb;
        const float* x = xhat + i * cols + jb;
        for (std::int64_t c = 0; c < w; ++c) {
          dg[c] += d[c] * x[c];
          db[c] += d[c];
        }
      }
      for (std::int64_t c = 0; c < w; ++c) {
        if (dgamma != nullptr) dgamma[jb + c] += dg[c];
        if (dbeta != nullptr) dbeta[jb + c] += db[c];
      }
    }
  });
}

// Eval-mode dX: running stats treated as constants.
inline void bn_bwd_dx_eval(const float* dy, const float* gv, const float* invstd, float* dx,
                           std::int64_t rows, std::int64_t cols) {
  par::parallel_for(0, rows, par::grain_for(cols), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      for (std::int64_t j = 0; j < cols; ++j)
        dx[i * cols + j] += dy[i * cols + j] * gv[j] * invstd[j];
  });
}

// Training-mode dX: full backward through the batch statistics; per-column
// reductions are independent, so columns partition cleanly. Rows walk as in
// bn_bwd_params.
inline void bn_bwd_dx_train(const float* dy, const float* gv, const float* invstd,
                            const float* xhat, float* dx, std::int64_t rows, std::int64_t cols) {
  const float inv_m = 1.0f / static_cast<float>(rows);
  par::parallel_for(0, cols, par::grain_for(4 * rows), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t jb = j0; jb < j1; jb += kBnColumnBlock) {
      const std::int64_t w = std::min(kBnColumnBlock, j1 - jb);
      const float* g = gv + jb;
      float sum_dxhat[kBnColumnBlock] = {};
      float sum_dxhat_xhat[kBnColumnBlock] = {};
      for (std::int64_t i = 0; i < rows; ++i) {
        const float* d = dy + i * cols + jb;
        const float* x = xhat + i * cols + jb;
        for (std::int64_t c = 0; c < w; ++c) {
          const float dxhat = d[c] * g[c];
          sum_dxhat[c] += dxhat;
          sum_dxhat_xhat[c] += dxhat * x[c];
        }
      }
      for (std::int64_t i = 0; i < rows; ++i) {
        const float* d = dy + i * cols + jb;
        const float* x = xhat + i * cols + jb;
        float* o = dx + i * cols + jb;
        for (std::int64_t c = 0; c < w; ++c) {
          const float dxhat = d[c] * g[c];
          o[c] += invstd[jb + c] *
                  (dxhat - inv_m * sum_dxhat[c] - x[c] * inv_m * sum_dxhat_xhat[c]);
        }
      }
    }
  });
}

// ----------------------------------------------------------------- losses --

// Mean BCE-with-logits over all elements; serial i-ascending like eager.
inline float bce_fwd(const float* lv, const float* tv, std::int64_t n) {
  float loss = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float z = lv[i];
    const float y = tv[i];
    // max(z,0) - z*y + log(1 + exp(-|z|))
    loss += std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::fabs(z)));
  }
  return loss * (1.0f / static_cast<float>(n));
}

inline void bce_bwd(const float* lv, const float* tv, float dy, std::int64_t n, float* dl) {
  const float inv_n = 1.0f / static_cast<float>(n);
  par::parallel_for(0, n, par::grain_for(4), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float s = sigmoid1(lv[i]);
      dl[i] += dy * inv_n * (s - tv[i]);
    }
  });
}

inline float mse_fwd(const float* pv, const float* tv, std::int64_t n) {
  float loss = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float d = pv[i] - tv[i];
    loss += d * d;
  }
  return loss * (1.0f / static_cast<float>(n));
}

inline void mse_bwd(const float* pv, const float* tv, float dy, std::int64_t n, float* dp) {
  const float inv_n = 1.0f / static_cast<float>(n);
  par::parallel_for(0, n, par::grain_for(1), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) dp[i] += dy * inv_n * 2.0f * (pv[i] - tv[i]);
  });
}

}  // namespace cgps::kern
