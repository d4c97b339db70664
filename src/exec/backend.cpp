#include "exec/backend.hpp"

#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace cgps::exec {

std::int64_t attend_grain(const std::int64_t* graph_ptr, std::int64_t graphs, std::int64_t dh,
                          std::int64_t fm) {
  if (graphs <= 0) return 1;
  const std::int64_t mean_rows = (graph_ptr[graphs] - graph_ptr[0]) / graphs + 1;
  return par::grain_for(2 * mean_rows * fm * dh);
}

const KernelBackend& select_backend() {
  switch (env_backend()) {
    case BackendKind::kScalar:
      return scalar_backend();
    case BackendKind::kAvx2: {
      if (const KernelBackend* b = avx2_backend()) return *b;
      static const bool warned = [] {
        log_warn("CIRCUITGPS_BACKEND=avx2 requested but this build/CPU lacks "
                 "AVX2+FMA; using the scalar backend");
        return true;
      }();
      (void)warned;
      return scalar_backend();
    }
    case BackendKind::kAuto:
      break;
  }
  if (const KernelBackend* b = avx2_backend()) return *b;
  return scalar_backend();
}

}  // namespace cgps::exec
