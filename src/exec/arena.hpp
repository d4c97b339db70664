// Slab allocator for plan execution (DESIGN.md §10).
//
// All per-batch tensors of a compiled plan — values, gradients, saved-for-
// backward buffers, kernel scratch — are carved out of ONE float slab at bind
// time by an event-driven first-fit sweep over the plan's liveness intervals.
// The hot path (run_fwd/run_bwd) then performs zero allocations. The slab
// only ever grows (monotone across binds), so a steady-state training loop
// stops touching the system allocator after the first few batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cgps::exec {

// One buffer to place: `floats` elements, live over global step indices
// [def, last] inclusive (see plan.hpp). last < def means a point allocation
// at def (scratch, dead values).
struct ArenaRequest {
  std::int64_t floats = 0;
  int def = 0;
  int last = 0;
};

class Arena {
 public:
  // Assign a slab offset (in floats) to every request; the offsets stay
  // valid until the next bind. Offsets and rounded sizes are 64-byte
  // aligned. Buffers whose lifetimes overlap never share bytes; disjoint
  // lifetimes are packed first-fit with free-block coalescing. Grows the
  // slab if this bind needs more than any previous one. A bind whose
  // requests have the defs of the previous one allocates nothing.
  const std::vector<std::int64_t>& bind(const std::vector<ArenaRequest>& requests);

  float* base() { return slab_.data(); }
  // High-water mark of the most recent bind, in bytes (exec.arena_bytes).
  std::int64_t bound_bytes() const { return bound_floats_ * static_cast<std::int64_t>(sizeof(float)); }
  std::int64_t capacity_bytes() const {
    return static_cast<std::int64_t>(slab_.size()) * static_cast<std::int64_t>(sizeof(float));
  }

 private:
  struct FreeBlock {
    std::int64_t offset = 0;
    std::int64_t size = 0;
  };
  struct Live {
    int last = 0;
    std::int64_t offset = 0;
    std::int64_t size = 0;
    bool operator>(const Live& o) const { return last > o.last; }
  };

  void release(std::int64_t offset, std::int64_t size);

  std::vector<float> slab_;
  std::int64_t bound_floats_ = 0;
  // Reused across binds.
  std::vector<std::int64_t> offsets_;
  std::vector<int> defs_;             // the request defs that order_ sorts
  std::vector<std::size_t> order_;    // request indices by def, ties by index
  std::vector<Live> expiring_;        // min-heap on last
  std::vector<FreeBlock> free_list_;  // sorted by offset
};

}  // namespace cgps::exec
