#include "exec/arena.hpp"

#include <algorithm>
#include <functional>

namespace cgps::exec {

namespace {

// 64-byte alignment in float units: cache-line-friendly and enough for any
// current or future SIMD backend (AVX-512 loads included).
constexpr std::int64_t kAlignFloats = 16;

std::int64_t round_up(std::int64_t floats) {
  return (floats + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

}  // namespace

// Insert a freed block into the offset-sorted free list, coalescing with
// adjacent neighbours so long-lived fragmentation cannot build up.
void Arena::release(std::int64_t offset, std::int64_t size) {
  auto it = std::lower_bound(
      free_list_.begin(), free_list_.end(), offset,
      [](const FreeBlock& b, std::int64_t off) { return b.offset < off; });
  // Merge with the successor.
  if (it != free_list_.end() && offset + size == it->offset) {
    it->offset = offset;
    it->size += size;
    if (it != free_list_.begin()) {
      auto prev = std::prev(it);
      if (prev->offset + prev->size == it->offset) {
        prev->size += it->size;
        free_list_.erase(it);
      }
    }
    return;
  }
  // Merge with the predecessor.
  if (it != free_list_.begin()) {
    auto prev = std::prev(it);
    if (prev->offset + prev->size == offset) {
      prev->size += size;
      return;
    }
  }
  free_list_.insert(it, FreeBlock{offset, size});
}

const std::vector<std::int64_t>& Arena::bind(const std::vector<ArenaRequest>& requests) {
  const std::size_t n = requests.size();
  offsets_.assign(n, 0);

  // Process in ascending def order, ties in request order. A plan's defs are
  // its step indices, the same on every bind, so the order is re-sorted only
  // when they change.
  bool same = defs_.size() == n;
  for (std::size_t i = 0; same && i < n; ++i) same = defs_[i] == requests[i].def;
  if (!same) {
    defs_.resize(n);
    order_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      defs_[i] = requests[i].def;
      order_[i] = i;
    }
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return defs_[a] != defs_[b] ? defs_[a] < defs_[b] : a < b;
    });
  }

  expiring_.clear();
  free_list_.clear();
  const std::greater<Live> later;  // a min-heap on last
  std::int64_t high_water = 0;

  for (const std::size_t i : order_) {
    const ArenaRequest& req = requests[i];
    if (req.floats <= 0) continue;
    // Expire everything whose lifetime ended strictly before this def.
    while (!expiring_.empty() && expiring_.front().last < req.def) {
      std::pop_heap(expiring_.begin(), expiring_.end(), later);
      const Live done = expiring_.back();
      expiring_.pop_back();
      release(done.offset, done.size);
    }
    const std::int64_t need = round_up(req.floats);
    std::int64_t offset = -1;
    // First fit.
    for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
      if (it->size < need) continue;
      offset = it->offset;
      it->offset += need;
      it->size -= need;
      if (it->size == 0) free_list_.erase(it);
      break;
    }
    if (offset < 0) {
      // Extend the slab; absorb a trailing free block touching the high-water
      // mark so extension does not strand it.
      if (!free_list_.empty() &&
          free_list_.back().offset + free_list_.back().size == high_water) {
        offset = free_list_.back().offset;
        free_list_.pop_back();
      } else {
        offset = high_water;
      }
      high_water = offset + need;
    }
    offsets_[i] = offset;
    expiring_.push_back(Live{std::max(req.last, req.def), offset, need});
    std::push_heap(expiring_.begin(), expiring_.end(), later);
  }

  bound_floats_ = high_water;
  if (high_water > static_cast<std::int64_t>(slab_.size()))
    slab_.resize(static_cast<std::size_t>(high_water));  // monotone growth
  return offsets_;
}

}  // namespace cgps::exec
