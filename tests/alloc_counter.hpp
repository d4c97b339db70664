// Per-thread heap allocation count for tests that assert a warm path
// allocates nothing. A test binary that links alloc_counter.cpp has its
// global operator new and delete replaced by counting ones.
#pragma once

#include <cstdint>

namespace cgps::test {

// Heap allocations made so far on the calling thread.
std::int64_t thread_allocations();

}  // namespace cgps::test
