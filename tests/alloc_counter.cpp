// The counting global operator new and delete behind alloc_counter.hpp.
#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {
thread_local std::int64_t t_allocations = 0;
}  // namespace

namespace cgps::test {
std::int64_t thread_allocations() { return t_allocations; }
}  // namespace cgps::test

// The nothrow forms are replaced too (std::stable_sort's buffer uses them),
// so every delete below frees what a malloc here returned; GCC cannot see
// that pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop
