//===- tests/lr/CountingNew.cpp - Counting global operator new ------------===//
///
/// \file
/// Replaces the global operator new and delete with forms that count every
/// allocation. The replacements live in a file of their own so that no
/// test body can inline them: GCC 12 warns (-Wmismatched-new-delete) when
/// it inlines a replaced operator delete that calls free() next to the
/// operator new whose pointer it frees.
///
//===----------------------------------------------------------------------===//

#include "CountingNew.h"

#include <cstdlib>
#include <new>

#if defined(_MSC_VER)
#include <malloc.h>
#endif

namespace {

/// Number of global operator new calls since process start. Plain (not
/// atomic): the suite is single-threaded and the counter is only compared
/// across points on one thread.
unsigned long long AllocCount = 0;

} // namespace

unsigned long long ipg::testing::allocationCount() { return AllocCount; }

void *operator new(std::size_t Size) {
  ++AllocCount;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) { return ::operator new(Size); }

// Aligned and nothrow forms count too: an over-aligned type sneaking onto
// the query path must not dodge the zero-allocation assertion. MSVC's UCRT
// has no aligned_alloc; its _aligned_malloc/_aligned_free pair is used
// there (the aligned deletes below free with the matching function).
namespace {

void *alignedAllocCounted(std::size_t Size, std::size_t Align) {
  ++AllocCount;
#if defined(_MSC_VER)
  return _aligned_malloc(Size ? Size : Align, Align);
#else
  std::size_t Rounded = (Size + Align - 1) & ~(Align - 1);
  return std::aligned_alloc(Align, Rounded ? Rounded : Align);
#endif
}
void alignedFree(void *P) noexcept {
#if defined(_MSC_VER)
  _aligned_free(P);
#else
  std::free(P);
#endif
}

} // namespace

void *operator new(std::size_t Size, std::align_val_t Align) {
  if (void *P = alignedAllocCounted(Size, static_cast<std::size_t>(Align)))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return ::operator new(Size, Align);
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  ++AllocCount;
  return std::malloc(Size ? Size : 1);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  ++AllocCount;
  return std::malloc(Size ? Size : 1);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { alignedFree(P); }
void operator delete[](void *P, std::align_val_t) noexcept { alignedFree(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  alignedFree(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  alignedFree(P);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
