//===- perfbench/src/AllocsCounting.cpp - Counting operator new ----------===//
///
/// \file
/// Replaces the global operator new (every form) with one that bumps a
/// counter before calling malloc. The benchmark drives the library from
/// one thread, so a plain counter is exact for the calls it attributes;
/// the relaxed atomic only keeps stray threads from making it undefined.
///
//===----------------------------------------------------------------------===//

#include "Allocs.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> Count{0};
bool Counting = true;

void *countedMalloc(std::size_t Size) {
  if (Counting)
    Count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *countedAligned(std::size_t Size, std::align_val_t Align) {
  if (Counting)
    Count.fetch_add(1, std::memory_order_relaxed);
  std::size_t A = static_cast<std::size_t>(Align);
  std::size_t Rounded = (Size + A - 1) & ~(A - 1);
  return std::aligned_alloc(A, Rounded ? Rounded : A);
}

} // namespace

bool perfbench::allocationsCounted() { return true; }
uint64_t perfbench::allocationCount() {
  return Count.load(std::memory_order_relaxed);
}
void perfbench::setAllocationCounting(bool On) { Counting = On; }

void *operator new(std::size_t Size) {
  if (void *P = countedMalloc(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedMalloc(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedMalloc(Size);
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  if (void *P = countedAligned(Size, Align))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return ::operator new(Size, Align);
}
void *operator new(std::size_t Size, std::align_val_t Align,
                   const std::nothrow_t &) noexcept {
  return countedAligned(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align,
                     const std::nothrow_t &) noexcept {
  return countedAligned(Size, Align);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}
