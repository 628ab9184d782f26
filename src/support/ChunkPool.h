//===- support/ChunkPool.h - Stable, reusable append-only pools -*- C++ -*-===//
///
/// \file
/// The parse side's storage discipline: elements are appended into chunks
/// that never move (so element addresses are stable for the pool's
/// lifetime), chunk sizes grow geometrically with no cap, and reset()
/// forgets the elements but keeps every chunk, so a pool that is reused
/// for the next parse allocates nothing once it has reached that parse's
/// size. Elements must be trivially destructible: reset() and the
/// destructor release chunks without running element destructors.
///
/// Unlike support/PoolArena.h this reserves no address space up front
/// and has no capacity limit, so a pool per parse forest is cheap and
/// growth never aborts.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_CHUNKPOOL_H
#define IPG_SUPPORT_CHUNKPOOL_H

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ipg {

template <typename T> class ChunkPool {
  static_assert(std::is_trivially_destructible_v<T>,
                "ChunkPool releases chunks without running destructors");

public:
  /// \p FirstChunk is the element capacity of the first chunk; chunk k
  /// holds FirstChunk << k elements (or more, for an oversized span).
  explicit ChunkPool(size_t FirstChunk = 64) : FirstChunk(FirstChunk) {}
  ChunkPool(const ChunkPool &) = delete;
  ChunkPool &operator=(const ChunkPool &) = delete;
  ChunkPool(ChunkPool &&Other) noexcept { *this = std::move(Other); }
  ChunkPool &operator=(ChunkPool &&Other) noexcept {
    if (this != &Other) {
      release();
      Chunks = std::move(Other.Chunks);
      FirstChunk = Other.FirstChunk;
      Cur = Other.Cur;
      Count = Other.Count;
      Other.Chunks.clear();
      Other.Cur = 0;
      Other.Count = 0;
    }
    return *this;
  }
  ~ChunkPool() { release(); }

  /// Constructs one element at a stable address.
  template <typename... ArgTs> T *make(ArgTs &&...Args) {
    return ::new (static_cast<void *>(allocate(1)))
        T(std::forward<ArgTs>(Args)...);
  }

  /// Reserves \p N contiguous, uninitialized elements at a stable address
  /// (the caller constructs them; T is trivially destructible).
  T *allocate(size_t N) {
    // A chunk too full (or, after a reset, too small) for the span is
    // skipped; forEach() walks each chunk's Used, so the gap is invisible.
    while (Cur < Chunks.size() && Chunks[Cur].Cap - Chunks[Cur].Used < N)
      ++Cur;
    if (Cur == Chunks.size()) {
      size_t Cap = Chunks.empty() ? FirstChunk : Chunks.back().Cap * 2;
      if (Cap < N)
        Cap = N;
      Chunks.push_back(Chunk{std::allocator<T>().allocate(Cap), Cap, 0});
    }
    Chunk &C = Chunks[Cur];
    T *Out = C.Data + C.Used;
    C.Used += N;
    Count += N;
    return Out;
  }

  /// Elements handed out since construction or the last reset().
  size_t size() const { return Count; }

  /// Forgets every element (their addresses become reusable) and keeps
  /// all chunks for the next round.
  void reset() {
    for (size_t I = 0; I <= Cur && I < Chunks.size(); ++I)
      Chunks[I].Used = 0;
    Cur = 0;
    Count = 0;
  }

  /// Visits every element in allocation order.
  template <typename FnT> void forEach(FnT &&Fn) {
    for (size_t I = 0; I <= Cur && I < Chunks.size(); ++I)
      for (size_t J = 0; J < Chunks[I].Used; ++J)
        Fn(Chunks[I].Data[J]);
  }
  template <typename FnT> void forEach(FnT &&Fn) const {
    for (size_t I = 0; I <= Cur && I < Chunks.size(); ++I)
      for (size_t J = 0; J < Chunks[I].Used; ++J)
        Fn(static_cast<const T &>(Chunks[I].Data[J]));
  }

private:
  struct Chunk {
    T *Data;
    size_t Cap;
    size_t Used;
  };

  void release() {
    for (Chunk &C : Chunks)
      std::allocator<T>().deallocate(C.Data, C.Cap);
    Chunks.clear();
  }

  std::vector<Chunk> Chunks;
  size_t FirstChunk = 64;
  /// Chunk that receives the next allocation; chunks after it are empty.
  size_t Cur = 0;
  size_t Count = 0;
};

} // namespace ipg

#endif // IPG_SUPPORT_CHUNKPOOL_H
