//===- support/PoolArena.h - Append-only typed pool storage -----*- C++ -*-===//
///
/// \file
/// The storage primitive behind the flat-arena live graph: a typed,
/// append-only pool whose elements NEVER move. Each pool appends into its
/// region of one ArenaReservation — a large span of virtual address space
/// reserved up front (MAP_NORESERVE on POSIX, MEM_RESERVE + on-demand
/// commit on Windows) — so pointers and offsets handed out stay valid
/// across any amount of growth
/// — the pool-growth stability contract that lets GLR stacks hold
/// `ItemSet *` and readers walk spans while EXPAND appends concurrently.
///
/// A pool addresses elements by uint32_t offset, the same currency the
/// `ipg-snap-v2` GRPH section uses on disk. Two segments back an offset:
///
///   - an optional *base* segment adopted zero-copy from an external
///     buffer (a mapped snapshot) via adoptBase(); offsets [0, baseSize())
///     resolve there and are read-only, and
///   - the *grow* segment, the pool's reservation region, holding
///     everything appended live; offsets [baseSize(), size()) resolve
///     there and are writable.
///
/// Spans never cross the segment boundary by construction: adopted spans
/// lie entirely in base, appended spans entirely in grow, so resolving a
/// span's starting offset resolves the whole span. Saving a pool is at
/// most two memcpys (base bytes, then grow bytes) — the in-memory layout
/// IS the snapshot layout.
///
/// Growth never goes through operator new (the reservation is a direct
/// mmap/VirtualAlloc), so appends on the EXPAND path do not disturb the
/// zero-allocation accounting of the HotPathAlloc suite or the bounded
/// allocation budget of the snapshot load path.
///
/// Thread model: append() and clear() require external mutual exclusion
/// (the graph's StructureMutex). Concurrent readers of already-published
/// offsets are safe while another thread appends — published bytes are
/// never rewritten or relocated. Exceeding the reserved capacity is an
/// invariant violation and aborts with a message (size the reservation
/// for the workload; it costs only virtual address space).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_POOLARENA_H
#define IPG_SUPPORT_POOLARENA_H

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <type_traits>

#if defined(_WIN32)
#define WIN32_LEAN_AND_MEAN
#include <windows.h>
#else
#include <sys/mman.h>
#endif

namespace ipg {

/// One contiguous reservation of virtual address space carved into
/// per-pool regions (one mmap/VirtualAlloc + one release for a whole
/// graph instead of one syscall pair per pool). Keeping graph
/// construction at one reservation is what preserves the paper's
/// "construction time is almost zero" property (§5) for the lazy
/// generator: the constructor's only real cost is this single syscall.
class ArenaReservation {
public:
  explicit ArenaReservation(size_t Bytes) : Bytes(Bytes) {
    Block = static_cast<uint8_t *>(acquireCached(Bytes));
    if (Block)
      return;
#if defined(_WIN32)
    Block = static_cast<uint8_t *>(
        VirtualAlloc(nullptr, Bytes, MEM_RESERVE, PAGE_READWRITE));
#else
    void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    Block = P == MAP_FAILED ? nullptr : static_cast<uint8_t *>(P);
#endif
    if (!Block) {
      std::fprintf(stderr,
                   "ipg: ArenaReservation failed to reserve %zu bytes of "
                   "address space\n",
                   Bytes);
      std::abort();
    }
  }

  ArenaReservation(const ArenaReservation &) = delete;
  ArenaReservation &operator=(const ArenaReservation &) = delete;

  ~ArenaReservation() {
    if (releaseCached(Block, Bytes))
      return;
#if defined(_WIN32)
    VirtualFree(Block, 0, MEM_RELEASE);
#else
    munmap(Block, Bytes);
#endif
  }

  /// Region size for \p Elements elements of \p ElementSize bytes,
  /// rounded up to a cache line so distinct pools never share one. Use
  /// this to size the reservation for a sequence of carve() calls.
  static constexpr size_t regionBytes(size_t Elements, size_t ElementSize) {
    return (Elements * ElementSize + 63) & ~size_t{63};
  }

  /// Hands out the next regionBytes(Elements, sizeof(T)) bytes; the call
  /// order defines the layout. The block is page-aligned and regions are
  /// cache-line multiples, so every carve satisfies any pool alignment.
  template <typename T> T *carve(size_t Elements) {
    uint8_t *Region = Block + Cursor;
    Cursor += regionBytes(Elements, sizeof(T));
    assert(Cursor <= Bytes && "ArenaReservation overcommitted");
    return reinterpret_cast<T *>(Region);
  }

private:
  // Graphs churn (benchmark iterations, server epoch forks), and the
  // map-fault-unmap cycle for half a gigabyte of address space costs
  // several microseconds — the entire "construction is almost zero"
  // budget of §5. A small process-wide cache recycles blocks between
  // reservations of the same size, page tables and faulted pages intact,
  // so steady-state graph construction is allocation- and syscall-free.
  // Pools tolerate recycled (non-zero) bytes: appendZeroed memsets and
  // append memcpys before anything is read. At most CacheCap blocks are
  // retained, and only their previously touched pages occupy memory; the
  // cache itself is leaked at exit (the process teardown unmaps).
  struct CachedBlock {
    void *Block;
    size_t Bytes;
  };
  struct Cache {
    std::mutex M;
    CachedBlock Blocks[4];
    size_t Count = 0;
  };
  static Cache &cache() {
    static Cache *C = new Cache;
    return *C;
  }

  static void *acquireCached(size_t Bytes) {
    Cache &C = cache();
    std::lock_guard<std::mutex> Lock(C.M);
    for (size_t I = 0; I < C.Count; ++I)
      if (C.Blocks[I].Bytes == Bytes) {
        void *Match = C.Blocks[I].Block;
        C.Blocks[I] = C.Blocks[--C.Count];
        return Match;
      }
    return nullptr;
  }

  static bool releaseCached(void *Block, size_t Bytes) {
    Cache &C = cache();
    std::lock_guard<std::mutex> Lock(C.M);
    if (C.Count == sizeof(C.Blocks) / sizeof(C.Blocks[0]))
      return false;
    C.Blocks[C.Count++] = {Block, Bytes};
    return true;
  }

  uint8_t *Block = nullptr;
  size_t Bytes = 0;
  size_t Cursor = 0;
};

template <typename T> class PoolArena {
  static_assert(std::is_trivially_copyable_v<T>,
                "PoolArena elements are raw snapshot bytes; they must be "
                "trivially copyable");

public:
  /// Wraps \p Reservation — \p MaxElements elements of externally
  /// reserved, uncommitted address space (an ArenaReservation region) —
  /// without taking ownership; the reservation must outlive the pool.
  PoolArena(T *Reservation, size_t MaxElements)
      : Grow(Reservation), Capacity(MaxElements) {}

  PoolArena(const PoolArena &) = delete;
  PoolArena &operator=(const PoolArena &) = delete;

  /// Points the base segment at \p N externally owned elements (a mapped
  /// snapshot section) without copying. Only legal on an empty pool; the
  /// caller keeps the backing bytes alive for the life of the graph.
  void adoptBase(const T *Data, size_t N) {
    assert(BaseLen == 0 && GrowLen == 0 && "adoptBase on a non-empty pool");
    Base = Data;
    BaseLen = N;
  }

  /// Appends \p N elements and returns the offset of the first. The copy
  /// is the only data movement these bytes will ever see.
  uint32_t append(const T *Data, size_t N) {
    size_t Off = BaseLen + GrowLen;
    ensureFits(N);
    if (N != 0)
      std::memcpy(Grow + GrowLen, Data, N * sizeof(T));
    GrowLen += N;
    return static_cast<uint32_t>(Off);
  }

  /// Appends \p N default-zeroed elements (fresh reservation pages are
  /// zero already; recycled ones after clear() are memset).
  uint32_t appendZeroed(size_t N) {
    size_t Off = BaseLen + GrowLen;
    ensureFits(N);
    if (N != 0)
      std::memset(Grow + GrowLen, 0, N * sizeof(T));
    GrowLen += N;
    return static_cast<uint32_t>(Off);
  }

  /// Resolves an offset to a read-only element pointer. A span starting
  /// here never crosses the base/grow boundary. The segment test is a
  /// predictable branch (a given graph resolves almost all queries in one
  /// segment), which measures faster than a branchless select here — a
  /// cmov would put the load address on the critical path.
  const T *at(uint32_t Off) const {
    assert(Off <= BaseLen + GrowLen && "PoolArena offset out of range");
    return Off < BaseLen ? Base + Off : Grow + (Off - BaseLen);
  }

  /// Mutable access to grow-segment elements only — adopted base bytes
  /// are the snapshot's and stay pristine (save re-emits them verbatim).
  T *growAt(uint32_t Off) {
    assert(Off >= BaseLen && Off <= BaseLen + GrowLen &&
           "mutable access must stay in the grow segment");
    return Grow + (Off - BaseLen);
  }

  size_t size() const { return BaseLen + GrowLen; }
  bool empty() const { return size() == 0; }
  size_t baseSize() const { return BaseLen; }
  size_t growSize() const { return GrowLen; }
  const T *baseData() const { return Base; }
  const T *growData() const { return Grow; }
  T *growData() { return Grow; }

  /// Forgets the adopted base and all appended elements. The reservation
  /// (and any committed pages) is retained for reuse.
  void clear() {
    Base = nullptr;
    BaseLen = 0;
    GrowLen = 0;
  }

private:
  void ensureFits(size_t N) {
    if (N > Capacity - GrowLen) {
      std::fprintf(stderr,
                   "ipg: PoolArena capacity exhausted (%zu + %zu elements "
                   "of %zu-element reservation)\n",
                   GrowLen, N, Capacity);
      std::abort();
    }
#if defined(_WIN32)
    // Commit the pages the new elements land on; POSIX commits on touch.
    size_t WantedBytes = (GrowLen + N) * sizeof(T);
    if (WantedBytes > CommittedBytes) {
      size_t NewCommit = (WantedBytes + CommitChunk - 1) & ~(CommitChunk - 1);
      if (NewCommit > Capacity * sizeof(T))
        NewCommit = Capacity * sizeof(T);
      if (!VirtualAlloc(reinterpret_cast<uint8_t *>(Grow) + CommittedBytes,
                        NewCommit - CommittedBytes, MEM_COMMIT,
                        PAGE_READWRITE)) {
        std::fprintf(stderr, "ipg: PoolArena commit failed\n");
        std::abort();
      }
      CommittedBytes = NewCommit;
    }
#endif
  }

  const T *Base = nullptr; ///< Adopted snapshot segment (read-only).
  size_t BaseLen = 0;
  T *Grow = nullptr; ///< The pool's reservation region; elements never move.
  size_t GrowLen = 0;
  size_t Capacity = 0;
#if defined(_WIN32)
  size_t CommittedBytes = 0;
  static constexpr size_t CommitChunk = 1 << 20;
#endif
};

} // namespace ipg

#endif // IPG_SUPPORT_POOLARENA_H
