//===- support/MappedFile.h - Private file mapping for snapshots *- C++ -*-===//
///
/// \file
/// A whole-file memory mapping with copy-on-write semantics, the backing
/// store of the `ipg-snap-v2` zero-copy snapshot load. The file is mapped
/// MAP_PRIVATE and read-write: a stale-snapshot load rewrites symbol and
/// rule ids in place, and the kernel materializes only the touched pages —
/// everything else stays a clean page backed by the file, which is never
/// written. On platforms without mmap the whole file is read into an
/// 8-byte-aligned heap buffer instead; the adoption contract (stable bytes
/// for the lifetime of this object, writable in place) is identical.
///
/// Lifetime contract: item sets adopted from a mapping borrow spans of its
/// bytes. The graph that adopted a MappedFile keeps it alive (shared_ptr)
/// until the graph is reset or replaced; never destroy a mapping while a
/// graph still borrows from it.
///
/// The two whole-file helpers live here too: readFileBytes, and the
/// atomic write-then-rename every snapshot save goes through (it is what
/// keeps such a mapping of the old file intact while a new one is saved).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_MAPPEDFILE_H
#define IPG_SUPPORT_MAPPEDFILE_H

#include "support/Expected.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ipg {

class MappedFile {
public:
  /// Maps \p Path privately (copy-on-write). Fails on missing, unreadable,
  /// or empty files.
  static Expected<MappedFile> open(const std::string &Path);

  /// An anonymous in-memory "mapping": copies \p Size bytes from \p Data
  /// into an 8-byte-aligned heap buffer with the same stable-bytes /
  /// writable-in-place adoption contract as a file mapping. This is how a
  /// grammar-server epoch fork materializes its predecessor's serialized
  /// graph without touching the filesystem. Fails only on Size == 0 or
  /// allocation failure.
  static Expected<MappedFile> copyOf(const void *Data, size_t Size);

  MappedFile() = default;
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;
  MappedFile(MappedFile &&Other) noexcept { *this = std::move(Other); }
  MappedFile &operator=(MappedFile &&Other) noexcept {
    if (this != &Other) {
      unmap();
      Base = Other.Base;
      Bytes = Other.Bytes;
      HeapFallback = Other.HeapFallback;
      Other.Base = nullptr;
      Other.Bytes = 0;
      Other.HeapFallback = false;
    }
    return *this;
  }
  ~MappedFile() { unmap(); }

  /// The mapped bytes; writable (writes never reach the file — the mapping
  /// is private). Page-aligned base.
  uint8_t *data() const { return Base; }
  size_t size() const { return Bytes; }
  bool valid() const { return Base != nullptr; }

private:
  void unmap();
  /// Releases a heap-fallback buffer with the allocator that made it
  /// (MSVC's _aligned_malloc blocks must not go through free()).
  static void freeHeapBuffer(void *Ptr);

  uint8_t *Base = nullptr;
  size_t Bytes = 0;
  bool HeapFallback = false;
};

/// Reads a whole file into memory.
Expected<std::vector<uint8_t>> readFileBytes(const std::string &Path);

/// Writes \p Size bytes at \p Data to \p Path *atomically*: the bytes go
/// to a temporary sibling first, which is renamed over \p Path only after
/// a complete write. Readers (and live MAP_PRIVATE mappings of the old
/// file — the zero-copy snapshot loader keeps those) always see either
/// the complete old inode or the complete new one, never a truncated
/// in-between. Used by FlatWriter::writeFile. Returns the byte count
/// written.
Expected<size_t> writeBytesToFileAtomic(const std::string &Path,
                                        const void *Data, size_t Size);

} // namespace ipg

#endif // IPG_SUPPORT_MAPPEDFILE_H
