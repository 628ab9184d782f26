//===- support/FlatSection.h - Flat, aligned binary sections ----*- C++ -*-===//
///
/// \file
/// The one binary codec of the tree: every section of an `ipg-snap-v2`
/// snapshot (GRAM, GRPH and the PARS suspended-parse rider) is written
/// with it. It optimizes for *adoption*: every array is written at its
/// natural alignment in little-endian fixed-width records, so a loader on
/// a little-endian host can bounds-check the offsets and then point
/// straight into the (mapped) buffer — no per-record decode, no
/// per-record allocation.
///
/// FlatWriter appends explicitly little-endian bytes (deterministic across
/// platforms and build types — the snapshot determinism CI contract) with
/// zeroed alignment padding and offset patching for headers written before
/// their payloads. FlatView is the read side: checked offset/array access
/// over an externally owned buffer, verifying bounds *and* alignment
/// before handing out typed pointers.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_FLATSECTION_H
#define IPG_SUPPORT_FLATSECTION_H

#include "support/Expected.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ipg {

/// Little-endian fixed-width writer with alignment padding and patching.
class FlatWriter {
public:
  size_t size() const { return Buffer.size(); }
  const std::vector<uint8_t> &buffer() const { return Buffer; }

  /// Pads with zero bytes until the current size is a multiple of
  /// \p Alignment (a power of two). Padding is always zero so identical
  /// documents stay byte-identical.
  void alignTo(size_t Alignment) {
    size_t Rem = Buffer.size() % Alignment;
    if (Rem != 0)
      Buffer.resize(Buffer.size() + (Alignment - Rem), 0);
  }

  /// Pre-sizes the underlying buffer's capacity (not its size) so a
  /// document whose final size is known appends without reallocating.
  void reserveCapacity(size_t Bytes) { Buffer.reserve(Bytes); }

  void writeU8(uint8_t Value) { Buffer.push_back(Value); }
  void writeU16(uint16_t Value) { appendLe(Value, 2); }
  void writeU32(uint32_t Value) { appendLe(Value, 4); }
  void writeU64(uint64_t Value) { appendLe(Value, 8); }

  void writeBytes(const void *Data, size_t Size) {
    // An empty source (an empty pool or vector) may be a null pointer,
    // which memcpy must never see, even for zero bytes.
    if (Size == 0)
      return;
    const auto *Bytes = static_cast<const uint8_t *>(Data);
    size_t Old = Buffer.size();
    Buffer.resize(Old + Size);
    std::memcpy(Buffer.data() + Old, Bytes, Size);
  }

  /// Appends \p Count little-endian u32 values: one memcpy on LE hosts,
  /// per-element writes elsewhere. The bulk path is what keeps record
  /// tables (snapshot sections) off the one-resize-per-field cost.
  void writeU32Array(const uint32_t *Values, size_t Count) {
    if constexpr (std::endian::native == std::endian::little) {
      writeBytes(Values, Count * 4);
    } else {
      for (size_t I = 0; I < Count; ++I)
        writeU32(Values[I]);
    }
  }

  /// Reserves \p Size zero bytes at the current position and returns their
  /// offset, for headers patched after their payload is written.
  size_t reserve(size_t Size) {
    size_t Offset = Buffer.size();
    Buffer.resize(Offset + Size, 0);
    return Offset;
  }

  void patchU32(size_t Offset, uint32_t Value) { patchLe(Offset, Value, 4); }
  void patchU64(size_t Offset, uint64_t Value) { patchLe(Offset, Value, 8); }

  /// Writes the buffer to \p Path; returns the byte count written.
  Expected<size_t> writeFile(const std::string &Path) const;

private:
  void appendLe(uint64_t Value, int Bytes) {
    // One resize per value, not one push_back per byte: the writer's
    // whole job is bulk fixed-width output.
    size_t Old = Buffer.size();
    Buffer.resize(Old + static_cast<size_t>(Bytes));
    for (int I = 0; I < Bytes; ++I)
      Buffer[Old + static_cast<size_t>(I)] =
          static_cast<uint8_t>(Value >> (8 * I));
  }
  void patchLe(size_t Offset, uint64_t Value, int Bytes) {
    for (int I = 0; I < Bytes; ++I)
      Buffer[Offset + static_cast<size_t>(I)] =
          static_cast<uint8_t>(Value >> (8 * I));
  }

  std::vector<uint8_t> Buffer;
};

/// Checked, random-access reads over a flat section. Does not own the
/// bytes; the backing buffer (typically a MappedFile) must stay alive for
/// as long as any pointer handed out here is used.
class FlatView {
public:
  FlatView() = default;
  FlatView(const uint8_t *Data, size_t Size) : Base(Data), Bytes(Size) {}

  const uint8_t *data() const { return Base; }
  size_t size() const { return Bytes; }

  Expected<uint32_t> u32At(size_t Offset) const {
    if (Offset + 4 > Bytes || Offset + 4 < Offset)
      return Error("flat section: u32 read out of bounds");
    uint32_t Value = 0;
    for (int I = 0; I < 4; ++I)
      Value |= static_cast<uint32_t>(Base[Offset + I]) << (8 * I);
    return Value;
  }

  Expected<uint64_t> u64At(size_t Offset) const {
    if (Offset + 8 > Bytes || Offset + 8 < Offset)
      return Error("flat section: u64 read out of bounds");
    uint64_t Value = 0;
    for (int I = 0; I < 8; ++I)
      Value |= static_cast<uint64_t>(Base[Offset + I]) << (8 * I);
    return Value;
  }

  /// A typed pointer to \p Count records of \p RecordBytes each at
  /// \p Offset — after verifying the range is in bounds and the address is
  /// aligned for T. The caller guarantees (via compile-time layout gates)
  /// that T's in-memory layout matches the little-endian on-disk records.
  template <typename T>
  Expected<const T *> arrayAt(size_t Offset, size_t Count) const {
    size_t Wanted = Count * sizeof(T);
    if (Count != 0 && Wanted / Count != sizeof(T))
      return Error("flat section: array size overflows");
    if (Offset > Bytes || Wanted > Bytes - Offset)
      return Error("flat section: array out of bounds");
    if (reinterpret_cast<uintptr_t>(Base + Offset) % alignof(T) != 0)
      return Error("flat section: misaligned array");
    return reinterpret_cast<const T *>(Base + Offset);
  }

  /// A sub-view of \p Size bytes at \p Offset.
  Expected<FlatView> sliceAt(size_t Offset, size_t Size) const {
    if (Offset > Bytes || Size > Bytes - Offset)
      return Error("flat section: slice out of bounds");
    return FlatView(Base + Offset, Size);
  }

private:
  const uint8_t *Base = nullptr;
  size_t Bytes = 0;
};

/// Packs four characters into a section tag ("PARS" etc.).
constexpr uint32_t fourCC(char A, char B, char C, char D) {
  return static_cast<uint32_t>(static_cast<uint8_t>(A)) |
         static_cast<uint32_t>(static_cast<uint8_t>(B)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(C)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(D)) << 24;
}

} // namespace ipg

#endif // IPG_SUPPORT_FLATSECTION_H
