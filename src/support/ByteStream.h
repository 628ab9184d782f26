//===- support/ByteStream.h - Binary snapshot encoding ----------*- C++ -*-===//
///
/// \file
/// The little-endian varint layer under the suspended-parse (PARS) snapshot
/// section: ByteWriter appends fixed-width integers, LEB128 varints and
/// length-prefixed strings to a growable buffer; ByteReader
/// walks the same encoding with bounds-checked reads that return Expected
/// instead of crashing on truncated or hostile input. Every multi-byte
/// value is encoded explicitly byte by byte, so documents are identical
/// across platforms, build types and compiler versions — the property the
/// snapshot determinism CI job pins.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_BYTESTREAM_H
#define IPG_SUPPORT_BYTESTREAM_H

#include "support/Expected.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ipg {

/// Appends little-endian binary data to an in-memory buffer.
class ByteWriter {
public:
  void writeU8(uint8_t Value) { Buffer.push_back(Value); }

  void writeU32(uint32_t Value) {
    for (int Shift = 0; Shift < 32; Shift += 8)
      Buffer.push_back(static_cast<uint8_t>(Value >> Shift));
  }

  void writeU64(uint64_t Value) {
    for (int Shift = 0; Shift < 64; Shift += 8)
      Buffer.push_back(static_cast<uint8_t>(Value >> Shift));
  }

  /// Unsigned LEB128: 7 bits per byte, high bit = continuation.
  void writeVarint(uint64_t Value) {
    while (Value >= 0x80) {
      Buffer.push_back(static_cast<uint8_t>(Value) | 0x80);
      Value >>= 7;
    }
    Buffer.push_back(static_cast<uint8_t>(Value));
  }

  void writeBytes(const void *Data, size_t Size) {
    // resize+copy rather than a range insert: GCC 12's -Wstringop-overflow
    // misanalyzes vector::insert's reallocation path at -O3.
    const auto *Bytes = static_cast<const uint8_t *>(Data);
    size_t Old = Buffer.size();
    Buffer.resize(Old + Size);
    std::copy(Bytes, Bytes + Size, Buffer.begin() + Old);
  }

  /// Varint length followed by the raw bytes.
  void writeString(std::string_view Str) {
    writeVarint(Str.size());
    writeBytes(Str.data(), Str.size());
  }

  const std::vector<uint8_t> &buffer() const { return Buffer; }
  size_t size() const { return Buffer.size(); }

private:
  std::vector<uint8_t> Buffer;
};

/// Bounds-checked reader over a byte range; every read returns Expected so
/// truncated and corrupted inputs surface as errors, never as UB. The
/// reader does not own its bytes — keep the backing buffer alive.
class ByteReader {
public:
  ByteReader(const void *Data, size_t Size)
      : Data(static_cast<const uint8_t *>(Data)), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  size_t position() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

  Expected<uint8_t> readU8() {
    if (remaining() < 1)
      return Error("unexpected end of input reading u8");
    return Data[Pos++];
  }

  Expected<uint32_t> readU32() {
    if (remaining() < 4)
      return Error("unexpected end of input reading u32");
    uint32_t Value = 0;
    for (int Shift = 0; Shift < 32; Shift += 8)
      Value |= static_cast<uint32_t>(Data[Pos++]) << Shift;
    return Value;
  }

  Expected<uint64_t> readU64() {
    if (remaining() < 8)
      return Error("unexpected end of input reading u64");
    uint64_t Value = 0;
    for (int Shift = 0; Shift < 64; Shift += 8)
      Value |= static_cast<uint64_t>(Data[Pos++]) << Shift;
    return Value;
  }

  Expected<uint64_t> readVarint() {
    uint64_t Value = 0;
    for (int Shift = 0; Shift < 64; Shift += 7) {
      if (remaining() < 1)
        return Error("unexpected end of input reading varint");
      uint8_t Byte = Data[Pos++];
      if (Shift == 63 && (Byte & 0xFE) != 0)
        return Error("varint overflows 64 bits");
      Value |= static_cast<uint64_t>(Byte & 0x7F) << Shift;
      if ((Byte & 0x80) == 0)
        return Value;
    }
    return Error("varint longer than 10 bytes");
  }

  Expected<std::string> readString() {
    Expected<std::string_view> View = readStringView();
    if (!View)
      return View.error();
    return std::string(*View);
  }

  /// Zero-copy string read: the view borrows from the reader's backing
  /// buffer and is valid only while that buffer lives.
  Expected<std::string_view> readStringView() {
    Expected<uint64_t> Length = readVarint();
    if (!Length)
      return Length.error();
    if (*Length > remaining())
      return Error("string length exceeds remaining input");
    std::string_view View(reinterpret_cast<const char *>(Data + Pos),
                          static_cast<size_t>(*Length));
    Pos += static_cast<size_t>(*Length);
    return View;
  }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
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

/// Packs four characters into a section tag ("GRAM" etc.).
constexpr uint32_t fourCC(char A, char B, char C, char D) {
  return static_cast<uint32_t>(static_cast<uint8_t>(A)) |
         static_cast<uint32_t>(static_cast<uint8_t>(B)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(C)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(D)) << 24;
}

} // namespace ipg

#endif // IPG_SUPPORT_BYTESTREAM_H
