//===- tests/support/ByteStreamTest.cpp - Binary encoding tests -----------===//
///
/// The ByteWriter/ByteReader contract under the suspended-parse snapshot
/// section: little-endian fixed-width values, LEB128 varints and
/// length-prefixed strings — and, just as important, that every truncated
/// or over-long input surfaces as an Expected error.
///
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

using namespace ipg;

TEST(ByteStream, FixedWidthValuesAreLittleEndian) {
  ByteWriter W;
  W.writeU8(0xAB);
  W.writeU32(0x01020304u);
  W.writeU64(0x1122334455667788ull);
  const std::vector<uint8_t> &B = W.buffer();
  ASSERT_EQ(B.size(), 13u);
  EXPECT_EQ(B[0], 0xAB);
  EXPECT_EQ(B[1], 0x04); // u32 low byte first.
  EXPECT_EQ(B[4], 0x01);
  EXPECT_EQ(B[5], 0x88); // u64 low byte first.
  EXPECT_EQ(B[12], 0x11);

  ByteReader R(W.buffer());
  EXPECT_EQ(*R.readU8(), 0xAB);
  EXPECT_EQ(*R.readU32(), 0x01020304u);
  EXPECT_EQ(*R.readU64(), 0x1122334455667788ull);
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteStream, VarintRoundTripsBoundaryValues) {
  const uint64_t Values[] = {0,
                             1,
                             127,
                             128,
                             129,
                             16383,
                             16384,
                             0xFFFFFFFFull,
                             0x100000000ull,
                             std::numeric_limits<uint64_t>::max()};
  ByteWriter W;
  for (uint64_t V : Values)
    W.writeVarint(V);
  ByteReader R(W.buffer());
  for (uint64_t V : Values) {
    Expected<uint64_t> Read = R.readVarint();
    ASSERT_TRUE(Read);
    EXPECT_EQ(*Read, V);
  }
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteStream, VarintEncodingIsMinimalLeb128) {
  ByteWriter W;
  W.writeVarint(127); // One byte.
  W.writeVarint(128); // Two bytes.
  ASSERT_EQ(W.size(), 3u);
  EXPECT_EQ(W.buffer()[0], 0x7F);
  EXPECT_EQ(W.buffer()[1], 0x80);
  EXPECT_EQ(W.buffer()[2], 0x01);
}

TEST(ByteStream, StringsRoundTripIncludingEmbeddedNul) {
  ByteWriter W;
  W.writeString("");
  W.writeString(std::string_view("a\0b", 3));
  W.writeString("CF-ELEM+");
  ByteReader R(W.buffer());
  EXPECT_EQ(*R.readString(), "");
  EXPECT_EQ(*R.readString(), std::string("a\0b", 3));
  Expected<std::string_view> View = R.readStringView();
  ASSERT_TRUE(View);
  EXPECT_EQ(*View, "CF-ELEM+");
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteStream, TruncatedReadsReturnErrorsNotGarbage) {
  ByteWriter W;
  W.writeU32(42);
  // Every strict prefix fails every larger read cleanly.
  for (size_t Cut = 0; Cut < 4; ++Cut) {
    ByteReader R(W.buffer().data(), Cut);
    EXPECT_FALSE(R.readU32());
  }
  ByteReader R8(W.buffer().data(), 4);
  EXPECT_FALSE(R8.readU64());

  // A varint whose continuation bit promises more bytes than exist.
  uint8_t Unterminated[] = {0x80, 0x80};
  ByteReader RV(Unterminated, sizeof(Unterminated));
  EXPECT_FALSE(RV.readVarint());

  // A string whose declared length exceeds the remaining input.
  ByteWriter WS;
  WS.writeVarint(100);
  WS.writeU8('x');
  ByteReader RS(WS.buffer());
  EXPECT_FALSE(RS.readString());
}

TEST(ByteStream, OverlongVarintIsRejected) {
  // 11 continuation bytes: more than a 64-bit value can need.
  std::vector<uint8_t> Overlong(11, 0x80);
  ByteReader R(Overlong.data(), Overlong.size());
  EXPECT_FALSE(R.readVarint());

  // 10 bytes whose top byte overflows the 64th bit.
  std::vector<uint8_t> Overflow(9, 0x80);
  Overflow.push_back(0x02);
  ByteReader R2(Overflow.data(), Overflow.size());
  EXPECT_FALSE(R2.readVarint());
}

TEST(ByteStream, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "bytestream_roundtrip.bin";
  ByteWriter W;
  W.writeVarint(12345);
  W.writeString("persisted");
  Expected<size_t> Written =
      writeBytesToFileAtomic(Path, W.buffer().data(), W.size());
  ASSERT_TRUE(Written);
  EXPECT_EQ(*Written, W.size());

  Expected<std::vector<uint8_t>> Bytes = readFileBytes(Path);
  ASSERT_TRUE(Bytes);
  EXPECT_EQ(*Bytes, W.buffer());
  std::remove(Path.c_str());

  EXPECT_FALSE(readFileBytes(Path)); // Gone now.
  // Directory, not a file.
  EXPECT_FALSE(
      writeBytesToFileAtomic(::testing::TempDir(), W.buffer().data(), W.size()));
}
