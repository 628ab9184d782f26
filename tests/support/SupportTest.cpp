//===- tests/support/SupportTest.cpp - Support library tests --------------===//

#include "support/Bitset.h"
#include "support/Expected.h"
#include "support/FlatSection.h"
#include "support/Hashing.h"
#include "support/MappedFile.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ipg;

TEST(Bitset, SetTestReset) {
  Bitset B(130);
  EXPECT_FALSE(B.test(0));
  EXPECT_TRUE(B.set(0));
  EXPECT_FALSE(B.set(0)) << "setting twice reports no change";
  EXPECT_TRUE(B.set(129));
  EXPECT_TRUE(B.test(129));
  B.reset(129);
  EXPECT_FALSE(B.test(129));
  EXPECT_EQ(B.count(), 1u);
}

TEST(Bitset, UnionDetectsChange) {
  Bitset A(70), B(70);
  A.set(3);
  B.set(3);
  EXPECT_FALSE(A.unionWith(B));
  B.set(69);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_TRUE(A.test(69));
}

TEST(Bitset, ForEachVisitsInOrder) {
  Bitset B(200);
  B.set(5);
  B.set(64);
  B.set(199);
  std::vector<size_t> Seen;
  B.forEach([&](size_t Bit) { Seen.push_back(Bit); });
  EXPECT_EQ(Seen, (std::vector<size_t>{5, 64, 199}));
}

TEST(Bitset, EqualityIncludesSize) {
  Bitset A(10), B(11);
  EXPECT_FALSE(A == B);
  Bitset C(10);
  EXPECT_TRUE(A == C);
  C.set(2);
  EXPECT_FALSE(A == C);
}

TEST(Expected, HoldsValue) {
  Expected<int> E(42);
  ASSERT_TRUE(E);
  EXPECT_EQ(*E, 42);
  EXPECT_EQ(E.take(), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> E(Error("boom", 3, 7));
  ASSERT_FALSE(E);
  EXPECT_EQ(E.error().Message, "boom");
  EXPECT_EQ(E.error().str(), "3:7: boom");
}

TEST(Expected, ErrorWithoutLocation) {
  Error E("plain");
  EXPECT_EQ(E.str(), "plain");
}

TEST(Hashing, StableAndDistinguishing) {
  EXPECT_EQ(hashString("abc"), hashString("abc"));
  EXPECT_NE(hashString("abc"), hashString("abd"));
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(StringUtils, SplitWords) {
  auto Words = splitWords("  a bb\t c\n");
  ASSERT_EQ(Words.size(), 3u);
  EXPECT_EQ(Words[0], "a");
  EXPECT_EQ(Words[1], "bb");
  EXPECT_EQ(Words[2], "c");
}

TEST(StringUtils, SplitOnAnyDropsEmpty) {
  auto Parts = splitOnAny("a,,b;c", ",;");
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[2], "c");
}

TEST(StringUtils, TrimAndPad) {
  EXPECT_EQ(trim("  x "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(padLeft("x", 3), "  x");
  EXPECT_EQ(padRight("x", 3), "x  ");
  EXPECT_EQ(padLeft("xyz", 2), "xyz");
}

TEST(StringUtils, JoinAndFormat) {
  EXPECT_EQ(join({"a", "b"}, "/"), "a/b");
  EXPECT_EQ(join({}, "/"), "");
  EXPECT_EQ(formatSeconds(0.12345, 3), "0.123");
}

TEST(Timer, MedianSecondsRuns) {
  int Calls = 0;
  double Median = medianSeconds(5, [&] { ++Calls; });
  EXPECT_EQ(Calls, 5);
  EXPECT_GE(Median, 0.0);
}

TEST(FlatSection, FixedWidthValuesAreLittleEndian) {
  FlatWriter W;
  W.writeU8(0xAB);
  W.alignTo(4);
  W.writeU32(0x01020304u);
  W.writeU64(0x1122334455667788ull);
  const std::vector<uint8_t> &B = W.buffer();
  ASSERT_EQ(B.size(), 16u);
  EXPECT_EQ(B[0], 0xAB);
  EXPECT_EQ(B[1], 0x00); // Alignment padding is zero.
  EXPECT_EQ(B[4], 0x04); // u32 low byte first.
  EXPECT_EQ(B[7], 0x01);
  EXPECT_EQ(B[8], 0x88); // u64 low byte first.
  EXPECT_EQ(B[15], 0x11);

  FlatView V(B.data(), B.size());
  EXPECT_EQ(*V.u32At(4), 0x01020304u);
  EXPECT_EQ(*V.u64At(8), 0x1122334455667788ull);
  EXPECT_FALSE(V.u32At(13)); // Past the end: an error, not garbage.
  EXPECT_FALSE(V.u64At(9));
  EXPECT_EQ(fourCC('P', 'A', 'R', 'S'), 0x53524150u);
}

TEST(MappedFile, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "flatsection_roundtrip.bin";
  FlatWriter W;
  W.writeU32(12345);
  W.writeU64(67890);
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
