//===- tests/common/SnapshotReseal.h - Re-checksum a snapshot ---*- C++ -*-===//
///
/// \file
/// Recomputes both checksums of an `ipg-snap-v2` image after a test
/// mutated it, so the mutation reaches the validation stage it targets
/// (a section reader or the PARS decoder) instead of being masked by a
/// checksum mismatch.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_TESTS_COMMON_SNAPSHOTRESEAL_H
#define IPG_TESTS_COMMON_SNAPSHOTRESEAL_H

#include "core/Snapshot.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace ipg::testing {

/// Rewrites the payload checksum (header offset 64) and the header
/// checksum (offset 72) of the snapshot image \p File.
inline void resealV2(std::vector<uint8_t> &File) {
  ASSERT_GE(File.size(), SnapshotV2HeaderBytes);
  auto PatchU64 = [&](size_t Off, uint64_t Value) {
    for (int I = 0; I < 8; ++I)
      File[Off + static_cast<size_t>(I)] =
          static_cast<uint8_t>(Value >> (8 * I));
  };
  PatchU64(64, hashBytesFast(File.data() + SnapshotV2HeaderBytes,
                             File.size() - SnapshotV2HeaderBytes));
  PatchU64(72, hashBytes(File.data(), SnapshotV2HeaderChecksumBytes));
}

} // namespace ipg::testing

#endif // IPG_TESTS_COMMON_SNAPSHOTRESEAL_H
