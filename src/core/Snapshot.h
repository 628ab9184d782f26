//===- core/Snapshot.h - Snapshot file formats & load result ----*- C++ -*-===//
///
/// \file
/// The on-disk snapshot format (`ipg-snap-v2`) and the result record of a
/// warm start. A snapshot extends the paper's incremental story across
/// process lifetimes: the partially-expanded graph of item sets is
/// persisted, and a later process resumes from it instead of re-expanding
/// from a one-node graph.
///
/// Layout (FlatSection fixed-width little-endian pools, built for
/// zero-copy mmap adoption; all multi-byte fields at natural alignment):
///
/// \code
///   off  0  "ipg-snap-v2\0"      12-byte magic (version in the string)
///   off 12  u32 header bytes     (80; where the payload begins)
///   off 16  u64 grammar fingerprint (grammar/GrammarIO.h, by name)
///   off 24  u64 layout fingerprint  (order-sensitive: fast-path check)
///   off 32  u64 GRAM offset      u64 GRAM length
///   off 48  u64 GRPH offset      u64 GRPH length
///   off 64  u64 payload checksum (hashBytesFast over [header bytes, EOF))
///   off 72  u64 header checksum  (FNV-1a over bytes [0, 72))
///   off 80  GRAM section         (8-aligned; grammar/GrammarIO.h)
///   ...     GRPH section         (8-aligned; lr/GraphSnapshot.h)
/// \endcode
///
/// The load fast path (layout fingerprint matches the live grammar)
/// verifies the magic and the *header* checksum only, then adopts the
/// GRPH section straight out of the copy-on-write mapping — borrowed pool
/// spans, no per-record decode. A stale snapshot (layout mismatch) is
/// adopted by the same reader after the payload checksum is verified: its
/// symbol and rule ids are rewritten in the private mapping (never in the
/// file), and loading never discards it — the snapshot's rule set is
/// diffed against the live one and the delta is replayed through
/// ADD-RULE/DELETE-RULE, so the §6 MODIFY machinery repairs exactly the
/// states the difference touches. The retired `ipg-snap-v1` varint format
/// and the pre-flat-arena GRPH layout are rejected with an Error; since a
/// snapshot is only a cache, the cost is one cold generation. The format
/// is the in-memory pools, so the build requires a little-endian host
/// (lr/GraphSnapshot.h).
///
/// Trust model: snapshots are a cache format, not an untrusted-input
/// format. Every read is bounds-checked and ids/indices/dots are
/// validated, so a malformed file cannot make the *loader* misbehave —
/// and accidental corruption is caught up front by the checksums (for the
/// fast path: header corruption up front, payload corruption by the
/// structural validation sweep, which skips only content-preserving
/// in-range value flips and two sets colliding on one kernel; the stale
/// path builds the kernel index and rejects that collision). But a
/// deliberately crafted file with a recomputed checksum can still
/// describe a graph whose transitions
/// disagree with its reductions, which the parser would then follow off a
/// cliff; validating that would mean re-running CLOSURE per state, i.e.
/// regeneration. Grant snapshot files the same trust as the grammar they
/// were saved from.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_CORE_SNAPSHOT_H
#define IPG_CORE_SNAPSHOT_H

#include "support/FlatSection.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipg {

/// Magic prefix of every snapshot file; the trailing digit is the format
/// version, so an incompatible successor bumps the whole string.
inline constexpr const char SnapshotMagicV2[] = "ipg-snap-v2";

/// Fixed v2 header size: the byte offset where the payload begins. Also
/// written into the header itself (offset 12) so tooling need not hardcode
/// it.
inline constexpr uint32_t SnapshotV2HeaderBytes = 80;

/// Byte count covered by the v2 header checksum (everything before the
/// checksum field itself).
inline constexpr uint32_t SnapshotV2HeaderChecksumBytes = 72;

/// Tag of the suspended-parse section (incremental/ParseSnapshot.h).
inline constexpr uint32_t SnapshotParsTag = fourCC('P', 'A', 'R', 'S');

/// An opaque tagged section appended after GRPH in a snapshot file.
/// Extra sections ride behind the standard payload — readers that do not
/// know a tag never reach it (the header's section table does not mention
/// extras), while the payload checksum still covers every byte. Each is
/// framed 8-aligned as `u32 tag, u32 reserved(0), u64 length, bytes`.
struct SnapshotExtraSection {
  uint32_t Tag = 0;
  std::vector<uint8_t> Bytes;
};

/// What Ipg::loadSnapshot did.
struct SnapshotLoadResult {
  /// The snapshot's active rule set equals the live grammar's — no repair
  /// was needed. Established either by the layout fingerprint (fast path)
  /// or by the rule delta coming out empty (remap path); the stored
  /// content fingerprint below certifies the same property to tooling.
  bool FingerprintMatched = false;
  /// The content fingerprint stored in the snapshot header — what
  /// grammarFingerprint() returned for the grammar at save time. Fleet
  /// tooling keys shared snapshot caches on this without decoding bodies.
  uint64_t SnapshotFingerprint = 0;
  /// Item sets materialized from the snapshot.
  size_t StatesLoaded = 0;
  /// Live-grammar rules absent from the snapshot, replayed via ADD-RULE.
  size_t RulesAdded = 0;
  /// Snapshot rules absent from the live grammar, replayed via DELETE-RULE.
  size_t RulesRemoved = 0;
};

} // namespace ipg

#endif // IPG_CORE_SNAPSHOT_H
