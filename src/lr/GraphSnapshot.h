//===- lr/GraphSnapshot.h - Item-set graph persistence ----------*- C++ -*-===//
///
/// \file
/// Binary persistence of the ItemSetGraph — the piece that lets the §5/§6
/// incremental machinery outlive a process. The `ipg-snap-v2` GRPH section
/// is the FlatSection struct-of-arrays layout, and the live graph's pools
/// ARE this layout (GrphHeader.Reserved == FlatArenaLayout): saveV2 writes
/// the header and then memcpys the pools — set records, kernel items,
/// transition targets, labels, reductions, accept rules — verbatim,
/// tombstoned Dead records and abandoned spans included, so no dense-index
/// remap happens and serializing the same graph twice yields identical
/// bytes (save-after-load == original). adoptV2 is the zero-copy inverse:
/// after a read-only validation sweep it memcpys the 52-byte set records
/// into the graph's set pool and points the five data pools' base segments
/// at the mapped arrays — no pointer fixup, no per-record decode, no write
/// to the mapping at all. loadV2 is the decode fallback for stale
/// snapshots whose symbol/rule ids must be remapped onto the live grammar.
/// Both readers reject any other layout value.
///
/// The id maps are supplied by the caller (core/Snapshot.cpp), which
/// guarantees every snapshot rule is interned in the live grammar before
/// loadV2() runs — including retired rules that dirty kernels still
/// mention.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_LR_GRAPHSNAPSHOT_H
#define IPG_LR_GRAPHSNAPSHOT_H

#include "lr/ItemSetGraph.h"
#include "support/Expected.h"
#include "support/FlatSection.h"

#include <memory>

namespace ipg {

class MappedFile;

/// Namespaced entry points for graph persistence; a class (not free
/// functions) so ItemSetGraph/ItemSet can befriend it wholesale.
class GraphSnapshot {
public:
  /// The only GRPH layout value (GrphHeader.Reserved, the u32 at byte 28
  /// of the section) that saveV2 writes and the readers accept.
  static constexpr uint32_t FlatArenaLayout = 1;

  /// Serializes \p Graph as an `ipg-snap-v2` GRPH section body (flat-arena
  /// layout) into \p Section (which must be empty; offsets are relative to
  /// its start, the caller places it 8-aligned in the file). The section
  /// body is the graph's pool bytes verbatim.
  static void saveV2(const ItemSetGraph &Graph, FlatWriter &Section);

  /// Zero-copy adoption of a flat-arena v2 GRPH section whose symbol/rule
  /// ids equal the live grammar's (layout-fingerprint match): validates
  /// the section read-only (shape, spans, kernel canonicity, label order,
  /// target liveness, a full reference-count cross-check against the
  /// incoming edges), then memcpys the set records into the graph's set
  /// pool and adopts the five data arrays as the pools' base segments.
  /// \p SectionData must live inside \p Backing, which is retained by the
  /// graph until reset/reload. The mapping is never written. Unlike
  /// loadV2(), does NOT check cross-set kernel uniqueness: that
  /// needs a hash set — exactly the per-set allocation this path exists
  /// to avoid — so an in-range corruption colliding two kernels is
  /// adopted rather than rejected (core/Snapshot.h trust model; the
  /// decode path still rejects it). Validation precedes installation, so
  /// on error the graph is untouched.
  static Expected<size_t> adoptV2(uint8_t *SectionData, size_t SectionBytes,
                                  ItemSetGraph &Graph,
                                  std::shared_ptr<const MappedFile> Backing);

  /// Decode fallback for v2 sections that need id remapping (stale
  /// snapshots) or a host that cannot adopt: reads the records field by
  /// field (endian-safe on any host) into the graph's pools,
  /// compacting abandoned span bytes but preserving Dead tombstones (the
  /// record index space is the transition target space). On error the
  /// graph is left partially built — call reset().
  static Expected<size_t> loadV2(FlatView Section, ItemSetGraph &Graph,
                                 const std::vector<SymbolId> &SymbolMap,
                                 const std::vector<RuleId> &RuleMap);

  /// True when this host can run adoptV2 (little-endian with the
  /// in-memory record layouts matching the on-disk ones); otherwise
  /// fingerprint-matched v2 loads must fall back to loadV2 with identity
  /// id maps.
  static bool hostCanAdoptV2();

  /// Returns \p Graph to its freshly-constructed state: a one-node graph
  /// holding only the start kernel of the current grammar.
  static void reset(ItemSetGraph &Graph);

private:
  /// Empties every pool and index of \p Graph (no start set is created).
  static void clearStorage(ItemSetGraph &Graph);
};

} // namespace ipg

#endif // IPG_LR_GRAPHSNAPSHOT_H
