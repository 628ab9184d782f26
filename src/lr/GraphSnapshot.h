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
/// bytes (save-after-load == original). adoptV2 is the zero-copy inverse
/// and the only reader: after a validation sweep it memcpys the 52-byte
/// set records into the graph's set pool and points the five data pools'
/// base segments at the mapped arrays — no pointer fixup, no per-record
/// decode. Any other layout value is rejected. Because the file is the
/// in-memory pools, the build requires a little-endian host with the
/// 52-byte record layout (static_asserts in GraphSnapshot.cpp).
///
/// A stale snapshot (its grammar's ids differ from the live grammar's)
/// is adopted the same way, with id maps: the ids are rewritten in the
/// private mapping before validation. The caller (core/Snapshot.cpp)
/// builds the maps and guarantees every snapshot rule is interned in the
/// live grammar first — including retired rules that dirty kernels still
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
  /// of the section) that saveV2 writes and adoptV2 accepts.
  static constexpr uint32_t FlatArenaLayout = 1;

  /// Serializes \p Graph as an `ipg-snap-v2` GRPH section body (flat-arena
  /// layout) into \p Section (which must be empty; offsets are relative to
  /// its start, the caller places it 8-aligned in the file). The section
  /// body is the graph's pool bytes verbatim.
  static void saveV2(const ItemSetGraph &Graph, FlatWriter &Section);

  /// Zero-copy adoption of a flat-arena v2 GRPH section: validates the
  /// section (shape, spans, kernel canonicity, label order, target
  /// liveness, a full reference-count cross-check against the incoming
  /// edges), then memcpys the set records into the graph's set pool and
  /// adopts the five data arrays as the pools' base segments.
  /// \p SectionData must be 8-aligned and live inside \p Backing, which
  /// is retained by the graph until reset/reload.
  ///
  /// Without id maps (layout-fingerprint match, server forks) the mapping
  /// is only read, and cross-set kernel uniqueness is NOT checked: that
  /// needs a hash index — exactly the per-set allocation this path exists
  /// to avoid — so an in-range corruption colliding two kernels is adopted
  /// rather than rejected (core/Snapshot.h trust model). With \p SymbolMap
  /// and \p RuleMap (snapshot id -> live id, stale snapshots), every
  /// symbol and rule id is rewritten in place in the private mapping (the
  /// file is never touched; an id outside its map is an error), kernels
  /// and live edge spans are re-sorted unless both maps are the identity,
  /// and after installation the kernel index is built, rejecting a
  /// duplicate kernel. On error the graph is untouched, except that a
  /// duplicate kernel leaves it reset().
  static Expected<size_t>
  adoptV2(uint8_t *SectionData, size_t SectionBytes, ItemSetGraph &Graph,
          std::shared_ptr<const MappedFile> Backing,
          const std::vector<SymbolId> *SymbolMap = nullptr,
          const std::vector<RuleId> *RuleMap = nullptr);

  /// Returns \p Graph to its freshly-constructed state: a one-node graph
  /// holding only the start kernel of the current grammar.
  static void reset(ItemSetGraph &Graph);

private:
  /// Empties every pool and index of \p Graph (no start set is created).
  static void clearStorage(ItemSetGraph &Graph);
};

} // namespace ipg

#endif // IPG_LR_GRAPHSNAPSHOT_H
