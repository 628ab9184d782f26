//===- lr/GraphSnapshot.cpp - Item-set graph persistence ------------------===//

#include "lr/GraphSnapshot.h"

#include "support/MappedFile.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>

using namespace ipg;

namespace {

/// On-disk lifecycle codes == the ItemSetState values (lr/ItemSet.h pins
/// them). Dead appears as a tombstone.
enum : uint8_t {
  StateInitial = 0,
  StateComplete = 1,
  StateDirty = 2,
  StateDead = 3
};

//===----------------------------------------------------------------------===//
// ipg-snap-v2 GRPH section layout (struct-of-arrays, little-endian,
// 8-aligned pools; all offsets relative to the 8-aligned section start,
// all Off/Len pairs are element indices into the named pools).
//
// Flat-arena layout (Reserved == GraphSnapshot::FlatArenaLayout) — the
// live graph's pools verbatim:
//
//   GrphHeader (136 bytes)
//   ItemSet[NumSets]               52-byte records == the in-memory type
//   Item[NumKernelItems]           {u32 Rule, u32 Dot}
//   u32[NumTransitions]            transition target indices
//   SymbolId[NumTransitions]       labels, strictly parallel to targets
//   RuleId[NumReductions]
//   RuleId[NumAcceptRules]
//
// NumSets counts every record, Dead tombstones included (the record index
// space is the transition target space); the pools may contain abandoned
// ("garbage") spans no live record references — save does not compact, so
// save is a memcpy and save-after-load is byte-identical. Old spans of
// Dirty sets live in the same target/label pools as live spans, so
// NumOldTransitions and OffOldTransitions are 0. Any other Reserved value
// (the pre-flat-arena layout wrote 0) is rejected.
//===----------------------------------------------------------------------===//

struct GrphHeader {
  uint32_t NumSets;
  uint32_t StartIdx;
  uint32_t NumKernelItems;
  uint32_t NumTransitions;
  uint32_t NumOldTransitions;
  uint32_t NumReductions;
  uint32_t NumAcceptRules;
  uint32_t Reserved;
  uint64_t Stats[6];
  uint64_t OffSetRecs;
  uint64_t OffKernelItems;
  uint64_t OffTransitions;
  uint64_t OffOldTransitions;
  uint64_t OffActionLabels;
  uint64_t OffReductions;
  uint64_t OffAcceptRules;
};
static_assert(sizeof(GrphHeader) == 136, "v2 GRPH header layout drifted");

/// The zero-copy path reinterprets mapped arrays as the in-memory pool
/// element types; it runs only where the layouts provably coincide.
/// Elsewhere (or for remapping loads) the endian-safe field-by-field
/// decoder runs. No pointer is ever serialized, so word size no longer
/// matters — only endianness and the field widths.
constexpr bool HostCanAdoptV2 =
    std::endian::native == std::endian::little && sizeof(ItemSet) == 52 &&
    alignof(ItemSet) <= 8 && sizeof(Item) == 8 && alignof(Item) <= 8 &&
    sizeof(SymbolId) == 4 && sizeof(RuleId) == 4;

/// Reads the fixed v2 GRPH header out of \p Section (endian-safe).
Expected<GrphHeader> readGrphHeader(const FlatView &Section) {
  GrphHeader H;
  uint32_t *U32Fields[] = {&H.NumSets,         &H.StartIdx,
                           &H.NumKernelItems,  &H.NumTransitions,
                           &H.NumOldTransitions, &H.NumReductions,
                           &H.NumAcceptRules,  &H.Reserved};
  size_t Off = 0;
  for (uint32_t *Field : U32Fields) {
    Expected<uint32_t> V = Section.u32At(Off);
    if (!V)
      return V.error();
    *Field = *V;
    Off += 4;
  }
  uint64_t *U64Fields[] = {&H.Stats[0],        &H.Stats[1],
                           &H.Stats[2],        &H.Stats[3],
                           &H.Stats[4],        &H.Stats[5],
                           &H.OffSetRecs,      &H.OffKernelItems,
                           &H.OffTransitions,  &H.OffOldTransitions,
                           &H.OffActionLabels, &H.OffReductions,
                           &H.OffAcceptRules};
  for (uint64_t *Field : U64Fields) {
    Expected<uint64_t> V = Section.u64At(Off);
    if (!V)
      return V.error();
    *Field = *V;
    Off += 8;
  }
  return H;
}

/// Header-level checks shared by adoptV2 and loadV2.
const char *checkGrphHeaderShape(const GrphHeader &H) {
  if (H.Reserved != GraphSnapshot::FlatArenaLayout)
    return "graph section is not in the flat-arena layout";
  if (H.NumSets == 0)
    return "snapshot graph has no start set";
  if (H.StartIdx >= H.NumSets)
    return "start set index out of range";
  if (H.NumOldTransitions != 0 || H.OffOldTransitions != 0)
    return "flat-arena layout carries old spans in the transition pool";
  return nullptr;
}

/// Endian-safe unaligned loads for the v2 decode fallback. The compiler
/// folds them to single loads on little-endian hosts; bounds are
/// established once per pool before the loops run, so the hot decode path
/// skips FlatView's per-field checks.
inline uint32_t loadLe32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

/// Flat-arena per-set record — the ItemSet field layout
/// spelled out as plain integers, so validation and decode can inspect a
/// record without ItemSet friend access. HostCanAdoptV2 plus these
/// static_asserts pin the two layouts together.
struct FlatRec {
  uint32_t Id;
  uint8_t State;
  uint8_t Accepting;
  uint16_t Pad;
  uint32_t RefCount;
  uint32_t KernelOff, KernelLen;
  uint32_t TransOff, TransLen;
  uint32_t OldOff, OldLen;
  uint32_t RedOff, RedLen;
  uint32_t AccOff, AccLen;
};
static_assert(sizeof(FlatRec) == 52 && sizeof(FlatRec) == sizeof(ItemSet),
              "flat v2 set record layout drifted");

/// Structural checks on a flat-arena set record against the header totals.
/// Old spans index the same target/label pools as live spans.
const char *checkFlatRecShape(const FlatRec &R, uint32_t Index,
                              const GrphHeader &H) {
  if (R.State > StateDead)
    return "invalid item-set state code";
  if (R.Id != Index)
    return "set record id does not match its index";
  if (R.Pad != 0)
    return "nonzero padding in set record";
  if (R.State == StateDead) {
    // Tombstone: everything zero. Keeping the shape canonical is what
    // makes re-serialization deterministic.
    if (R.Accepting != 0 || R.RefCount != 0 || R.KernelOff != 0 ||
        R.KernelLen != 0 || R.TransOff != 0 || R.TransLen != 0 ||
        R.OldOff != 0 || R.OldLen != 0 || R.RedOff != 0 || R.RedLen != 0 ||
        R.AccOff != 0 || R.AccLen != 0)
      return "dead set record is not a tombstone";
    return nullptr;
  }
  bool Complete = R.State == StateComplete;
  if (R.Accepting > 1 || (R.Accepting == 1 && !Complete))
    return "invalid accepting flag";
  auto SpanOk = [](uint32_t Off, uint32_t Len, uint32_t Total) {
    return static_cast<uint64_t>(Off) + Len <= Total;
  };
  if (!SpanOk(R.KernelOff, R.KernelLen, H.NumKernelItems) ||
      !SpanOk(R.TransOff, R.TransLen, H.NumTransitions) ||
      !SpanOk(R.OldOff, R.OldLen, H.NumTransitions) ||
      !SpanOk(R.RedOff, R.RedLen, H.NumReductions) ||
      !SpanOk(R.AccOff, R.AccLen, H.NumAcceptRules))
    return "set record span out of range";
  if (!Complete && (R.TransLen != 0 || R.RedLen != 0 || R.AccLen != 0))
    return "records on a set whose state forbids them";
  if (R.State != StateDirty && R.OldLen != 0)
    return "old transitions on a non-dirty set";
  if (R.AccLen != 0 && R.Accepting != 1)
    return "accept rules on a non-accepting set";
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// v2 (FlatSection struct-of-arrays encoding)
//===----------------------------------------------------------------------===//

namespace {

/// Emits a pool's bytes: on little-endian hosts two raw memcpys (base
/// segment, then grow segment — that concatenation IS the offset space);
/// elsewhere the per-element writer runs so the file stays little-endian.
template <typename T, typename WriteElem>
void emitPool(FlatWriter &Section, const PoolArena<T> &Pool,
              WriteElem &&Write) {
  if constexpr (std::endian::native == std::endian::little) {
    if (Pool.baseSize() != 0)
      Section.writeBytes(reinterpret_cast<const uint8_t *>(Pool.baseData()),
                         Pool.baseSize() * sizeof(T));
    if (Pool.growSize() != 0)
      Section.writeBytes(reinterpret_cast<const uint8_t *>(Pool.growData()),
                         Pool.growSize() * sizeof(T));
  } else {
    for (size_t I = 0, N = Pool.size(); I < N; ++I)
      Write(*Pool.at(static_cast<uint32_t>(I)));
  }
}

} // namespace

void GraphSnapshot::saveV2(const ItemSetGraph &Graph, FlatWriter &Section) {
  // The section may be appended directly into a larger file writer; all
  // recorded offsets are relative to this base, which must be 8-aligned
  // so the in-section alignTo calls keep their meaning.
  const size_t Base = Section.size();
  assert(Base % 8 == 0 && "v2 GRPH section must start 8-aligned");
  // Exact body size plus per-pool alignment slop: one reservation, no
  // reallocation while the pools memcpy through.
  Section.reserveCapacity(Base + 136 + sizeof(ItemSet) * Graph.numSets() +
                          sizeof(Item) * Graph.Kernels.size() +
                          4 * (Graph.Trans.size() + Graph.Labels.size() +
                               Graph.Reds.size() + Graph.Accs.size()) +
                          6 * 8);

  // The header counts are pool *lengths* — tombstones and abandoned spans
  // included. No dense remap, no compaction: the body below is the live
  // pools verbatim, which is what makes save ~memcpy and save-after-load
  // byte-identical.
  Section.writeU32(static_cast<uint32_t>(Graph.numSets()));
  Section.writeU32(Graph.Start->Id);
  Section.writeU32(static_cast<uint32_t>(Graph.Kernels.size()));
  Section.writeU32(static_cast<uint32_t>(Graph.Trans.size()));
  Section.writeU32(0); // Old spans share the transition pool.
  Section.writeU32(static_cast<uint32_t>(Graph.Reds.size()));
  Section.writeU32(static_cast<uint32_t>(Graph.Accs.size()));
  Section.writeU32(FlatArenaLayout);
  const ItemSetGraphStats Snap = Graph.stats();
  const uint64_t Stats[6] = {Snap.Expansions, Snap.ReExpansions,
                             Snap.ClosureItems, Snap.DirtyMarks,
                             Snap.Collected, Snap.GotoCalls};
  for (uint64_t Stat : Stats)
    Section.writeU64(Stat);
  size_t OffTable = Section.reserve(7 * 8);

  uint64_t Offsets[7] = {0};
  Offsets[0] = Section.size() - Base;
  emitPool(Section, Graph.Sets, [&](const ItemSet &R) {
    Section.writeU32(R.Id);
    Section.writeU8(static_cast<uint8_t>(R.State));
    Section.writeU8(R.Accepting);
    Section.writeU16(0);
    Section.writeU32(R.RefCount);
    const uint32_t Spans[10] = {R.KernelOff, R.KernelLen, R.TransOff,
                                R.TransLen,  R.OldOff,    R.OldLen,
                                R.RedOff,    R.RedLen,    R.AccOff,
                                R.AccLen};
    for (uint32_t Span : Spans)
      Section.writeU32(Span);
  });
  Section.alignTo(8);

  Offsets[1] = Section.size() - Base;
  emitPool(Section, Graph.Kernels, [&](const Item &I) {
    Section.writeU32(I.Rule);
    Section.writeU32(I.Dot);
  });

  Offsets[2] = Section.size() - Base;
  emitPool(Section, Graph.Trans,
           [&](uint32_t Target) { Section.writeU32(Target); });
  Section.alignTo(8);
  Offsets[3] = 0; // No separate old-transition pool in this layout.

  Offsets[4] = Section.size() - Base;
  emitPool(Section, Graph.Labels,
           [&](SymbolId Label) { Section.writeU32(Label); });
  Section.alignTo(8);

  Offsets[5] = Section.size() - Base;
  emitPool(Section, Graph.Reds, [&](RuleId Rule) { Section.writeU32(Rule); });
  Section.alignTo(8);

  Offsets[6] = Section.size() - Base;
  emitPool(Section, Graph.Accs, [&](RuleId Rule) { Section.writeU32(Rule); });
  Section.alignTo(8);

  for (int I = 0; I < 7; ++I)
    Section.patchU64(OffTable + 8 * static_cast<size_t>(I), Offsets[I]);
}

Expected<size_t>
GraphSnapshot::adoptV2(uint8_t *SectionData, size_t SectionBytes,
                       ItemSetGraph &Graph,
                       std::shared_ptr<const MappedFile> Backing) {
  if constexpr (!HostCanAdoptV2)
    return Error("zero-copy snapshot adoption requires a little-endian host "
                 "with the on-disk record layout");

  const Grammar &G = Graph.G;
  FlatView Section(SectionData, SectionBytes);
  Expected<GrphHeader> Header = readGrphHeader(Section);
  if (!Header)
    return Header.error();
  const GrphHeader &H = *Header;
  if (const char *Msg = checkGrphHeaderShape(H))
    return Error(Msg);

  // Every pool is written 8-aligned; reject a nudged offset table before
  // any pointer arithmetic (the pools are only 4-strided, so alignment is
  // not implied by the bounds checks).
  const uint64_t PoolOffs[6] = {H.OffSetRecs,      H.OffKernelItems,
                                H.OffTransitions,  H.OffActionLabels,
                                H.OffReductions,   H.OffAcceptRules};
  for (uint64_t Off : PoolOffs)
    if (Off % 8 != 0)
      return Error("flat section: misaligned pool");
  // Counts are u32 and strides <= 52, so the products cannot overflow u64.
  auto PoolFits = [&](uint64_t Off, uint64_t Stride, uint64_t Count) {
    return Off <= SectionBytes && Stride * Count <= SectionBytes - Off;
  };
  if (!PoolFits(H.OffSetRecs, sizeof(ItemSet), H.NumSets) ||
      !PoolFits(H.OffKernelItems, sizeof(Item), H.NumKernelItems) ||
      !PoolFits(H.OffTransitions, 4, H.NumTransitions) ||
      !PoolFits(H.OffActionLabels, 4, H.NumTransitions) ||
      !PoolFits(H.OffReductions, 4, H.NumReductions) ||
      !PoolFits(H.OffAcceptRules, 4, H.NumAcceptRules))
    return Error("flat section: array out of bounds");

  const uint8_t *RecBytes = SectionData + H.OffSetRecs;
  const Item *KernelPool =
      reinterpret_cast<const Item *>(SectionData + H.OffKernelItems);
  const uint32_t *TransPool =
      reinterpret_cast<const uint32_t *>(SectionData + H.OffTransitions);
  const SymbolId *LabelPool =
      reinterpret_cast<const SymbolId *>(SectionData + H.OffActionLabels);
  const RuleId *RedPool =
      reinterpret_cast<const RuleId *>(SectionData + H.OffReductions);
  const RuleId *AccPool =
      reinterpret_cast<const RuleId *>(SectionData + H.OffAcceptRules);

  const size_t NumSymbols = G.symbols().size();
  const size_t NumRules = G.numInternedRules();

  // Read-only validation sweep — the graph is not touched until every
  // check has passed, so an error leaves it exactly as it was. The three
  // scratch vectors are the only allocations of the whole adoption.
  std::vector<uint8_t> StateOf(H.NumSets);
  std::vector<uint32_t> HaveRef(H.NumSets);
  std::vector<uint32_t> WantRef(H.NumSets, 0);
  for (uint32_t I = 0; I < H.NumSets; ++I) {
    FlatRec R;
    std::memcpy(&R, RecBytes + size_t{sizeof(FlatRec)} * I, sizeof(FlatRec));
    if (const char *Msg = checkFlatRecShape(R, I, H))
      return Error(Msg);
    StateOf[I] = R.State;
    HaveRef[I] = R.RefCount;
    if (R.State == StateDead)
      continue;

    const Item *KernelBegin = KernelPool + R.KernelOff;
    for (uint32_t J = 0; J < R.KernelLen; ++J) {
      const Item &It = KernelBegin[J];
      if (It.Rule >= NumRules)
        return Error("kernel item references an unknown rule");
      if (It.Dot > G.rule(It.Rule).Rhs.size())
        return Error("kernel item dot beyond its rule");
    }
    if (!isCanonicalKernel(KernelView(KernelBegin, R.KernelLen)))
      return Error("kernel not in canonical order");

    // Live spans carry the binary-search contract (labels strictly
    // ascending); old spans were live spans once, but only their target
    // references matter now, so just range-check them.
    for (uint32_t J = 0; J < R.TransLen; ++J) {
      SymbolId Label = LabelPool[R.TransOff + J];
      if (Label >= NumSymbols)
        return Error("transition label references an unknown symbol");
      if (J > 0 && Label <= LabelPool[R.TransOff + J - 1])
        return Error("transition labels not strictly ascending");
      if (TransPool[R.TransOff + J] >= H.NumSets)
        return Error("transition target out of range");
      ++WantRef[TransPool[R.TransOff + J]];
    }
    for (uint32_t J = 0; J < R.OldLen; ++J) {
      if (LabelPool[R.OldOff + J] >= NumSymbols)
        return Error("transition label references an unknown symbol");
      if (TransPool[R.OldOff + J] >= H.NumSets)
        return Error("transition target out of range");
      ++WantRef[TransPool[R.OldOff + J]];
    }
    for (uint32_t J = 0; J < R.RedLen; ++J)
      if (RedPool[R.RedOff + J] >= NumRules)
        return Error("reduction references an unknown rule");
    for (uint32_t J = 0; J < R.AccLen; ++J)
      if (AccPool[R.AccOff + J] >= NumRules)
        return Error("accept rule references an unknown rule");
  }
  if (StateOf[H.StartIdx] == StateDead)
    return Error("start set is dead");
  ++WantRef[H.StartIdx]; // The root pin.
  // Reference counts are persisted in this layout; cross-check them
  // against the incoming edges instead of trusting or rebuilding them.
  for (uint32_t I = 0; I < H.NumSets; ++I) {
    if (StateOf[I] == StateDead) {
      if (WantRef[I] != 0)
        return Error("transition to a dead set");
      continue;
    }
    if (WantRef[I] == 0)
      return Error("orphaned set in snapshot");
    if (HaveRef[I] != WantRef[I])
      return Error("reference count disagrees with incoming transitions");
  }

  // Validation passed: install. The record block is memcpyd into the set
  // pool (so the id->record map stays one add off a single segment); the
  // five data pools adopt the mapped arrays zero-copy as base segments.
  clearStorage(Graph);
  Graph.Sets.append(reinterpret_cast<const ItemSet *>(RecBytes), H.NumSets);
  Graph.Kernels.adoptBase(KernelPool, H.NumKernelItems);
  Graph.Trans.adoptBase(TransPool, H.NumTransitions);
  Graph.Labels.adoptBase(LabelPool, H.NumTransitions);
  Graph.Reds.adoptBase(RedPool, H.NumReductions);
  Graph.Accs.adoptBase(AccPool, H.NumAcceptRules);
  Graph.AdoptedSets = H.NumSets;
  // The kernel index is deferred: pure queries against a fully complete
  // adopted graph never need it.
  Graph.KernelIndexReady.store(false, std::memory_order_release);
  Graph.Start = &Graph.setAt(H.StartIdx);

  ItemSetGraphStats Loaded;
  Loaded.Expansions = H.Stats[0];
  Loaded.ReExpansions = H.Stats[1];
  Loaded.ClosureItems = H.Stats[2];
  Loaded.DirtyMarks = H.Stats[3];
  Loaded.Collected = H.Stats[4];
  Loaded.GotoCalls = H.Stats[5];
  Graph.storeStats(Loaded);
  Graph.BorrowedStorage = std::move(Backing);
  return H.NumSets;
}

Expected<size_t> GraphSnapshot::loadV2(FlatView Section, ItemSetGraph &Graph,
                                       const std::vector<SymbolId> &SymbolMap,
                                       const std::vector<RuleId> &RuleMap) {
  const Grammar &G = Graph.G;
  Expected<GrphHeader> Header = readGrphHeader(Section);
  if (!Header)
    return Header.error();
  const GrphHeader &H = *Header;
  if (const char *Msg = checkGrphHeaderShape(H))
    return Error(Msg);
  // The flat record arrays must fit the section before any per-set work
  // (overflow-safe: offset checked before the product is subtracted).
  // This is what lets the decode loops below read through raw pointers,
  // and it also bounds every allocation.
  auto PoolFits = [&](uint64_t Off, uint64_t Stride, uint64_t Count) {
    return Off <= Section.size() && Stride * Count <= Section.size() - Off;
  };
  if (!PoolFits(H.OffSetRecs, sizeof(FlatRec), H.NumSets) ||
      !PoolFits(H.OffKernelItems, 8, H.NumKernelItems) ||
      !PoolFits(H.OffTransitions, 4, H.NumTransitions) ||
      !PoolFits(H.OffActionLabels, 4, H.NumTransitions) ||
      !PoolFits(H.OffReductions, 4, H.NumReductions) ||
      !PoolFits(H.OffAcceptRules, 4, H.NumAcceptRules))
    return Error("flat section: array out of bounds");

  clearStorage(Graph);
  Graph.ByKernel.reserve(H.NumSets);
  Graph.Sets.appendZeroed(H.NumSets);
  for (uint32_t I = 0; I < H.NumSets; ++I)
    Graph.setAt(I).Id = I;

  // Field-by-field reads (endian-safe on every host): the decode cost the
  // zero-copy path avoids, paid here only for stale snapshots that need
  // their ids remapped anyway. The loops read through raw LE loads; the
  // up-front pool bounds above cover every access. Abandoned span bytes
  // are compacted away (only referenced spans are copied), but Dead
  // tombstones are preserved: the record index space is the transition
  // target space.
  const uint8_t *Base = Section.data();
  std::vector<std::pair<SymbolId, uint32_t>> Edges;
  std::vector<SymbolId> TmpLabels;
  std::vector<uint32_t> TmpTargets;
  std::vector<RuleId> TmpRules;
  Kernel K;

  /// Live and old spans both index the parallel 4-byte target/label pools.
  auto ReadEdgeSpan = [&](uint32_t Off, uint32_t Len, uint32_t &OutOff,
                          uint32_t &OutLen) -> const char * {
    Edges.clear();
    for (uint32_t J = 0; J < Len; ++J) {
      uint32_t Label =
          loadLe32(Base + H.OffActionLabels + uint64_t{4} * (Off + J));
      uint32_t Target =
          loadLe32(Base + H.OffTransitions + uint64_t{4} * (Off + J));
      if (Label >= SymbolMap.size())
        return "transition label references an unknown symbol";
      if (Target >= H.NumSets)
        return "transition target out of range";
      Edges.emplace_back(SymbolMap[Label], Target);
    }
    std::sort(Edges.begin(), Edges.end());
    TmpLabels.clear();
    TmpTargets.clear();
    for (const auto &[Label, Target] : Edges) {
      TmpLabels.push_back(Label);
      TmpTargets.push_back(Target);
    }
    OutOff = Graph.Trans.append(TmpTargets.data(), TmpTargets.size());
    uint32_t LOff = Graph.Labels.append(TmpLabels.data(), TmpLabels.size());
    assert(OutOff == LOff && "Trans/Labels pools out of lockstep");
    (void)LOff;
    OutLen = static_cast<uint32_t>(Edges.size());
    return nullptr;
  };
  auto ReadRuleSpan = [&](PoolArena<RuleId> &Pool, uint64_t PoolOff,
                          uint32_t Off, uint32_t Len, uint32_t &OutOff,
                          uint32_t &OutLen) -> const char * {
    TmpRules.clear();
    const uint8_t *Rec = Base + PoolOff + uint64_t{4} * Off;
    for (uint32_t J = 0; J < Len; ++J, Rec += 4) {
      uint32_t Rule = loadLe32(Rec);
      if (Rule >= RuleMap.size())
        return "reduction references an unknown rule";
      TmpRules.push_back(RuleMap[Rule]);
    }
    OutOff = Pool.append(TmpRules.data(), TmpRules.size());
    OutLen = static_cast<uint32_t>(TmpRules.size());
    return nullptr;
  };

  for (uint32_t I = 0; I < H.NumSets; ++I) {
    const uint8_t *RecBytes = Base + H.OffSetRecs + sizeof(FlatRec) * I;
    FlatRec R;
    R.Id = loadLe32(RecBytes);
    R.State = RecBytes[4];
    R.Accepting = RecBytes[5];
    R.Pad = static_cast<uint16_t>(loadLe32(RecBytes + 4) >> 16);
    R.RefCount = loadLe32(RecBytes + 8);
    uint32_t *Fields[] = {&R.KernelOff, &R.KernelLen, &R.TransOff,
                          &R.TransLen,  &R.OldOff,    &R.OldLen,
                          &R.RedOff,    &R.RedLen,    &R.AccOff,
                          &R.AccLen};
    for (size_t F = 0; F < 10; ++F)
      *Fields[F] = loadLe32(RecBytes + 12 + 4 * F);
    if (const char *Msg = checkFlatRecShape(R, I, H))
      return Error(Msg);

    ItemSet &State = Graph.setAt(I);
    State.State = static_cast<ItemSetState>(R.State);
    if (R.State == StateDead)
      continue; // Tombstone: keep the zeroed record (id already set).
    State.Accepting = R.Accepting;

    K.clear();
    K.reserve(R.KernelLen);
    const uint8_t *ItemBytes =
        Base + H.OffKernelItems + uint64_t{8} * R.KernelOff;
    for (uint32_t J = 0; J < R.KernelLen; ++J, ItemBytes += 8) {
      uint32_t Rule = loadLe32(ItemBytes);
      uint32_t Dot = loadLe32(ItemBytes + 4);
      if (Rule >= RuleMap.size())
        return Error("kernel item references an unknown rule");
      RuleId Mapped = RuleMap[Rule];
      if (Dot > G.rule(Mapped).Rhs.size())
        return Error("kernel item dot beyond its rule");
      K.push_back(Item{Mapped, Dot});
    }
    canonicalizeKernel(K);
    std::vector<ItemSet *> &Bucket = Graph.ByKernel[hashKernel(K)];
    for (const ItemSet *Other : Bucket)
      if (kernelEquals(Graph.kernel(Other), K))
        return Error("duplicate kernel in snapshot");
    State.KernelOff = Graph.Kernels.append(K.data(), K.size());
    State.KernelLen = static_cast<uint32_t>(K.size());
    Bucket.push_back(&State);

    if (const char *Msg = ReadEdgeSpan(R.TransOff, R.TransLen, State.TransOff,
                                       State.TransLen))
      return Error(Msg);
    if (const char *Msg =
            ReadEdgeSpan(R.OldOff, R.OldLen, State.OldOff, State.OldLen))
      return Error(Msg);
    if (const char *Msg = ReadRuleSpan(Graph.Reds, H.OffReductions, R.RedOff,
                                       R.RedLen, State.RedOff, State.RedLen))
      return Error(Msg);
    if (const char *Msg = ReadRuleSpan(Graph.Accs, H.OffAcceptRules, R.AccOff,
                                       R.AccLen, State.AccOff, State.AccLen))
      return Error(Msg);
  }

  Graph.Start = &Graph.setAt(H.StartIdx);
  if (Graph.Start->isDead())
    return Error("start set is dead");
  // Re-derive reference counts from the incoming edges (the DECR-REFCOUNT
  // bookkeeping of §6.2): one per transition, old or new, plus the start
  // set's root pin. Persisted counts are not carried through a remap.
  Graph.Start->RefCount = 1;
  for (uint32_t I = 0; I < H.NumSets; ++I) {
    const ItemSet &State = Graph.setAt(I);
    if (State.isDead())
      continue;
    auto Bump = [&](TransitionRange Range) -> const char * {
      for (ItemSet::Transition T : Range) {
        if (T.Target->isDead())
          return "transition to a dead set";
        ++T.Target->RefCount;
      }
      return nullptr;
    };
    if (const char *Msg = Bump(Graph.transitions(&State)))
      return Error(Msg);
    if (const char *Msg = Bump(Graph.oldTransitions(&State)))
      return Error(Msg);
  }
  for (uint32_t I = 0; I < H.NumSets; ++I) {
    const ItemSet &State = Graph.setAt(I);
    if (!State.isDead() && State.RefCount == 0)
      return Error("orphaned set in snapshot");
  }

  ItemSetGraphStats Loaded;
  Loaded.Expansions = H.Stats[0];
  Loaded.ReExpansions = H.Stats[1];
  Loaded.ClosureItems = H.Stats[2];
  Loaded.DirtyMarks = H.Stats[3];
  Loaded.Collected = H.Stats[4];
  Loaded.GotoCalls = H.Stats[5];
  Graph.storeStats(Loaded);
  return H.NumSets;
}

bool GraphSnapshot::hostCanAdoptV2() { return HostCanAdoptV2; }

void GraphSnapshot::clearStorage(ItemSetGraph &Graph) {
  Graph.Sets.clear();
  Graph.Kernels.clear();
  Graph.Trans.clear();
  Graph.Labels.clear();
  Graph.Reds.clear();
  Graph.Accs.clear();
  Graph.ByKernel.clear();
  Graph.KernelIndexReady = true;
  Graph.BorrowedStorage.reset();
  Graph.AdoptedSets = 0;
  Graph.Start = nullptr;
  Graph.storeStats(ItemSetGraphStats());
}

void GraphSnapshot::reset(ItemSetGraph &Graph) {
  clearStorage(Graph);
  Graph.Start = Graph.makeItemSet(Graph.startKernel());
  Graph.Start->RefCount = 1;
}
