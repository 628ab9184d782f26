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

/// The file IS the in-memory pools: save memcpys them out and load
/// reinterprets the mapped arrays as the pool element types, so the build
/// requires a host whose layouts coincide with the on-disk ones. No pointer
/// is ever serialized, so word size does not matter — only endianness and
/// the field widths.
static_assert(std::endian::native == std::endian::little,
              "ipg-snap-v2 is little-endian and loaded in place: the build "
              "requires a little-endian host");
static_assert(sizeof(ItemSet) == 52 && alignof(ItemSet) <= 8 &&
                  sizeof(Item) == 8 && alignof(Item) <= 8 &&
                  sizeof(SymbolId) == 4 && sizeof(RuleId) == 4,
              "in-memory pool records drifted from the 52-byte v2 layout");

/// Reads the fixed v2 GRPH header out of the first bytes of a section.
Expected<GrphHeader> readGrphHeader(const uint8_t *Section, size_t Bytes) {
  if (Bytes < sizeof(GrphHeader))
    return Error("truncated graph section");
  GrphHeader H;
  std::memcpy(&H, Section, sizeof(GrphHeader));
  return H;
}

/// Header-level checks of the GRPH section.
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

/// Flat-arena per-set record — the ItemSet field layout spelled out as
/// plain integers, so validation can inspect a record without ItemSet
/// friend access. The static_asserts pin the two layouts together.
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

/// Emits a pool's bytes: the base segment, then the grow segment — that
/// concatenation IS the offset space.
template <typename T>
void emitPool(FlatWriter &Section, const PoolArena<T> &Pool) {
  if (Pool.baseSize() != 0)
    Section.writeBytes(reinterpret_cast<const uint8_t *>(Pool.baseData()),
                       Pool.baseSize() * sizeof(T));
  if (Pool.growSize() != 0)
    Section.writeBytes(reinterpret_cast<const uint8_t *>(Pool.growData()),
                       Pool.growSize() * sizeof(T));
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
  emitPool(Section, Graph.Sets);
  Section.alignTo(8);

  Offsets[1] = Section.size() - Base;
  emitPool(Section, Graph.Kernels);

  Offsets[2] = Section.size() - Base;
  emitPool(Section, Graph.Trans);
  Section.alignTo(8);
  Offsets[3] = 0; // No separate old-transition pool in this layout.

  Offsets[4] = Section.size() - Base;
  emitPool(Section, Graph.Labels);
  Section.alignTo(8);

  Offsets[5] = Section.size() - Base;
  emitPool(Section, Graph.Reds);
  Section.alignTo(8);

  Offsets[6] = Section.size() - Base;
  emitPool(Section, Graph.Accs);
  Section.alignTo(8);

  for (int I = 0; I < 7; ++I)
    Section.patchU64(OffTable + 8 * static_cast<size_t>(I), Offsets[I]);
}

namespace {

/// True when \p Map sends every snapshot id to itself — the common stale
/// case, where the live grammar only appended symbols and rules.
bool isIdentity(const std::vector<uint32_t> &Map) {
  for (uint32_t Id = 0; Id < Map.size(); ++Id)
    if (Map[Id] != Id)
      return false;
  return true;
}

/// The stale-load step of adoptV2, run after the pool bounds checks:
/// rewrites the snapshot's symbol and rule ids to the live grammar's,
/// pool-wide and once per element, in place (the section lives in a
/// private mapping, so the file never changes); then, per live set,
/// restores the two orders the ids key — the canonical kernel and the
/// label-sorted live edge span. Identity maps change no id and no order,
/// so their ids are only range-checked. The validation sweep checks the
/// result like any other section.
const char *remapIds(uint8_t *SectionData, const GrphHeader &H,
                     const std::vector<SymbolId> &SymbolMap,
                     const std::vector<RuleId> &RuleMap) {
  const bool Rewrite = !isIdentity(SymbolMap) || !isIdentity(RuleMap);
  auto Remap = [&](uint32_t &Id, const std::vector<uint32_t> &Map) {
    if (Id >= Map.size())
      return false;
    if (Rewrite)
      Id = Map[Id];
    return true;
  };
  Item *Kernels = reinterpret_cast<Item *>(SectionData + H.OffKernelItems);
  uint32_t *Targets =
      reinterpret_cast<uint32_t *>(SectionData + H.OffTransitions);
  SymbolId *Labels =
      reinterpret_cast<SymbolId *>(SectionData + H.OffActionLabels);
  RuleId *Reds = reinterpret_cast<RuleId *>(SectionData + H.OffReductions);
  RuleId *Accs = reinterpret_cast<RuleId *>(SectionData + H.OffAcceptRules);
  for (uint32_t I = 0; I < H.NumKernelItems; ++I)
    if (!Remap(Kernels[I].Rule, RuleMap))
      return "kernel item references an unknown rule";
  for (uint32_t I = 0; I < H.NumTransitions; ++I)
    if (!Remap(Labels[I], SymbolMap))
      return "transition label references an unknown symbol";
  for (uint32_t I = 0; I < H.NumReductions; ++I)
    if (!Remap(Reds[I], RuleMap))
      return "reduction references an unknown rule";
  for (uint32_t I = 0; I < H.NumAcceptRules; ++I)
    if (!Remap(Accs[I], RuleMap))
      return "accept rule references an unknown rule";
  if (!Rewrite)
    return nullptr;

  // Old spans of Dirty sets carry no order contract, only their targets'
  // references, so they keep their order.
  const uint8_t *RecBytes = SectionData + H.OffSetRecs;
  std::vector<std::pair<SymbolId, uint32_t>> Edges;
  for (uint32_t I = 0; I < H.NumSets; ++I) {
    FlatRec R;
    std::memcpy(&R, RecBytes + size_t{sizeof(FlatRec)} * I, sizeof(FlatRec));
    if (const char *Msg = checkFlatRecShape(R, I, H))
      return Msg;
    if (R.State == StateDead)
      continue;
    std::sort(Kernels + R.KernelOff, Kernels + R.KernelOff + R.KernelLen);
    Edges.clear();
    for (uint32_t J = R.TransOff; J < R.TransOff + R.TransLen; ++J)
      Edges.emplace_back(Labels[J], Targets[J]);
    std::sort(Edges.begin(), Edges.end());
    for (uint32_t J = 0; J < R.TransLen; ++J) {
      Labels[R.TransOff + J] = Edges[J].first;
      Targets[R.TransOff + J] = Edges[J].second;
    }
  }
  return nullptr;
}

} // namespace

Expected<size_t>
GraphSnapshot::adoptV2(uint8_t *SectionData, size_t SectionBytes,
                       ItemSetGraph &Graph,
                       std::shared_ptr<const MappedFile> Backing,
                       const std::vector<SymbolId> *SymbolMap,
                       const std::vector<RuleId> *RuleMap) {
  assert((SymbolMap == nullptr) == (RuleMap == nullptr) &&
         "id maps come in pairs");
  const Grammar &G = Graph.G;
  Expected<GrphHeader> Header = readGrphHeader(SectionData, SectionBytes);
  if (!Header)
    return Header.error();
  const GrphHeader &H = *Header;
  if (const char *Msg = checkGrphHeaderShape(H))
    return Error(Msg);

  // Every pool is written 8-aligned; reject a nudged section or offset
  // table before any pointer arithmetic (the pools are only 4-strided, so
  // alignment is not implied by the bounds checks).
  if (reinterpret_cast<uintptr_t>(SectionData) % 8 != 0)
    return Error("flat section: misaligned pool");
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
  if (SymbolMap != nullptr)
    if (const char *Msg = remapIds(SectionData, H, *SymbolMap, *RuleMap))
      return Error(Msg);

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
  // check has passed, so an error leaves it exactly as it was. Without id
  // maps, the three scratch vectors are the only allocations of the whole
  // adoption.
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
  Graph.Start = &Graph.setAt(H.StartIdx);
  if (SymbolMap == nullptr) {
    // The kernel index is deferred: pure queries against a fully complete
    // adopted graph never need it.
    Graph.KernelIndexReady.store(false, std::memory_order_release);
  } else {
    // A remapped load re-keyed every kernel, so it builds the index now and
    // rejects two sets that collide on one kernel. The §6 repair that
    // follows would build it on its first re-expansion anyway.
    Graph.ByKernel.reserve(H.NumSets);
    for (uint32_t I = 0; I < H.NumSets; ++I) {
      ItemSet &State = Graph.setAt(I);
      if (State.isDead())
        continue;
      KernelView K = Graph.kernel(&State);
      std::vector<ItemSet *> &Bucket = Graph.ByKernel[hashKernel(K)];
      for (const ItemSet *Other : Bucket)
        if (kernelEquals(Graph.kernel(Other), K)) {
          reset(Graph);
          return Error("duplicate kernel in snapshot");
        }
      Bucket.push_back(&State);
    }
  }

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
