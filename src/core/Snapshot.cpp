//===- core/Snapshot.cpp - Ipg snapshot save/load & §6 repair -------------===//
///
/// Implements Ipg::saveSnapshot / Ipg::loadSnapshot (declared in
/// core/Ipg.h) on top of the format constants of core/Snapshot.h: the
/// grammar section and fingerprints come from grammar/GrammarIO.h, the
/// graph section from lr/GraphSnapshot.h. A snapshot loads out of one
/// private file mapping (support/MappedFile.h); the fingerprint-matched
/// fast path adopts the flat GRPH section in place — borrowed pool spans,
/// header-only checksum. The load path owns the stale-snapshot repair
/// strategy: bring the live grammar to the snapshot's rule set, adopt the
/// graph with its ids remapped in place, then replay the rule delta
/// through the graph-level ADD-RULE/DELETE-RULE so MODIFY (§6.1)
/// invalidates exactly the states the difference touches.
///
//===----------------------------------------------------------------------===//

#include "core/Ipg.h"

#include "grammar/GrammarIO.h"
#include "lr/GraphSnapshot.h"
#include "support/FlatSection.h"
#include "support/Hashing.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <cstring>
#include <memory>

using namespace ipg;

namespace {

/// Process-wide snapshot observables (catalog in docs/OBSERVABILITY.md):
/// the matched vs remapped split the warm-start story rests on, plus the
/// §6 stale-repair replay volume.
struct SnapMetrics {
  MetricsRegistry &R = MetricsRegistry::process();
  MetricCounter &Saves = R.counter("ipg.snapshot.saves");
  MetricCounter &SaveBytes = R.counter("ipg.snapshot.save_bytes");
  MetricCounter &V2Adopted = R.counter("ipg.snapshot.v2_adopted");
  MetricCounter &V2Remapped = R.counter("ipg.snapshot.v2_remapped");
  /// Loads whose snapshot was stale (nonzero rule delta) and went through
  /// the §6 replay, and the rules replayed across all of them.
  MetricCounter &StaleRepairs = R.counter("ipg.snapshot.stale_repairs");
  MetricCounter &RulesReplayed = R.counter("ipg.snapshot.rules_replayed");
  LatencyHistogram &SaveLatency = R.histogram("ipg.snapshot.save");
  LatencyHistogram &LoadV2AdoptLatency = R.histogram("ipg.snapshot.load_v2_adopt");
  LatencyHistogram &LoadV2RemapLatency = R.histogram("ipg.snapshot.load_v2_remap");

  static SnapMetrics &get() {
    static SnapMetrics M;
    return M;
  }
};

/// The stale path: maps the decoded snapshot grammar onto the live one,
/// brings the live grammar to the snapshot's rule set, adopts the GRPH
/// section \p Grph (inside \p Mapping) with those id maps, then replays
/// the rule delta through the graph-level §6 operations. On a failed load
/// the grammar's active set is restored and the graph reset — the
/// generator stays usable.
Expected<SnapshotLoadResult>
remapAndRepair(Grammar &G, ItemSetGraph &Graph, const GrammarSnapshot &Snap,
               uint64_t SnapFingerprint, uint8_t *Grph, size_t GrphLen,
               std::shared_ptr<const MappedFile> Mapping) {
  // Map the snapshot's symbols onto the live table. Most stale snapshots
  // differ from the live grammar by a handful of appended rules, so ids
  // usually still coincide: try the in-place string compare first and fall
  // back to the hashing intern only on mismatch.
  std::vector<SymbolId> SymbolMap;
  SymbolMap.reserve(Snap.Symbols.size());
  for (size_t I = 0; I < Snap.Symbols.size(); ++I) {
    const GrammarSnapshot::Symbol &Sym = Snap.Symbols[I];
    SymbolId Live = I < G.symbols().size() && G.symbols().name(I) == Sym.Name
                        ? static_cast<SymbolId>(I)
                        : G.symbols().intern(Sym.Name);
    if (Sym.IsNonterminal)
      G.symbols().markNonterminal(Live);
    SymbolMap.push_back(Live);
  }
  for (const GrammarSnapshot::SnapRule &SnapRule : Snap.Rules)
    for (uint32_t Sym : SnapRule.Rhs)
      if (SymbolMap[Sym] == G.startSymbol())
        return Error("snapshot rule uses START in a right-hand side");

  // Map the snapshot's rules (same in-place-first strategy), collecting
  // the live ids of its active set; nothing is activated yet.
  std::vector<RuleId> RuleMap;
  RuleMap.reserve(Snap.Rules.size());
  std::vector<RuleId> SnapActive;
  std::vector<SymbolId> Rhs;
  for (size_t I = 0; I < Snap.Rules.size(); ++I) {
    const GrammarSnapshot::SnapRule &SnapRule = Snap.Rules[I];
    SymbolId Lhs = SymbolMap[SnapRule.Lhs];
    Rhs.clear();
    Rhs.reserve(SnapRule.Rhs.size());
    for (uint32_t Sym : SnapRule.Rhs)
      Rhs.push_back(SymbolMap[Sym]);
    RuleId Id;
    if (I < G.numInternedRules() && G.rule(I).Lhs == Lhs &&
        G.rule(I).Rhs == Rhs)
      Id = static_cast<RuleId>(I);
    else
      Id = G.internRule(Lhs, Rhs);
    RuleMap.push_back(Id);
    if (SnapRule.IsActive)
      SnapActive.push_back(Id);
  }

  // The delta, snapshot → live. Live-only rules must be re-ADD-RULEd after
  // the graph is adopted; snapshot-only rules DELETE-RULEd.
  std::vector<uint8_t> IsSnapActive(G.numInternedRules(), 0);
  for (RuleId Id : SnapActive)
    IsSnapActive[Id] = 1;
  std::vector<RuleId> LiveOnly;
  for (RuleId Id : G.activeRules())
    if (!IsSnapActive[Id])
      LiveOnly.push_back(Id);

  // Bring the live grammar to the snapshot's rule set so the adopted graph
  // is consistent with it.
  std::vector<RuleId> SnapOnly;
  for (RuleId Id : SnapActive)
    if (G.activateRule(Id))
      SnapOnly.push_back(Id);
  for (RuleId Id : LiveOnly)
    G.removeRule(Id);

  Expected<size_t> Loaded = GraphSnapshot::adoptV2(
      Grph, GrphLen, Graph, std::move(Mapping), &SymbolMap, &RuleMap);
  if (!Loaded) {
    // Undo: restore the grammar's active set, reset the graph to the
    // freshly-constructed one-node state. The generator stays usable.
    for (RuleId Id : SnapOnly)
      G.removeRule(Id);
    for (RuleId Id : LiveOnly)
      G.activateRule(Id);
    GraphSnapshot::reset(Graph);
    return Loaded.error();
  }

  // §6 repair: replay the snapshot→live delta through the graph-level
  // operations, so MODIFY re-marks exactly the affected states Dirty and
  // the lazy machinery re-expands them by need.
  if (!SnapOnly.empty() || !LiveOnly.empty()) {
    SnapMetrics::get().StaleRepairs.bump();
    SnapMetrics::get().RulesReplayed.bump(SnapOnly.size() + LiveOnly.size());
  }
  {
    IPG_TRACE_SPAN(Sp, "snap.repair_delta");
    IPG_TRACE_SPAN_ARG(Sp, SnapOnly.size() + LiveOnly.size());
    for (RuleId Id : SnapOnly)
      Graph.removeRule(G.rule(Id).Lhs, G.rule(Id).Rhs);
    for (RuleId Id : LiveOnly)
      Graph.addRule(G.rule(Id).Lhs, std::vector<SymbolId>(G.rule(Id).Rhs));
  }

  SnapshotLoadResult Result;
  // An empty delta means the active rule sets coincide — exactly what the
  // content fingerprint certifies (it is not recomputed here; the layout
  // check handles the byte-identical fast path before this runs).
  Result.FingerprintMatched = LiveOnly.empty() && SnapOnly.empty();
  Result.SnapshotFingerprint = SnapFingerprint;
  Result.StatesLoaded = *Loaded;
  Result.RulesAdded = LiveOnly.size();
  Result.RulesRemoved = SnapOnly.size();
  return Result;
}

/// The checked fields of a v2 file header.
struct V2Header {
  uint32_t HeaderBytes;
  uint64_t Fingerprint, Layout;
  uint64_t GramOff, GramLen, GrphOff, GrphLen;
  uint64_t PayloadChk;
};

/// Parses the header of a v2 file whose magic the caller has matched: the
/// version byte, the header checksum (so the offsets and fingerprints can
/// be trusted without touching the payload pages), the header size and
/// the bounds of both sections.
Expected<V2Header> parseV2Header(const uint8_t *Data, size_t Size) {
  if (Size < SnapshotV2HeaderBytes)
    return Error("truncated snapshot header");
  if (Data[11] != 0)
    return Error("unsupported snapshot version (expected ipg-snap-v2)");
  FlatView File(Data, Size);
  Expected<uint64_t> HeaderChk = File.u64At(72);
  if (!HeaderChk ||
      hashBytes(Data, SnapshotV2HeaderChecksumBytes) != *HeaderChk)
    return Error("snapshot header corrupted (checksum mismatch)");

  V2Header H;
  Expected<uint32_t> HeaderBytes = File.u32At(12);
  if (!HeaderBytes || *HeaderBytes < SnapshotV2HeaderBytes ||
      *HeaderBytes > Size)
    return Error("malformed snapshot header");
  H.HeaderBytes = *HeaderBytes;
  uint64_t *Fields[] = {&H.Fingerprint, &H.Layout,  &H.GramOff,   &H.GramLen,
                        &H.GrphOff,     &H.GrphLen, &H.PayloadChk};
  for (size_t I = 0; I < 7; ++I) {
    Expected<uint64_t> V = File.u64At(16 + 8 * I);
    if (!V)
      return V.error();
    *Fields[I] = *V;
  }
  if (H.GramOff < H.HeaderBytes || H.GramOff > Size ||
      H.GramLen > Size - H.GramOff || H.GrphOff < H.HeaderBytes ||
      H.GrphOff > Size || H.GrphLen > Size - H.GrphOff)
    return Error("snapshot section out of bounds");
  return H;
}

/// Whole-payload integrity: the hash of every byte behind the header.
bool payloadIntact(const uint8_t *Data, size_t Size, const V2Header &H) {
  return hashBytesFast(Data + H.HeaderBytes, Size - H.HeaderBytes) ==
         H.PayloadChk;
}

/// Copies the first extra section tagged \p Tag out of a v2 file whose
/// header \p H has been checked. Walks the 8-aligned frames behind GRPH;
/// unknown tags are skipped — coexisting riders from newer writers are
/// expected, not errors.
Expected<std::vector<uint8_t>> extraSection(const uint8_t *Data, size_t Size,
                                            const V2Header &H, uint32_t Tag) {
  FlatView File(Data, Size);
  uint64_t Off = (H.GrphOff + H.GrphLen + 7) & ~uint64_t(7);
  while (Off + 16 <= Size) {
    Expected<uint32_t> FrameTag = File.u32At(static_cast<size_t>(Off));
    Expected<uint64_t> FrameLen = File.u64At(static_cast<size_t>(Off) + 8);
    if (!FrameTag || !FrameLen)
      return Error("snapshot extra section out of bounds");
    if (*FrameLen > Size - Off - 16)
      return Error("snapshot extra section out of bounds");
    if (*FrameTag == Tag)
      return std::vector<uint8_t>(Data + Off + 16,
                                  Data + Off + 16 + *FrameLen);
    Off = (Off + 16 + *FrameLen + 7) & ~uint64_t(7);
  }
  return Error("snapshot has no such extra section");
}

/// An extra section a load should read along with the graph.
struct ExtraRequest {
  uint32_t Tag;
  std::vector<uint8_t> &Bytes;
};

/// The v2 container: flat sections behind a header checksum (fast path)
/// and a payload checksum (stale path, and any load that reads an extra
/// section). Takes the mapping by shared_ptr because adoption hands it to
/// the graph.
Expected<SnapshotLoadResult>
loadV2Container(Grammar &G, ItemSetGraph &Graph,
                std::shared_ptr<MappedFile> Mapping,
                const ExtraRequest *Extra) {
  uint8_t *Data = Mapping->data();
  const size_t Size = Mapping->size();
  Expected<V2Header> Header = parseV2Header(Data, Size);
  if (!Header)
    return Header.error();
  const V2Header &H = *Header;
  uint8_t *Grph = Data + H.GrphOff;
  const size_t GrphLen = static_cast<size_t>(H.GrphLen);
  // The GRPH layout word (byte 28 of the section) names the cause of a
  // pre-flat-arena file before any checksum could blame corruption.
  Expected<uint32_t> GrphLayout = FlatView(Grph, GrphLen).u32At(28);
  if (!GrphLayout)
    return Error("truncated graph section");
  if (*GrphLayout != GraphSnapshot::FlatArenaLayout)
    return Error("snapshot graph section predates the flat-arena layout and "
                 "is no longer supported; regenerate the snapshot");

  // An extra section (a suspended parse) is a one-shot artifact, not a
  // hot cache: whole-file integrity up front is cheap relative to the
  // resume it gates. It is checked, and the section copied out, before
  // the graph is touched — the stale path below rewrites GRPH in the
  // mapping, after which the payload no longer hashes to its checksum.
  bool PayloadChecked = false;
  if (Extra) {
    if (!payloadIntact(Data, Size, H))
      return Error("snapshot payload corrupted (checksum mismatch)");
    PayloadChecked = true;
    Expected<std::vector<uint8_t>> Bytes =
        extraSection(Data, Size, H, Extra->Tag);
    if (!Bytes)
      return Bytes.error();
    Extra->Bytes = Bytes.take();
  }

  // Warm-start fast path: layout match means identity ids, so the GRPH
  // section is adopted straight out of the mapping — no GRAM decode, no
  // payload checksum (the structural validation sweep inside adoptV2 is
  // the integrity check the trust model asks of a cache format).
  if (H.Layout == grammarLayoutFingerprint(G)) {
    IPG_TRACE_SPAN(Sp, "snap.load.v2_adopt");
    ScopedLatency Lat(SnapMetrics::get().LoadV2AdoptLatency);
    Expected<size_t> Loaded =
        GraphSnapshot::adoptV2(Grph, GrphLen, Graph, Mapping);
    if (!Loaded) {
      GraphSnapshot::reset(Graph);
      return Loaded.error();
    }
    SnapMetrics::get().V2Adopted.bump();
    SnapshotLoadResult Result;
    Result.FingerprintMatched = true;
    Result.SnapshotFingerprint = H.Fingerprint;
    Result.StatesLoaded = *Loaded;
    return Result;
  }

  // Stale path: the ids are rewritten in the mapping and the GRAM section
  // is decoded, so verify the whole payload up front.
  IPG_TRACE_SPAN(Sp, "snap.load.v2_remap");
  ScopedLatency Lat(SnapMetrics::get().LoadV2RemapLatency);
  SnapMetrics::get().V2Remapped.bump();
  if (!PayloadChecked && !payloadIntact(Data, Size, H))
    return Error("snapshot payload corrupted (checksum mismatch)");
  Expected<GrammarSnapshot> Snap = readGrammarSnapshotV2(
      FlatView(Data + H.GramOff, static_cast<size_t>(H.GramLen)));
  if (!Snap)
    return Snap.error();
  return remapAndRepair(G, Graph, *Snap, H.Fingerprint, Grph, GrphLen,
                        std::move(Mapping));
}

/// Ipg::loadSnapshot, reading \p Extra's section too when it is given.
Expected<SnapshotLoadResult> loadSnapshotFile(ItemSetGraph &Graph,
                                              const std::string &Path,
                                              const ExtraRequest *Extra) {
  // One private mapping, which the graph borrows (MappedFile's heap
  // fallback keeps the contract on mmap-less hosts).
  Expected<MappedFile> MapOrErr = MappedFile::open(Path);
  if (!MapOrErr)
    return MapOrErr.error();
  auto Mapping = std::make_shared<MappedFile>(MapOrErr.take());
  const uint8_t *Data = Mapping->data();
  const size_t Size = Mapping->size();
  Grammar &G = Graph.grammar();

  const size_t MagicLen = std::strlen(SnapshotMagicV2);
  if (Size >= MagicLen && std::memcmp(Data, SnapshotMagicV2, MagicLen) == 0)
    return loadV2Container(G, Graph, std::move(Mapping), Extra);
  if (Size >= MagicLen && std::memcmp(Data, "ipg-snap-v1", MagicLen) == 0)
    return Error("ipg-snap-v1 snapshots are no longer supported; regenerate "
                 "the snapshot");
  if (Size >= MagicLen - 1 &&
      std::memcmp(Data, SnapshotMagicV2, MagicLen - 1) == 0)
    return Error("unsupported snapshot version (expected ipg-snap-v2)");
  return Error("not an ipg snapshot (bad magic)");
}

} // namespace

Expected<size_t> Ipg::saveSnapshot(const std::string &Path) const {
  return saveSnapshot(Path, std::vector<SnapshotExtraSection>());
}

Expected<size_t>
Ipg::saveSnapshot(const std::string &Path,
                  const std::vector<SnapshotExtraSection> &Extras) const {
  const Grammar &G = Graph.grammar();
  IPG_TRACE_SPAN(Sp, "snap.save.v2");
  ScopedLatency Lat(SnapMetrics::get().SaveLatency);
  SnapMetrics::get().Saves.bump();

  // Both sections serialize straight into the file buffer — no staging
  // writers, no second copy of ~100KB of pool bytes. Their offsets and
  // lengths land in the header by patching the slots reserved here.
  FlatWriter File;
  File.writeBytes(SnapshotMagicV2, std::strlen(SnapshotMagicV2));
  File.writeU8(0); // Magic NUL pad to offset 12.
  File.writeU32(SnapshotV2HeaderBytes);
  File.writeU64(grammarFingerprint(G));
  File.writeU64(grammarLayoutFingerprint(G));
  size_t SectionTableOff = File.reserve(4 * 8); // GramOff/Len, GrphOff/Len.
  size_t PayloadChkOff = File.reserve(8);
  size_t HeaderChkOff = File.reserve(8);
  assert(File.size() == SnapshotV2HeaderBytes &&
         "v2 header layout drifted from SnapshotV2HeaderBytes");

  const uint64_t GramOff = File.size();
  writeGrammarSnapshotV2(G, File);
  const uint64_t GramLen = File.size() - GramOff;
  File.alignTo(8);
  const uint64_t GrphOff = File.size();
  GraphSnapshot::saveV2(Graph, File);
  const uint64_t GrphLen = File.size() - GrphOff;
  File.patchU64(SectionTableOff, GramOff);
  File.patchU64(SectionTableOff + 8, GramLen);
  File.patchU64(SectionTableOff + 16, GrphOff);
  File.patchU64(SectionTableOff + 24, GrphLen);

  // Extras trail the section table's world: each is 8-aligned and
  // self-framed (tag, reserved, length, bytes), found by walking from the
  // end of GRPH. They land before the checksum patches so the payload
  // checksum covers them.
  for (const SnapshotExtraSection &Extra : Extras) {
    File.alignTo(8);
    File.writeU32(Extra.Tag);
    File.writeU32(0);
    File.writeU64(Extra.Bytes.size());
    File.writeBytes(Extra.Bytes.data(), Extra.Bytes.size());
  }

  File.patchU64(PayloadChkOff,
                hashBytesFast(File.buffer().data() + SnapshotV2HeaderBytes,
                              File.size() - SnapshotV2HeaderBytes));
  File.patchU64(HeaderChkOff,
                hashBytes(File.buffer().data(), SnapshotV2HeaderChecksumBytes));
  Expected<size_t> Written = File.writeFile(Path);
  if (Written)
    SnapMetrics::get().SaveBytes.bump(*Written);
  return Written;
}

Expected<SnapshotLoadResult> Ipg::loadSnapshot(const std::string &Path) {
  return loadSnapshotFile(Graph, Path, nullptr);
}

Expected<SnapshotLoadResult>
Ipg::loadSnapshot(const std::string &Path, uint32_t ExtraTag,
                  std::vector<uint8_t> &Extra) {
  ExtraRequest Request{ExtraTag, Extra};
  return loadSnapshotFile(Graph, Path, &Request);
}
