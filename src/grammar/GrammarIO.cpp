//===- grammar/GrammarIO.cpp - Grammar snapshot section & fingerprint -----===//

#include "grammar/GrammarIO.h"

#include "support/Hashing.h"

#include <cassert>

using namespace ipg;

namespace {

uint64_t computeGrammarFingerprint(const Grammar &G) {
  // One hash per active rule over names (with terminal-ness, which CLOSURE
  // depends on), folded with + so the result is independent of rule order
  // and id assignment. The rule count seeds the fold: it disambiguates the
  // empty grammar and guards the commutative sum against cancellation.
  const SymbolTable &Symbols = G.symbols();
  auto HashSymbol = [&](uint64_t Hash, SymbolId Sym) {
    Hash = hashCombine(Hash, hashString(Symbols.name(Sym)));
    return hashCombine(Hash, Symbols.isNonterminal(Sym) ? 1 : 0);
  };
  uint64_t Fingerprint = hashCombine(0x697067736e617031ULL /* "ipgsnap1" */,
                                     G.size());
  for (RuleId Id : G.activeRules()) {
    const Rule &R = G.rule(Id);
    uint64_t RuleHash = HashSymbol(0x8ad2d2956275bd21ULL, R.Lhs);
    RuleHash = hashCombine(RuleHash, R.Rhs.size());
    for (SymbolId Sym : R.Rhs)
      RuleHash = HashSymbol(RuleHash, Sym);
    Fingerprint += RuleHash;
  }
  return Fingerprint;
}

uint64_t computeGrammarLayoutFingerprint(const Grammar &G) {
  const SymbolTable &Symbols = G.symbols();
  uint64_t Hash = 0x697067736c617931ULL; // "ipgslay1"
  Hash = hashCombine(Hash, Symbols.size());
  for (SymbolId Sym = 0; Sym < Symbols.size(); ++Sym) {
    Hash = hashCombine(Hash, hashString(Symbols.name(Sym)));
    Hash = hashCombine(Hash, Symbols.isNonterminal(Sym) ? 1 : 0);
  }
  Hash = hashCombine(Hash, G.numInternedRules());
  for (RuleId Id = 0; Id < G.numInternedRules(); ++Id) {
    const Rule &R = G.rule(Id);
    Hash = hashCombine(Hash, R.Lhs);
    Hash = hashCombine(Hash, G.isActive(Id) ? 1 : 0);
    Hash = hashCombine(Hash, R.Rhs.size());
    for (SymbolId Sym : R.Rhs)
      Hash = hashCombine(Hash, Sym);
  }
  return Hash;
}

} // namespace

// Both fingerprints walk every symbol name and rule body, which is too
// slow to redo on every save of a large, unchanged grammar — the Grammar
// memoizes them keyed on its mutation stamp.
uint64_t ipg::grammarFingerprint(const Grammar &G) {
  return G.memoizedFingerprint(0, computeGrammarFingerprint);
}

uint64_t ipg::grammarLayoutFingerprint(const Grammar &G) {
  return G.memoizedFingerprint(1, computeGrammarLayoutFingerprint);
}

//===----------------------------------------------------------------------===//
// ipg-snap-v2 GRAM section layout (little-endian, offsets relative to the
// 8-aligned section start):
//
//   GramV2Header (48 bytes):
//     u32 NumSymbols, u32 NumRules, u32 RhsPoolLen, u32 NameBytes
//     u64 OffSymbols, u64 OffRules, u64 OffRhsPool, u64 OffNames
//   SymRec[NumSymbols]   12 bytes: u32 NameOff, u32 NameLen, u32 Flags
//                        (bit 0 = nonterminal)
//   RuleRec[NumRules]    16 bytes: u32 Lhs, u32 Flags (bit 0 = active),
//                        u32 RhsOff, u32 RhsLen (indices into the RHS pool)
//   u32[RhsPoolLen]      concatenated rule right-hand sides
//   u8[NameBytes]        concatenated symbol names (offset-indexed, no
//                        terminators)
//===----------------------------------------------------------------------===//

void ipg::writeGrammarSnapshotV2(const Grammar &G, FlatWriter &Section) {
  // The section may be appended directly into a larger file writer; all
  // recorded offsets are relative to this base, which must be 8-aligned
  // so the in-section alignTo calls keep their meaning.
  const size_t Base = Section.size();
  assert(Base % 8 == 0 && "v2 GRAM section must start 8-aligned");
  const SymbolTable &Symbols = G.symbols();

  uint64_t RhsPoolLen = 0, NameBytes = 0;
  for (SymbolId Sym = 0; Sym < Symbols.size(); ++Sym)
    NameBytes += Symbols.name(Sym).size();
  for (RuleId Id = 0; Id < G.numInternedRules(); ++Id)
    RhsPoolLen += G.rule(Id).Rhs.size();

  Section.reserveCapacity(Base + 48 + size_t{12} * Symbols.size() +
                          size_t{16} * G.numInternedRules() + 4 * RhsPoolLen +
                          NameBytes + 8);
  Section.writeU32(Symbols.size());
  Section.writeU32(G.numInternedRules());
  Section.writeU32(static_cast<uint32_t>(RhsPoolLen));
  Section.writeU32(static_cast<uint32_t>(NameBytes));
  size_t OffTable = Section.reserve(4 * 8);
  uint64_t Offsets[4] = {0};

  // Record fields are staged into one flat u32 scratch per table and
  // appended with the bulk writer — per-field writeU32 calls were the
  // hottest part of the save path on large grammars.
  std::vector<uint32_t> Scratch;

  Offsets[0] = Section.size() - Base;
  Scratch.reserve(size_t{3} * Symbols.size());
  uint32_t NameOff = 0;
  for (SymbolId Sym = 0; Sym < Symbols.size(); ++Sym) {
    uint32_t Len = static_cast<uint32_t>(Symbols.name(Sym).size());
    Scratch.push_back(NameOff);
    Scratch.push_back(Len);
    Scratch.push_back(Symbols.isNonterminal(Sym) ? 1 : 0);
    NameOff += Len;
  }
  Section.writeU32Array(Scratch.data(), Scratch.size());

  Offsets[1] = Section.size() - Base;
  Scratch.clear();
  Scratch.reserve(size_t{4} * G.numInternedRules());
  uint32_t RhsOff = 0;
  for (RuleId Id = 0; Id < G.numInternedRules(); ++Id) {
    const Rule &R = G.rule(Id);
    Scratch.push_back(R.Lhs);
    Scratch.push_back(G.isActive(Id) ? 1 : 0);
    Scratch.push_back(RhsOff);
    Scratch.push_back(static_cast<uint32_t>(R.Rhs.size()));
    RhsOff += static_cast<uint32_t>(R.Rhs.size());
  }
  Section.writeU32Array(Scratch.data(), Scratch.size());

  Offsets[2] = Section.size() - Base;
  for (RuleId Id = 0; Id < G.numInternedRules(); ++Id) {
    const Rule &R = G.rule(Id);
    Section.writeU32Array(R.Rhs.data(), R.Rhs.size());
  }

  Offsets[3] = Section.size() - Base;
  for (SymbolId Sym = 0; Sym < Symbols.size(); ++Sym) {
    const std::string &Name = Symbols.name(Sym);
    Section.writeBytes(Name.data(), Name.size());
  }
  Section.alignTo(8);

  for (int I = 0; I < 4; ++I)
    Section.patchU64(OffTable + 8 * static_cast<size_t>(I), Offsets[I]);
}

Expected<GrammarSnapshot> ipg::readGrammarSnapshotV2(FlatView Section) {
  uint32_t Counts[4]; // NumSymbols, NumRules, RhsPoolLen, NameBytes.
  for (int I = 0; I < 4; ++I) {
    Expected<uint32_t> V = Section.u32At(4 * static_cast<size_t>(I));
    if (!V)
      return V.error();
    Counts[I] = *V;
  }
  uint64_t Offsets[4]; // OffSymbols, OffRules, OffRhsPool, OffNames.
  for (int I = 0; I < 4; ++I) {
    Expected<uint64_t> V = Section.u64At(16 + 8 * static_cast<size_t>(I));
    if (!V)
      return V.error();
    Offsets[I] = *V;
  }
  const uint64_t Sizes[4] = {uint64_t{12} * Counts[0], uint64_t{16} * Counts[1],
                             uint64_t{4} * Counts[2], Counts[3]};
  for (int I = 0; I < 4; ++I)
    if (Offsets[I] > Section.size() || Sizes[I] > Section.size() - Offsets[I])
      return Error("flat section: array out of bounds");

  GrammarSnapshot Snapshot;
  Snapshot.Symbols.reserve(Counts[0]);
  for (uint32_t I = 0; I < Counts[0]; ++I) {
    size_t RecOff = static_cast<size_t>(Offsets[0]) + 12 * size_t(I);
    Expected<uint32_t> NameOff = Section.u32At(RecOff);
    Expected<uint32_t> NameLen = Section.u32At(RecOff + 4);
    Expected<uint32_t> Flags = Section.u32At(RecOff + 8);
    if (!NameOff || !NameLen || !Flags)
      return Error("truncated symbol record");
    if (*Flags > 1)
      return Error("invalid symbol flags");
    if (uint64_t{*NameOff} + *NameLen > Counts[3])
      return Error("symbol name out of range");
    const char *Name = reinterpret_cast<const char *>(Section.data()) +
                       Offsets[3] + *NameOff;
    Snapshot.Symbols.push_back({std::string_view(Name, *NameLen), *Flags == 1});
  }

  Snapshot.Rules.reserve(Counts[1]);
  for (uint32_t I = 0; I < Counts[1]; ++I) {
    size_t RecOff = static_cast<size_t>(Offsets[1]) + 16 * size_t(I);
    GrammarSnapshot::SnapRule SnapRule;
    Expected<uint32_t> Lhs = Section.u32At(RecOff);
    Expected<uint32_t> Flags = Section.u32At(RecOff + 4);
    Expected<uint32_t> RhsOff = Section.u32At(RecOff + 8);
    Expected<uint32_t> RhsLen = Section.u32At(RecOff + 12);
    if (!Lhs || !Flags || !RhsOff || !RhsLen)
      return Error("truncated rule record");
    if (*Lhs >= Snapshot.Symbols.size())
      return Error("rule LHS references an unknown symbol");
    if (*Flags > 1)
      return Error("invalid rule flags");
    if (uint64_t{*RhsOff} + *RhsLen > Counts[2])
      return Error("rule RHS out of range");
    SnapRule.Lhs = *Lhs;
    SnapRule.IsActive = *Flags == 1;
    SnapRule.Rhs.reserve(*RhsLen);
    for (uint32_t J = 0; J < *RhsLen; ++J) {
      Expected<uint32_t> Sym = Section.u32At(static_cast<size_t>(Offsets[2]) +
                                             4 * (size_t(*RhsOff) + J));
      if (!Sym)
        return Error("truncated rule RHS");
      if (*Sym >= Snapshot.Symbols.size())
        return Error("rule RHS references an unknown symbol");
      SnapRule.Rhs.push_back(*Sym);
    }
    Snapshot.Rules.push_back(std::move(SnapRule));
  }
  return Snapshot;
}
