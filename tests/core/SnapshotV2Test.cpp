//===- tests/core/SnapshotV2Test.cpp - ipg-snap-v2 zero-copy load ---------===//
///
/// \file
/// The `ipg-snap-v2` contract (SnapshotTest.cpp covers the public API end
/// to end): flat-layout round trips are parse-equivalent and
/// byte-deterministic; the fingerprint-matched load adopts the mapped
/// GRPH section zero-copy (the data pools' base segments point into the
/// mapping, pinned here by a numAdoptedSets() probe and by an allocation
/// count that does not grow with the graph); adopted graphs stay fully
/// §6-capable through the copy-on-MODIFY materialization; a stale snapshot
/// is adopted too, its ids rewritten in the private mapping; malformed
/// files — truncated, header-corrupted, misaligned, semantically invalid,
/// colliding kernels — are rejected with the generator left usable; the
/// checked-in golden v2 file keeps loading and re-saves byte-identically;
/// and retired encodings (the checked-in v1 file, a pre-flat-arena v2
/// file) are rejected with an error naming the cause.
///
/// This suite must stay in its own test executable: like
/// HotPathAllocTest.cpp it replaces the global operator new with a
/// counting one to prove the zero-copy path performs no per-ItemSet heap
/// allocation.
///
//===----------------------------------------------------------------------===//

#include "common/GraphCanon.h"
#include "common/IndexCheck.h"
#include "common/SnapshotReseal.h"
#include "common/TestGrammars.h"
#include "core/Ipg.h"
#include "grammar/GrammarBuilder.h"
#include "grammar/GrammarIO.h"
#include "lr/GraphSnapshot.h"
#include "support/MappedFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#if defined(_MSC_VER)
#include <malloc.h>
#endif

// GCC pairs the replaced (malloc-backed) operator new with the sized
// delete at gtest template instantiation sites and flags a mismatch that
// is not one — both sides of this TU's replacement are malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

/// Number of global operator new calls since process start. Plain (not
/// atomic): the suite is single-threaded and the counter is only compared
/// across points on one thread.
unsigned long long AllocCount = 0;

} // namespace

void *operator new(std::size_t Size) {
  ++AllocCount;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) { return ::operator new(Size); }

namespace {

void *alignedAllocCounted(std::size_t Size, std::size_t Align) {
  ++AllocCount;
#if defined(_MSC_VER)
  return _aligned_malloc(Size ? Size : Align, Align);
#else
  std::size_t Rounded = (Size + Align - 1) & ~(Align - 1);
  return std::aligned_alloc(Align, Rounded ? Rounded : Align);
#endif
}
void alignedFree(void *P) noexcept {
#if defined(_MSC_VER)
  _aligned_free(P);
#else
  std::free(P);
#endif
}

} // namespace

void *operator new(std::size_t Size, std::align_val_t Align) {
  if (void *P = alignedAllocCounted(Size, static_cast<std::size_t>(Align)))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return ::operator new(Size, Align);
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  ++AllocCount;
  return std::malloc(Size ? Size : 1);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  ++AllocCount;
  return std::malloc(Size ? Size : 1);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { alignedFree(P); }
void operator delete[](void *P, std::align_val_t) noexcept { alignedFree(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  alignedFree(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  alignedFree(P);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace ipg;
using namespace ipg::testing;

namespace {

template <typename FnT> unsigned long long allocationsDuring(FnT &&Fn) {
  unsigned long long Before = AllocCount;
  Fn();
  return AllocCount - Before;
}

/// Per-test temp file that cleans up after itself.
class SnapshotFile {
public:
  explicit SnapshotFile(const std::string &Name)
      : Path(::testing::TempDir() + Name) {
    std::remove(Path.c_str());
  }
  ~SnapshotFile() { std::remove(Path.c_str()); }

  const std::string &path() const { return Path; }

private:
  std::string Path;
};

std::vector<uint8_t> fileBytes(const std::string &Path) {
  Expected<std::vector<uint8_t>> Bytes = readFileBytes(Path);
  EXPECT_TRUE(Bytes);
  return Bytes ? Bytes.take() : std::vector<uint8_t>();
}

void writeBytesToFile(const std::string &Path,
                      const std::vector<uint8_t> &Bytes) {
  Expected<size_t> Written =
      writeBytesToFileAtomic(Path, Bytes.data(), Bytes.size());
  ASSERT_TRUE(Written) << Written.error().str();
}

/// A layered chain grammar whose item-set count grows linearly with
/// \p Layers — the scaling knob behind the constant-allocation pin.
void buildLayered(Grammar &G, int Layers) {
  GrammarBuilder B(G);
  // Two-step concatenation sidesteps a GCC 12 -O3 -Wrestrict false
  // positive on `"L" + std::to_string(I)`.
  auto Name = [](const char *Prefix, int I) {
    std::string Text(Prefix);
    Text += std::to_string(I);
    return Text;
  };
  B.rule("START", {"L0"});
  for (int I = 0; I < Layers; ++I) {
    std::string Cur = Name("L", I);
    std::string Tok = Name("t", I);
    if (I + 1 < Layers) {
      std::string Next = Name("L", I + 1);
      B.rule(Cur, {Tok, Next});
      B.rule(Cur, {Next});
    }
    B.rule(Cur, {Tok});
  }
}

/// Since the flat-arena refactor, borrowing is a whole-graph property:
/// adoptV2 installs the mapped pools as base segments and records how many
/// set records arrived that way. Nonzero means the graph still reads
/// through the mapping.
size_t countBorrowed(const ItemSetGraph &Graph) {
  return Graph.numAdoptedSets();
}

/// Little-endian field reads and writes on a snapshot image.
uint64_t readLe(const std::vector<uint8_t> &File, size_t Off, int Bytes) {
  uint64_t Value = 0;
  for (int I = 0; I < Bytes; ++I)
    Value |= static_cast<uint64_t>(File[Off + static_cast<size_t>(I)])
             << (8 * I);
  return Value;
}
void writeLe32(std::vector<uint8_t> &File, size_t Off, uint32_t Value) {
  for (int I = 0; I < 4; ++I)
    File[Off + static_cast<size_t>(I)] = static_cast<uint8_t>(Value >> (8 * I));
}

/// File offset of the GRPH section (header offset 48).
size_t grphOffset(const std::vector<uint8_t> &File) {
  return static_cast<size_t>(readLe(File, 48, 8));
}

/// File offset of set record \p Id (the GRPH OffSetRecs field is at
/// section offset 80; records are 52 bytes).
size_t setRecordOffset(const std::vector<uint8_t> &File, uint32_t Id) {
  const size_t Grph = grphOffset(File);
  return Grph + static_cast<size_t>(readLe(File, Grph + 80, 8)) +
         size_t{52} * Id;
}

/// The arithmetic grammar plus `F ::= neg F` — a one-rule-newer grammar
/// whose layout no longer matches a snapshot of buildArith, so loading
/// that snapshot takes the remapped path.
void buildArithWithNeg(Grammar &G) {
  buildArith(G);
  GrammarBuilder(G).rule("F", {"neg", "F"});
}

} // namespace

TEST(SnapshotV2, CountingOperatorNewIsLive) {
  unsigned long long Allocs = allocationsDuring([] {
    std::vector<int> *V = new std::vector<int>(100, 7);
    delete V;
  });
  EXPECT_GE(Allocs, 2ull) << "the counting operator new must be installed";
}

TEST(SnapshotV2, MatchedLoadAdoptsBorrowedStorage) {
  SnapshotFile File("snapv2_adopt.bin");
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  size_t States = Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  Grammar::cloneActiveRules(G, G2);
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->FingerprintMatched);
  EXPECT_EQ(R->StatesLoaded, States);
  // The zero-copy path must actually have engaged — every set record was
  // adopted out of the mapping, and the data pools read through it.
  EXPECT_EQ(countBorrowed(Loaded.graph()), States);
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "id + id * id")));
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Gen.graph()));
}

TEST(SnapshotV2, AdoptedGraphSurvivesModifyViaCopyOnWrite) {
  // §6 on a zero-copy graph: with flat-arena pools, copy-on-MODIFY is
  // append-only — ADD-RULE moves the dirtied sets' spans and re-expansion
  // appends fresh spans to the grow segments, while the adopted base
  // pools (and the mapping behind them) stay installed untouched; the
  // repaired graph must canonicalize like a from-scratch graph of the new
  // grammar.
  SnapshotFile File("snapv2_cow.bin");
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  Grammar::cloneActiveRules(G, G2);
  Ipg Loaded(G2);
  ASSERT_TRUE(Loaded.loadSnapshot(File.path()));
  size_t BorrowedBefore = countBorrowed(Loaded.graph());

  ASSERT_TRUE(Loaded.addRule("F", {"neg", "F"}));
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "neg id + id")));
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "id * neg neg id")));
  EXPECT_GT(BorrowedBefore, 0u) << "the adoption path must have engaged";
  EXPECT_EQ(countBorrowed(Loaded.graph()), BorrowedBefore)
      << "MODIFY must not evict the adopted base pools — repairs are "
         "appends, not a wholesale copy";
  EXPECT_GT(Loaded.graph().liveSets().size(), BorrowedBefore)
      << "re-expansion after ADD-RULE must have appended new sets "
         "beyond the adopted block";

  Grammar GRef;
  Grammar::cloneActiveRules(G2, GRef);
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Ref));
}

TEST(SnapshotV2, MatchedLoadAllocationsDoNotGrowWithTheGraph) {
  // The zero-copy claim, pinned the HotPathAllocTest way: a layout-match
  // v2 load allocates a small constant number of blocks (the mapping
  // handle and the adopted ItemSet block) regardless of how many sets the
  // snapshot holds — zero allocations per ItemSet.
  auto MeasureLoad = [&](int Layers, size_t &StatesOut) {
    SnapshotFile File("snapv2_alloc_" + std::to_string(Layers) + ".bin");
    Grammar G;
    buildLayered(G, Layers);
    Ipg Gen(G);
    StatesOut = Gen.generateAll();
    EXPECT_TRUE(Gen.saveSnapshot(File.path()));

    Grammar G2;
    Grammar::cloneActiveRules(G, G2);
    Ipg Loaded(G2);
    const std::string &Path = File.path();
    bool Ok = false;
    unsigned long long Allocs =
        allocationsDuring([&] { Ok = bool(Loaded.loadSnapshot(Path)); });
    EXPECT_TRUE(Ok);
    EXPECT_EQ(countBorrowed(Loaded.graph()), StatesOut);
    return Allocs;
  };

  size_t SmallStates = 0, LargeStates = 0;
  unsigned long long SmallAllocs = MeasureLoad(8, SmallStates);
  unsigned long long LargeAllocs = MeasureLoad(64, LargeStates);
  ASSERT_GT(LargeStates, SmallStates * 4)
      << "the scaling knob must actually scale the graph";
  EXPECT_EQ(SmallAllocs, LargeAllocs)
      << "zero-copy load must not allocate per ItemSet";
  EXPECT_LE(LargeAllocs, 8ull);
}

TEST(SnapshotV2, SaveIsByteDeterministicAndRoundTripsTheFile) {
  SnapshotFile A("snapv2_det_a.bin");
  SnapshotFile B("snapv2_det_b.bin");
  SnapshotFile C("snapv2_det_c.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  // A partially expanded graph: the frontier must round-trip too.
  ASSERT_TRUE(Gen.recognize(sentence(G, "true and true")));
  ASSERT_GT(Gen.graph().countByState(ItemSetState::Initial), 0u);
  ASSERT_TRUE(Gen.saveSnapshot(A.path()));
  ASSERT_TRUE(Gen.saveSnapshot(B.path()));
  EXPECT_EQ(fileBytes(A.path()), fileBytes(B.path()));

  Grammar G2;
  Grammar::cloneActiveRules(G, G2);
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(A.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(Loaded.stats().Expansions, Gen.stats().Expansions);
  EXPECT_EQ(Loaded.graph().countByState(ItemSetState::Initial),
            Gen.graph().countByState(ItemSetState::Initial));
  // Re-saving the just-loaded (still borrowed) graph reproduces the file:
  // the writer reads through the same accessors either way.
  ASSERT_TRUE(Loaded.saveSnapshot(C.path()));
  EXPECT_EQ(fileBytes(A.path()), fileBytes(C.path()));
}

TEST(SnapshotV2, SaveOutputIsByteIdenticalToLivePools) {
  // The flat-arena contract at its most literal: the GRPH section body is
  // the live pools, byte for byte. Build a graph that exercises every
  // pool (reductions, accepts, a dirty set with old spans would need
  // MODIFY — plain generation covers the four always-populated pools),
  // save it, then compare the section's pool regions against the memory
  // the graph's own accessors expose.
  Grammar G;
  buildArith(G);
  ItemSetGraph Graph(G);
  Graph.generateAll();

  FlatWriter Section;
  GraphSnapshot::saveV2(Graph, Section);
  const std::vector<uint8_t> &Bytes = Section.buffer();
  FlatView View(Bytes.data(), Bytes.size());

  auto U32 = [&](size_t Off) {
    Expected<uint32_t> V = View.u32At(Off);
    EXPECT_TRUE(V);
    return V ? *V : 0u;
  };
  auto U64 = [&](size_t Off) {
    Expected<uint64_t> V = View.u64At(Off);
    EXPECT_TRUE(V);
    return V ? *V : 0ull;
  };
  const uint32_t NumSets = U32(0);
  const uint32_t NumKernelItems = U32(8);
  const uint32_t NumTransitions = U32(12);
  const uint32_t NumReductions = U32(20);
  const uint32_t NumAccepts = U32(24);
  ASSERT_EQ(U32(28), 1u) << "flat-arena layout flag";
  // Header (32) + stats (48) + offset table (56) = 136.
  const size_t OffSets = U64(80);
  const size_t OffKernels = U64(88);
  const size_t OffTrans = U64(96);
  const size_t OffLabels = U64(112);
  const size_t OffReds = U64(120);
  const size_t OffAccs = U64(128);
  ASSERT_EQ(OffSets, 136u);

  // Pool base pointers, recovered through the public accessors: some live
  // set owns offset 0 of each pool (a freshly generated graph has no
  // abandoned spans), so the minimum data pointer IS the pool base.
  const Item *KernelBase = nullptr;
  const SymbolId *LabelBase = nullptr;
  const RuleId *RedBase = nullptr;
  const RuleId *AccBase = nullptr;
  for (const ItemSet *Set : Graph.liveSets()) {
    auto Min = [](const auto *&Base, const auto *P) {
      if (Base == nullptr || P < Base)
        Base = P;
    };
    Min(KernelBase, Graph.kernel(Set).data());
    Min(LabelBase, Graph.actionLabels(Set).data());
    Min(RedBase, Graph.reductions(Set).data());
    Min(AccBase, Graph.acceptRules(Set).data());
  }
  ASSERT_NE(KernelBase, nullptr);

  ASSERT_GE(Bytes.size(), OffKernels + NumKernelItems * sizeof(Item));
  EXPECT_EQ(std::memcmp(Bytes.data() + OffKernels, KernelBase,
                        NumKernelItems * sizeof(Item)),
            0)
      << "kernel pool bytes differ from live memory";
  EXPECT_EQ(std::memcmp(Bytes.data() + OffLabels, LabelBase,
                        NumTransitions * sizeof(SymbolId)),
            0)
      << "label pool bytes differ from live memory";
  EXPECT_EQ(std::memcmp(Bytes.data() + OffReds, RedBase,
                        NumReductions * sizeof(RuleId)),
            0)
      << "reduction pool bytes differ from live memory";
  EXPECT_EQ(std::memcmp(Bytes.data() + OffAccs, AccBase,
                        NumAccepts * sizeof(RuleId)),
            0)
      << "accept pool bytes differ from live memory";

  // The record pool and the transition-target pool have no raw public
  // pointer; check them value-by-value through the accessors (Id == pool
  // index, so targets ARE the serialized u32s).
  size_t CheckedTargets = 0;
  for (const ItemSet *Set : Graph.liveSets()) {
    const size_t Rec = OffSets + size_t(Set->id()) * 52;
    EXPECT_EQ(U32(Rec), Set->id());
    EXPECT_EQ(Bytes[Rec + 4], static_cast<uint8_t>(Set->state()));
    EXPECT_EQ(Bytes[Rec + 5] != 0, Set->isAccepting());
    EXPECT_EQ(U32(Rec + 8), Set->refCount());
    TransitionRange Edges = Graph.transitions(Set);
    const uint32_t TransOff = U32(Rec + 20);
    for (size_t I = 0; I < Edges.size(); ++I, ++CheckedTargets)
      EXPECT_EQ(U32(OffTrans + (TransOff + I) * 4), Edges[I].Target->id());
  }
  EXPECT_GT(CheckedTargets, 0u);
  EXPECT_LE(CheckedTargets, NumTransitions);
  (void)NumSets;
}

TEST(SnapshotV2, ResavingOverTheBorrowedFileIsSafe) {
  // saveSnapshot to the very path the graph was zero-copy adopted from:
  // the atomic temp+rename swap must leave the borrowed inode alive for
  // the mapping (an in-place truncating rewrite would rip clean pages
  // out from under the borrowed spans — SIGBUS on the next query).
  SnapshotFile File("snapv2_resave.bin");
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  Grammar::cloneActiveRules(G, G2);
  Ipg Loaded(G2);
  ASSERT_TRUE(Loaded.loadSnapshot(File.path()));
  bool WasBorrowed = countBorrowed(Loaded.graph()) > 0;

  // Overwrite the snapshot while the graph still borrows from it, then
  // keep querying through the borrowed spans.
  ASSERT_TRUE(Loaded.saveSnapshot(File.path()));
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "id + id * id")));
  EXPECT_TRUE(WasBorrowed);

  // And the swapped-in file is a complete, loadable snapshot.
  Grammar G3;
  Grammar::cloneActiveRules(G, G3);
  Ipg Again(G3);
  Expected<SnapshotLoadResult> R = Again.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->FingerprintMatched);
  EXPECT_EQ(canonicalize(Again.graph()), canonicalize(Gen.graph()));
}

TEST(SnapshotV2, StaleSnapshotIsAdoptedAndRepaired) {
  // A layout mismatch remaps the ids in place, still zero-copy, then
  // replays the delta through §6.
  SnapshotFile File("snapv2_stale.bin");
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  size_t FullStates = Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  Grammar::cloneActiveRules(G, G2);
  GrammarBuilder(G2).rule("F", {"neg", "F"});
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_FALSE(R->FingerprintMatched);
  EXPECT_EQ(R->RulesAdded, 1u);
  EXPECT_EQ(R->RulesRemoved, 0u);
  EXPECT_EQ(R->StatesLoaded, FullStates);
  EXPECT_EQ(countBorrowed(Loaded.graph()), FullStates)
      << "the stale load must adopt the mapped pools too";

  uint64_t ReExpansionsBefore = Loaded.stats().ReExpansions;
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "neg id + id")));
  // Bounded re-expansion: the one-rule delta re-expands only the states
  // MODIFY dirtied, not the table.
  EXPECT_LT(Loaded.stats().ReExpansions - ReExpansionsBefore, FullStates / 2);

  Grammar GRef;
  Grammar::cloneActiveRules(G2, GRef);
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Ref));
}

TEST(SnapshotV2, ReverseInternedGrammarAdoptsWithRemappedIds) {
  // The live grammar interns every symbol, then every rule, in the reverse
  // of the snapshot grammar's order, so no id coincides: the load must
  // rewrite the ids in the private mapping and re-sort every kernel (rule
  // order) and live edge span (label order) — a skipped re-sort leaves
  // them out of order and the validation sweep rejects the load.
  SnapshotFile File("snapv2_reversed.bin");
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  size_t States = Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  const std::vector<uint8_t> OnDisk = fileBytes(File.path());

  Grammar G2;
  for (SymbolId Sym = static_cast<SymbolId>(G.symbols().size()); Sym-- > 0;)
    G2.symbols().intern(G.symbols().name(Sym));
  std::vector<RuleId> Rules = G.activeRules();
  GrammarBuilder B(G2);
  for (auto It = Rules.rbegin(); It != Rules.rend(); ++It) {
    std::vector<std::string> Rhs;
    for (SymbolId Sym : G.rule(*It).Rhs)
      Rhs.emplace_back(G.symbols().name(Sym));
    B.rule(G.symbols().name(G.rule(*It).Lhs), Rhs);
  }
  ASSERT_EQ(grammarFingerprint(G2), grammarFingerprint(G));
  ASSERT_NE(grammarLayoutFingerprint(G2), grammarLayoutFingerprint(G));
  ASSERT_NE(G2.symbols().lookup("+"), G.symbols().lookup("+"));
  ASSERT_NE(G2.findRule(G2.symbols().lookup("E"), {G2.symbols().lookup("T")}),
            G.findRule(G.symbols().lookup("E"), {G.symbols().lookup("T")}));

  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->FingerprintMatched);
  EXPECT_EQ(R->StatesLoaded, States);
  EXPECT_GT(Loaded.graph().numAdoptedSets(), 0u);
  EXPECT_EQ(fileBytes(File.path()), OnDisk)
      << "the id rewrite must stay in the private mapping";

  verifyIndexEquivalence(Loaded.graph());
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "( id + id ) * id")));
  EXPECT_FALSE(Loaded.recognize(sentence(G2, "id + * id")));
  Grammar GRef;
  Grammar::cloneActiveRules(G2, GRef);
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Ref));
}

TEST(SnapshotV2, StaleLoadRejectsDuplicateKernels) {
  // Two live sets sharing one kernel, with valid checksums: the matched
  // path adopts without a kernel index (core/Snapshot.h trust model), but
  // the remapped path builds the index and must reject the collision.
  SnapshotFile File("snapv2_dupkernel.bin");
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  std::vector<uint8_t> Bad = fileBytes(File.path());
  ASSERT_EQ(Bad[setRecordOffset(Bad, 1) + 4], 1u) << "set 1 must be Complete";
  ASSERT_EQ(Bad[setRecordOffset(Bad, 2) + 4], 1u) << "set 2 must be Complete";
  // KernelOff/KernelLen sit at record offset 12.
  std::copy_n(Bad.begin() + static_cast<std::ptrdiff_t>(
                                setRecordOffset(Bad, 1) + 12),
              8,
              Bad.begin() + static_cast<std::ptrdiff_t>(
                                setRecordOffset(Bad, 2) + 12));
  resealV2(Bad);
  SnapshotFile BadFile("snapv2_dupkernel_bad.bin");
  writeBytesToFile(BadFile.path(), Bad);

  Grammar G2;
  buildArithWithNeg(G2);
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(BadFile.path());
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().Message.find("duplicate kernel"), std::string::npos)
      << R.error().str();
  EXPECT_EQ(Loaded.graph().numAdoptedSets(), 0u);
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "neg id + id")));
  Grammar GRef;
  Grammar::cloneActiveRules(G2, GRef);
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Ref));
}

TEST(SnapshotV2, StaleLoadRejectsOutOfRangeIdsAndPayloadCorruption) {
  SnapshotFile File("snapv2_stale_bad.bin");
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  const std::vector<uint8_t> Pristine = fileBytes(File.path());
  const size_t Grph = grphOffset(Pristine);
  // Section offsets 88 and 112: OffKernelItems and OffActionLabels.
  const size_t FirstKernelRule =
      Grph + static_cast<size_t>(readLe(Pristine, Grph + 88, 8));
  const size_t FirstLabel =
      Grph + static_cast<size_t>(readLe(Pristine, Grph + 112, 8));

  auto ExpectStaleLoadFails = [&](const std::vector<uint8_t> &Bytes,
                                  const char *Cause) {
    SnapshotFile BadFile("snapv2_stale_bad_copy.bin");
    writeBytesToFile(BadFile.path(), Bytes);
    Grammar G2;
    buildArithWithNeg(G2);
    Ipg Loaded(G2);
    Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(BadFile.path());
    ASSERT_FALSE(R) << Cause;
    EXPECT_NE(R.error().Message.find(Cause), std::string::npos)
        << R.error().str();
    EXPECT_TRUE(Loaded.recognize(sentence(G2, "neg id * id")));
    EXPECT_FALSE(Loaded.recognize(sentence(G2, "id neg")));
  };

  std::vector<uint8_t> Bad = Pristine;
  writeLe32(Bad, FirstKernelRule, 0x00FFFFFFu);
  resealV2(Bad);
  ExpectStaleLoadFails(Bad, "unknown rule");

  Bad = Pristine;
  writeLe32(Bad, FirstLabel, 0x00FFFFFFu);
  resealV2(Bad);
  ExpectStaleLoadFails(Bad, "unknown symbol");

  Bad = Pristine;
  Bad[FirstLabel] ^= 0x40; // Not resealed: the payload checksum fires.
  ExpectStaleLoadFails(Bad, "checksum mismatch");
}

TEST(SnapshotV2, EpsilonRulesAndEmptyPoolsRoundTrip) {
  // A one-node graph over a grammar with ε-rules: the save writes empty
  // right-hand sides and empty transition/reduction/accept pools, each an
  // empty span whose data pointer may be null.
  SnapshotFile File("snapv2_epsilon.bin");
  Grammar G;
  buildEpsilonChains(G);
  Ipg Gen(G);
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  buildEpsilonChains(G2);
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->FingerprintMatched);
  EXPECT_EQ(R->StatesLoaded, 1u);
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "x")));
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "a c x")));
  EXPECT_FALSE(Loaded.recognize(sentence(G2, "c a x")));

  Gen.recognize(sentence(G, "x"));
  Gen.recognize(sentence(G, "a c x"));
  Gen.recognize(sentence(G, "c a x"));
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Gen.graph()));
}

TEST(SnapshotV2, RejectsEveryTruncation) {
  SnapshotFile File("snapv2_trunc.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  std::vector<uint8_t> Full = fileBytes(File.path());
  ASSERT_GT(Full.size(), SnapshotV2HeaderBytes);

  SnapshotFile Cut("snapv2_trunc_cut.bin");
  for (size_t Keep = 0; Keep < Full.size(); ++Keep) {
    writeBytesToFile(Cut.path(),
                     std::vector<uint8_t>(Full.begin(), Full.begin() + Keep));
    Grammar G2;
    buildBooleans(G2);
    Ipg Loaded(G2);
    EXPECT_FALSE(Loaded.loadSnapshot(Cut.path()))
        << "truncation to " << Keep << " bytes must be rejected";
    EXPECT_TRUE(Loaded.recognize(sentence(G2, "true")));
  }
}

TEST(SnapshotV2, RejectsEveryHeaderCorruptionAndSurvivesPayloadFlips) {
  SnapshotFile File("snapv2_corrupt.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.recognize(sentence(G, "true and true"));
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  std::vector<uint8_t> Full = fileBytes(File.path());

  // Every header byte is covered by a checksum (the header checksum field
  // itself included — flipping it breaks the comparison), so any flip
  // below the payload must fail the load. Payload flips are the v2 trust
  // trade: on the fast path the structural validation catches what it
  // can, and the required guarantee is only that the load never crashes
  // and the generator stays usable.
  SnapshotFile Bad("snapv2_corrupt_bad.bin");
  for (size_t I = 0; I < Full.size(); ++I) {
    std::vector<uint8_t> Copy = Full;
    Copy[I] ^= 0x40;
    writeBytesToFile(Bad.path(), Copy);
    Grammar G2;
    buildBooleans(G2);
    Ipg Loaded(G2);
    Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(Bad.path());
    if (I < SnapshotV2HeaderBytes) {
      EXPECT_FALSE(R) << "header byte " << I
                      << " corrupted but load succeeded";
    }
    EXPECT_TRUE(Loaded.recognize(sentence(G2, "true")))
        << "generator unusable after corrupted load (byte " << I << ")";
  }
}

TEST(SnapshotV2, RejectsMisalignedSections) {
  // A crafted header whose GRPH offset breaks the natural-alignment
  // contract: the typed-array bounds/alignment gate must reject it
  // (moving the offset by 4 also makes its content garbage — either
  // validation layer may fire, but the load must fail cleanly).
  SnapshotFile File("snapv2_misalign.bin");
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  std::vector<uint8_t> Full = fileBytes(File.path());

  // GrphOff lives at header offset 48; nudge it off 8-alignment and
  // reseal the checksums so the mutation reaches the section readers.
  uint64_t GrphOff = 0;
  for (int I = 0; I < 8; ++I)
    GrphOff |= static_cast<uint64_t>(Full[48 + I]) << (8 * I);
  uint64_t Nudged = GrphOff + 4;
  for (int I = 0; I < 8; ++I)
    Full[48 + I] = static_cast<uint8_t>(Nudged >> (8 * I));
  resealV2(Full);

  SnapshotFile Bad("snapv2_misalign_bad.bin");
  writeBytesToFile(Bad.path(), Full);
  Grammar G2;
  Grammar::cloneActiveRules(G, G2);
  Ipg Loaded(G2);
  EXPECT_FALSE(Loaded.loadSnapshot(Bad.path()));
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "id")));
}

TEST(SnapshotV2, RejectsResealedSemanticCorruption) {
  // Out-of-range indices with *valid* checksums: the structural
  // validation inside the adopter must catch them, and the failed load
  // must leave the generator usable.
  SnapshotFile File("snapv2_semantic.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  std::vector<uint8_t> Pristine = fileBytes(File.path());

  // The GRPH header's StartIdx (section offset 4) -> out of range.
  uint64_t GrphOff = 0;
  for (int I = 0; I < 8; ++I)
    GrphOff |= static_cast<uint64_t>(Pristine[48 + I]) << (8 * I);
  std::vector<uint8_t> Bad = Pristine;
  size_t StartIdxOff = static_cast<size_t>(GrphOff) + 4;
  Bad[StartIdxOff] = 0xFF;
  Bad[StartIdxOff + 1] = 0xFF;
  resealV2(Bad);

  SnapshotFile BadFile("snapv2_semantic_bad.bin");
  writeBytesToFile(BadFile.path(), Bad);
  Grammar G2;
  buildBooleans(G2);
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(BadFile.path());
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().Message.find("start set"), std::string::npos);
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "true or false")));
}

//===----------------------------------------------------------------------===//
// Golden files
//===----------------------------------------------------------------------===//

namespace {

/// The grammar the checked-in golden snapshots were saved from. Must never
/// drift: the golden files pin what today's loader does with those bytes.
void buildGoldenGrammar(Grammar &G) { buildArith(G); }

std::string testDataPath(const char *Name) {
  return std::string(IPG_TEST_DATA_DIR) + "/" + Name;
}

std::string goldenV2Path() { return testDataPath("golden-v2.snapshot"); }

/// Loads a retired-format file into a fresh generator over the golden
/// grammar: the load must fail with an error containing \p Cause, and the
/// generator must then build and parse as if the file had never existed.
void expectRejectedWithCause(const std::string &Path, const char *Cause) {
  Grammar G;
  buildGoldenGrammar(G);
  Ipg Gen(G);
  Expected<SnapshotLoadResult> R = Gen.loadSnapshot(Path);
  ASSERT_FALSE(R) << Path << " must no longer load";
  EXPECT_NE(R.error().Message.find(Cause), std::string::npos)
      << "error does not name the cause: " << R.error().str();
  EXPECT_TRUE(Gen.recognize(sentence(G, "id + id * ( id + id )")));
  EXPECT_FALSE(Gen.recognize(sentence(G, "id + + id")));

  Grammar GRef;
  buildGoldenGrammar(GRef);
  Ipg Ref(GRef);
  Ref.recognize(sentence(GRef, "id + id * ( id + id )"));
  Ref.recognize(sentence(GRef, "id + + id"));
  EXPECT_EQ(canonicalize(Gen.graph()), canonicalize(Ref.graph()));
}

} // namespace

// A real file in the retired varint encoding.
TEST(SnapshotV2, GoldenV1SnapshotIsRejected) {
  expectRejectedWithCause(testDataPath("golden-v1.snapshot"), "ipg-snap-v1");
}

// A real v2 file whose GRPH section predates the flat-arena layout (its
// layout word is 0, and its payload checksum is byte-wise FNV-1a).
TEST(SnapshotV2, PreFlatArenaV2SnapshotIsRejected) {
  expectRejectedWithCause(testDataPath("legacy-layout-v2.snapshot"),
                          "flat-arena");
}

// The checked-in v2 bytes must keep fingerprint-matching (mmap-adoptable)
// and loading into a parse-equivalent graph on every future revision, and
// since the flat-arena layout is the pools verbatim, re-saving the adopted
// graph must reproduce the file byte for byte.
TEST(SnapshotV2, GoldenV2SnapshotStillLoads) {
  Grammar G;
  buildGoldenGrammar(G);
  Ipg Gen(G);
  Expected<SnapshotLoadResult> R = Gen.loadSnapshot(goldenV2Path());
  ASSERT_TRUE(R) << "golden v2 snapshot failed to load: " << R.error().str()
                 << " — if the v2 format changed on purpose, that breaks "
                    "released snapshots; if the golden grammar drifted, "
                    "restore buildGoldenGrammar";
  EXPECT_TRUE(R->FingerprintMatched);
  EXPECT_GT(countBorrowed(Gen.graph()), 0u) << "golden must be adopted";

  SnapshotFile Resaved("snapv2_golden_resaved.bin");
  ASSERT_TRUE(Gen.saveSnapshot(Resaved.path()));
  EXPECT_EQ(fileBytes(Resaved.path()), fileBytes(goldenV2Path()))
      << "save-after-load of the golden must be byte-identical";

  EXPECT_TRUE(Gen.recognize(sentence(G, "id + id * ( id + id )")));
  Grammar GRef;
  buildGoldenGrammar(GRef);
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Gen.graph()), canonicalize(Ref));
}

// Regeneration helper, disabled by default. Run ipg_snapshot_v2_test with
// --gtest_also_run_disabled_tests --gtest_filter='*RegenerateGoldenV2*'
// only when the golden must legitimately change (it writes into the
// source tree).
TEST(SnapshotV2, DISABLED_RegenerateGoldenV2) {
  Grammar G;
  buildGoldenGrammar(G);
  Ipg Gen(G);
  Gen.generateAll();
  Expected<size_t> Written = Gen.saveSnapshot(goldenV2Path());
  ASSERT_TRUE(Written) << Written.error().str();
  std::printf("wrote %zu bytes to %s\n", *Written, goldenV2Path().c_str());
}

//===----------------------------------------------------------------------===//
// Property sweep over the seeded random grammars
//===----------------------------------------------------------------------===//

class SnapshotV2RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotV2RoundTripTest, RoundTripIsParseEquivalentAndDeterministic) {
  SnapshotFile File("snapv2_sweep_" + std::to_string(GetParam()) + ".bin");
  Grammar G;
  RandomGrammarCase Case = buildRandomGrammar(G, GetParam());
  Ipg Gen(G);
  for (const std::vector<SymbolId> &S : Case.Positive)
    EXPECT_TRUE(Gen.recognize(S));
  ItemSetGraphStats Before = Gen.stats();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  Grammar::cloneActiveRules(G, G2);
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->FingerprintMatched);
  EXPECT_EQ(R->StatesLoaded, Gen.graph().numLive());
  EXPECT_EQ(Loaded.stats().Expansions, Before.Expansions);
  EXPECT_EQ(Loaded.stats().ClosureItems, Before.ClosureItems);

  SnapshotFile Again("snapv2_sweep_again_" + std::to_string(GetParam()) +
                     ".bin");
  ASSERT_TRUE(Loaded.saveSnapshot(Again.path()));
  EXPECT_EQ(fileBytes(File.path()), fileBytes(Again.path()));

  for (const std::vector<SymbolId> &S : Case.Positive)
    EXPECT_TRUE(Loaded.recognize(S));
  for (const std::vector<SymbolId> &S : Case.Mutated) {
    Grammar GRef;
    Grammar::cloneActiveRules(G, GRef);
    Ipg Ref(GRef);
    EXPECT_EQ(Loaded.recognize(S), Ref.recognize(S));
  }
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Gen.graph()));
}

TEST_P(SnapshotV2RoundTripTest, StaleRepairMatchesFromScratchGeneration) {
  SnapshotFile File("snapv2_sweep_stale_" + std::to_string(GetParam()) +
                    ".bin");
  Grammar G;
  RandomGrammarCase Case = buildRandomGrammar(G, GetParam());
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  Grammar::cloneActiveRules(G, G2);
  std::vector<RuleId> Active = G2.activeRules();
  const Rule &Template = G2.rule(Active[GetParam() % Active.size()]);
  SymbolId Lhs = Template.Lhs;
  G2.addRule(Lhs, {G2.symbols().intern("snapnew")});
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_FALSE(R->FingerprintMatched);
  EXPECT_EQ(R->RulesAdded, 1u);
  EXPECT_EQ(R->RulesRemoved, 0u);

  for (const std::vector<SymbolId> &S : Case.Positive)
    EXPECT_TRUE(Loaded.recognize(S));

  Grammar GRef;
  Grammar::cloneActiveRules(G2, GRef);
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotV2RoundTripTest,
                         ::testing::Range<uint64_t>(1, 26));
