//===- tests/core/SnapshotTest.cpp - Snapshot persistence (cross-process §5/§6) -===//
///
/// The snapshot subsystem end to end, through the public Ipg API:
/// byte-deterministic round trips that preserve the graph (frontier
/// states, stats, parse behaviour), the fingerprint-keyed warm start,
/// §6-powered repair of stale snapshots, and rejection of truncated /
/// wrong-version files. Property sweeps run the same claims over the
/// seeded random grammars. The format's zero-copy, layout and corruption
/// contracts live in SnapshotV2Test.cpp.
///
//===----------------------------------------------------------------------===//

#include "common/GraphCanon.h"
#include "common/TestGrammars.h"
#include "core/Ipg.h"
#include "grammar/GrammarIO.h"
#include "support/MappedFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace ipg;
using namespace ipg::testing;

namespace {

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

} // namespace

TEST(Snapshot, PartialGraphRoundTripPreservesFrontierAndStats) {
  SnapshotFile File("snap_partial.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  // Fig 5.2 state: the or/false branch is still an unexpanded frontier.
  ASSERT_TRUE(Gen.recognize(sentence(G, "true and true")));
  ASSERT_GT(Gen.graph().countByState(ItemSetState::Initial), 0u);
  ItemSetGraphStats Before = Gen.stats();
  Expected<size_t> Saved = Gen.saveSnapshot(File.path());
  ASSERT_TRUE(Saved) << Saved.error().str();
  EXPECT_GT(*Saved, 0u);

  Grammar G2;
  buildBooleans(G2);
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->FingerprintMatched);
  EXPECT_EQ(R->RulesAdded, 0u);
  EXPECT_EQ(R->RulesRemoved, 0u);
  EXPECT_EQ(R->StatesLoaded, Gen.graph().numLive());

  // The lazy frontier survives: same per-state counts, same stats.
  EXPECT_EQ(Loaded.graph().numComplete(), Gen.graph().numComplete());
  EXPECT_EQ(Loaded.graph().countByState(ItemSetState::Initial),
            Gen.graph().countByState(ItemSetState::Initial));
  EXPECT_EQ(Loaded.stats().Expansions, Before.Expansions);
  EXPECT_EQ(Loaded.stats().ClosureItems, Before.ClosureItems);
  EXPECT_EQ(Loaded.stats().GotoCalls, Before.GotoCalls);

  // Identical parse behaviour, including inputs that force expansion.
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "true and true")));
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "false or true")));
  EXPECT_FALSE(Loaded.recognize(sentence(G2, "true true")));

  // The storeStats() regression: those post-restore parses bumped the
  // sharded counters, and the bumps must ADD ON TOP of the restored base,
  // not vanish into it (restore deposits a base the bump shards never
  // touch — support/Concurrency.h).
  EXPECT_GT(Loaded.stats().Expansions, Before.Expansions);
  EXPECT_GE(Loaded.stats().GotoCalls, Before.GotoCalls);
}

TEST(Snapshot, ActionsMatchAfterRoundTrip) {
  SnapshotFile File("snap_actions.bin");
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  buildArith(G2);
  Ipg Loaded(G2);
  ASSERT_TRUE(Loaded.loadSnapshot(File.path()));

  // ACTION agrees on every terminal in the respective start states, and
  // the whole reachable graphs are isomorphic.
  for (const char *Terminal : {"id", "(", ")", "+", "*"}) {
    SymbolId Sym = G.symbols().lookup(Terminal);
    EXPECT_EQ(Gen.graph().actionsView(Gen.graph().startSet(), Sym).size(),
              Loaded.graph()
                  .actionsView(Loaded.graph().startSet(), Sym)
                  .size())
        << Terminal;
  }
  EXPECT_EQ(canonicalize(Gen.graph()), canonicalize(Loaded.graph()));
}

TEST(Snapshot, SerializationIsByteDeterministic) {
  SnapshotFile A("snap_det_a.bin"), B("snap_det_b.bin"), C("snap_det_c.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.recognize(sentence(G, "true or false"));
  ASSERT_TRUE(Gen.saveSnapshot(A.path()));
  ASSERT_TRUE(Gen.saveSnapshot(B.path()));
  EXPECT_EQ(fileBytes(A.path()), fileBytes(B.path()))
      << "same graph must serialize to identical bytes";

  // Fingerprint-matched save -> load -> save reproduces the exact file.
  Grammar G2;
  buildBooleans(G2);
  Ipg Loaded(G2);
  ASSERT_TRUE(Loaded.loadSnapshot(A.path()));
  ASSERT_TRUE(Loaded.saveSnapshot(C.path()));
  EXPECT_EQ(fileBytes(A.path()), fileBytes(C.path()));
}

TEST(Snapshot, DirtyFrontierSurvivesRoundTrip) {
  SnapshotFile File("snap_dirty.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.generateAll();
  // MODIFY marks states dirty; snapshot before anything re-expands.
  ASSERT_TRUE(Gen.addRule("B", {"not", "B"}));
  size_t DirtyBefore = Gen.graph().countByState(ItemSetState::Dirty);
  ASSERT_GT(DirtyBefore, 0u);
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  buildBooleans(G2);
  GrammarBuilder(G2).rule("B", {"not", "B"});
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->FingerprintMatched);
  EXPECT_EQ(Loaded.graph().countByState(ItemSetState::Dirty), DirtyBefore);

  // The dirty states re-expand by need and the new rule is live.
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "not true and not false")));
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Gen.graph()));
}

TEST(Snapshot, RetiredRuleInLiveKernelsRoundTrips) {
  SnapshotFile File("snap_retired.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.generateAll();
  // DELETE-RULE retires "B ::= true"; complete sets whose kernels mention
  // it stay live until their dirty parents re-expand. Snapshot this
  // in-between state — the GRAM section must carry inactive rules too.
  ASSERT_TRUE(Gen.deleteRule("B", {"true"}));
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  Grammar G2;
  buildBooleans(G2);
  G2.removeRule(G2.symbols().lookup("B"),
                {G2.symbols().lookup("true")});
  Ipg Loaded(G2);
  Expected<SnapshotLoadResult> R = Loaded.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_FALSE(Loaded.recognize(sentence(G2, "true")));
  EXPECT_TRUE(Loaded.recognize(sentence(G2, "false or false")));
  EXPECT_EQ(canonicalize(Loaded.graph()), canonicalize(Gen.graph()));
}

TEST(Snapshot, StaleSnapshotIsRepairedWhenLiveGrammarGainedARule) {
  SnapshotFile File("snap_stale_add.bin");
  {
    Grammar G;
    buildBooleans(G);
    Ipg Gen(G);
    Gen.generateAll();
    ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  }
  // The live grammar moved on: it has one extra alternative.
  Grammar G;
  buildBooleans(G);
  GrammarBuilder(G).rule("B", {"not", "B"});
  Ipg Gen(G);
  Expected<SnapshotLoadResult> R = Gen.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_FALSE(R->FingerprintMatched);
  EXPECT_EQ(R->RulesAdded, 1u);
  EXPECT_EQ(R->RulesRemoved, 0u);
  EXPECT_GT(Gen.graph().countByState(ItemSetState::Dirty), 0u)
      << "the replayed ADD-RULE must invalidate the affected states";

  EXPECT_TRUE(Gen.recognize(sentence(G, "not true or false")));
  Grammar GRef;
  buildBooleans(GRef);
  GrammarBuilder(GRef).rule("B", {"not", "B"});
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Gen.graph()), canonicalize(Ref));
}

TEST(Snapshot, StaleSnapshotIsRepairedWhenLiveGrammarLostARule) {
  SnapshotFile File("snap_stale_del.bin");
  {
    Grammar G;
    buildBooleans(G);
    Ipg Gen(G);
    Gen.generateAll();
    ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  }
  Grammar G;
  buildBooleans(G);
  G.removeRule(G.symbols().lookup("B"), {G.symbols().lookup("false")});
  Ipg Gen(G);
  Expected<SnapshotLoadResult> R = Gen.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_FALSE(R->FingerprintMatched);
  EXPECT_EQ(R->RulesAdded, 0u);
  EXPECT_EQ(R->RulesRemoved, 1u);

  EXPECT_FALSE(Gen.recognize(sentence(G, "false")));
  EXPECT_TRUE(Gen.recognize(sentence(G, "true and true")));
  Grammar GRef;
  buildBooleans(GRef);
  GRef.removeRule(GRef.symbols().lookup("B"),
                  {GRef.symbols().lookup("false")});
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Gen.graph()), canonicalize(Ref));
}

TEST(Snapshot, StartRuleDeltaIsRepaired) {
  SnapshotFile File("snap_stale_start.bin");
  {
    Grammar G;
    buildBooleans(G);
    Ipg Gen(G);
    Gen.generateAll();
    ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  }
  // The live grammar adds a second START alternative — the delta touches
  // the start kernel itself.
  Grammar G;
  buildBooleans(G);
  GrammarBuilder B(G);
  B.rule("C", {"maybe"});
  B.rule("START", {"C"});
  Ipg Gen(G);
  Expected<SnapshotLoadResult> R = Gen.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_FALSE(R->FingerprintMatched);
  EXPECT_EQ(R->RulesAdded, 2u);
  EXPECT_TRUE(Gen.recognize(sentence(G, "maybe")));
  EXPECT_TRUE(Gen.recognize(sentence(G, "true or false")));

  Grammar GRef;
  buildBooleans(GRef);
  GrammarBuilder BRef(GRef);
  BRef.rule("C", {"maybe"});
  BRef.rule("START", {"C"});
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Gen.graph()), canonicalize(Ref));
}

TEST(Snapshot, DifferentInterningOrderStillFingerprintMatches) {
  SnapshotFile File("snap_interning.bin");
  {
    Grammar G;
    buildBooleans(G);
    Ipg Gen(G);
    Gen.generateAll();
    ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  }
  // Same rules, interned in a different order: the layout fast path cannot
  // apply, but the content fingerprint (by name) must still match and the
  // by-name remapping must deliver an equivalent graph.
  Grammar G;
  G.symbols().intern("or");
  G.symbols().intern("zzz");
  buildBooleans(G);
  Ipg Gen(G);
  Expected<SnapshotLoadResult> R = Gen.loadSnapshot(File.path());
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->FingerprintMatched);
  EXPECT_EQ(R->RulesAdded, 0u);
  EXPECT_EQ(R->RulesRemoved, 0u);
  EXPECT_TRUE(Gen.recognize(sentence(G, "true or false")));

  Grammar GRef;
  buildBooleans(GRef);
  ItemSetGraph Ref(GRef);
  EXPECT_EQ(canonicalize(Gen.graph()), canonicalize(Ref));
}

TEST(Snapshot, GrammarFingerprintIsOrderIndependentButContentSensitive) {
  Grammar A;
  buildBooleans(A);

  // Same rules, different interning and insertion order.
  Grammar B;
  B.symbols().intern("and");
  GrammarBuilder BB(B);
  BB.rule("B", {"B", "and", "B"});
  BB.rule("START", {"B"});
  BB.rule("B", {"B", "or", "B"});
  BB.rule("B", {"false"});
  BB.rule("B", {"true"});
  EXPECT_EQ(grammarFingerprint(A), grammarFingerprint(B));
  EXPECT_NE(grammarLayoutFingerprint(A), grammarLayoutFingerprint(B));

  // Any content change moves the fingerprint.
  GrammarBuilder(B).rule("B", {"not", "B"});
  EXPECT_NE(grammarFingerprint(A), grammarFingerprint(B));

  // Deleting and re-adding a rule lands back on the same fingerprint even
  // though the grammar now carries an interned-but-inactive history.
  Grammar C;
  buildBooleans(C);
  C.removeRule(C.symbols().lookup("B"), {C.symbols().lookup("true")});
  EXPECT_NE(grammarFingerprint(A), grammarFingerprint(C));
  C.addRule(C.symbols().lookup("B"), {C.symbols().lookup("true")});
  EXPECT_EQ(grammarFingerprint(A), grammarFingerprint(C));
}

TEST(Snapshot, RejectsBadMagicWrongVersionAndGarbage) {
  SnapshotFile File("snap_reject.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);

  writeBytesToFile(File.path(), {'n', 'o', 't', 'a', 's', 'n', 'a', 'p'});
  Expected<SnapshotLoadResult> R = Gen.loadSnapshot(File.path());
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().Message.find("magic"), std::string::npos);

  std::vector<uint8_t> WrongVersion{'i', 'p', 'g', '-', 's', 'n', 'a', 'p',
                                    '-', 'v', '9'};
  WrongVersion.resize(64, 0);
  writeBytesToFile(File.path(), WrongVersion);
  R = Gen.loadSnapshot(File.path());
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().Message.find("version"), std::string::npos);

  EXPECT_FALSE(Gen.loadSnapshot(File.path() + ".does-not-exist"));

  // The failed loads must leave the generator fully usable.
  EXPECT_TRUE(Gen.recognize(sentence(G, "true and false")));
}

TEST(Snapshot, RejectsEveryTruncation) {
  SnapshotFile File("snap_trunc.bin");
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));
  std::vector<uint8_t> Full = fileBytes(File.path());
  ASSERT_GT(Full.size(), 0u);

  SnapshotFile Cut("snap_trunc_cut.bin");
  for (size_t Keep = 0; Keep < Full.size(); ++Keep) {
    writeBytesToFile(Cut.path(),
                     std::vector<uint8_t>(Full.begin(), Full.begin() + Keep));
    Grammar G2;
    buildBooleans(G2);
    Ipg Loaded(G2);
    EXPECT_FALSE(Loaded.loadSnapshot(Cut.path()))
        << "truncation to " << Keep << " bytes must be rejected";
    // Whatever failed, the generator still works.
    EXPECT_TRUE(Loaded.recognize(sentence(G2, "true")));
  }
}

TEST(Snapshot, SaveToUnwritablePathFails) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Expected<size_t> R = Gen.saveSnapshot(::testing::TempDir());
  EXPECT_FALSE(R);
}

// Property sweep: save -> load round trips preserve parse behaviour and
// graph structure for the seeded random grammars, from both a partially
// expanded (parse-driven) and a fully generated graph.
class SnapshotRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotRoundTripTest, RoundTripIsParseEquivalentAndDeterministic) {
  SnapshotFile File("snap_sweep_" + std::to_string(GetParam()) + ".bin");
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

  // Byte determinism: re-saving the just-loaded graph (before any parse
  // expands it further) reproduces the file exactly.
  SnapshotFile Again("snap_sweep_again_" + std::to_string(GetParam()) +
                     ".bin");
  ASSERT_TRUE(Loaded.saveSnapshot(Again.path()));
  EXPECT_EQ(fileBytes(File.path()), fileBytes(Again.path()));

  // recognize() equivalence on derivable sentences and random mutations.
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

TEST_P(SnapshotRoundTripTest, StaleRepairMatchesFromScratchGeneration) {
  SnapshotFile File("snap_sweep_stale_" + std::to_string(GetParam()) +
                    ".bin");
  Grammar G;
  RandomGrammarCase Case = buildRandomGrammar(G, GetParam());
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_TRUE(Gen.saveSnapshot(File.path()));

  // The live grammar differs by one extra alternative for an existing
  // nonterminal (plus a fresh terminal, exercising the symbol remap).
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

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTripTest,
                         ::testing::Range<uint64_t>(1, 26));
