//===- tests/incremental/ParseDocumentTest.cpp - Bounded re-parse ---------===//
///
/// The incremental parse-session contract: every edit path (scratch,
/// resume, graft, continue-suspended) must agree with a from-scratch
/// parse of the same buffer on verdict, tree counts and — for the
/// deterministic corpus grammars — the canonical forest itself. Plus the
/// headline reuse property: a single-token edit in the middle of a large
/// input re-parses with a small fraction of the GSS work.
///
//===----------------------------------------------------------------------===//

#include "incremental/ParseDocument.h"

#include "common/Corpus.h"
#include "common/ForestCanon.h"
#include "common/ForestSpans.h"
#include "common/SmallStack.h"
#include "common/TestGrammars.h"
#include "core/Ipg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace ipg;
using namespace ipg::testing;

namespace {

constexpr uint64_t TreeCap = 100000;

/// A from-scratch reference parse over the same (shared, lazily growing)
/// graph. Returns the result; the forest lands in \p RF.
GlrResult referenceParse(ItemSetGraph &Graph,
                         const std::vector<SymbolId> &Tokens, Forest &RF) {
  GlrParser Ref(Graph);
  return Ref.parse(TokenView(Tokens), RF);
}

/// Asserts the document's last result matches a from-scratch parse of
/// its current buffer: verdict, error position, tree count and (when
/// \p CompareCanon) the canonical forest text.
void expectMatchesScratch(ParseDocument &Doc, bool CompareCanon,
                          const std::string &Context) {
  Forest RF;
  GlrResult Ref = referenceParse(Doc.graph(), Doc.tokens(), RF);
  const GlrResult &Got = Doc.result();
  ASSERT_EQ(Ref.Accepted, Got.Accepted) << Context;
  if (!Ref.Accepted) {
    EXPECT_EQ(Ref.ErrorIndex, Got.ErrorIndex) << Context;
    return;
  }
  ASSERT_NE(Got.Root, nullptr) << Context;
  EXPECT_EQ(RF.countTrees(Ref.Root, TreeCap),
            Doc.forest().countTrees(Got.Root, TreeCap))
      << Context;
  if (CompareCanon) {
    EXPECT_EQ(canonForest(Ref.Root), canonForest(Got.Root)) << Context;
  }
}

/// Pumped corpus input: Prefix + Unit*Repeat + Suffix, resolved to ids.
std::vector<SymbolId> pumpedTokens(const Grammar &G, const CorpusCase &Case,
                                   unsigned Repeat) {
  std::string Text = Case.Bench.Prefix;
  for (unsigned I = 0; I < Repeat; ++I) {
    Text += ' ';
    Text += Case.Bench.Unit;
  }
  Text += ' ';
  Text += Case.Bench.Suffix;
  return sentence(G, Text);
}

/// Loads one corpus grammar by name into \p G.
CorpusCase loadCase(const std::string &Name, Grammar &G) {
  Expected<std::vector<CorpusCase>> Corpus = loadCorpusDir(IPG_CORPUS_DIR);
  EXPECT_TRUE(Corpus) << (Corpus ? "" : Corpus.error().str());
  for (const CorpusCase &Case : *Corpus)
    if (Case.Name == Name) {
      Expected<size_t> Built = Case.build(G);
      EXPECT_TRUE(Built) << (Built ? "" : Built.error().str());
      return Case;
    }
  ADD_FAILURE() << "corpus grammar not found: " << Name;
  return CorpusCase();
}

TEST(ParseDocumentTest, ScratchParseMatchesReference) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, "true or false and true"));
  const GlrResult &R = Doc.reparse();
  EXPECT_TRUE(R.Accepted);
  EXPECT_EQ(Doc.lastReparse().Path, ReparseStats::Scratch);
  expectMatchesScratch(Doc, /*CompareCanon=*/true, "booleans scratch");
}

TEST(ParseDocumentTest, RejectionReportsErrorIndex) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, "true or or false"));
  EXPECT_FALSE(Doc.reparse().Accepted);
  expectMatchesScratch(Doc, true, "booleans reject");
}

TEST(ParseDocumentTest, SingleTokenEditGraftsWithBoundedWork) {
  Grammar G;
  CorpusCase Case = loadCase("json", G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());

  std::vector<SymbolId> Tokens = pumpedTokens(G, Case, 300);
  ASSERT_GE(Tokens.size(), 500u);
  Doc.setTokens(Tokens);
  ASSERT_TRUE(Doc.reparse().Accepted);

  // From-scratch cost of this input, for the reuse ratio.
  Forest ScratchF;
  GlrResult Scratch = referenceParse(Gen.graph(), Tokens, ScratchF);
  ASSERT_TRUE(Scratch.Accepted);

  // Replace one `number` near the middle with `true` — a one-token edit
  // that keeps the buffer in the language.
  const SymbolId Number = G.symbols().lookup("number");
  const SymbolId True = G.symbols().lookup("true");
  ASSERT_NE(Number, InvalidSymbol);
  ASSERT_NE(True, InvalidSymbol);
  size_t Mid = Tokens.size() / 2;
  while (Doc.tokens()[Mid] != Number)
    ++Mid;
  Doc.replace(Mid, Mid + 1, ArrayView<SymbolId>(&True, 1));

  ASSERT_TRUE(Doc.reparse().Accepted);
  const ReparseStats &Stats = Doc.lastReparse();
  EXPECT_EQ(Stats.Path, ReparseStats::Grafted);
  EXPECT_EQ(Stats.ResumedAt, Mid);
  // The acceptance bar: at least 5x fewer GSS node constructions than a
  // from-scratch parse of the edited buffer.
  EXPECT_LE(Stats.GssNodesConstructed * 5, Scratch.GssNodes)
      << "grafted " << Stats.GssNodesConstructed << " vs scratch "
      << Scratch.GssNodes;
  // The old suffix forest moves into place: the forest nodes made are
  // those of the re-stepped layers, not of the suffix (a copying graft
  // made about one per suffix token).
  EXPECT_LE(Stats.ForestNodesCreated, 32u);
  EXPECT_EQ(forestSpanViolation(Doc.result().Root, Doc.tokens()), "");
  expectMatchesScratch(Doc, true, "json single-token graft");
}

// The graft walks the suffix forest on an explicit stack: a document
// nested 50k deep, edited near its start, re-parses on a 256 KB stack.
TEST(ParseDocumentTest, DeepNestingGraftsOnASmallStack) {
  Grammar G;
  loadCase("json", G);
  Ipg Gen(G);
  const SymbolId Open = G.symbols().lookup("[");
  const SymbolId Close = G.symbols().lookup("]");
  const SymbolId Number = G.symbols().lookup("number");
  constexpr size_t Depth = 50000;
  std::vector<SymbolId> Tokens(Depth, Open);
  Tokens.push_back(Number);
  Tokens.insert(Tokens.end(), Depth, Close);

  ParseDocument Doc(Gen.graph());
  Doc.setTokens(Tokens);
  ASSERT_TRUE(Doc.reparse().Accepted);
  Doc.replace(2, 3, ArrayView<SymbolId>(&Open, 1));
  bool Accepted = false;
  ASSERT_TRUE(runOnSmallStack(256 * 1024,
                              [&] { Accepted = Doc.reparse().Accepted; }));
  EXPECT_EQ(Doc.lastReparse().Path, ReparseStats::Grafted);

  Forest RF;
  GlrResult Ref = referenceParse(Gen.graph(), Doc.tokens(), RF);
  ASSERT_EQ(Ref.Accepted, Accepted);
  EXPECT_EQ(RF.countTrees(Ref.Root, TreeCap),
            Doc.forest().countTrees(Doc.result().Root, TreeCap));
  EXPECT_EQ(forestSpanViolation(Doc.result().Root, Doc.tokens()), "");
}

TEST(ParseDocumentTest, InsertAndEraseChangeLength) {
  Grammar G;
  CorpusCase Case = loadCase("json", G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(pumpedTokens(G, Case, 60));
  ASSERT_TRUE(Doc.reparse().Accepted);

  // Insert ", number" after an existing element: Delta = +2.
  std::vector<SymbolId> Ins = sentence(G, ", number");
  Doc.insert(Doc.size() / 2 - 1, ArrayView<SymbolId>(Ins.data(), Ins.size()));
  ASSERT_TRUE(Doc.reparse().Accepted);
  EXPECT_NE(Doc.lastReparse().Path, ReparseStats::Scratch);
  expectMatchesScratch(Doc, true, "json insert");

  // Erase a ", number" pair: Delta = -2.
  const SymbolId Comma = G.symbols().lookup(",");
  size_t At = Doc.size() / 2;
  while (Doc.tokens()[At] != Comma)
    ++At;
  Doc.erase(At, At + 2);
  ASSERT_TRUE(Doc.reparse().Accepted);
  expectMatchesScratch(Doc, true, "json erase");
}

TEST(ParseDocumentTest, EditAtBufferEnd) {
  Grammar G;
  CorpusCase Case = loadCase("c_subset", G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(pumpedTokens(G, Case, 40));
  ASSERT_TRUE(Doc.reparse().Accepted);
  const uint64_t FullNodes = Doc.result().GssNodes;

  // Append one more statement: the damage begins at the last checkpoint,
  // so only the new tokens are stepped.
  std::vector<SymbolId> Stmt = sentence(G, "id = id + num ;");
  Doc.insert(Doc.size(), ArrayView<SymbolId>(Stmt.data(), Stmt.size()));
  ASSERT_TRUE(Doc.reparse().Accepted);
  EXPECT_EQ(Doc.lastReparse().Path, ReparseStats::Resumed);
  EXPECT_LT(Doc.lastReparse().GssNodesConstructed, FullNodes / 2);
  expectMatchesScratch(Doc, true, "c_subset append");

  // Delete from the end: nothing at all needs re-stepping.
  Doc.erase(Doc.size() - Stmt.size(), Doc.size());
  ASSERT_TRUE(Doc.reparse().Accepted);
  EXPECT_EQ(Doc.lastReparse().GssNodesConstructed, 0u);
  expectMatchesScratch(Doc, true, "c_subset truncate");
}

TEST(ParseDocumentTest, EditAtPositionZero) {
  Grammar G;
  CorpusCase Case = loadCase("json", G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(pumpedTokens(G, Case, 30));
  ASSERT_TRUE(Doc.reparse().Accepted);
  // Replace the opening bracket with itself-plus-noise and back: damage
  // at token 0 restores checkpoint 0 — still sound, nothing reusable
  // to the left.
  const SymbolId LBrace = G.symbols().lookup("{");
  ASSERT_NE(LBrace, InvalidSymbol);
  Doc.replace(0, 1, ArrayView<SymbolId>(&LBrace, 1));
  EXPECT_FALSE(Doc.reparse().Accepted); // "{ number , ..." is not JSON.
  expectMatchesScratch(Doc, true, "json damaged head");
}

TEST(ParseDocumentTest, RejectThenRepair) {
  Grammar G;
  buildArith(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, "id + id * ( id + id )"));
  ASSERT_TRUE(Doc.reparse().Accepted);

  // Break it: drop the closing paren.
  Doc.erase(Doc.size() - 1, Doc.size());
  EXPECT_FALSE(Doc.reparse().Accepted);
  expectMatchesScratch(Doc, true, "arith broken");

  // Fix it again.
  const SymbolId RParen = G.symbols().lookup(")");
  Doc.insert(Doc.size(), RParen);
  EXPECT_TRUE(Doc.reparse().Accepted);
  expectMatchesScratch(Doc, true, "arith repaired");
}

TEST(ParseDocumentTest, SuspendAndFinish) {
  Grammar G;
  CorpusCase Case = loadCase("sql_select", G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(pumpedTokens(G, Case, 50));

  ASSERT_TRUE(Doc.advanceTo(Doc.size() / 2));
  EXPECT_TRUE(Doc.suspended());
  EXPECT_EQ(Doc.position(), Doc.size() / 2);

  ASSERT_TRUE(Doc.reparse().Accepted);
  EXPECT_FALSE(Doc.suspended());
  expectMatchesScratch(Doc, true, "sql suspend+finish");
}

TEST(ParseDocumentTest, EditBeyondSuspensionPointContinues) {
  Grammar G;
  CorpusCase Case = loadCase("sql_select", G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(pumpedTokens(G, Case, 50));
  const size_t Half = Doc.size() / 2;
  ASSERT_TRUE(Doc.advanceTo(Half));
  const uint64_t NodesAtHalf = Doc.engine().result().GssNodes;

  // An edit wholly beyond the parse point never invalidates the prefix.
  const SymbolId Name = G.symbols().lookup("name");
  size_t At = Doc.size() - 2;
  while (Doc.tokens()[At] != Name)
    --At;
  ASSERT_GT(At, Half);
  Doc.replace(At, At + 1, ArrayView<SymbolId>(&Name, 1));
  ASSERT_TRUE(Doc.reparse().Accepted);
  EXPECT_EQ(Doc.lastReparse().Path, ReparseStats::Resumed);
  EXPECT_EQ(Doc.lastReparse().ResumedAt, Half);
  EXPECT_EQ(Doc.engine().result().GssNodes - NodesAtHalf,
            Doc.lastReparse().GssNodesConstructed);
  expectMatchesScratch(Doc, true, "sql edit-beyond-suspension");
}

TEST(ParseDocumentTest, UnchangedReparseIsFree) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, "true and false"));
  ASSERT_TRUE(Doc.reparse().Accepted);
  const ForestNode *Root = Doc.result().Root;
  ASSERT_TRUE(Doc.reparse().Accepted);
  EXPECT_EQ(Doc.lastReparse().Path, ReparseStats::Unchanged);
  EXPECT_EQ(Doc.lastReparse().GssNodesConstructed, 0u);
  EXPECT_EQ(Doc.result().Root, Root);
}

TEST(ParseDocumentTest, MergedEditsPaySingleWindow) {
  Grammar G;
  CorpusCase Case = loadCase("json", G);
  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(pumpedTokens(G, Case, 80));
  ASSERT_TRUE(Doc.reparse().Accepted);

  // Two edits before one reparse: damage merges into one window.
  const SymbolId True = G.symbols().lookup("true");
  const SymbolId Number = G.symbols().lookup("number");
  size_t A = Doc.size() / 3;
  while (Doc.tokens()[A] != Number)
    ++A;
  Doc.replace(A, A + 1, ArrayView<SymbolId>(&True, 1));
  size_t B = Doc.size() / 2;
  while (Doc.tokens()[B] != Number)
    ++B;
  Doc.replace(B, B + 1, ArrayView<SymbolId>(&True, 1));
  ASSERT_TRUE(Doc.reparse().Accepted);
  EXPECT_EQ(Doc.lastReparse().ResumedAt, A);
  expectMatchesScratch(Doc, true, "json merged edits");
}

//===----------------------------------------------------------------------===//
// The property sweep: fuzzed edit scripts over the corpus, incremental ≡
// from-scratch after every reparse. Edit content is sampled from the
// original buffer, so scripts wander in and out of the language.
//===----------------------------------------------------------------------===//

struct SweepCase {
  const char *Name;
  unsigned Repeat;
  bool Canon; ///< Deterministic grammars also compare canonical forests.
};

/// Printed as its name, so test ids are stable across builds.
void PrintTo(const SweepCase &Case, std::ostream *OS) { *OS << Case.Name; }

class ParseDocumentSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ParseDocumentSweep, FuzzedEditScriptsMatchScratch) {
  const SweepCase &Sweep = GetParam();
  Grammar G;
  CorpusCase Case = loadCase(Sweep.Name, G);
  ASSERT_FALSE(Case.Name.empty());

  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Grammar GS;
    Grammar::cloneExact(G, GS);
    Ipg Gen(GS);
    ParseDocument Doc(Gen.graph());
    std::vector<SymbolId> Base = Case.Bench.Repeat != 0
                                     ? pumpedTokens(GS, Case, Sweep.Repeat)
                                     : sentence(GS, Case.Accept.front());
    ASSERT_FALSE(Base.empty());
    Doc.setTokens(Base);
    Doc.reparse();
    expectMatchesScratch(Doc, Sweep.Canon,
                         std::string(Sweep.Name) + " seed baseline");
    EXPECT_EQ(forestSpanViolation(Doc.result().Root, Doc.tokens()), "")
        << Sweep.Name << " seed baseline";

    Prng Rng(Seed * 7919 + 17);
    for (int Step = 0; Step < 12; ++Step) {
      // One or two edits (30% chance of a merged pair), then reparse.
      const int Edits = Rng.below(10) < 3 ? 2 : 1;
      for (int E = 0; E < Edits; ++E) {
        const size_t Size = Doc.size();
        const size_t Begin = Rng.below(Size + 1);
        const size_t Len = std::min(Rng.below(4), Size - Begin);
        std::vector<SymbolId> Repl;
        for (uint64_t I = 0, NewLen = Rng.below(4); I < NewLen; ++I)
          Repl.push_back(Base[Rng.below(Base.size())]);
        if (Len == 0 && Repl.empty())
          continue;
        Doc.replace(Begin, Begin + Len,
                    ArrayView<SymbolId>(Repl.data(), Repl.size()));
      }
      Doc.reparse();
      expectMatchesScratch(Doc, Sweep.Canon,
                           std::string(Sweep.Name) + " seed " +
                               std::to_string(Seed) + " step " +
                               std::to_string(Step));
      // Tree counts cannot see a wrongly shifted span; this can.
      EXPECT_EQ(forestSpanViolation(Doc.result().Root, Doc.tokens()), "")
          << Sweep.Name << " seed " << Seed << " step " << Step;
      if (::testing::Test::HasFailure())
        return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ParseDocumentSweep,
    ::testing::Values(SweepCase{"json", 40, true},
                      SweepCase{"c_subset", 25, true},
                      SweepCase{"sql_select", 30, true},
                      SweepCase{"ambiguous_expr", 12, false},
                      SweepCase{"palindrome", 14, false},
                      SweepCase{"hidden_left", 20, false},
                      SweepCase{"dangling_else", 12, false}),
    [](const ::testing::TestParamInfo<SweepCase> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
