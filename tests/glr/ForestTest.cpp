//===- tests/glr/ForestTest.cpp - Shared packed forest tests --------------===//

#include "common/Corpus.h"
#include "common/SmallStack.h"
#include "common/TestGrammars.h"
#include "glr/Forest.h"
#include "glr/GlrParser.h"

#include <gtest/gtest.h>

using namespace ipg;
using namespace ipg::testing;

TEST(Forest, TokenNodesAreUniquePerPosition) {
  Forest F;
  ForestNode *A = F.token(7, 3);
  ForestNode *B = F.token(7, 3);
  ForestNode *C = F.token(7, 4);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_TRUE(A->IsToken);
  EXPECT_EQ(A->Start, 3u);
  EXPECT_EQ(A->End, 4u);
}

TEST(Forest, NonterminalNodesPackOnSpan) {
  Forest F;
  ForestNode *A = F.nonterminal(9, 0, 2);
  ForestNode *B = F.nonterminal(9, 0, 2);
  ForestNode *C = F.nonterminal(9, 0, 3);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
}

TEST(Forest, UnpackedModeCreatesFreshNodes) {
  Forest F(/*PackNodes=*/false);
  ForestNode *A = F.nonterminal(9, 0, 2);
  ForestNode *B = F.nonterminal(9, 0, 2);
  EXPECT_NE(A, B) << "sharing disabled for the ablation";
}

TEST(Forest, AddAlternativeDeduplicates) {
  Forest F;
  ForestNode *T = F.token(1, 0);
  ForestNode *N = F.nonterminal(2, 0, 1);
  EXPECT_TRUE(F.addAlternative(N, 0, {T}));
  EXPECT_FALSE(F.addAlternative(N, 0, {T}));
  EXPECT_TRUE(F.addAlternative(N, 1, {T})) << "different rule is distinct";
  EXPECT_EQ(N->Alts.size(), 2u);
  EXPECT_TRUE(N->isAmbiguous());
  EXPECT_EQ(F.numPackedAmbiguities(), 1u);
}

// The bounded re-parse's graft moves old nodes to shifted spans in place:
// lookups must find them under the new key only, stamped valid for the
// current epoch.
TEST(Forest, MoveNodeRekeysInPlace) {
  Forest F;
  ForestNode *T = F.token(7, 3);
  ForestNode *N = F.nonterminal(9, 3, 4);
  ASSERT_TRUE(F.addAlternative(N, 0, {T}));
  F.beginEpoch(0); // An edit at 0 invalidates both.
  EXPECT_EQ(F.findToken(7, 3), nullptr);

  auto Same = [](ForestNode *C) { return C; };
  F.moveNode(T, 5, 6, Same);
  F.moveNode(N, 5, 6, Same);
  EXPECT_EQ(T->Start, 5u);
  EXPECT_EQ(N->End, 6u);
  EXPECT_EQ(F.findToken(7, 5), T);
  EXPECT_EQ(F.token(7, 5), T);
  EXPECT_EQ(F.nonterminal(9, 5, 6), N);
  EXPECT_EQ(F.findToken(7, 3), nullptr);
  EXPECT_NE(F.nonterminal(9, 3, 4), N);
  ASSERT_EQ(N->Alts.size(), 1u);
  EXPECT_EQ(N->Alts.first()->Children[0], T);
}

// Re-pointing can make two alternatives identical: two old seam
// derivations map to one re-stepped node. The move drops the later one,
// as addAlternative() would have.
TEST(Forest, MoveNodeDropsAlternativesThatBecomeIdentical) {
  Forest F;
  // Structurally identical children: the second is made after an edit
  // invalidated the first, as a re-parse does.
  ForestNode *C1 = F.nonterminal(3, 2, 4);
  F.beginEpoch(2);
  ForestNode *C2 = F.nonterminal(3, 2, 4);
  ASSERT_NE(C1, C2);
  ForestNode *N = F.nonterminal(2, 2, 4);
  ASSERT_TRUE(F.addAlternative(N, 0, {C1}));
  ASSERT_TRUE(F.addAlternative(N, 1, {C1}));
  ASSERT_TRUE(F.addAlternative(N, 0, {C2}));
  ASSERT_EQ(F.numAlternatives(), 3u);

  F.moveNode(N, 2, 4, [&](ForestNode *C) { return C == C1 ? C2 : C; });
  EXPECT_EQ(N->Alts.size(), 2u);
  EXPECT_EQ(F.numAlternatives(), 2u);
  EXPECT_FALSE(F.addAlternative(N, 0, {C2}));
  // The list stays well formed: a new alternative lands at the end.
  ASSERT_TRUE(F.addAlternative(N, 2, {C2}));
  std::vector<RuleId> Rules;
  for (const ForestNode::Alternative &Alt : N->Alts) {
    Rules.push_back(Alt.Rule);
    ASSERT_EQ(Alt.Children.size(), 1u);
    EXPECT_EQ(Alt.Children[0], C2);
  }
  EXPECT_EQ(Rules, (std::vector<RuleId>{0, 1, 2}));
}

TEST(Forest, CountTreesMultipliesChildren) {
  Forest F;
  // Two-way ambiguous A over [0,1) and B over [1,2); S = A B has 4 trees.
  ForestNode *TA = F.token(1, 0);
  ForestNode *TB = F.token(2, 1);
  ForestNode *A = F.nonterminal(3, 0, 1);
  F.addAlternative(A, 0, {TA});
  F.addAlternative(A, 1, {TA});
  ForestNode *B = F.nonterminal(4, 1, 2);
  F.addAlternative(B, 2, {TB});
  F.addAlternative(B, 3, {TB});
  ForestNode *S = F.nonterminal(5, 0, 2);
  F.addAlternative(S, 4, {A, B});
  EXPECT_EQ(F.countTrees(S), 4u);
}

TEST(Forest, CountTreesSaturatesAtCap) {
  Forest F;
  ForestNode *T = F.token(1, 0);
  ForestNode *N = F.nonterminal(2, 0, 1);
  F.addAlternative(N, 0, {T});
  F.addAlternative(N, 1, {N}); // Cycle.
  EXPECT_EQ(F.countTrees(N, 50), 50u);
}

TEST(Forest, EnumerateTreesProducesDistinctTrees) {
  Grammar G;
  buildAmbiguousExpr(G);
  ItemSetGraph Graph(G);
  GlrParser Parser(Graph);
  Forest F;
  GlrResult R = Parser.parse(sentence(G, "a + a + a"), F);
  ASSERT_TRUE(R.Accepted);
  TreeArena Arena;
  std::vector<TreeNode *> Trees;
  F.enumerateTrees(R.Root, 100, Arena, Trees);
  ASSERT_EQ(Trees.size(), 2u);
  EXPECT_NE(treeToString(Trees[0], G), treeToString(Trees[1], G));
  for (TreeNode *Tree : Trees) {
    std::vector<uint32_t> Yield;
    treeYield(Tree, Yield);
    EXPECT_EQ(Yield.size(), 5u);
  }
}

TEST(Forest, EnumerateTreesHonorsLimit) {
  Grammar G;
  buildAmbiguousExpr(G);
  ItemSetGraph Graph(G);
  GlrParser Parser(Graph);
  Forest F;
  GlrResult R = Parser.parse(sentence(G, "a + a + a + a + a"), F);
  ASSERT_TRUE(R.Accepted);
  ASSERT_EQ(F.countTrees(R.Root), 14u);
  TreeArena Arena;
  std::vector<TreeNode *> Trees;
  F.enumerateTrees(R.Root, 5, Arena, Trees);
  EXPECT_EQ(Trees.size(), 5u);
}

TEST(Forest, FirstTreeOnNullRootIsNull) {
  Forest F;
  TreeArena Arena;
  EXPECT_EQ(F.firstTree(nullptr, Arena), nullptr);
  EXPECT_EQ(F.countTrees(nullptr), 0u);
}

TEST(Forest, SharingShrinksNodeCount) {
  Grammar G;
  buildAmbiguousExpr(G);
  std::vector<SymbolId> Input = sentence(G, "a + a + a + a + a + a");

  ItemSetGraph Graph1(G);
  GlrParser P1(Graph1);
  Forest Shared(/*PackNodes=*/true);
  ASSERT_TRUE(P1.parse(Input, Shared).Accepted);

  Grammar G2;
  buildAmbiguousExpr(G2);
  ItemSetGraph Graph2(G2);
  GlrParser P2(Graph2);
  Forest Unshared(/*PackNodes=*/false);
  ASSERT_TRUE(P2.parse(Input, Unshared).Accepted);

  EXPECT_LT(Shared.numNodes(), Unshared.numNodes())
      << "packing must reduce forest size on ambiguous input";
}

namespace {

/// Leaves under \p Root, counted without recursion.
size_t leafCount(const TreeNode *Root) {
  size_t Leaves = 0;
  std::vector<const TreeNode *> Work{Root};
  while (!Work.empty()) {
    const TreeNode *Node = Work.back();
    Work.pop_back();
    if (Node->isLeaf())
      ++Leaves;
    for (const TreeNode *Child : Node->Children)
      Work.push_back(Child);
  }
  return Leaves;
}

} // namespace

// Forest depth must be bounded by memory, not by the walking thread's
// stack: a 50k-element JSON list (a left-recursive Elements chain) and
// 50k-deep array nesting are walked on a 256 KB stack.
TEST(Forest, DeepForestsWalkOnASmallStack) {
  Grammar G;
  Expected<std::vector<CorpusCase>> Corpus = loadCorpusDir(IPG_CORPUS_DIR);
  ASSERT_TRUE(Corpus);
  bool Built = false;
  for (const CorpusCase &Case : *Corpus)
    if (Case.Name == "json")
      Built = bool(Case.build(G));
  ASSERT_TRUE(Built);
  const SymbolId Open = G.symbols().lookup("[");
  const SymbolId Close = G.symbols().lookup("]");
  const SymbolId Comma = G.symbols().lookup(",");
  const SymbolId Number = G.symbols().lookup("number");
  constexpr size_t N = 50000;

  std::vector<SymbolId> List{Open};
  for (size_t I = 0; I < N; ++I) {
    if (I != 0)
      List.push_back(Comma);
    List.push_back(Number);
  }
  List.push_back(Close);
  std::vector<SymbolId> Nested(N, Open);
  Nested.insert(Nested.end(), N, Close);

  for (const std::vector<SymbolId> *Input : {&List, &Nested}) {
    ItemSetGraph Graph(G);
    GlrParser Parser(Graph);
    Forest F;
    GlrResult R = Parser.parse(*Input, F);
    ASSERT_TRUE(R.Accepted);

    uint64_t Trees = 0;
    size_t FirstLeaves = 0, Enumerated = 0, EnumeratedLeaves = 0;
    TreeArena Arena;
    ASSERT_TRUE(runOnSmallStack(256 * 1024, [&] {
      Trees = F.countTrees(R.Root);
      if (const TreeNode *T = F.firstTree(R.Root, Arena))
        FirstLeaves = leafCount(T);
      std::vector<TreeNode *> Out;
      F.enumerateTrees(R.Root, 1, Arena, Out);
      Enumerated = Out.size();
      if (!Out.empty())
        EnumeratedLeaves = leafCount(Out.front());
    }));
    EXPECT_EQ(Trees, 1u);
    EXPECT_EQ(FirstLeaves, Input->size());
    EXPECT_EQ(Enumerated, 1u);
    EXPECT_EQ(EnumeratedLeaves, Input->size());
  }
}
