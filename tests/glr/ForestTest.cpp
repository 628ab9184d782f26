//===- tests/glr/ForestTest.cpp - Shared packed forest tests --------------===//

#include "common/Corpus.h"
#include "common/TestGrammars.h"
#include "glr/Forest.h"
#include "glr/GlrParser.h"

#include <gtest/gtest.h>

#include <pthread.h>

#include <functional>

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

/// Runs \p Fn on one thread whose stack is \p StackBytes, and joins it.
bool runOnSmallStack(size_t StackBytes, std::function<void()> Fn) {
  pthread_attr_t Attr;
  if (pthread_attr_init(&Attr) != 0)
    return false;
  bool Ok = pthread_attr_setstacksize(&Attr, StackBytes) == 0;
  pthread_t Thread;
  Ok = Ok && pthread_create(
                 &Thread, &Attr,
                 [](void *Arg) -> void * {
                   (*static_cast<std::function<void()> *>(Arg))();
                   return nullptr;
                 },
                 &Fn) == 0;
  pthread_attr_destroy(&Attr);
  return Ok && pthread_join(Thread, nullptr) == 0;
}

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
