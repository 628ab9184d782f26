//===- tests/core/IncrementalTest.cpp - Incremental generation (§6) -------===//
///
/// Goldens for Fig 6.1–6.5 and the incremental ≡ from-scratch property.
///
//===----------------------------------------------------------------------===//

#include "common/GraphCanon.h"
#include "common/TestGrammars.h"
#include "core/Ipg.h"
#include "glr/GlrParser.h"

#include <gtest/gtest.h>

using namespace ipg;
using namespace ipg::testing;

TEST(Incremental, Fig61AddUnknownMarksSets045) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_EQ(Gen.graph().numComplete(), 8u);

  ASSERT_TRUE(Gen.addRule("B", {"unknown"}));
  // §6.1: "the sets of items 0, 4, and 5 are made initial, because they
  // had a transition for 'B' in their transitions field."
  EXPECT_EQ(Gen.graph().countByState(ItemSetState::Dirty), 3u);
  EXPECT_EQ(Gen.stats().DirtyMarks, 3u);
  std::vector<uint32_t> DirtyIds;
  for (const ItemSet *State : Gen.graph().liveSets())
    if (State->state() == ItemSetState::Dirty)
      DirtyIds.push_back(State->id());
  EXPECT_EQ(DirtyIds, (std::vector<uint32_t>{0, 4, 5}));
}

TEST(Incremental, Fig65ReExpansionReconnectsAndExtends) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.generateAll();
  Gen.addRule("B", {"unknown"});

  // Re-expand set 0 by asking for an action (Fig 6.5): its former
  // connections with 1, 2, 3 are re-established and a new initial set with
  // kernel {B ::= unknown •} appears.
  ItemSetGraph &Graph = Gen.graph();
  Graph.actionsView(Graph.startSet(), G.symbols().lookup("unknown"));
  EXPECT_EQ(Gen.stats().ReExpansions, 1u);
  const ItemSet *S0 = Graph.startSet();
  ASSERT_EQ(Graph.transitions(S0).size(), 4u) << "B, true, false, unknown";
  const ItemSet *UnknownTarget = nullptr;
  for (const ItemSet::Transition &T : Graph.transitions(S0))
    if (T.Label == G.symbols().lookup("unknown"))
      UnknownTarget = T.Target;
  ASSERT_NE(UnknownTarget, nullptr);
  ASSERT_EQ(Graph.kernel(UnknownTarget).size(), 1u);
  EXPECT_EQ(itemToString(Graph.kernel(UnknownTarget)[0], G),
            "B ::= unknown \xE2\x80\xA2");
  // Old sets 1, 2, 3 were reused, not regenerated.
  for (const ItemSet::Transition &T : Graph.transitions(S0))
    if (T.Label != G.symbols().lookup("unknown")) {
      EXPECT_LT(T.Target->id(), 8u) << "pre-modification sets are reused";
    }
}

TEST(Incremental, UnknownSentencesParseAfterUpdate) {
  Grammar G;
  buildBooleans(G);
  G.symbols().intern("unknown"); // Known token, not yet in any rule.
  Ipg Gen(G);
  ASSERT_TRUE(Gen.recognize(sentence(G, "true and true")));
  EXPECT_FALSE(Gen.recognize(sentence(G, "unknown or true")));
  Gen.addRule("B", {"unknown"});
  EXPECT_TRUE(Gen.recognize(sentence(G, "unknown or true")));
  EXPECT_TRUE(Gen.recognize(sentence(G, "unknown and unknown")));
}

TEST(Incremental, Fig63AddRuleSplitsSharedBState) {
  Grammar G;
  buildFig62(G);
  Ipg Gen(G);
  Gen.generateAll();
  ASSERT_EQ(Gen.graph().numComplete(), 10u);

  ASSERT_TRUE(Gen.addRule("A", {"b"}));
  // Only the set with a transition on A (the a-successor) is invalidated.
  EXPECT_EQ(Gen.graph().countByState(ItemSetState::Dirty), 1u);

  Gen.generateAll();
  // The c-branch still shares the untouched {B ::= b •} set; the a-branch
  // now reaches a split set {B ::= b •, A ::= b •}.
  ItemSetGraph &Graph = Gen.graph();
  ItemSet *S0 = Graph.startSet();
  ItemSet *CState = Graph.gotoState(S0, G.symbols().lookup("c"));
  ItemSet *AState = Graph.gotoState(S0, G.symbols().lookup("a"));
  auto BTarget = [&](ItemSet *From) -> const ItemSet * {
    for (const ItemSet::Transition &T : Graph.transitions(From))
      if (T.Label == G.symbols().lookup("b"))
        return T.Target;
    return nullptr;
  };
  const ItemSet *CB = BTarget(CState);
  const ItemSet *AB = BTarget(AState);
  ASSERT_NE(CB, nullptr);
  ASSERT_NE(AB, nullptr);
  EXPECT_NE(CB, AB) << "Fig 6.3: the shared b-state must split";
  EXPECT_EQ(Graph.kernel(CB).size(), 1u);
  EXPECT_EQ(Graph.kernel(AB).size(), 2u) << "{B ::= b•, A ::= b•}";
  EXPECT_LT(CB->id(), 10u) << "set 7 is not affected by this modification";
  // Both sentences of the extended language parse.
  EXPECT_TRUE(Gen.recognize(sentence(G, "a b")));
  EXPECT_TRUE(Gen.recognize(sentence(G, "c b")));
}

TEST(Incremental, DeleteRuleShrinksLanguage) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  ASSERT_TRUE(Gen.recognize(sentence(G, "true or false")));
  ASSERT_TRUE(Gen.deleteRule("B", {"B", "or", "B"}));
  EXPECT_FALSE(Gen.recognize(sentence(G, "true or false")));
  EXPECT_TRUE(Gen.recognize(sentence(G, "true and false")));
}

TEST(Incremental, AddThenDeleteRestoresOriginalGraph) {
  Grammar GInc;
  buildBooleans(GInc);
  Ipg Inc(GInc);
  Inc.generateAll();
  Inc.addRule("B", {"unknown"});
  Inc.recognize(sentence(GInc, "unknown or true"));
  Inc.deleteRule("B", {"unknown"});

  Grammar GFresh;
  buildBooleans(GFresh);
  ItemSetGraph Fresh(GFresh);
  EXPECT_EQ(canonicalize(Inc.graph()), canonicalize(Fresh));
}

TEST(Incremental, ModifyingStartRules) {
  Grammar G;
  GrammarBuilder B(G);
  B.rule("X", {"x"});
  B.rule("Y", {"y"});
  B.rule("START", {"X"});
  Ipg Gen(G);
  EXPECT_TRUE(Gen.recognize(sentence(G, "x")));
  EXPECT_FALSE(Gen.recognize(sentence(G, "y")));
  // MODIFY's START branch: the start kernel itself changes.
  ASSERT_TRUE(Gen.addRule("START", {"Y"}));
  EXPECT_TRUE(Gen.recognize(sentence(G, "y")));
  EXPECT_TRUE(Gen.recognize(sentence(G, "x")));
  ASSERT_TRUE(Gen.deleteRule("START", {"X"}));
  EXPECT_FALSE(Gen.recognize(sentence(G, "x")));
  EXPECT_TRUE(Gen.recognize(sentence(G, "y")));
}

TEST(Incremental, NoOpModificationsTouchNothing) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.generateAll();
  EXPECT_FALSE(Gen.addRule("B", {"true"})) << "already present";
  EXPECT_FALSE(Gen.deleteRule("B", {"maybe"})) << "never present";
  EXPECT_EQ(Gen.graph().countByState(ItemSetState::Dirty), 0u);
}

TEST(Incremental, ModificationOnLazyGraphOnlyDirtiesCompleteSets) {
  Grammar G;
  buildBooleans(G);
  Ipg Gen(G);
  Gen.recognize(sentence(G, "true and true")); // Partial expansion.
  size_t CompleteBefore = Gen.graph().numComplete();
  Gen.addRule("B", {"unknown"});
  // Initial sets need no invalidation (§6.1); only complete sets with a
  // B transition flip to dirty.
  EXPECT_LE(Gen.graph().countByState(ItemSetState::Dirty), CompleteBefore);
  EXPECT_TRUE(Gen.recognize(sentence(G, "unknown and true")));
}

TEST(Incremental, InterleavedEditsAndParses) {
  Grammar G;
  GrammarBuilder B(G);
  B.rule("S", {"a"});
  B.rule("START", {"S"});
  Ipg Gen(G);
  EXPECT_TRUE(Gen.recognize(sentence(G, "a")));
  Gen.addRule("S", {"S", "a"});
  EXPECT_TRUE(Gen.recognize(sentence(G, "a a a")));
  Gen.addRule("S", {"b"});
  EXPECT_TRUE(Gen.recognize(sentence(G, "b a a")));
  Gen.deleteRule("S", {"a"});
  EXPECT_FALSE(Gen.recognize(sentence(G, "a")));
  EXPECT_TRUE(Gen.recognize(sentence(G, "b a")));
  Gen.deleteRule("S", {"S", "a"});
  EXPECT_FALSE(Gen.recognize(sentence(G, "b a")));
  EXPECT_TRUE(Gen.recognize(sentence(G, "b")));
}

// The headline property: an incrementally maintained graph is isomorphic
// (on its reachable part) to a from-scratch graph for the final grammar,
// after any random edit script.
class IncrementalEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalEquivalenceTest, EditScriptMatchesFreshGeneration) {
  Prng Rng(GetParam() * 7919);
  Grammar GInc;
  buildRandomGrammar(GInc, GetParam());
  Ipg Inc(GInc);
  GlrParser Parser(Inc.graph());

  // A pool of candidate rules to add/remove.
  std::vector<SymbolId> Terminals, Nonterminals;
  for (SymbolId Sym = 0; Sym < GInc.symbols().size(); ++Sym) {
    if (Sym == GInc.startSymbol() || Sym == GInc.endMarker())
      continue;
    (GInc.symbols().isNonterminal(Sym) ? Nonterminals : Terminals)
        .push_back(Sym);
  }

  for (int Edit = 0; Edit < 12; ++Edit) {
    if (Rng.below(2) == 0) {
      // Random add.
      SymbolId Lhs = Nonterminals[Rng.below(Nonterminals.size())];
      std::vector<SymbolId> Rhs;
      unsigned Len = static_cast<unsigned>(Rng.below(4));
      for (unsigned I = 0; I < Len; ++I)
        Rhs.push_back(Rng.below(2) == 0
                          ? Terminals[Rng.below(Terminals.size())]
                          : Nonterminals[Rng.below(Nonterminals.size())]);
      Inc.addRule(Lhs, std::move(Rhs));
    } else {
      // Random delete of an active non-START rule.
      std::vector<RuleId> Active = GInc.activeRules();
      RuleId Pick = Active[Rng.below(Active.size())];
      if (GInc.rule(Pick).Lhs != GInc.startSymbol())
        Inc.deleteRule(GInc.rule(Pick).Lhs, GInc.rule(Pick).Rhs);
    }
    // Parse something occasionally so the graph is partially expanded in
    // interesting intermediate states.
    if (Edit % 3 == 0) {
      std::vector<SymbolId> Input = {Terminals[Rng.below(Terminals.size())]};
      Parser.recognize(Input);
    }
  }

  Grammar GFresh;
  Grammar::cloneActiveRules(GInc, GFresh);
  ItemSetGraph Fresh(GFresh);
  EXPECT_EQ(canonicalize(Inc.graph()), canonicalize(Fresh))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 31));
