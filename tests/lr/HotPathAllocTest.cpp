//===- tests/lr/HotPathAllocTest.cpp - Allocation-free ACTION/GOTO --------===//
///
/// \file
/// The steady-state query-path contract behind the §5 cost argument: once
/// a set of items is Complete, ACTION (actionsView / forEachAction) and
/// GOTO perform ZERO heap allocations. Enforced by replacing the global
/// operator new with a counting one (CountingNew.cpp) — this suite must
/// therefore stay in its own test executable (see tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "CountingNew.h"

#include "common/Corpus.h"
#include "common/GraphWalk.h"
#include "common/TestGrammars.h"
#include "core/Ipg.h"
#include "incremental/ParseDocument.h"
#include "lr/ItemSetGraph.h"
#include "sdf/Samples.h"
#include "sdf/SdfLanguage.h"
#include "sdf/SdfLexer.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace ipg;
using namespace ipg::testing;

namespace {

/// Counts allocations across \p Fn; the EXPECT runs outside the window so
/// gtest's own bookkeeping never leaks into the measurement.
template <typename FnT> unsigned long long allocationsDuring(FnT &&Fn) {
  unsigned long long Before = allocationCount();
  Fn();
  return allocationCount() - Before;
}

TEST(HotPathAlloc, CountingOperatorNewIsLive) {
  unsigned long long Allocs = allocationsDuring([] {
    // The volatile pointer escapes, so the pair cannot be elided.
    std::vector<int> *volatile V = new std::vector<int>(100, 7);
    delete V;
  });
  EXPECT_GE(Allocs, 2ull) << "the counting operator new must be installed";
}

TEST(HotPathAlloc, SteadyStateActionAndGotoQueriesAreAllocationFree) {
  Grammar G;
  buildArith(G);
  ItemSetGraph Graph(G);
  Graph.generateAll();

  // Materialize the query plan (states, terminals, goto pairs) before the
  // measured window; the drivers hold equivalent state in their stacks.
  std::vector<ItemSet *> Sets =
      reachableSets(Graph, /*FollowOldTransitions=*/false);
  std::vector<SymbolId> Terminals;
  for (SymbolId Sym = 0; Sym < G.symbols().size(); ++Sym)
    if (G.symbols().isTerminal(Sym))
      Terminals.push_back(Sym);
  std::vector<std::pair<ItemSet *, SymbolId>> Gotos;
  for (ItemSet *State : Sets)
    for (ItemSet::Transition T : Graph.transitions(State))
      if (G.symbols().isNonterminal(T.Label))
        Gotos.emplace_back(State, T.Label);
  ASSERT_FALSE(Sets.empty());
  ASSERT_FALSE(Gotos.empty());

  size_t ActionsSeen = 0;
  uintptr_t Sink = 0;
  unsigned long long Allocs = allocationsDuring([&] {
    for (int Round = 0; Round < 16; ++Round) {
      for (ItemSet *State : Sets)
        for (SymbolId Sym : Terminals) {
          LrActionsView View = Graph.actionsView(State, Sym);
          View.forEach([&](const LrAction &A) {
            ++ActionsSeen;
            Sink ^= reinterpret_cast<uintptr_t>(A.Target) ^ A.Rule;
          });
          Graph.forEachAction(State, Sym,
                              [&](const LrAction &A) { Sink ^= A.Kind; });
        }
      for (auto &[State, Sym] : Gotos)
        Sink ^= reinterpret_cast<uintptr_t>(Graph.gotoState(State, Sym));
    }
  });
  EXPECT_EQ(Allocs, 0ull)
      << "steady-state ACTION/GOTO must not touch the heap";
  EXPECT_GT(ActionsSeen, 0u);
  volatile uintptr_t Guard = Sink; // Keep the queries observable.
  (void)Guard;
}

TEST(HotPathAlloc, LazyFirstQueryMayAllocateButSecondDoesNot) {
  Grammar G;
  buildBooleans(G);
  ItemSetGraph Graph(G);
  SymbolId True = G.symbols().lookup("true");

  // First query on a lazy graph EXPANDs the start set — allocation is
  // expected and allowed there (§5 moves the cost, it does not hide it).
  unsigned long long ColdAllocs = allocationsDuring(
      [&] { Graph.actionsView(Graph.startSet(), True); });
  EXPECT_GT(ColdAllocs, 0ull);

  // The second query of the same cell is steady-state: zero allocations.
  unsigned long long WarmAllocs = allocationsDuring([&] {
    for (int I = 0; I < 100; ++I)
      Graph.actionsView(Graph.startSet(), True);
  });
  EXPECT_EQ(WarmAllocs, 0ull);
}

// The always-on metrics contract: a counter bump through the cached
// reference is heap-free (it is a sharded relaxed load+store), so the
// library may bump on EXPAND/MODIFY paths without violating this suite.
TEST(HotPathAlloc, MetricsCounterBumpIsAllocationFree) {
  MetricCounter &C =
      MetricsRegistry::process().counter("test.hotpath.bump"); // May alloc.
  LatencyHistogram &H =
      MetricsRegistry::process().histogram("test.hotpath.hist");
  unsigned long long Allocs = allocationsDuring([&] {
    for (int I = 0; I < 1000; ++I)
      C.bump();
    H.record(1500);
  });
  EXPECT_EQ(Allocs, 0ull) << "metric updates must not touch the heap";
  EXPECT_EQ(C.total(), 1000u);
}

// The tracing-side contract. Compiled out, the macros are nothing and the
// claim is vacuous; compiled in, (a) dormant spans cost no allocation and
// record no event, and (b) even *recording* spans stay heap-free once the
// thread's ring exists (the ring itself is the tracer's only allocation).
TEST(HotPathAlloc, TraceSpansAreAllocationFree) {
  if (!trace::compiledIn()) {
    SUCCEED() << "tracer compiled out; macros expand to nothing";
    return;
  }
  trace::stop();
  unsigned long long DormantAllocs = allocationsDuring([] {
    for (int I = 0; I < 1000; ++I) {
      IPG_TRACE_SPAN(Sp, "hotpath.dormant");
    }
  });
  EXPECT_EQ(DormantAllocs, 0ull)
      << "a dormant span must not touch the heap";
  EXPECT_EQ(trace::eventCount("hotpath.dormant"), 0u);

  trace::clear();
  trace::start();
  { IPG_TRACE_SPAN(Warm, "hotpath.preheat"); } // Creates this thread's ring.
  unsigned long long RecordingAllocs = allocationsDuring([] {
    for (int I = 0; I < 100; ++I) {
      IPG_TRACE_SPAN(Sp, "hotpath.recording");
      IPG_TRACE_SPAN_ARG(Sp, I);
    }
  });
  trace::stop();
  EXPECT_EQ(RecordingAllocs, 0ull)
      << "recording into a preheated ring must not allocate";
  EXPECT_EQ(trace::eventCount("hotpath.recording"), 100u);
  trace::clear();
}

// The combined claim the observability PR rides on: with tracing compiled
// in but dormant and metrics registered, the steady-state ACTION/GOTO
// sweep of SteadyStateActionAndGotoQueriesAreAllocationFree still holds —
// the instrumentation added to EXPAND/MODIFY left the query path with
// zero new instructions, allocations, or events.
TEST(HotPathAlloc, SteadyStateQueriesStayCleanUnderDormantTracing) {
  Grammar G;
  buildBooleans(G);
  ItemSetGraph Graph(G);
  Graph.generateAll();
  SymbolId True = G.symbols().lookup("true");
  Graph.actionsView(Graph.startSet(), True); // Warm up.

  uint64_t EventsBefore = trace::eventCount();
  unsigned long long Allocs = allocationsDuring([&] {
    for (int I = 0; I < 1000; ++I) {
      Graph.actionsView(Graph.startSet(), True);
      Graph.gotoState(Graph.startSet(), True);
    }
  });
  EXPECT_EQ(Allocs, 0ull);
  EXPECT_EQ(trace::eventCount(), EventsBefore)
      << "steady-state queries must record no trace events";
}

TEST(HotPathAlloc, MaterializingActionsIntoAVectorAllocates) {
  // The ablation the deleted vector-returning actions() wrapper used to
  // document: materializing ACTION into a container cannot be
  // allocation-free when actions exist — which is why the view is now
  // the only query API.
  Grammar G;
  buildBooleans(G);
  ItemSetGraph Graph(G);
  Graph.generateAll();
  SymbolId True = G.symbols().lookup("true");
  uintptr_t Sink = 0;
  auto Materialize = [&] {
    std::vector<LrAction> Out;
    Graph.forEachAction(Graph.startSet(), True,
                        [&](const LrAction &A) { Out.push_back(A); });
    for (const LrAction &A : Out)
      Sink ^= reinterpret_cast<uintptr_t>(A.Target) ^ A.Rule;
  };
  Materialize(); // Warm up.
  unsigned long long Allocs = allocationsDuring(Materialize);
  EXPECT_GT(Allocs, 0ull);
  volatile uintptr_t Guard = Sink; // Keep the queries observable.
  (void)Guard;
}

// The parse side's storage contract: once the table is warm and the
// engine's pools have seen a parse of this size, Ipg::parse into a fresh
// Forest allocates only for the forest's own pools (a few geometric
// chunks each), never per token, node or reduction.
TEST(HotPathAlloc, WarmSdfParseIntoFreshForestMakesConstantAllocations) {
  SdfLanguage Lang;
  Scanner Lexer;
  configureSdfScanner(Lexer);
  Ipg Gen(Lang.grammar());
  std::vector<std::vector<SymbolId>> Inputs;
  for (const SdfSample &Sample : sdfSamples()) {
    Expected<std::vector<SymbolId>> Tokens =
        Lexer.tokenizeToSymbols(Sample.Text, Lang.grammar());
    ASSERT_TRUE(Tokens) << Sample.Name;
    Inputs.push_back(Tokens.take());
    Forest F;
    ASSERT_TRUE(Gen.parse(Inputs.back(), F).Accepted) << Sample.Name;
  }
  for (size_t I = 0; I < Inputs.size(); ++I) {
    bool Accepted = false;
    unsigned long long Allocs = allocationsDuring([&] {
      Forest F;
      Accepted = Gen.parse(Inputs[I], F).Accepted;
    });
    EXPECT_TRUE(Accepted);
    EXPECT_LE(Allocs, 64ull)
        << sdfSamples()[I].Name << " (" << Inputs[I].size() << " tokens)";
  }
}

// The keystroke path's storage contract: once a session has grafted, a
// mid-document single-token graft reuses the engine's and the forest's
// pools and the convergence maps, and it moves the old suffix forest
// instead of copying it. So it makes a few allocations, never one per
// suffix node.
TEST(HotPathAlloc, WarmMidDocumentGraftMakesConstantAllocations) {
  Expected<std::vector<CorpusCase>> Corpus = loadCorpusDir(IPG_CORPUS_DIR);
  ASSERT_TRUE(Corpus);
  auto Json = std::find_if(Corpus->begin(), Corpus->end(), [](auto &C) {
    return C.Name == "json";
  });
  ASSERT_NE(Json, Corpus->end());
  Grammar G;
  ASSERT_TRUE(Json->build(G));
  std::string Text = Json->Bench.Prefix;
  for (int I = 0; I < 300; ++I) {
    Text += ' ';
    Text += Json->Bench.Unit;
  }
  Text += ' ';
  Text += Json->Bench.Suffix;

  Ipg Gen(G);
  ParseDocument Doc(Gen.graph());
  Doc.setTokens(sentence(G, Text));
  ASSERT_TRUE(Doc.reparse().Accepted);
  const SymbolId Number = G.symbols().lookup("number");
  const SymbolId True = G.symbols().lookup("true");
  size_t Mid = Doc.size() / 2;
  while (Doc.tokens()[Mid] != Number)
    ++Mid;

  // Warm-up: the first graft sizes the convergence maps.
  Doc.replace(Mid, Mid + 1, ArrayView<SymbolId>(&True, 1));
  ASSERT_TRUE(Doc.reparse().Accepted);
  ASSERT_EQ(Doc.lastReparse().Path, ReparseStats::Grafted);

  bool Accepted = false;
  unsigned long long Allocs = allocationsDuring([&] {
    Doc.replace(Mid, Mid + 1, ArrayView<SymbolId>(&Number, 1));
    Accepted = Doc.reparse().Accepted;
  });
  EXPECT_TRUE(Accepted);
  EXPECT_EQ(Doc.lastReparse().Path, ReparseStats::Grafted);
  EXPECT_LE(Allocs, 64ull) << Doc.size() << " tokens";
}

} // namespace
